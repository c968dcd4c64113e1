// Tests for the small common utilities: Stopwatch, MemoryMeter,
// FormatBytes, StrAppendf and JsonEscape.

#include <gtest/gtest.h>

#include <thread>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/tracking_allocator.h"

namespace chronicle {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  int64_t nanos = watch.ElapsedNanos();
  EXPECT_GE(nanos, 4000000);     // at least ~4ms
  EXPECT_LT(nanos, 5000000000);  // sanity: under 5s
  EXPECT_GE(watch.ElapsedMillis(), 4.0);
  EXPECT_GT(watch.ElapsedMicros(), watch.ElapsedMillis());
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
}

TEST(StopwatchTest, StartResetsOrigin) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  watch.Start();
  EXPECT_LT(watch.ElapsedNanos(), 3000000);
}

TEST(StopwatchTest, Monotone) {
  Stopwatch watch;
  int64_t prev = watch.ElapsedNanos();
  for (int i = 0; i < 100; ++i) {
    int64_t now = watch.ElapsedNanos();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(MemoryMeterTest, TracksCurrentAndPeak) {
  MemoryMeter meter;
  EXPECT_EQ(meter.current(), 0u);
  meter.Add(100);
  meter.Add(50);
  EXPECT_EQ(meter.current(), 150u);
  EXPECT_EQ(meter.peak(), 150u);
  meter.Sub(120);
  EXPECT_EQ(meter.current(), 30u);
  EXPECT_EQ(meter.peak(), 150u);  // peak sticks
  meter.Add(10);
  EXPECT_EQ(meter.peak(), 150u);
}

TEST(MemoryMeterTest, SubClampsAtZero) {
  MemoryMeter meter;
  meter.Add(10);
  meter.Sub(100);
  EXPECT_EQ(meter.current(), 0u);
}

TEST(MemoryMeterTest, ResetClearsBoth) {
  MemoryMeter meter;
  meter.Add(10);
  meter.Reset();
  EXPECT_EQ(meter.current(), 0u);
  EXPECT_EQ(meter.peak(), 0u);
}

TEST(FormatBytesTest, AdaptiveUnits) {
  EXPECT_EQ(FormatBytes(0), "0.0 B");
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MiB");
  EXPECT_EQ(FormatBytes(size_t{5} * 1024 * 1024 * 1024), "5.0 GiB");
  // Beyond GiB it stays in GiB.
  EXPECT_EQ(FormatBytes(size_t{2048} * 1024 * 1024 * 1024), "2048.0 GiB");
}

TEST(StringsTest, StrAppendfGrowsInsteadOfTruncating) {
  std::string out = "x";
  const std::string arg(5000, 'a');
  StrAppendf(&out, "<%s>%d", arg.c_str(), 42);
  EXPECT_EQ(out, "x<" + arg + ">42");
}

TEST(StringsTest, JsonEscapeCoversQuotesAndControlBytes) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t\r\x01/"),
            "a\\\"b\\\\c\\n\\t\\r\\u0001/");
}

}  // namespace
}  // namespace chronicle
