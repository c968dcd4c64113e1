// Tests of the benchmark's own machinery: open-loop timing, the percentile
// tail rule, metric names, and span bookkeeping.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "harness/metrics.h"
#include "harness/open_loop.h"
#include "harness/spans.h"

namespace perfbench {
namespace {

// A stall in the system under test must raise the latency of the requests
// that were due while it lasted, because latency is timed from the due
// time, not from when the request was finally sent.
TEST(OpenLoop, StallRaisesLaterSamplesAndGeneratorLag) {
  constexpr double kRate = 1000.0;  // one request per millisecond
  constexpr uint64_t kStallAt = 100;
  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + 400'000'000;  // 400 requests
  const OpenLoopResult r = RunOpenLoop(kRate, start, end, [](uint64_t i) {
    if (i == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return true;
  });
  ASSERT_EQ(r.sent, 400u);
  ASSERT_EQ(r.failed, 0u);
  // Before the stall: prompt. The next request was due 1 ms after the stall
  // began and is sent ~99 ms late; lateness decays as the backlog drains.
  EXPECT_LT(r.latency_us[kStallAt - 10], 20'000.0);
  EXPECT_GE(r.latency_us[kStallAt], 100'000.0);
  EXPECT_GE(r.latency_us[kStallAt + 1], 90'000.0);
  EXPECT_GE(r.latency_us[kStallAt + 50], 40'000.0);
  EXPECT_GE(r.lag_us[kStallAt + 1], 90'000.0);
  // Over 10 samples lie beyond the p97 of 400, and the stall dominates it.
  const auto lag_tail = Percentile(r.lag_us, 0.97);
  ASSERT_TRUE(lag_tail.has_value());
  EXPECT_GT(*lag_tail, 10'000.0);
}

TEST(OpenLoop, FailuresAreCounted) {
  const int64_t start = NowNs();
  const OpenLoopResult r = RunOpenLoop(
      2000.0, start, start + 10'000'000, [](uint64_t i) { return i % 2 == 0; });
  EXPECT_EQ(r.sent, 20u);
  EXPECT_EQ(r.failed, 10u);
}

TEST(Percentile, RefusesTailWithFewerThanTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(Percentile(v, 0.99).has_value());  // 9 beyond
  v.push_back(1000);
  ASSERT_TRUE(Percentile(v, 0.99).has_value());   // 10 beyond
  EXPECT_DOUBLE_EQ(*Percentile(v, 0.99), 990.0);
  EXPECT_FALSE(Percentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT_TRUE(Percentile(std::vector<double>(20, 1.0), 0.5).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(Median, SmallSamples) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(MetricNames, Validation) {
  EXPECT_TRUE(ValidMetricName("query_p99_us"));
  EXPECT_TRUE(ValidMetricName("views.tick_p50_us"));
  EXPECT_TRUE(ValidMetricName("a-b.c_d9"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(Report, RendersOneLineWithEveryDigit) {
  Report r{true, 10, 1, {{"x", "ms", 0.1234567890123}}};
  const std::string line = RenderReport(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"correct\": true"), std::string::npos);
  EXPECT_NE(line.find("0.1234567890123"), std::string::npos);
}

TEST(Spans, ChildrenNameTheirParentAndShareTheOperation) {
  SpanStore store(true);
  const uint64_t op = store.NewOp();
  uint64_t parent_id = 0;
  {
    ScopedSpan parent(&store, "parent", 0, op);
    parent_id = parent.id();
    {
      ScopedSpan child(&store, "child", parent.id(), op);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const std::vector<Span> spans = store.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // The child ends first, so it is recorded first.
  EXPECT_STREQ(spans[0].name, "child");
  EXPECT_EQ(spans[0].parent, parent_id);
  EXPECT_EQ(spans[1].id, parent_id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_GE(spans[0].end_ns - spans[0].start_ns, 2'000'000);
  for (const Span& s : spans) EXPECT_EQ(s.op, op);
}

TEST(Spans, DisabledStoreRecordsNothing) {
  SpanStore store(false);
  { ScopedSpan span(&store, "x"); }
  EXPECT_EQ(store.recorded(), 0u);
}

}  // namespace
}  // namespace perfbench
