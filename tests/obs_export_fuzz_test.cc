// Exporter fuzz: randomized StatsSnapshots — hostile names up to 600 bytes
// (quotes, backslashes, control bytes, non-ASCII), extreme counter values,
// random histograms, every section filled by walking the stats field table
// (obs/stats_table.h) so a new field is fuzzed with no edit here — rendered
// through RenderJson must always satisfy the RFC 8259 grammar
// (ValidateJson), and the other renderers must at least not crash. A merge
// property checks MergeShardSnapshots against each row's merge rule.
// Seeded via CHRONICLE_FUZZ_SEED (common/random.h FuzzSeed) so CI explores
// a fresh corner every run and failures replay locally.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "obs/export.h"
#include "obs/stats.h"
#include "obs/stats_table.h"
#include "obs/trace.h"

namespace chronicle {
namespace obs {
namespace {

std::string RandomName(Rng* rng) {
  // Half the time a plausible identifier, half the time byte soup that
  // stresses every escape path in the exporters; long enough at times to
  // outgrow any fixed formatting buffer.
  const size_t len = rng->Uniform(2) == 0 ? rng->Uniform(24) + 1
                                          : rng->Uniform(600) + 1;
  std::string out;
  out.reserve(len);
  const bool hostile = rng->Uniform(2) == 0;
  for (size_t i = 0; i < len; ++i) {
    if (hostile) {
      out.push_back(static_cast<char>(rng->Uniform(256)));
    } else {
      static const char kAlphabet[] =
          "abcdefghijklmnopqrstuvwxyz_0123456789\"\\\n\t/";
      out.push_back(kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)]);
    }
  }
  return out;
}

uint64_t RandomCount(Rng* rng) {
  // Mix small values with extremes: uint64 max exercises the widest
  // integer rendering.
  switch (rng->Uniform(4)) {
    case 0:
      return 0;
    case 1:
      return rng->Uniform(1000);
    case 2:
      return rng->Uniform(std::numeric_limits<uint64_t>::max());
    default:
      return std::numeric_limits<uint64_t>::max();
  }
}

LatencyHistogram RandomHistogram(Rng* rng) {
  LatencyHistogram h;
  const size_t samples = rng->Uniform(20);
  for (size_t i = 0; i < samples; ++i) {
    // Spread across the full bucket range, including the clamp-to-zero
    // path for negative inputs.
    h.Record(rng->UniformInt(-10, 1) < 0
                 ? -1
                 : static_cast<int64_t>(rng->Uniform(1ull << 40)));
  }
  return h;
}

std::vector<MetricSample> RandomMetrics(Rng* rng) {
  std::vector<MetricSample> metrics(rng->Uniform(6));
  for (MetricSample& m : metrics) {
    m.name = RandomName(rng);
    m.help = RandomName(rng);
    m.is_histogram = rng->Uniform(2) == 0;
    if (m.is_histogram) {
      m.histogram = RandomHistogram(rng);
    } else {
      m.value = RandomCount(rng);
    }
  }
  return metrics;
}

// Fills every row of S, recursing into sections, inlined structs and up
// to three rows per list.
template <class S>
void Fill(S* s, Rng* rng) {
  stats_table::ForEachRow<S>([&](const auto& row) {
    using M = stats_table::MemberOf<decltype(row)>;
    M& v = s->*row.member;
    if constexpr (std::is_same_v<M, bool>) {
      v = rng->Uniform(2) == 0;
    } else if constexpr (std::is_floating_point_v<M>) {
      v = rng->NextDouble();
    } else if constexpr (std::is_integral_v<M>) {
      v = static_cast<M>(RandomCount(rng));
    } else if constexpr (std::is_same_v<M, std::string>) {
      v = RandomName(rng);
    } else if constexpr (std::is_same_v<M, LatencyHistogram>) {
      v = RandomHistogram(rng);
    } else if constexpr (std::is_same_v<M, std::vector<MetricSample>>) {
      v = RandomMetrics(rng);
    } else if constexpr (stats_table::kIsList<M>) {
      v.resize(rng->Uniform(4));
      for (auto& r : v) Fill(&r, rng);
    } else {
      Fill(&v, rng);
    }
  });
}

StatsSnapshot RandomSnapshot(Rng* rng) {
  StatsSnapshot snap;
  Fill(&snap, rng);
  return snap;
}

TEST(ObsExportFuzzTest, RenderJsonAlwaysValidates) {
  const uint64_t seed = FuzzSeed(90210);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    StatsSnapshot snap = RandomSnapshot(&rng);
    const std::string json = RenderJson(snap);
    Status st = ValidateJson(json);
    ASSERT_TRUE(st.ok()) << "trial " << trial << ": " << st.ToString()
                         << "\n"
                         << json;
  }
}

TEST(ObsExportFuzzTest, OtherRenderersNeverCrash) {
  const uint64_t seed = FuzzSeed(777);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 100; ++trial) {
    StatsSnapshot snap = RandomSnapshot(&rng);
    EXPECT_FALSE(RenderText(snap).empty());
    EXPECT_FALSE(RenderPrometheus(snap).empty());

    std::vector<TraceSpan> spans;
    const size_t n = rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) {
      TraceSpan span;
      span.seq = i;
      span.kind = static_cast<SpanKind>(rng.Uniform(5));
      span.worker = static_cast<uint16_t>(rng.Uniform(16));
      span.sn = RandomCount(&rng);
      span.start_ns = static_cast<int64_t>(rng.Uniform(1ull << 40));
      span.duration_ns = static_cast<int64_t>(rng.Uniform(1ull << 30));
      spans.push_back(span);
    }
    EXPECT_FALSE(RenderTraceText(spans, n, 8).empty());
  }
}

TEST(ObsExportFuzzTest, ValidateJsonAgreesWithMutations) {
  // Mutating one byte of valid JSON output must never make the validator
  // crash or loop; it may still accept (many mutations stay valid).
  const uint64_t seed = FuzzSeed(5150);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  StatsSnapshot snap = RandomSnapshot(&rng);
  const std::string json = RenderJson(snap);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = json;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    ValidateJson(mutated).ok();  // must terminate without crashing
  }
}

// Checks `merged` against the rows of `parts` by each row's merge rule:
// sums add (modulo 2^64), maxima and flags take the largest, histogram
// counts add up, keyed lists fold rows with equal keys, prefixed lists
// keep every row. kNone and kKey rows are the caller's and are skipped.
template <class S>
void ExpectMerged(const S& merged, const std::vector<const S*>& parts) {
  stats_table::ForEachRow<S>([&](const auto& row) {
    using M = stats_table::MemberOf<decltype(row)>;
    if (row.merge == stats_table::kNone || row.merge == stats_table::kKey) {
      return;
    }
    SCOPED_TRACE(row.key);
    std::vector<const M*> in;  // the parts where the row is present
    for (const S* p : parts) {
      if (row.guard == nullptr || p->*row.guard) {
        in.push_back(&(p->*row.member));
      }
    }
    const M& out = merged.*row.member;
    if constexpr (std::is_same_v<M, LatencyHistogram>) {
      uint64_t count = 0;
      for (const M* h : in) count += h->count();
      EXPECT_EQ(out.count(), count);
    } else if constexpr (std::is_arithmetic_v<M>) {
      M want{};
      for (const M* v : in) {
        want = row.merge == stats_table::kMax ? std::max(want, *v)
                                              : static_cast<M>(want + *v);
      }
      EXPECT_EQ(out, want);
    } else if constexpr (std::is_same_v<M, std::vector<MetricSample>>) {
      for (const MetricSample& m : out) {
        uint64_t value = 0;
        uint64_t count = 0;
        for (const M* samples : in) {
          for (const MetricSample& s : *samples) {
            if (s.name != m.name) continue;
            value += s.value;
            count += s.histogram.count();
          }
        }
        EXPECT_EQ(m.is_histogram ? m.histogram.count() : m.value,
                  m.is_histogram ? count : value);
      }
    } else if constexpr (stats_table::kIsList<M>) {
      size_t rows = 0;
      for (const M* list : in) rows += list->size();
      if (row.merge == stats_table::kPrefix) {
        EXPECT_EQ(out.size(), rows);
        return;
      }
      const auto key = stats_table::kKeyRow<typename M::value_type>.member;
      size_t folded = 0;
      for (const auto& r : out) {
        std::vector<const typename M::value_type*> same;
        for (const M* list : in) {
          for (const auto& x : *list) {
            if (x.*key == r.*key) same.push_back(&x);
          }
        }
        folded += same.size();
        ExpectMerged(r, same);
      }
      EXPECT_EQ(folded, rows);
    } else if constexpr (stats_table::Section<M>) {
      std::vector<const M*> attached;
      for (const M* section : in) {
        if (section->attached) attached.push_back(section);
      }
      EXPECT_EQ(out.attached, !attached.empty());
      if (!attached.empty()) ExpectMerged(out, attached);
    } else if constexpr (stats_table::Inlined<M>) {
      ExpectMerged(out, in);
    }
  });
}

TEST(ObsExportFuzzTest, MergeFollowsEachRowsRule) {
  const uint64_t seed = FuzzSeed(4242);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<StatsSnapshot> shards(rng.Uniform(4) + 1);
    for (StatsSnapshot& shard : shards) {
      Fill(&shard, &rng);
      // Names from small pools, so shards share views and metrics; a
      // metric's kind follows its name, as in the registry.
      for (ViewStatsSnapshot& v : shard.views) {
        v.name = "view" + std::to_string(rng.Uniform(3));
      }
      for (MetricSample& m : shard.metrics) {
        const uint64_t id = rng.Uniform(4);
        m.name = "metric" + std::to_string(id);
        m.is_histogram = id % 2 == 1;
        if (m.is_histogram) m.value = 0;
        if (!m.is_histogram) m.histogram = LatencyHistogram();
      }
    }
    std::vector<const StatsSnapshot*> parts;
    for (const StatsSnapshot& shard : shards) parts.push_back(&shard);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const StatsSnapshot merged = MergeShardSnapshots(shards);
    ExpectMerged(merged, parts);
    ASSERT_EQ(merged.sharding.shards.size(), shards.size());
    for (size_t k = 0; k < shards.size(); ++k) {
      EXPECT_EQ(merged.sharding.shards[k].appends_processed,
                shards[k].appends_processed);
    }
  }
}

}  // namespace
}  // namespace obs
}  // namespace chronicle
