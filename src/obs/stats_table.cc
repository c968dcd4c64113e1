#include "obs/stats_table.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace chronicle {
namespace obs {
namespace {

namespace st = stats_table;

template <class S>
void MergeInto(S* dst, const S& src, size_t shard);

// Folds rows with equal keys (kByKey) or appends shard `shard`'s rows with
// their keys prefixed (kPrefix). The shard rows, keyed by index, are not
// merged: MergeShardSnapshots builds one per shard.
template <class R>
void MergeList(std::vector<R>* dst, const std::vector<R>& src,
               st::Merge merge, size_t shard) {
  if constexpr (std::is_same_v<st::MemberOf<decltype(st::kKeyRow<R>)>,
                               std::string>) {
    const auto key = st::kKeyRow<R>.member;
    std::unordered_map<std::string, size_t> index;
    for (size_t i = 0; i < dst->size(); ++i) index.emplace((*dst)[i].*key, i);
    for (const R& r : src) {
      if (merge == st::kPrefix) {
        std::string& name = dst->emplace_back(r).*key;
        name.insert(0, "shard-" + std::to_string(shard) + "/");
        continue;
      }
      const auto [it, fresh] = index.try_emplace(r.*key, dst->size());
      if (fresh) dst->emplace_back().*key = r.*key;
      MergeInto(&(*dst)[it->second], r, shard);
    }
  }
}

// Folds `src`, the snapshot of shard `shard`, into `dst` row by row.
template <class S>
void MergeInto(S* dst, const S& src, size_t shard) {
  st::ForEachRow<S>([&](const auto& row) {
    using M = st::MemberOf<decltype(row)>;
    if (row.merge == st::kNone || row.merge == st::kKey) return;
    if (row.guard != nullptr && !(src.*row.guard)) return;
    M& d = dst->*row.member;
    const M& s = src.*row.member;
    if constexpr (std::is_same_v<M, std::vector<MetricSample>>) {
      for (const MetricSample& m : s) {
        auto it = std::find_if(d.begin(), d.end(), [&](const auto& other) {
          return other.name == m.name;
        });
        if (it == d.end()) {
          d.push_back(m);
        } else if (m.is_histogram) {
          it->histogram.Merge(m.histogram);
        } else {
          it->value += m.value;
        }
      }
    } else if constexpr (st::kIsList<M>) {
      MergeList(&d, s, row.merge, shard);
    } else if constexpr (st::Section<M>) {
      if (s.attached) MergeInto(&d, s, shard);
    } else if constexpr (st::Inlined<M>) {
      MergeInto(&d, s, shard);
    } else if constexpr (std::is_same_v<M, LatencyHistogram>) {
      d.Merge(s);
    } else if constexpr (std::is_arithmetic_v<M>) {
      d = row.merge == st::kMax ? std::max(d, s) : static_cast<M>(d + s);
    }
  });
}

}  // namespace

StatsSnapshot MergeShardSnapshots(const std::vector<StatsSnapshot>& shards) {
  StatsSnapshot merged;
  merged.sharding.attached = true;
  merged.sharding.num_shards = shards.size();
  for (size_t k = 0; k < shards.size(); ++k) {
    MergeInto(&merged, shards[k], k);
    ShardStatsSnapshot& row = merged.sharding.shards.emplace_back();
    row.shard = k;
    row.appends_processed = shards[k].appends_processed;
    for (const MetricSample& sample : shards[k].metrics) {
      if (sample.is_histogram && sample.name == "maintenance_tick_ns") {
        row.tick_latency_populated = true;
        row.tick_latency = sample.histogram;
      }
    }
  }
  return merged;
}

void AddWalCounters(WalStatsSnapshot* dst, const WalCounters& src) {
  WalStatsSnapshot section;
  section.attached = true;
  static_cast<WalCounters&>(section) = src;
  MergeInto(dst, section, 0);
}

}  // namespace obs
}  // namespace chronicle
