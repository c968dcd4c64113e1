#include "shard/sharded_db.h"

#include <algorithm>
#include <utility>

#include "obs/request_trace.h"
#include "obs/stats_table.h"
#include "views/persistent_view.h"

namespace chronicle {
namespace shard {

// One producer->shard lane. Wrapped in a struct so the rings themselves
// stay immovable once the worker threads hold pointers to them.
struct ShardedDatabase::ShardLane {
  explicit ShardLane(size_t capacity) : ring(capacity) {}
  SpscQueue<IngestItem> ring;
};

// Per-shard worker bookkeeping. Lives for the router's lifetime so the
// routed/enqueued counters are cumulative across StartIngest cycles.
struct ShardedDatabase::ShardState {
  std::atomic<uint64_t> enqueued_batches{0};
  std::atomic<uint64_t> routed_rows{0};
  // True while the worker may hold a popped-but-unapplied item; Flush()
  // requires lanes empty AND busy false.
  std::atomic<bool> busy{false};
  std::atomic<bool> has_error{false};
  std::mutex error_mu;
  Status error;  // first append error, under error_mu

  Status FirstError() {
    if (!has_error.load(std::memory_order_acquire)) return Status::OK();
    std::lock_guard<std::mutex> lock(error_mu);
    return error;
  }
  void RecordError(Status st) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!has_error.load(std::memory_order_relaxed)) {
      error = std::move(st);
      has_error.store(true, std::memory_order_release);
    }
  }
};

ShardedDatabase::ShardedDatabase(DatabaseOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Open(
    DatabaseOptions options) {
  const size_t num_shards = options.sharding.num_shards;
  if (num_shards == 0) {
    return Status::InvalidArgument("ShardingOptions.num_shards must be >= 1");
  }
  if (options.durability.mutation_log != nullptr && num_shards > 1) {
    // One MutationLog cannot record N independent SN domains; per-shard
    // durability goes through ShardingOptions::wal_dir instead.
    return Status::InvalidArgument(
        "a sharded database cannot share one mutation_log; set "
        "ShardingOptions.wal_dir for per-shard WALs");
  }
  auto db = std::unique_ptr<ShardedDatabase>(new ShardedDatabase(options));
  db->partition_column_ = options.sharding.partition_key;
  db->partition_column_fixed_ = !options.sharding.partition_key.empty();
  for (size_t k = 0; k < num_shards; ++k) {
    DatabaseOptions per_shard = options;
    if (!per_shard.storage.data_dir.empty()) {
      per_shard.storage.data_dir += "/shard-" + std::to_string(k);
    }
    db->engines_.push_back(ChronicleDatabase::Open(per_shard));
    // Stamp the shard id so maintain/wal_commit spans emitted inside this
    // engine attribute to lane k in merged request traces.
    db->engines_.back()->set_trace_shard(static_cast<int>(k));
    db->shards_.push_back(std::make_unique<ShardState>());
  }
  return db;
}

ShardedDatabase::~ShardedDatabase() {
  StopIngest().ok();
  CloseWals().ok();
}

// --- DDL ---

Result<ChronicleId> ShardedDatabase::CreateChronicle(const std::string& name,
                                                     Schema schema) {
  return CreateChronicle(name, std::move(schema),
                         options_.default_retention);
}

Result<ChronicleId> ShardedDatabase::CreateChronicle(
    const std::string& name, Schema schema, RetentionPolicy retention) {
  CHRONICLE_ASSIGN_OR_RETURN(
      Partitioner partitioner,
      Partitioner::Make(schema, options_.sharding.partition_key,
                        engines_.size()));
  ChronicleId id = 0;
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_ASSIGN_OR_RETURN(
        id, engines_[k]->CreateChronicle(name, schema, retention));
  }
  // The effective routing column backs the aligned-view fast path; it only
  // survives if every chronicle routes by the same column name.
  if (!partition_column_fixed_) {
    if (chronicles_by_name_.empty()) {
      partition_column_ = partitioner.key_name();
    } else if (partition_column_ != partitioner.key_name()) {
      partition_column_.clear();
    }
  }
  if (partitioners_.size() <= id) {
    partitioners_.resize(id + 1, partitioner);
    chronicle_names_.resize(id + 1);
  }
  partitioners_[id] = partitioner;
  chronicle_names_[id] = name;
  chronicles_by_name_[name] = id;
  return id;
}

Result<RelationId> ShardedDatabase::CreateRelation(const std::string& name,
                                                   Schema schema,
                                                   const std::string& key_column,
                                                   IndexMode index_mode) {
  RelationId id = 0;
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_ASSIGN_OR_RETURN(
        id, engines_[k]->CreateRelation(name, schema, key_column, index_mode));
  }
  return id;
}

Result<ViewId> ShardedDatabase::CreateView(const std::string& name,
                                           const PlanFactory& plan,
                                           SummarySpec spec,
                                           const ComputedFactory& computed,
                                           IndexMode index_mode) {
  ViewId id = 0;
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr bound, plan(*engines_[k]));
    std::vector<ComputedColumn> cols;
    if (computed) cols = computed(*engines_[k]);
    CHRONICLE_ASSIGN_OR_RETURN(
        id, engines_[k]->CreateView(name, std::move(bound), spec,
                                    std::move(cols), index_mode));
  }
  ViewMeta meta;
  meta.name = name;
  meta.plan_factory = plan;
  meta.computed_factory = computed;
  meta.index_mode = index_mode;
  meta.aligned = engines_.size() > 1 && !partition_column_.empty() &&
                 spec.output_schema().num_fields() > 0 &&
                 !spec.key_columns().empty() &&
                 spec.output_schema().field(0).name == partition_column_;
  meta.spec = std::move(spec);
  views_by_name_[name] = views_.size();
  views_.push_back(std::move(meta));
  return id;
}

// --- relation DML ---

Status ShardedDatabase::InsertInto(const std::string& relation, Tuple row) {
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_RETURN_NOT_OK(engines_[k]->InsertInto(relation, row));
  }
  return Status::OK();
}

Status ShardedDatabase::UpdateRelation(const std::string& relation,
                                       const Value& key, Tuple new_row) {
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_RETURN_NOT_OK(engines_[k]->UpdateRelation(relation, key, new_row));
  }
  return Status::OK();
}

Status ShardedDatabase::DeleteFrom(const std::string& relation,
                                   const Value& key) {
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_RETURN_NOT_OK(engines_[k]->DeleteFrom(relation, key));
  }
  return Status::OK();
}

// --- synchronous routed ingest ---

Result<const Partitioner*> ShardedDatabase::PartitionerFor(
    const std::string& chronicle) const {
  auto it = chronicles_by_name_.find(chronicle);
  if (it == chronicles_by_name_.end()) {
    return Status::NotFound("unknown chronicle: " + chronicle);
  }
  return &partitioners_[it->second];
}

Result<ShardAppendResult> ShardedDatabase::Append(const std::string& chronicle,
                                                  std::vector<Tuple> tuples) {
  return AppendRouted(chronicle, std::move(tuples), last_chronon_ + 1);
}

Result<ShardAppendResult> ShardedDatabase::Append(const std::string& chronicle,
                                                  std::vector<Tuple> tuples,
                                                  Chronon chronon) {
  if (chronon < last_chronon_) {
    return Status::OutOfRange("chronon must be non-decreasing");
  }
  return AppendRouted(chronicle, std::move(tuples), chronon);
}

Result<ShardAppendResult> ShardedDatabase::AppendRouted(
    const std::string& chronicle, std::vector<Tuple> tuples, Chronon chronon) {
  if (ingest_active()) {
    return Status::FailedPrecondition(
        "synchronous Append while the async pipeline is running");
  }
  CHRONICLE_ASSIGN_OR_RETURN(const Partitioner* partitioner,
                             PartitionerFor(chronicle));
  ShardAppendResult result;
  result.chronon = chronon;
  if (engines_.size() == 1) {
    // Verbatim passthrough: the bit-identical oracle.
    CHRONICLE_ASSIGN_OR_RETURN(
        AppendResult r, engines_[0]->Append(chronicle, std::move(tuples),
                                            chronon));
    result.rows = r.event.inserts.empty() ? 0 : r.event.inserts[0].second.size();
    result.shards_touched = 1;
    last_chronon_ = chronon;
    rows_routed_.fetch_add(result.rows, std::memory_order_relaxed);
    return result;
  }
  obs::RequestScopeState* req_scope = obs::RequestScope::Current();
  const int64_t merge_start =
      req_scope != nullptr ? req_scope->tracer->NowNanos() : 0;
  std::vector<std::vector<Tuple>> split = partitioner->Split(std::move(tuples));
  for (size_t k = 0; k < split.size(); ++k) {
    if (split[k].empty()) continue;
    const size_t rows = split[k].size();
    CHRONICLE_RETURN_NOT_OK(
        engines_[k]->Append(chronicle, std::move(split[k]), chronon).status());
    result.rows += rows;
    ++result.shards_touched;
    shards_[k]->routed_rows.fetch_add(rows, std::memory_order_relaxed);
    shards_[k]->enqueued_batches.fetch_add(1, std::memory_order_relaxed);
  }
  if (req_scope != nullptr) {
    // The router's split+fan-out over all receiving shards is the merge
    // stage of a traced request (detail = shards touched this tick). The
    // per-shard maintain spans it covers carry their own shard ids.
    req_scope->tracer->Emit(
        req_scope->ctx, req_scope->tracer->NewSpanId(), req_scope->root_span,
        obs::ReqStage::kMerge, /*shard=*/-1, req_scope->worker, merge_start,
        req_scope->tracer->NowNanos() - merge_start, result.shards_touched);
  }
  last_chronon_ = chronon;
  rows_routed_.fetch_add(result.rows, std::memory_order_relaxed);
  return result;
}

Result<ShardAppendResult> ShardedDatabase::AppendMulti(
    std::vector<std::pair<std::string, std::vector<Tuple>>> inserts,
    Chronon chronon) {
  if (ingest_active()) {
    return Status::FailedPrecondition(
        "synchronous AppendMulti while the async pipeline is running");
  }
  if (chronon < last_chronon_) {
    return Status::OutOfRange("chronon must be non-decreasing");
  }
  if (engines_.size() == 1) {
    CHRONICLE_ASSIGN_OR_RETURN(AppendResult r,
                               engines_[0]->AppendMulti(std::move(inserts),
                                                        chronon));
    ShardAppendResult result;
    result.chronon = chronon;
    result.shards_touched = 1;
    for (const auto& [id, rows] : r.event.inserts) result.rows += rows.size();
    last_chronon_ = chronon;
    rows_routed_.fetch_add(result.rows, std::memory_order_relaxed);
    return result;
  }
  // Split every chronicle's rows, then hand each receiving shard ONE
  // AppendMulti so its slice of the logical tick shares a per-shard SN.
  std::vector<std::vector<std::pair<std::string, std::vector<Tuple>>>>
      per_shard(engines_.size());
  for (auto& [name, rows] : inserts) {
    CHRONICLE_ASSIGN_OR_RETURN(const Partitioner* partitioner,
                               PartitionerFor(name));
    std::vector<std::vector<Tuple>> split = partitioner->Split(std::move(rows));
    for (size_t k = 0; k < split.size(); ++k) {
      if (split[k].empty()) continue;
      per_shard[k].emplace_back(name, std::move(split[k]));
    }
  }
  ShardAppendResult result;
  result.chronon = chronon;
  for (size_t k = 0; k < per_shard.size(); ++k) {
    if (per_shard[k].empty()) continue;
    uint64_t rows = 0;
    for (const auto& [name, batch] : per_shard[k]) rows += batch.size();
    CHRONICLE_RETURN_NOT_OK(
        engines_[k]->AppendMulti(std::move(per_shard[k]), chronon).status());
    result.rows += rows;
    ++result.shards_touched;
    shards_[k]->routed_rows.fetch_add(rows, std::memory_order_relaxed);
    shards_[k]->enqueued_batches.fetch_add(1, std::memory_order_relaxed);
  }
  last_chronon_ = chronon;
  rows_routed_.fetch_add(result.rows, std::memory_order_relaxed);
  return result;
}

Result<std::vector<ShardAppendResult>> ShardedDatabase::AppendMany(
    const std::string& chronicle, std::vector<std::vector<Tuple>> batches) {
  std::vector<ShardAppendResult> results;
  results.reserve(batches.size());
  for (auto& batch : batches) {
    CHRONICLE_ASSIGN_OR_RETURN(
        ShardAppendResult r,
        AppendRouted(chronicle, std::move(batch), last_chronon_ + 1));
    results.push_back(r);
  }
  return results;
}

// --- async multi-core pipeline ---

Status ShardedDatabase::StartIngest(size_t num_producers) {
  if (ingest_active()) {
    return Status::FailedPrecondition("ingest pipeline already running");
  }
  if (num_producers == 0) {
    return Status::InvalidArgument("num_producers must be >= 1");
  }
  num_producers_ = num_producers;
  stop_.store(false, std::memory_order_relaxed);
  lanes_.clear();
  lanes_.reserve(num_producers * engines_.size());
  for (size_t i = 0; i < num_producers * engines_.size(); ++i) {
    lanes_.push_back(
        std::make_unique<ShardLane>(options_.sharding.queue_capacity));
  }
  workers_.reserve(engines_.size());
  for (size_t k = 0; k < engines_.size(); ++k) {
    workers_.emplace_back([this, k] { WorkerLoop(k); });
  }
  return Status::OK();
}

void ShardedDatabase::WorkerLoop(size_t shard) {
  ShardState& state = *shards_[shard];
  while (true) {
    state.busy.store(true, std::memory_order_release);
    bool popped = false;
    for (size_t p = 0; p < num_producers_; ++p) {
      SpscQueue<IngestItem>& ring = lanes_[p * engines_.size() + shard]->ring;
      IngestItem item;
      while (ring.TryPop(&item)) {
        popped = true;
        if (state.has_error.load(std::memory_order_acquire)) continue;
        Status st = engines_[shard]
                        ->Append(chronicle_names_[item.chronicle],
                                 std::move(item.tuples))
                        .status();
        if (!st.ok()) state.RecordError(std::move(st));
      }
    }
    if (!popped) {
      state.busy.store(false, std::memory_order_release);
      if (stop_.load(std::memory_order_acquire)) {
        // One more sweep below on the next iteration would find nothing:
        // producers are gone before stop_ is set (StopIngest contract).
        bool drained = true;
        for (size_t p = 0; p < num_producers_ && drained; ++p) {
          drained = lanes_[p * engines_.size() + shard]->ring.EmptyApprox();
        }
        if (drained) return;
      }
      std::this_thread::yield();
    }
  }
}

Status ShardedDatabase::EnqueueAppend(size_t producer,
                                      const std::string& chronicle,
                                      std::vector<Tuple> tuples) {
  if (!ingest_active()) {
    return Status::FailedPrecondition("ingest pipeline not running");
  }
  if (producer >= num_producers_) {
    return Status::InvalidArgument("producer index out of range");
  }
  auto it = chronicles_by_name_.find(chronicle);
  if (it == chronicles_by_name_.end()) {
    return Status::NotFound("unknown chronicle: " + chronicle);
  }
  const ChronicleId id = it->second;
  const uint64_t rows = tuples.size();
  std::vector<std::vector<Tuple>> split =
      partitioners_[id].Split(std::move(tuples));
  for (size_t k = 0; k < split.size(); ++k) {
    if (split[k].empty()) continue;
    ShardState& state = *shards_[k];
    state.routed_rows.fetch_add(split[k].size(), std::memory_order_relaxed);
    state.enqueued_batches.fetch_add(1, std::memory_order_relaxed);
    IngestItem item;
    item.chronicle = id;
    item.tuples = std::move(split[k]);
    SpscQueue<IngestItem>& ring = lanes_[producer * engines_.size() + k]->ring;
    while (!ring.TryPush(std::move(item))) {
      // Bounded-queue backpressure: the producer waits out a full lane,
      // unless the shard has already failed (then it would wait forever).
      if (state.has_error.load(std::memory_order_acquire)) {
        return state.FirstError();
      }
      std::this_thread::yield();
    }
  }
  rows_routed_.fetch_add(rows, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedDatabase::Flush() {
  if (!ingest_active()) return Status::OK();
  // Two consecutive all-idle observations: lanes can only refill from
  // producers, which have stopped enqueueing by the time Flush is called.
  for (int settled = 0; settled < 2;) {
    bool idle = true;
    for (const auto& lane : lanes_) idle = idle && lane->ring.EmptyApprox();
    for (const auto& state : shards_) {
      idle = idle && !state->busy.load(std::memory_order_acquire);
    }
    if (idle) {
      ++settled;
    } else {
      settled = 0;
      std::this_thread::yield();
    }
  }
  for (const auto& state : shards_) {
    CHRONICLE_RETURN_NOT_OK(state->FirstError());
  }
  return Status::OK();
}

Status ShardedDatabase::StopIngest() {
  if (!ingest_active()) return Status::OK();
  Status flushed = Flush();
  stop_.store(true, std::memory_order_release);
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  lanes_.clear();
  num_producers_ = 0;
  return flushed;
}

// --- merged reads ---

Result<std::vector<Tuple>> ShardedDatabase::ScanView(
    const std::string& view) const {
  if (engines_.size() == 1) return engines_[0]->ScanView(view);
  auto it = views_by_name_.find(view);
  if (it == views_by_name_.end()) {
    return Status::NotFound("unknown view: " + view);
  }
  return MergeView(views_[it->second], nullptr);
}

Result<Tuple> ShardedDatabase::QueryView(const std::string& view,
                                         const Tuple& key) const {
  if (engines_.size() == 1) return engines_[0]->QueryView(view, key);
  auto it = views_by_name_.find(view);
  if (it == views_by_name_.end()) {
    return Status::NotFound("unknown view: " + view);
  }
  const ViewMeta& meta = views_[it->second];
  if (meta.aligned && !key.empty()) {
    // Every row of this group lives on the shard its key hashes to: route
    // the point lookup there and skip the merge entirely.
    const size_t owner = StableValueHash(key[0]) % engines_.size();
    return engines_[owner]->QueryView(view, key);
  }
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<Tuple> rows, MergeView(meta, &key));
  if (rows.empty()) {
    return Status::NotFound("no group for key in view " + view);
  }
  return rows[0];
}

Result<std::vector<Tuple>> ShardedDatabase::MergeView(const ViewMeta& meta,
                                                      const Tuple* key) const {
  // The scratch (finalizer view + merge table) is retained per view name:
  // building the plan and PersistentView per read dominated merged-scan
  // cost, and clearing the hash table keeps its buckets warm. The final
  // sort makes the unordered merge table safe — output stays byte-
  // identical to the unsharded engine's.
  std::lock_guard<std::mutex> lock(merge_mu_);
  MergeScratch& scratch = merge_scratch_[meta.name];
  if (scratch.view == nullptr) {
    CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr plan,
                               meta.plan_factory(*engines_[0]));
    std::vector<ComputedColumn> computed;
    if (meta.computed_factory) computed = meta.computed_factory(*engines_[0]);
    CHRONICLE_ASSIGN_OR_RETURN(
        scratch.view,
        PersistentView::Make(0, meta.name, std::move(plan), *meta.spec,
                             std::move(computed), meta.index_mode));
  }
  // Aligned views partition their groups: every row of a group lives on
  // the shard its key hashes to, so each shard's raw states are already
  // complete and the merge table can be skipped outright.
  if (meta.aligned) {
    std::vector<Tuple> rows;
    Status status;
    for (size_t k = 0; k < engines_.size(); ++k) {
      CHRONICLE_ASSIGN_OR_RETURN(const PersistentView* shard_view,
                                 engines_[k]->GetView(meta.name));
      shard_view->VisitGroups([&](const Tuple& group_key,
                                  const std::vector<AggState>& states,
                                  int64_t) {
        if (!status.ok()) return;
        if (key != nullptr && TupleCompare(group_key, *key) != 0) return;
        Result<Tuple> row =
            scratch.view->FinalizeGroupStates(group_key, states);
        if (!row.ok()) {
          status = row.status();
          return;
        }
        rows.push_back(std::move(*row));
      });
      CHRONICLE_RETURN_NOT_OK(status);
    }
    std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
      return TupleCompare(a, b) < 0;
    });
    return rows;
  }
  // 1. Merge raw per-shard group states (decomposability: AggSpec::Merge
  //    is exact for every built-in aggregate).
  auto& merged = scratch.groups;
  merged.clear();
  const std::vector<AggSpec>& aggs = meta.spec->aggregates();
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_ASSIGN_OR_RETURN(const PersistentView* shard_view,
                               engines_[k]->GetView(meta.name));
    shard_view->VisitGroups([&](const Tuple& group_key,
                                const std::vector<AggState>& states,
                                int64_t multiplicity) {
      if (key != nullptr && TupleCompare(group_key, *key) != 0) return;
      auto [it, inserted] = merged.try_emplace(group_key);
      if (inserted) {
        it->second.states = states;
        it->second.multiplicity = multiplicity;
        return;
      }
      for (size_t i = 0; i < aggs.size() && i < states.size(); ++i) {
        aggs[i].Merge(&it->second.states[i], states[i]);
      }
      it->second.multiplicity += multiplicity;
    });
  }
  // 2. Finalize each merged group through the scratch PersistentView's
  //    finalizer (aggregate Finalize + computed columns) so output rows
  //    are byte-identical to the unsharded engine's, without paying a
  //    second materialization into the scratch view's table.
  std::vector<Tuple> rows;
  rows.reserve(merged.size());
  for (auto& [group_key, group] : merged) {
    CHRONICLE_ASSIGN_OR_RETURN(
        Tuple row, scratch.view->FinalizeGroupStates(group_key, group.states));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return TupleCompare(a, b) < 0;
  });
  return rows;
}

// --- durability ---

Result<std::vector<wal::RecoveryReport>> ShardedDatabase::RecoverFromWal() {
  if (options_.sharding.wal_dir.empty()) {
    return Status::FailedPrecondition("ShardingOptions.wal_dir is not set");
  }
  if (!wals_.empty()) {
    return Status::FailedPrecondition("recover before AttachWals");
  }
  std::vector<wal::RecoveryReport> reports;
  reports.reserve(engines_.size());
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_ASSIGN_OR_RETURN(
        wal::RecoveryReport report,
        wal::Recover(options_.sharding.wal_dir + "/shard-" + std::to_string(k),
                     engines_[k].get()));
    reports.push_back(std::move(report));
  }
  // Replay advanced each engine's chronon shard-locally; the router's
  // synchronous-path clock must resume past the furthest shard or the
  // next Append would hand out a regressing chronon.
  for (const auto& engine : engines_) {
    last_chronon_ = std::max(last_chronon_, engine->group().last_chronon());
  }
  return reports;
}

Status ShardedDatabase::AttachWals() {
  if (options_.sharding.wal_dir.empty()) return Status::OK();
  if (!wals_.empty()) {
    return Status::FailedPrecondition("WALs already attached");
  }
  for (size_t k = 0; k < engines_.size(); ++k) {
    CHRONICLE_ASSIGN_OR_RETURN(
        std::unique_ptr<wal::Wal> wal,
        wal::Wal::Open(options_.sharding.wal_dir + "/shard-" +
                       std::to_string(k)));
    wal_logs_.push_back(
        std::make_unique<wal::WalMutationLog>(wal.get(), engines_[k].get()));
    engines_[k]->AttachMutationLog(wal_logs_.back().get());
    wals_.push_back(std::move(wal));
  }
  return Status::OK();
}

Status ShardedDatabase::CloseWals() {
  Status first = Status::OK();
  for (size_t k = 0; k < wals_.size(); ++k) {
    engines_[k]->DetachMutationLog();
    Status st = wals_[k]->Close();
    if (first.ok() && !st.ok()) first = st;
  }
  wals_.clear();
  wal_logs_.clear();
  return first;
}

// --- observability ---

obs::StatsSnapshot ShardedDatabase::CollectStats() const {
  std::vector<obs::StatsSnapshot> shards;
  shards.reserve(engines_.size());
  for (const auto& engine : engines_) shards.push_back(engine->CollectStats());
  obs::StatsSnapshot merged = obs::MergeShardSnapshots(shards);
  merged.sharding.partition_key = partition_column_;
  if (merged.storage.attached) {
    merged.storage.data_dir = options_.storage.data_dir;
  }
  for (size_t k = 0; k < engines_.size(); ++k) {
    obs::ShardStatsSnapshot& row = merged.sharding.shards[k];
    row.enqueued_batches =
        shards_[k]->enqueued_batches.load(std::memory_order_relaxed);
    row.routed_rows = shards_[k]->routed_rows.load(std::memory_order_relaxed);
    for (size_t p = 0; p < num_producers_; ++p) {
      row.queue_depth += lanes_[p * engines_.size() + k]->ring.SizeApprox();
    }
  }
  // WAL stats are written by the shard engines' append threads; only a
  // quiesced pipeline yields a consistent read.
  if (!wals_.empty() && !ingest_active()) {
    for (const auto& wal : wals_) {
      obs::AddWalCounters(&merged.wal, wal->stats());
    }
  }
  return merged;
}

}  // namespace shard
}  // namespace chronicle
