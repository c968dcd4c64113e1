#include "views/view_manager.h"

#include <algorithm>
#include <unordered_set>

#include "common/stopwatch.h"
#include "exec/plan_compiler.h"

namespace chronicle {

ViewManager::ViewManager(RoutingMode mode) : mode_(mode) {}

void ViewManager::CollectGuards(const CaExpr& expr,
                                std::vector<const ScalarExpr*>* pending,
                                std::vector<ScanGuard>* out) {
  if (expr.op() == CaOp::kScan) {
    ScanGuard guard;
    guard.chronicle = expr.chronicle_id();
    for (const ScalarExpr* pred : *pending) {
      guard.predicates.push_back(pred->Clone());
      CollectEqConstraints(*pred, &guard.eq_constraints);
    }
    out->push_back(std::move(guard));
    return;
  }
  if (expr.op() == CaOp::kSelect) {
    // A select directly above a scan (possibly stacked) guards it; for any
    // other child shape the predicate refers to derived columns and is not
    // usable as an early filter.
    pending->push_back(expr.predicate());
    CollectGuards(*expr.child(0), pending, out);
    pending->pop_back();
    return;
  }
  // Any other operator breaks the select-over-scan chain.
  std::vector<const ScalarExpr*> empty;
  for (size_t i = 0; i < expr.num_children(); ++i) {
    CollectGuards(*expr.child(i), &empty, out);
  }
}

void ViewManager::CollectEqConstraints(const ScalarExpr& pred,
                                       std::vector<EqConstraint>* out) {
  if (pred.kind() == ExprKind::kAnd) {
    CollectEqConstraints(pred.child(0), out);
    CollectEqConstraints(pred.child(1), out);
    return;
  }
  if (pred.kind() != ExprKind::kCompare ||
      pred.compare_op() != CompareOp::kEq) {
    return;
  }
  const ScalarExpr& lhs = pred.child(0);
  const ScalarExpr& rhs = pred.child(1);
  if (lhs.kind() == ExprKind::kColumn && rhs.kind() == ExprKind::kLiteral) {
    out->push_back(EqConstraint{lhs.bound_index(), rhs.literal()});
  } else if (rhs.kind() == ExprKind::kColumn &&
             lhs.kind() == ExprKind::kLiteral) {
    out->push_back(EqConstraint{rhs.bound_index(), lhs.literal()});
  }
}

Result<ViewId> ViewManager::AddView(std::unique_ptr<PersistentView> view) {
  if (view == nullptr) return Status::InvalidArgument("null view");
  if (by_name_.count(view->name()) != 0) {
    return Status::AlreadyExists("view '" + view->name() + "' already exists");
  }
  ViewId id = static_cast<ViewId>(views_.size());

  ViewEntry entry;
  entry.view = std::move(view);
  entry.view->plan()->CollectBaseChronicles(&entry.chronicles);
  std::vector<const ScalarExpr*> pending;
  CollectGuards(*entry.view->plan(), &pending, &entry.guards);

  // Lower the plan into the shared program once, here — never on the
  // append path. PersistentView::Make already rejected non-CA plans.
  CHRONICLE_ASSIGN_OR_RETURN(entry.compiled,
                             compiler_.Compile(entry.view->plan()));
  entry.stats.plan_slots = static_cast<uint32_t>(entry.compiled->num_slots());

  // Eligible for the eq index iff the view reads exactly one chronicle
  // through exactly one scan, and that scan's guard has an eq conjunct:
  // then `no eq match` alone proves the delta empty.
  if (entry.chronicles.size() == 1 && entry.guards.size() == 1 &&
      !entry.guards[0].eq_constraints.empty()) {
    entry.eq_indexed = true;
    const ScanGuard& guard = entry.guards[0];
    const EqConstraint& eq = guard.eq_constraints.front();
    eq_index_[guard.chronicle][eq.column][eq.literal].push_back(id);
  } else {
    for (ChronicleId c : entry.chronicles) {
      residual_by_chronicle_[c].push_back(id);
    }
  }

  by_name_[entry.view->name()] = id;
  views_.push_back(std::move(entry));
  ++live_views_;
  return id;
}

Status ViewManager::DropView(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  const ViewId id = it->second;
  ViewEntry& entry = views_[id];
  // Unhook from routing structures.
  for (auto& [chronicle, ids] : residual_by_chronicle_) {
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  }
  for (auto& [chronicle, by_column] : eq_index_) {
    for (auto& [column, by_literal] : by_column) {
      for (auto& [literal, ids] : by_literal) {
        ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
      }
    }
  }
  by_name_.erase(it);
  entry.view.reset();  // tombstone; ids of other views stay stable
  entry.compiled.reset();
  entry.guards.clear();
  entry.chronicles.clear();
  --live_views_;
  // Rebuild the shared program from the live views, so the dropped view's
  // slots (and the nodes they pin) do not outlive it. Plan-local slot
  // numbering — and with it each view's EXPLAIN profile — is unchanged.
  compiler_ = exec::PlanCompiler();
  for (ViewEntry& live : views_) {
    if (live.view == nullptr) continue;
    CHRONICLE_ASSIGN_OR_RETURN(live.compiled,
                               compiler_.Compile(live.view->plan()));
  }
  return Status::OK();
}

Result<PersistentView*> ViewManager::GetView(ViewId id) {
  if (id >= views_.size() || views_[id].view == nullptr) {
    return Status::NotFound("no view with id " + std::to_string(id));
  }
  return views_[id].view.get();
}

Result<const PersistentView*> ViewManager::GetView(ViewId id) const {
  if (id >= views_.size() || views_[id].view == nullptr) {
    return Status::NotFound("no view with id " + std::to_string(id));
  }
  return static_cast<const PersistentView*>(views_[id].view.get());
}

Result<PersistentView*> ViewManager::FindView(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  return views_[it->second].view.get();
}

Result<const PersistentView*> ViewManager::FindView(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  return static_cast<const PersistentView*>(views_[it->second].view.get());
}

Result<bool> ViewManager::GuardsPass(const ViewEntry& entry,
                                     const AppendEvent& event) const {
  // The view must be processed iff some inserted chronicle it depends on
  // can produce scan-delta rows.
  for (const auto& [chronicle, tuples] : event.inserts) {
    if (entry.chronicles.count(chronicle) == 0) continue;
    for (const ScanGuard& guard : entry.guards) {
      if (guard.chronicle != chronicle) continue;
      if (guard.predicates.empty()) return true;  // unguarded scan
      for (const Tuple& t : tuples) {
        bool all = true;
        for (const ScalarExprPtr& pred : guard.predicates) {
          EvalRow row{&t, event.sn, event.chronon};
          CHRONICLE_ASSIGN_OR_RETURN(bool pass, pred->EvalBool(row));
          if (!pass) {
            all = false;
            break;
          }
        }
        if (all) return true;
      }
    }
  }
  return false;
}

Result<MaintenanceReport> ViewManager::ProcessAppend(const AppendEvent& event) {
  MaintenanceReport report;

  // Observability: with metrics detached, this tick takes zero clock reads
  // beyond the seed's. With tracing on, all timestamps come from the
  // ring's timebase so spans and histogram samples agree.
  const bool obs_on = metrics_ != nullptr;
  const bool tracing = trace_ != nullptr && trace_->enabled();
  auto now_ns = [&]() -> int64_t {
    if (tracing) return trace_->NowNanos();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  const int64_t tick_start = obs_on || tracing ? now_ns() : 0;

  // 1. Candidate selection.
  std::vector<ViewId> candidates;
  if (mode_ == RoutingMode::kCheckAll) {
    candidates.reserve(views_.size());
    for (ViewId id = 0; id < views_.size(); ++id) candidates.push_back(id);
  } else {
    std::unordered_set<ViewId> seen;
    auto add = [&](ViewId id) {
      if (seen.insert(id).second) candidates.push_back(id);
    };
    for (const auto& [chronicle, tuples] : event.inserts) {
      auto res_it = residual_by_chronicle_.find(chronicle);
      if (res_it != residual_by_chronicle_.end()) {
        for (ViewId id : res_it->second) add(id);
      }
      if (mode_ == RoutingMode::kEqIndex) {
        auto eq_it = eq_index_.find(chronicle);
        if (eq_it == eq_index_.end()) continue;
        for (const auto& [column, by_literal] : eq_it->second) {
          for (const Tuple& t : tuples) {
            auto hit = by_literal.find(t[column]);
            if (hit == by_literal.end()) continue;
            for (ViewId id : hit->second) add(id);
          }
        }
      } else {
        // kGuards: eq-indexed views are not probed; fall back to testing
        // their guards like any other view.
        auto eq_it = eq_index_.find(chronicle);
        if (eq_it == eq_index_.end()) continue;
        for (const auto& [column, by_literal] : eq_it->second) {
          for (const auto& [literal, ids] : by_literal) {
            for (ViewId id : ids) add(id);
          }
        }
      }
    }
    report.views_skipped = views_.size() - candidates.size();
  }

  // 2. Guard filtering (cheap predicate probes, kept serial) producing the
  // final work list of views whose delta must actually be computed.
  std::vector<ViewId> work;
  work.reserve(candidates.size());
  for (ViewId id : candidates) {
    ViewEntry& entry = views_[id];
    if (entry.view == nullptr) continue;  // dropped (kCheckAll tombstones)
    if (mode_ != RoutingMode::kCheckAll) {
      CHRONICLE_ASSIGN_OR_RETURN(bool pass, GuardsPass(entry, event));
      if (!pass) {
        ++report.views_skipped;
        continue;
      }
    }
    work.push_back(id);
  }
  report.views_considered = work.size();

  const int64_t routing_end = obs_on || tracing ? now_ns() : 0;
  if (obs_on) metrics_->Observe(m_routing_ns_, routing_end - tick_start);
  if (tracing) {
    trace_->Emit(obs::SpanKind::kRouting, 0, event.sn, tick_start,
                 routing_end - tick_start, candidates.size(), work.size());
  }

  // 3. Delta maintenance: each view in `work` is independent (Thm 4.2), so
  // the fold can fan out across the pool once the list is long enough to
  // amortize dispatch.
  const bool parallel =
      pool_ != nullptr && work.size() >= 2 * options_.min_views_per_task;
  if (!parallel) {
    // Serial path: one scratch, one tick — every shared slot is computed
    // once for all views.
    scratch_.BeginTick();
    for (ViewId id : work) {
      CHRONICLE_RETURN_NOT_OK(MaintainOne(id, event, &scratch_, 0, &report));
    }
    if (obs_on) {
      const int64_t tick_end = now_ns();
      report.tick_ns = tick_end - tick_start;
      // The serial path is one batch maintained by worker 0.
      report.batches.push_back(
          MaintenanceBatch{0, work.size(), tick_end - routing_end});
      metrics_->Observe(m_batch_views_,
                        static_cast<int64_t>(work.size()));
      metrics_->Observe(m_worker_ns_, tick_end - routing_end);
      metrics_->Observe(m_tick_ns_, tick_end - tick_start);
      if (tracing) {
        trace_->Emit(obs::SpanKind::kAppendTick, 0, event.sn, tick_start,
                     tick_end - tick_start, work.size(),
                     report.delta_rows_applied);
      }
    }
    return report;
  }
  if (obs_on) metrics_->Count(m_parallel_ticks_, 1);
  CHRONICLE_RETURN_NOT_OK(MaintainParallel(work, event, &report));
  if (obs_on) {
    const int64_t tick_end = now_ns();
    report.tick_ns = tick_end - tick_start;
    metrics_->Observe(m_tick_ns_, tick_end - tick_start);
    if (tracing) {
      trace_->Emit(obs::SpanKind::kAppendTick, 0, event.sn, tick_start,
                   tick_end - tick_start, work.size(),
                   report.delta_rows_applied);
    }
  }
  return report;
}

Status ViewManager::BackfillView(ViewId id, const AppendEvent& event,
                                 MaintenanceReport* report) {
  if (id >= views_.size() || views_[id].view == nullptr) {
    return Status::NotFound("no view with id " + std::to_string(id));
  }
  scratch_.BeginTick();  // slots computed below are valid for this event only
  CHRONICLE_RETURN_NOT_OK(MaintainOne(id, event, &scratch_, 0, report));
  if (metrics_ != nullptr) {
    size_t rows = 0;
    for (const auto& [chron, tuples] : event.inserts) {
      (void)chron;
      rows += tuples.size();
    }
    metrics_->Count(m_backfill_events_, 1);
    metrics_->Count(m_backfill_rows_, rows);
  }
  return Status::OK();
}

Result<const std::set<ChronicleId>*> ViewManager::ViewChronicles(
    ViewId id) const {
  if (id >= views_.size() || views_[id].view == nullptr) {
    return Status::NotFound("no view with id " + std::to_string(id));
  }
  return &views_[id].chronicles;
}

Status ViewManager::MaintainOne(ViewId id, const AppendEvent& event,
                                exec::PlanScratch* scratch, size_t worker,
                                MaintenanceReport* report) {
  ViewEntry& entry = views_[id];
  Stopwatch watch;
  // With metrics attached, execution fills a DeltaStats (the same hook the
  // benches use) and the per-view ViewStats absorbs it below. entry.stats
  // is single-writer: this view belongs to exactly `worker` this tick.
  const bool obs_on = metrics_ != nullptr;
  DeltaStats delta_stats;
  DeltaStats* stats = obs_on ? &delta_stats : nullptr;
  // EXPLAIN sampling: every plan_sample_period_-th tick of this view runs
  // with per-instruction clocks. profile_clock is single-writer, same
  // discipline as entry.stats.
  const bool profile_tick =
      plan_profiling_ && entry.profile_clock++ % plan_sample_period_ == 0;
  const exec::DeltaPlan& plan = *entry.compiled;
  scratch->set_profile_slots(profile_tick);
  // The delta stays in the scratch's slot and is folded from there — no
  // per-view copy or allocation at steady state.
  CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* delta,
                             plan.ExecuteInTick(event, scratch, stats));
  const size_t rows = delta->size();
  if (profile_tick) {
    // Fold the sampled per-slot timings into the view's accumulator
    // (single-writer, like entry.stats) and disarm the scratch.
    std::vector<exec::SlotProfile>& prof = entry.slot_profile;
    if (prof.size() != plan.num_slots()) {
      prof.assign(plan.num_slots(), exec::SlotProfile{});
    }
    for (size_t i = 0; i < prof.size(); ++i) {
      const uint32_t slot = plan.program_slot(i);
      prof[i].ns += scratch->slot_ns()[slot];
      prof[i].rows += scratch->slot_rows()[slot];
      ++prof[i].samples;
      prof[i].vec_samples += scratch->slot_vec()[slot];
    }
    scratch->set_profile_slots(false);
  }
  if (rows > 0) {
    CHRONICLE_RETURN_NOT_OK(entry.view->ApplyDelta(*delta));
    ++report->views_updated;
    report->delta_rows_applied += rows;
  }
  if (obs_on) {
    obs::ViewStats& s = entry.stats;
    ++s.ticks;
    if (rows > 0) ++s.updates;
    s.delta_rows += rows;
    s.relation_lookups += delta_stats.relation_lookups;
    if (delta_stats.max_intermediate_rows > s.max_intermediate_rows) {
      s.max_intermediate_rows = delta_stats.max_intermediate_rows;
    }
    ++s.compiled_ticks;
    if (scratch->arena_bytes_allocated() > s.arena_hwm_bytes) {
      s.arena_hwm_bytes = scratch->arena_bytes_allocated();
    }
    const double load = scratch->dedupe_load_factor();
    if (load > s.max_dedupe_load) s.max_dedupe_load = load;
    metrics_->Count(m_view_ticks_, 1, worker);
    metrics_->Count(m_view_delta_rows_, rows, worker);
    report->views.push_back(MaintenanceViewOutcome{id, rows});
  }
  if (profiling_) entry.latency.Record(watch.ElapsedNanos());
  return Status::OK();
}

Status ViewManager::MaintainParallel(const std::vector<ViewId>& work,
                                     const AppendEvent& event,
                                     MaintenanceReport* report) {
  // Contiguous partition by registration order: deterministic, and each
  // view (and its latency histogram) is touched by exactly one worker.
  const size_t per_task = std::max<size_t>(1, options_.min_views_per_task);
  const size_t num_tasks =
      std::min(pool_->num_threads(), std::max<size_t>(1, work.size() / per_task));
  const bool obs_on = metrics_ != nullptr;
  const bool tracing = trace_ != nullptr && trace_->enabled();
  struct TaskState {
    Status status;
    MaintenanceReport partial;
    size_t batch_views = 0;  // batch size, fixed at dispatch
    int64_t nanos = 0;       // batch wall time, measured by the worker
  };
  std::vector<TaskState> tasks(num_tasks);
  // Per-task compiled-execution scratch, created once and retained across
  // ticks (the whole point is that its buffers warm up). Task t always
  // uses worker_scratch_[t], so no two live closures ever share one.
  while (worker_scratch_.size() < num_tasks) {
    worker_scratch_.push_back(std::make_unique<exec::PlanScratch>());
    worker_scratch_.back()->set_columnar_enabled(
        options_.use_columnar_kernels);
  }
  const size_t base = work.size() / num_tasks;
  const size_t extra = work.size() % num_tasks;
  size_t begin = 0;
  for (size_t t = 0; t < num_tasks; ++t) {
    const size_t end = begin + base + (t < extra ? 1 : 0);
    TaskState* state = &tasks[t];
    state->batch_views = end - begin;
    exec::PlanScratch* scratch = worker_scratch_[t].get();
    pool_->Submit(
        [this, &work, &event, state, scratch, t, begin, end, obs_on, tracing] {
          const int64_t start = tracing ? trace_->NowNanos() : 0;
          Stopwatch watch;
          // One tick per worker scratch: slots shared within the batch are
          // computed once, with no cross-thread writes.
          scratch->BeginTick();
          for (size_t i = begin; i < end; ++i) {
            state->status =
                MaintainOne(work[i], event, scratch, t, &state->partial);
            if (!state->status.ok()) break;
          }
          if (obs_on) state->nanos = watch.ElapsedNanos();
          if (tracing) {
            trace_->Emit(obs::SpanKind::kWorkerBatch,
                         static_cast<uint16_t>(t), event.sn, start,
                         trace_->NowNanos() - start, end - begin,
                         state->partial.delta_rows_applied);
          }
        });
    begin = end;
  }
  pool_->Wait();
  const int64_t merge_start = tracing ? trace_->NowNanos() : 0;
  // Merge in batch order so counters (and the error returned, if several
  // batches failed) never depend on worker scheduling. A batch entry is
  // emitted for EVERY task — including one that maintained zero views —
  // so batches[t] always describes worker t; dropping empty entries here
  // would shift every later worker's timing onto the wrong index.
  for (size_t t = 0; t < tasks.size(); ++t) {
    const TaskState& task = tasks[t];
    CHRONICLE_RETURN_NOT_OK(task.status);
    report->views_updated += task.partial.views_updated;
    report->delta_rows_applied += task.partial.delta_rows_applied;
    if (obs_on) {
      report->batches.push_back(
          MaintenanceBatch{t, task.batch_views, task.nanos});
      metrics_->Observe(m_batch_views_,
                        static_cast<int64_t>(task.batch_views), t);
      metrics_->Observe(m_worker_ns_, task.nanos, t);
      report->views.insert(report->views.end(), task.partial.views.begin(),
                           task.partial.views.end());
    }
  }
  if (tracing) {
    trace_->Emit(obs::SpanKind::kMerge, 0, event.sn, merge_start,
                 trace_->NowNanos() - merge_start, num_tasks, 0);
  }
  return Status::OK();
}

void ViewManager::set_maintenance_options(const MaintenanceOptions& options) {
  options_ = options;
  if (options_.num_threads <= 1) {
    pool_.reset();
  } else if (pool_ == nullptr || pool_->num_threads() != options_.num_threads) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  // Runtime engine toggle: retained scratches (and any already-created
  // worker scratches) flip in place; compiled plans are untouched.
  scratch_.set_columnar_enabled(options_.use_columnar_kernels);
  for (auto& ws : worker_scratch_) {
    ws->set_columnar_enabled(options_.use_columnar_kernels);
  }
}

void ViewManager::set_observability(obs::MetricsRegistry* metrics,
                                    obs::TraceRing* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ == nullptr) return;
  // Resolve the manager's metric catalog once; the append path only ever
  // indexes by these ids. Catalog documented in docs/OBSERVABILITY.md.
  // Named maintenance_* so the Prometheus rendering cannot collide with
  // the per-view chronicle_view_* label families (one HELP/TYPE block per
  // metric name).
  m_view_ticks_ = metrics_->AddCounter("maintenance_view_ticks_total",
                                       "Per-view delta computations");
  m_view_delta_rows_ = metrics_->AddCounter(
      "maintenance_delta_rows_total", "Delta rows folded into views");
  m_parallel_ticks_ = metrics_->AddCounter(
      "maintenance_parallel_ticks_total", "Ticks that used the parallel fan-out");
  m_tick_ns_ = metrics_->AddHistogram("maintenance_tick_ns",
                                      "Whole-tick maintenance latency");
  m_routing_ns_ = metrics_->AddHistogram(
      "maintenance_routing_ns", "Candidate selection and guard filter latency");
  m_batch_views_ = metrics_->AddHistogram("maintenance_batch_views",
                                          "Views maintained per fan-out batch");
  m_worker_ns_ = metrics_->AddHistogram("maintenance_worker_ns",
                                        "Per-batch delta work latency");
  m_backfill_events_ = metrics_->AddCounter(
      "backfill_events_total", "Historical events replayed into late views");
  m_backfill_rows_ = metrics_->AddCounter(
      "backfill_rows_total", "Chronicle rows replayed by view backfill");
}

Result<const obs::ViewStats*> ViewManager::GetViewStats(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  return &views_[it->second].stats;
}

void ViewManager::SnapshotViewStats(
    std::vector<obs::ViewStatsSnapshot>* out) const {
  for (const ViewEntry& entry : views_) {
    if (entry.view == nullptr) continue;
    obs::ViewStatsSnapshot snap;
    snap.name = entry.view->name();
    snap.stats = entry.stats;
    snap.profiled = profiling_ && entry.latency.count() > 0;
    if (snap.profiled) snap.latency = entry.latency;
    out->push_back(std::move(snap));
  }
}

uint64_t ViewManager::delta_cache_hits() const {
  uint64_t hits = scratch_.shared_hits();
  for (const auto& ws : worker_scratch_) hits += ws->shared_hits();
  return hits;
}

uint64_t ViewManager::delta_cache_misses() const {
  uint64_t misses = scratch_.shared_misses();
  for (const auto& ws : worker_scratch_) misses += ws->shared_misses();
  return misses;
}

void ViewManager::set_plan_profiling(bool enabled, size_t sample_period) {
  plan_profiling_ = enabled;
  plan_sample_period_ = sample_period == 0 ? 1 : sample_period;
}

Result<std::string> ViewManager::ExplainView(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  const ViewEntry& entry = views_[it->second];
  return "view '" + name + "'\n" + entry.compiled->Explain(&entry.slot_profile);
}

Result<std::string> ViewManager::ExplainViewJson(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  const ViewEntry& entry = views_[it->second];
  return entry.compiled->ExplainJson(name, &entry.slot_profile);
}

Result<const std::vector<exec::SlotProfile>*> ViewManager::GetViewSlotProfile(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  return &views_[it->second].slot_profile;
}

Result<const LatencyHistogram*> ViewManager::GetViewLatency(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no view named '" + name + "'");
  }
  return &views_[it->second].latency;
}

size_t ViewManager::MemoryFootprint() const {
  size_t total = 0;
  for (const ViewEntry& entry : views_) {
    if (entry.view != nullptr) total += entry.view->MemoryFootprint();
  }
  return total;
}

}  // namespace chronicle
