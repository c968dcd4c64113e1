// The stats field table: one row per member of every StatsSnapshot struct
// (obs/stats.h). MergeShardSnapshots and the three exporters (obs/export.h)
// walk these rows instead of naming fields, so a new stats field is one
// member plus one row, and a {key} in a text template to show it in
// `\stats`. Each table ends in a static_assert that its rows and its
// struct's members agree in number.
//
// A row: `key` is the JSON key and the name text templates use ("a.b"
// puts b in a nested JSON object a); `merge` is how shards fold; `kind` is
// the Prometheus TYPE (kInfo: not exported); `prom` and `help` name the
// family, and on a list row's kKey row `prom` is the label for the key;
// `guard` is a flag without which the row is absent from every output and
// from the merge. The member's type decides the rest: a bool is a flag,
// never rendered; a struct with `attached` is a section, null while
// unattached; any other struct is inlined; a vector is a list of rows.
//
// `text` is the struct's `\stats` layout. {key} substitutes a value,
// {key:N} pads it to N columns, {key|x} shows x for an empty value and
// {:N} is N blanks. An entry that starts with "?key " guards is written
// only while each guard's value is nonzero, nonempty or attached.

#ifndef CHRONICLE_OBS_STATS_TABLE_H_
#define CHRONICLE_OBS_STATS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "obs/stats.h"

namespace chronicle {
namespace obs {

// Folds per-shard snapshots by the rows' merge rules and gives the
// sharding section one row per shard (its appends and its
// maintenance_tick_ns histogram). The WAL, net and req sections, the
// partition key, the data dir and the queue gauges are the router's.
StatsSnapshot MergeShardSnapshots(const std::vector<StatsSnapshot>& shards);

// Adds one log's counters into a WAL section (the sharded router's sum).
void AddWalCounters(WalStatsSnapshot* dst, const WalCounters& src);

namespace stats_table {

enum class Merge : uint8_t {
  kSum,     // add; histograms merge; sections and inlined structs recurse
  kMax,     // high-water mark; flags OR
  kKey,     // a list row's identity
  kNone,    // filled after the merge, by the router or the session
  kByKey,   // list: rows with equal keys fold into one
  kPrefix,  // list: shard k's rows are appended, keys prefixed "shard-k/"
};
// The Prometheus TYPE; kMap marks a list that JSON renders as an object
// keyed by each row's key.
enum class Kind : uint8_t { kInfo, kCounter, kGauge, kHistogram, kMap };
using enum Merge;
using enum Kind;

template <class S, class M>
struct Field {
  using Member = M;
  const char* key;
  M S::*member;
  Merge merge;
  Kind kind;
  const char* prom;
  const char* help;
  bool S::*guard;
  bool prom_late;  // written after the next family; keeps scrapes stable
};

// Row<S> also takes the members S inherits (the WAL and store counters).
template <class S, class M, class C>
constexpr Field<S, M> Row(const char* key, M C::*member, Merge merge,
                          Kind kind = kInfo, const char* prom = nullptr,
                          const char* help = nullptr,
                          bool S::*guard = nullptr, bool prom_late = false) {
  return {key, member, merge, kind, prom, help, guard, prom_late};
}

template <class S>
struct Table;

template <class S, class Fn>
constexpr void ForEachRow(Fn&& fn) {
  std::apply([&](const auto&... row) { (fn(row), ...); }, Table<S>::rows);
}

template <class Row>
using MemberOf = typename std::decay_t<Row>::Member;

template <class R>
consteval size_t KeyIndex() {
  size_t i = 0;
  size_t key = 0;
  ForEachRow<R>([&](const auto& row) {
    if (row.merge == kKey) key = i;
    ++i;
  });
  return key;
}

// The kKey row of list row type R: `r.*kKeyRow<R>.member` is r's key.
template <class R>
constexpr const auto& kKeyRow = std::get<KeyIndex<R>()>(Table<R>::rows);

template <class M>
constexpr bool kIsList = false;
template <class R>
constexpr bool kIsList<std::vector<R>> = true;

template <class M>
concept Section = requires(const M& m) { m.attached; };
template <class M>
concept Inlined = std::is_class_v<M> && !Section<M> && !kIsList<M> &&
                  !std::is_same_v<M, std::string> &&
                  !std::is_same_v<M, LatencyHistogram>;

// Converts to any member type, so S{AnyInit{}...} counts S's members (a
// base class counts as one).
struct AnyInit {
  template <class T>
  operator T() const;
};

template <class S, class... A>
consteval size_t MemberCount() {
  if constexpr (requires { S{A{}..., AnyInit{}}; }) {
    return MemberCount<S, A..., AnyInit>();
  } else {
    return sizeof...(A);
  }
}

// S's rows match its members, those of a counters base included.
template <class S, class Base = void>
consteval bool OneRowPerMember() {
  size_t members = MemberCount<S>();
  if constexpr (!std::is_void_v<Base>) members += MemberCount<Base>() - 1;
  return std::tuple_size_v<decltype(Table<S>::rows)> == members;
}

// clang-format off
template <> struct Table<StatsSnapshot> { using S = StatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("appends_processed", &S::appends_processed, kSum, kCounter, "chronicle_appends_processed_total", "Appends routed through view maintenance"),
  Row<S>("live_views", &S::live_views, kMax, kGauge, "chronicle_live_views", "Currently registered views"),
  Row<S>("delta_cache.hits", &S::delta_cache_hits, kSum, kCounter, "chronicle_delta_cache_hits_total", "Plan instructions served from a shared slot"),
  Row<S>("delta_cache.misses", &S::delta_cache_misses, kSum, kCounter, "chronicle_delta_cache_misses_total", "Plan instructions executed"),
  Row<S>("trace.emitted", &S::trace_emitted, kSum, kCounter, "chronicle_trace_spans_emitted_total", "Spans emitted into the trace ring"),
  Row<S>("trace.capacity", &S::trace_capacity, kSum),
  Row<S>("metrics", &S::metrics, kByKey),
  Row<S>("views", &S::views, kByKey),
  Row<S>("wal", &S::wal, kNone),
  Row<S>("storage", &S::storage, kSum),
  Row<S>("sharding", &S::sharding, kNone),
  Row<S>("net", &S::net, kNone),
  Row<S>("req", &S::req, kNone),
}; static constexpr const char* text[] = {
  "appends processed: {appends_processed}\n"
  "live views:        {live_views}\n"
  "delta cache:       {delta_cache.hits} hits / {delta_cache.misses} misses\n"
  "trace ring:        {trace.emitted} spans emitted (capacity {trace.capacity})\n",
  "?metrics \nmetrics:\n{metrics}", "?views \nviews:\n{views}", "?wal \nwal:\n{wal}", "?storage \nstorage:\n{storage}",
  "?sharding \nsharding:\n{sharding}", "?net \nnet:\n{net}", "?req \nreq:\n{req}",
}; }; static_assert(OneRowPerMember<StatsSnapshot>());

template <> struct Table<ViewStatsSnapshot> { using S = ViewStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("name", &S::name, kKey, kInfo, "view"),
  Row<S>("stats", &S::stats, kSum),
  Row<S>("profiled", &S::profiled, kMax),
  Row<S>("latency", &S::latency, kSum, kInfo, nullptr, nullptr, &S::profiled),
}; static constexpr const char* text[] = {
  "  {name:24} ticks={ticks} updates={updates} rows={delta_rows} compiled={compiled_ticks}/{ticks} lookups={relation_lookups}\n",
  "?plan_slots   {:24} slots={plan_slots} arena_hwm={arena_hwm_bytes}B dedupe_load={max_dedupe_load} max_rows={max_intermediate_rows}\n",
  "?profiled   {:24} latency {latency}\n",
}; }; static_assert(OneRowPerMember<ViewStatsSnapshot>());

template <> struct Table<ViewStats> { using S = ViewStats; static constexpr auto rows = std::tuple{
  Row<S>("ticks", &S::ticks, kSum, kCounter, "chronicle_view_ticks_total", "Delta computations for the view"),
  Row<S>("updates", &S::updates, kSum, kCounter, "chronicle_view_updates_total", "Ticks that changed the view"),
  Row<S>("delta_rows", &S::delta_rows, kSum, kCounter, "chronicle_view_delta_rows_total", "Delta rows folded into the view"),
  Row<S>("compiled_ticks", &S::compiled_ticks, kSum, kCounter, "chronicle_view_compiled_ticks_total", "Ticks served by the compiled plan"),
  Row<S>("interpreted_ticks", &S::interpreted_ticks, kSum, kCounter, "chronicle_view_interpreted_ticks_total", "Always 0 (every tick runs a compiled plan)"),
  Row<S>("relation_lookups", &S::relation_lookups, kSum, kCounter, "chronicle_view_relation_lookups_total", "Relation index probes during maintenance"),
  Row<S>("max_intermediate_rows", &S::max_intermediate_rows, kMax),
  Row<S>("plan_slots", &S::plan_slots, kMax, kGauge, "chronicle_view_plan_slots", "Slots in the compiled delta plan"),
  Row<S>("arena_hwm_bytes", &S::arena_hwm_bytes, kMax, kGauge, "chronicle_view_arena_hwm_bytes", "Scratch arena high-water mark"),
  Row<S>("max_dedupe_load", &S::max_dedupe_load, kMax),
}; }; static_assert(OneRowPerMember<ViewStats>());

template <> struct Table<WalStatsSnapshot> { using S = WalStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("attached", &S::attached, kMax),
  Row<S>("records_logged", &S::records_logged, kSum, kCounter, "chronicle_wal_records_total", "WAL records logged"),
  Row<S>("bytes_logged", &S::bytes_logged, kSum, kCounter, "chronicle_wal_bytes_total", "WAL bytes logged"),
  Row<S>("syncs", &S::syncs, kSum, kCounter, "chronicle_wal_syncs_total", "WAL fsync calls"),
  Row<S>("segments_created", &S::segments_created, kSum),
  Row<S>("segments_removed", &S::segments_removed, kSum),
  Row<S>("checkpoints_written", &S::checkpoints_written, kSum),
  Row<S>("group_commits", &S::group_commits, kSum, kCounter, "chronicle_wal_group_commits_total", "Group-commit batches written"),
  Row<S>("group_commit_ticks", &S::group_commit_ticks, kSum, kCounter, "chronicle_wal_group_commit_ticks_total", "Ticks covered by group commits"),
  Row<S>("fsync_latency", &S::fsync_latency, kSum, kHistogram, "chronicle_wal_fsync_latency_ns", "WAL fsync latency"),
  Row<S>("recovered", &S::recovered, kMax),
  Row<S>("recovery.applied", &S::recovery_records_applied, kSum, kInfo, nullptr, nullptr, &S::recovered),
  Row<S>("recovery.skipped", &S::recovery_records_skipped, kSum, kInfo, nullptr, nullptr, &S::recovered),
}; static constexpr const char* text[] = {
  "  records={records_logged} bytes={bytes_logged} syncs={syncs} group_commits={group_commits} ({group_commit_ticks} ticks)\n"
  "  segments=+{segments_created}/-{segments_removed} checkpoints={checkpoints_written}\n",
  "?fsync_latency   fsync latency {fsync_latency}\n",
  "?recovered   recovery: {recovery.applied} applied, {recovery.skipped} skipped\n",
}; }; static_assert(OneRowPerMember<WalStatsSnapshot, WalCounters>());

template <> struct Table<StorageStatsSnapshot> { using S = StorageStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("attached", &S::attached, kMax),
  Row<S>("data_dir", &S::data_dir, kNone),
  Row<S>("segments_sealed", &S::segments_sealed, kSum),
  Row<S>("segments_evicted", &S::segments_evicted, kSum),
  Row<S>("segments_quarantined", &S::segments_quarantined, kSum, kCounter, "chronicle_storage_segments_quarantined_total", "Segments quarantined as corrupt at attach"),
  Row<S>("rows_sealed", &S::rows_sealed, kSum),
  Row<S>("rows_evicted", &S::rows_evicted, kSum),
  Row<S>("bytes_written", &S::bytes_written, kSum),
  Row<S>("seal_failures", &S::seal_failures, kSum),
  Row<S>("backfill_views", &S::backfill_views, kSum, kCounter, "chronicle_storage_backfill_views_total", "Views registered with historical backfill"),
  Row<S>("backfill_rows", &S::backfill_rows, kSum, kCounter, "chronicle_storage_backfill_rows_total", "Rows replayed into late-registered views"),
  Row<S>("seal_latency", &S::seal_latency, kSum, kHistogram, "chronicle_storage_seal_ns", "Wall time to seal one segment"),
  Row<S>("cap_wait", &S::cap_wait, kSum, kHistogram, "chronicle_storage_cap_wait_ns", "Time an append blocked at the hot-tier cap waiting for the sealer"),
  Row<S>("chronicles", &S::chronicles, kPrefix),
}; static constexpr const char* text[] = {
  "  data dir: {data_dir}\n"
  "  segments=+{segments_sealed}/-{segments_evicted} quarantined={segments_quarantined} seal_failures={seal_failures}\n"
  "  rows sealed={rows_sealed} evicted={rows_evicted} bytes_written={bytes_written}\n",
  "?seal_latency   seal latency {seal_latency}\n",
  "?cap_wait   cap wait {cap_wait}\n",
  "?backfill_views   backfill: {backfill_views} views, {backfill_rows} rows\n",
  "{chronicles}",
}; }; static_assert(OneRowPerMember<StorageStatsSnapshot, StoreCounters>());

template <> struct Table<ChronicleTierSnapshot> { using S = ChronicleTierSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("name", &S::name, kKey, kInfo, "chronicle"),
  Row<S>("hot_rows", &S::hot_rows, kSum, kGauge, "chronicle_storage_hot_rows", "Rows in memory: the hot window plus batches in flight to the sealer"),
  Row<S>("hot_bytes", &S::hot_bytes, kSum, kGauge, "chronicle_storage_hot_bytes", "Approximate in-memory bytes of the hot window"),
  Row<S>("warm_segments", &S::warm_segments, kSum, kGauge, "chronicle_storage_warm_segments", "Sealed warm segment files", nullptr, true),
  Row<S>("warm_rows", &S::warm_rows, kSum, kGauge, "chronicle_storage_warm_rows", "Rows in sealed warm segments"),
  Row<S>("warm_bytes", &S::warm_bytes, kSum, kGauge, "chronicle_storage_warm_bytes", "On-disk bytes of warm segments"),
  Row<S>("warm_raw_bytes", &S::warm_raw_bytes, kSum, kGauge, "chronicle_storage_warm_raw_bytes", "In-memory-equivalent bytes of the warm rows"),
  Row<S>("last_sealed_sn", &S::last_sealed_sn, kMax, kGauge, "chronicle_storage_last_sealed_sn", "Highest SN covered by a sealed segment"),
}; static constexpr const char* text[] = {
  "  {name:24} hot={hot_rows} rows ({hot_bytes}B) warm={warm_rows} rows in {warm_segments} segs ({warm_bytes}B disk / {warm_raw_bytes}B raw) sealed_sn={last_sealed_sn}\n",
}; }; static_assert(OneRowPerMember<ChronicleTierSnapshot>());

// MergeShardSnapshots builds one shard row per shard; the router fills the
// kNone rows.
template <> struct Table<ShardingStatsSnapshot> { using S = ShardingStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("attached", &S::attached, kMax),
  Row<S>("num_shards", &S::num_shards, kSum, kGauge, "chronicle_sharding_num_shards", "Shards in the router"),
  Row<S>("partition_key", &S::partition_key, kNone),
  Row<S>("shards", &S::shards, kNone),
}; static constexpr const char* text[] = {
  "  shards={num_shards} partition_key={partition_key|<mixed>}\n{shards}",
}; }; static_assert(OneRowPerMember<ShardingStatsSnapshot>());

template <> struct Table<ShardStatsSnapshot> { using S = ShardStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("shard", &S::shard, kKey, kInfo, "shard"),
  Row<S>("appends_processed", &S::appends_processed, kSum, kCounter, "chronicle_shard_appends_processed_total", "Ticks applied by the shard's engine"),
  Row<S>("queue_depth", &S::queue_depth, kNone, kGauge, "chronicle_shard_queue_depth", "Rows waiting in the shard's ingest lanes"),
  Row<S>("enqueued_batches", &S::enqueued_batches, kNone, kCounter, "chronicle_shard_enqueued_batches_total", "Batches routed to the shard"),
  Row<S>("routed_rows", &S::routed_rows, kNone, kCounter, "chronicle_shard_routed_rows_total", "Rows routed to the shard"),
  Row<S>("tick_latency_populated", &S::tick_latency_populated, kMax),
  Row<S>("tick_latency", &S::tick_latency, kSum, kHistogram, "chronicle_shard_tick_ns", "Per-shard maintenance tick latency", &S::tick_latency_populated),
}; static constexpr const char* text[] = {
  "  shard {shard:3} appends={appends_processed} queue_depth={queue_depth} batches={enqueued_batches} rows={routed_rows}\n",
  "?tick_latency_populated ?tick_latency   {:9} tick latency {tick_latency}\n",
}; }; static_assert(OneRowPerMember<ShardStatsSnapshot>());

template <> struct Table<NetStatsSnapshot> { using S = NetStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("attached", &S::attached, kMax),
  Row<S>("port", &S::port, kNone),
  Row<S>("requests_total", &S::requests_total, kSum, kCounter, "chronicle_net_requests_total", "HTTP requests routed by the wire service"),
  Row<S>("http_errors_total", &S::http_errors_total, kSum, kCounter, "chronicle_net_http_errors_total", "Wire-service responses with status >= 400"),
  Row<S>("sessions_opened", &S::sessions_opened, kSum, kCounter, "chronicle_net_sessions_opened_total", "Sessions opened over the wire"),
  Row<S>("active_sessions", &S::active_sessions, kSum, kGauge, "chronicle_net_active_sessions", "Currently open sessions"),
  Row<S>("sql_statements_total", &S::sql_statements_total, kSum, kCounter, "chronicle_net_sql_statements_total", "Statements executed via POST /v1/sql"),
  Row<S>("append_batches_total", &S::append_batches_total, kSum, kCounter, "chronicle_net_append_batches_total", "Ticks accepted via POST /v1/append"),
  Row<S>("append_rows_total", &S::append_rows_total, kSum, kCounter, "chronicle_net_append_rows_total", "Rows accepted via POST /v1/append"),
  Row<S>("rows_applied_total", &S::rows_applied_total, kSum, kCounter, "chronicle_net_rows_applied_total", "Accepted rows applied by the ingest worker"),
  Row<S>("queue_rows", &S::queue_rows, kSum, kGauge, "chronicle_net_queue_rows", "Rows waiting in session ingest queues"),
  Row<S>("rejected_backpressure_total", &S::rejected_backpressure_total, kSum, kCounter, "chronicle_net_rejected_backpressure_total", "Appends rejected with 429 by a full session queue"),
  Row<S>("rejected_quota_total", &S::rejected_quota_total, kSum, kCounter, "chronicle_net_rejected_quota_total", "Appends rejected with 429 by a spent session row quota"),
  Row<S>("rejected_auth_total", &S::rejected_auth_total, kSum, kCounter, "chronicle_net_rejected_auth_total", "Requests rejected with 401"),
  Row<S>("sessions", &S::sessions, kByKey),
}; static constexpr const char* text[] = {
  "  port={port} requests={requests_total} http_errors={http_errors_total} sessions={sessions_opened} active={active_sessions}\n"
  "  sql={sql_statements_total} append_batches={append_batches_total} append_rows={append_rows_total} applied={rows_applied_total} queued={queue_rows}\n"
  "  rejected: backpressure={rejected_backpressure_total} quota={rejected_quota_total} auth={rejected_auth_total}\n{sessions}",
}; }; static_assert(OneRowPerMember<NetStatsSnapshot>());

template <> struct Table<NetSessionSnapshot> { using S = NetSessionSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("id", &S::id, kKey, kInfo, "session"),
  Row<S>("statements", &S::statements, kSum, kCounter, "chronicle_net_session_statements_total", "Statements executed by the session"),
  Row<S>("append_rows_accepted", &S::append_rows_accepted, kSum, kCounter, "chronicle_net_session_rows_accepted_total", "Rows accepted into the session's queue"),
  Row<S>("append_rows_applied", &S::append_rows_applied, kSum, kCounter, "chronicle_net_session_rows_applied_total", "Session rows applied by the ingest worker"),
  Row<S>("queue_rows", &S::queue_rows, kSum, kGauge, "chronicle_net_session_queue_rows", "Rows waiting in the session's bounded queue"),
  Row<S>("rejected_backpressure", &S::rejected_backpressure, kSum, kCounter, "chronicle_net_session_rejected_backpressure_total", "Session 429s from a full queue"),
  Row<S>("rejected_quota", &S::rejected_quota, kSum, kCounter, "chronicle_net_session_rejected_quota_total", "Session 429s from a spent row quota"),
  Row<S>("row_quota", &S::row_quota, kMax),
}; static constexpr const char* text[] = {
  "  session {id:12} stmts={statements} accepted={append_rows_accepted} applied={append_rows_applied} queued={queue_rows} rejected={rejected_backpressure}/{rejected_quota}\n",
}; }; static_assert(OneRowPerMember<NetSessionSnapshot>());

template <> struct Table<ReqStatsSnapshot> { using S = ReqStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("attached", &S::attached, kMax),
  Row<S>("sample_rate", &S::sample_rate, kMax),
  Row<S>("sampled_requests", &S::sampled_requests, kSum, kCounter, "chronicle_req_sampled_total", "Requests whose span tree was sampled"),
  Row<S>("unsampled_requests", &S::unsampled_requests, kSum, kCounter, "chronicle_req_unsampled_total", "Requests that took the zero-span overhead path"),
  Row<S>("spans_emitted", &S::spans_emitted, kSum, kCounter, "chronicle_req_spans_emitted_total", "Spans emitted into the request-trace ring"),
  Row<S>("capacity", &S::capacity, kSum),
  Row<S>("slow_captures", &S::slow_captures, kSum, kCounter, "chronicle_req_slow_captures_total", "Slow-request flight-recorder captures"),
  Row<S>("slow_budget_ns", &S::slow_budget_ns, kMax),
  Row<S>("stages", &S::stages, kByKey, kMap),
  Row<S>("endpoints", &S::endpoints, kByKey, kMap),
}; static constexpr const char* text[] = {
  "  sample_rate={sample_rate} sampled={sampled_requests} unsampled={unsampled_requests} spans={spans_emitted} (capacity {capacity}) slow_captures={slow_captures}\n{stages}{endpoints}",
}; }; static_assert(OneRowPerMember<ReqStatsSnapshot>());

template <> struct Table<ReqStageStatsSnapshot> { using S = ReqStageStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("stage", &S::stage, kKey, kInfo, "stage"),
  Row<S>("latency", &S::latency, kSum, kHistogram, "chronicle_req_stage_ns", "Per-stage request latency"),
}; static constexpr const char* text[] = {
  "?latency   stage {stage:12} {latency}\n",
}; }; static_assert(OneRowPerMember<ReqStageStatsSnapshot>());

template <> struct Table<ReqEndpointStatsSnapshot> { using S = ReqEndpointStatsSnapshot; static constexpr auto rows = std::tuple{
  Row<S>("endpoint", &S::endpoint, kKey, kInfo, "endpoint"),
  Row<S>("requests", &S::requests, kSum, kCounter, "chronicle_req_requests_total", "Requests per endpoint"),
  Row<S>("errors", &S::errors, kSum, kCounter, "chronicle_req_errors_total", "Responses with status >= 400 per endpoint"),
  Row<S>("duration", &S::duration, kSum, kHistogram, "chronicle_req_duration_ns", "Request latency per endpoint"),
}; static constexpr const char* text[] = {
  "?requests   endpoint {endpoint:9} requests={requests} errors={errors} {duration}\n",
}; }; static_assert(OneRowPerMember<ReqEndpointStatsSnapshot>());
// clang-format on

}  // namespace stats_table
}  // namespace obs
}  // namespace chronicle

#endif  // CHRONICLE_OBS_STATS_TABLE_H_
