#include "obs/export.h"

#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace chronicle {
namespace obs {

namespace {

// Appends a printf-style formatted chunk to `out`.
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n) < sizeof(buf) ? n : sizeof(buf) - 1);
}

// Escapes a string for a JSON string literal or a Prometheus label value
// (both use backslash escapes for `"` and `\`; JSON additionally needs
// control characters escaped, which is harmless in label values too).
// The public name is JsonEscape (bottom of file).
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Renders a double without locale surprises; trims to something readable.
std::string Dbl(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// --- Prometheus helpers ---

void PromHistogram(std::string* out, const std::string& name,
                   const std::string& labels, const LatencyHistogram& h) {
  // Only emit non-empty buckets (plus the terminal +Inf) — 52 series per
  // histogram would drown the exposition; cumulative counts stay exact.
  uint64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += h.bucket(i);
    if (h.bucket(i) == 0 && i != LatencyHistogram::kBuckets - 1) continue;
    const int64_t ub = LatencyHistogram::BucketUpperBound(i);
    std::string le = (i == LatencyHistogram::kBuckets - 1)
                         ? std::string("+Inf")
                         : std::to_string(ub);
    Appendf(out, "%s_bucket{%s%sle=\"%s\"} %" PRIu64 "\n", name.c_str(),
            labels.c_str(), labels.empty() ? "" : ",", le.c_str(), cumulative);
  }
  const std::string brace = labels.empty() ? "" : "{" + labels + "}";
  Appendf(out, "%s_sum%s %s\n", name.c_str(), brace.c_str(),
          Dbl(h.SumNanos()).c_str());
  Appendf(out, "%s_count%s %" PRIu64 "\n", name.c_str(), brace.c_str(),
          h.count());
}

void PromCounter(std::string* out, const std::string& name,
                 const std::string& help, uint64_t value) {
  Appendf(out, "# HELP %s %s\n# TYPE %s counter\n%s %" PRIu64 "\n",
          name.c_str(), help.c_str(), name.c_str(), name.c_str(), value);
}

// --- JSON helpers (emission) ---

void JsonHistogram(std::string* out, const LatencyHistogram& h) {
  Appendf(out, "{\"count\":%" PRIu64 ",\"sum\":%s,\"min\":%" PRId64
               ",\"max\":%" PRId64 ",\"p50\":%" PRId64 ",\"p99\":%" PRId64 "}",
          h.count(), Dbl(h.SumNanos()).c_str(), h.MinNanos(), h.MaxNanos(),
          h.PercentileNanos(0.5), h.PercentileNanos(0.99));
}

// --- JSON validation (recursive descent over RFC 8259) ---

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Status Validate() {
    SkipWs();
    CHRONICLE_RETURN_NOT_OK(Value(0));
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing characters after value");
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Err(const std::string& what) {
    return Status::ParseError("JSON invalid at offset " +
                              std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  Status Expect(char c) {
    if (!Peek(c)) return Err(std::string("expected '") + c + "'");
    ++pos_;
    return Status::OK();
  }

  Status Literal(const char* word) {
    const size_t len = strlen(word);
    if (text_.compare(pos_, len, word) != 0) return Err("bad literal");
    pos_ += len;
    return Status::OK();
  }

  Status String() {
    CHRONICLE_RETURN_NOT_OK(Expect('"'));
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Err("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Err("truncated escape");
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return Err("bad \\u escape");
            }
          }
        } else if (strchr("\"\\/bfnrt", e) == nullptr) {
          return Err("bad escape character");
        }
      }
      ++pos_;
    }
    return Err("unterminated string");
  }

  Status Number() {
    if (Peek('-')) ++pos_;
    if (pos_ >= text_.size() || !isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Err("bad number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (Peek('.')) {
      ++pos_;
      if (pos_ >= text_.size() || !isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Err("bad fraction");
      }
      while (pos_ < text_.size() && isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (Peek('e') || Peek('E')) {
      ++pos_;
      if (Peek('+') || Peek('-')) ++pos_;
      if (pos_ >= text_.size() || !isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Err("bad exponent");
      }
      while (pos_ < text_.size() && isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    return Status::OK();
  }

  Status Value(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return Object(depth);
    if (c == '[') return Array(depth);
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    if (c == '-' || isdigit(static_cast<unsigned char>(c))) return Number();
    return Err("unexpected character");
  }

  Status Object(int depth) {
    CHRONICLE_RETURN_NOT_OK(Expect('{'));
    SkipWs();
    if (Peek('}')) {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      CHRONICLE_RETURN_NOT_OK(String());
      SkipWs();
      CHRONICLE_RETURN_NOT_OK(Expect(':'));
      SkipWs();
      CHRONICLE_RETURN_NOT_OK(Value(depth + 1));
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      return Expect('}');
    }
  }

  Status Array(int depth) {
    CHRONICLE_RETURN_NOT_OK(Expect('['));
    SkipWs();
    if (Peek(']')) {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      CHRONICLE_RETURN_NOT_OK(Value(depth + 1));
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      return Expect(']');
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string RenderText(const StatsSnapshot& snapshot) {
  std::string out;
  Appendf(&out, "appends processed: %" PRIu64 "\n", snapshot.appends_processed);
  Appendf(&out, "live views:        %" PRIu64 "\n", snapshot.live_views);
  Appendf(&out, "delta cache:       %" PRIu64 " hits / %" PRIu64 " misses\n",
          snapshot.delta_cache_hits, snapshot.delta_cache_misses);
  Appendf(&out, "trace ring:        %" PRIu64 " spans emitted (capacity %" PRIu64 ")\n",
          snapshot.trace_emitted, snapshot.trace_capacity);
  if (!snapshot.metrics.empty()) {
    out += "\nmetrics:\n";
    for (const MetricSample& m : snapshot.metrics) {
      if (m.is_histogram) {
        Appendf(&out, "  %-40s %s\n", m.name.c_str(),
                m.histogram.ToString().c_str());
      } else {
        Appendf(&out, "  %-40s %" PRIu64 "\n", m.name.c_str(), m.value);
      }
    }
  }
  if (!snapshot.views.empty()) {
    out += "\nviews:\n";
    for (const ViewStatsSnapshot& v : snapshot.views) {
      const ViewStats& s = v.stats;
      Appendf(&out,
              "  %-24s ticks=%" PRIu64 " updates=%" PRIu64 " rows=%" PRIu64
              " compiled=%" PRIu64 "/%" PRIu64 " lookups=%" PRIu64 "\n",
              v.name.c_str(), s.ticks, s.updates, s.delta_rows,
              s.compiled_ticks, s.ticks, s.relation_lookups);
      if (s.plan_slots > 0) {
        Appendf(&out,
                "  %-24s slots=%u arena_hwm=%" PRIu64
                "B dedupe_load=%s max_rows=%" PRIu64 "\n",
                "", s.plan_slots, s.arena_hwm_bytes,
                Dbl(s.max_dedupe_load).c_str(), s.max_intermediate_rows);
      }
      if (v.profiled) {
        Appendf(&out, "  %-24s latency %s\n", "", v.latency.ToString().c_str());
      }
    }
  }
  if (snapshot.wal.attached) {
    const WalStatsSnapshot& w = snapshot.wal;
    out += "\nwal:\n";
    Appendf(&out,
            "  records=%" PRIu64 " bytes=%" PRIu64 " syncs=%" PRIu64
            " group_commits=%" PRIu64 " (%" PRIu64 " ticks)\n",
            w.records_logged, w.bytes_logged, w.syncs, w.group_commits,
            w.group_commit_ticks);
    Appendf(&out,
            "  segments=+%" PRIu64 "/-%" PRIu64 " checkpoints=%" PRIu64 "\n",
            w.segments_created, w.segments_removed, w.checkpoints_written);
    if (w.fsync_latency.count() > 0) {
      Appendf(&out, "  fsync latency %s\n", w.fsync_latency.ToString().c_str());
    }
    if (w.recovered) {
      Appendf(&out, "  recovery: %" PRIu64 " applied, %" PRIu64 " skipped\n",
              w.recovery_records_applied, w.recovery_records_skipped);
    }
  }
  if (snapshot.storage.attached) {
    const StorageStatsSnapshot& s = snapshot.storage;
    out += "\nstorage:\n";
    Appendf(&out, "  data dir: %s\n", s.data_dir.c_str());
    Appendf(&out,
            "  segments=+%" PRIu64 "/-%" PRIu64 " quarantined=%" PRIu64
            " seal_failures=%" PRIu64 "\n",
            s.segments_sealed, s.segments_evicted, s.segments_quarantined,
            s.seal_failures);
    Appendf(&out,
            "  rows sealed=%" PRIu64 " evicted=%" PRIu64
            " bytes_written=%" PRIu64 "\n",
            s.rows_sealed, s.rows_evicted, s.bytes_written);
    if (s.backfill_views > 0) {
      Appendf(&out, "  backfill: %" PRIu64 " views, %" PRIu64 " rows\n",
              s.backfill_views, s.backfill_rows);
    }
    for (const ChronicleTierSnapshot& c : s.chronicles) {
      Appendf(&out,
              "  %-24s hot=%" PRIu64 " rows (%" PRIu64 "B) warm=%" PRIu64
              " rows in %" PRIu64 " segs (%" PRIu64 "B disk / %" PRIu64
              "B raw) sealed_sn=%" PRIu64 "\n",
              c.name.c_str(), c.hot_rows, c.hot_bytes, c.warm_rows,
              c.warm_segments, c.warm_bytes, c.warm_raw_bytes,
              c.last_sealed_sn);
    }
  }
  if (snapshot.sharding.attached) {
    const ShardingStatsSnapshot& sh = snapshot.sharding;
    out += "\nsharding:\n";
    Appendf(&out, "  shards=%zu partition_key=%s\n", sh.num_shards,
            sh.partition_key.empty() ? "<mixed>" : sh.partition_key.c_str());
    for (const ShardStatsSnapshot& s : sh.shards) {
      Appendf(&out,
              "  shard %-3zu appends=%" PRIu64 " queue_depth=%" PRIu64
              " batches=%" PRIu64 " rows=%" PRIu64 "\n",
              s.shard, s.appends_processed, s.queue_depth, s.enqueued_batches,
              s.routed_rows);
      if (s.tick_latency_populated && s.tick_latency.count() > 0) {
        Appendf(&out, "  %-9s tick latency %s\n", "",
                s.tick_latency.ToString().c_str());
      }
    }
  }
  if (snapshot.net.attached) {
    const NetStatsSnapshot& n = snapshot.net;
    out += "\nnet:\n";
    Appendf(&out,
            "  port=%u requests=%" PRIu64 " http_errors=%" PRIu64
            " sessions=%" PRIu64 " active=%" PRIu64 "\n",
            unsigned{n.port}, n.requests_total, n.http_errors_total,
            n.sessions_opened, n.active_sessions);
    Appendf(&out,
            "  sql=%" PRIu64 " append_batches=%" PRIu64 " append_rows=%" PRIu64
            " applied=%" PRIu64 " queued=%" PRIu64 "\n",
            n.sql_statements_total, n.append_batches_total, n.append_rows_total,
            n.rows_applied_total, n.queue_rows);
    Appendf(&out,
            "  rejected: backpressure=%" PRIu64 " quota=%" PRIu64
            " auth=%" PRIu64 "\n",
            n.rejected_backpressure_total, n.rejected_quota_total,
            n.rejected_auth_total);
    for (const NetSessionSnapshot& s : n.sessions) {
      Appendf(&out,
              "  session %-12s stmts=%" PRIu64 " accepted=%" PRIu64
              " applied=%" PRIu64 " queued=%" PRIu64 " rejected=%" PRIu64
              "/%" PRIu64 "\n",
              s.id.c_str(), s.statements, s.append_rows_accepted,
              s.append_rows_applied, s.queue_rows, s.rejected_backpressure,
              s.rejected_quota);
    }
  }
  if (snapshot.req.attached) {
    const ReqStatsSnapshot& r = snapshot.req;
    out += "\nreq:\n";
    Appendf(&out,
            "  sample_rate=%s sampled=%" PRIu64 " unsampled=%" PRIu64
            " spans=%" PRIu64 " (capacity %" PRIu64 ") slow_captures=%" PRIu64
            "\n",
            Dbl(r.sample_rate).c_str(), r.sampled_requests,
            r.unsampled_requests, r.spans_emitted, r.capacity,
            r.slow_captures);
    for (const ReqStageStatsSnapshot& s : r.stages) {
      if (s.latency.count() == 0) continue;
      Appendf(&out, "  stage %-12s %s\n", s.stage.c_str(),
              s.latency.ToString().c_str());
    }
    for (const ReqEndpointStatsSnapshot& e : r.endpoints) {
      if (e.requests == 0) continue;
      Appendf(&out,
              "  endpoint %-9s requests=%" PRIu64 " errors=%" PRIu64 " %s\n",
              e.endpoint.c_str(), e.requests, e.errors,
              e.duration.ToString().c_str());
    }
  }
  return out;
}

std::string RenderPrometheus(const StatsSnapshot& snapshot) {
  std::string out;
  PromCounter(&out, "chronicle_appends_processed_total",
              "Appends routed through view maintenance",
              snapshot.appends_processed);
  PromCounter(&out, "chronicle_live_views", "Currently registered views",
              snapshot.live_views);
  PromCounter(&out, "chronicle_delta_cache_hits_total",
              "Plan instructions served from a shared slot",
              snapshot.delta_cache_hits);
  PromCounter(&out, "chronicle_delta_cache_misses_total",
              "Plan instructions executed",
              snapshot.delta_cache_misses);
  PromCounter(&out, "chronicle_trace_spans_emitted_total",
              "Spans emitted into the trace ring", snapshot.trace_emitted);

  for (const MetricSample& m : snapshot.metrics) {
    const std::string name = "chronicle_" + m.name;
    if (m.is_histogram) {
      Appendf(&out, "# HELP %s %s\n# TYPE %s histogram\n", name.c_str(),
              m.help.c_str(), name.c_str());
      PromHistogram(&out, name, "", m.histogram);
    } else {
      PromCounter(&out, name, m.help, m.value);
    }
  }

  if (!snapshot.views.empty()) {
    struct Field {
      const char* metric;
      const char* help;
      uint64_t (*get)(const ViewStats&);
    };
    static const Field kFields[] = {
        {"chronicle_view_ticks_total", "Delta computations for the view",
         [](const ViewStats& s) { return s.ticks; }},
        {"chronicle_view_updates_total", "Ticks that changed the view",
         [](const ViewStats& s) { return s.updates; }},
        {"chronicle_view_delta_rows_total", "Delta rows folded into the view",
         [](const ViewStats& s) { return s.delta_rows; }},
        {"chronicle_view_compiled_ticks_total",
         "Ticks served by the compiled plan",
         [](const ViewStats& s) { return s.compiled_ticks; }},
        {"chronicle_view_interpreted_ticks_total",
         "Always 0 (every tick runs a compiled plan)",
         [](const ViewStats& s) { return s.interpreted_ticks; }},
        {"chronicle_view_relation_lookups_total",
         "Relation index probes during maintenance",
         [](const ViewStats& s) { return s.relation_lookups; }},
        {"chronicle_view_plan_slots", "Slots in the compiled delta plan",
         [](const ViewStats& s) { return uint64_t{s.plan_slots}; }},
        {"chronicle_view_arena_hwm_bytes", "Scratch arena high-water mark",
         [](const ViewStats& s) { return s.arena_hwm_bytes; }},
    };
    for (const Field& f : kFields) {
      Appendf(&out, "# HELP %s %s\n# TYPE %s counter\n", f.metric, f.help,
              f.metric);
      for (const ViewStatsSnapshot& v : snapshot.views) {
        Appendf(&out, "%s{view=\"%s\"} %" PRIu64 "\n", f.metric,
                Escape(v.name).c_str(), f.get(v.stats));
      }
    }
  }

  if (snapshot.wal.attached) {
    const WalStatsSnapshot& w = snapshot.wal;
    PromCounter(&out, "chronicle_wal_records_total", "WAL records logged",
                w.records_logged);
    PromCounter(&out, "chronicle_wal_bytes_total", "WAL bytes logged",
                w.bytes_logged);
    PromCounter(&out, "chronicle_wal_syncs_total", "WAL fsync calls", w.syncs);
    PromCounter(&out, "chronicle_wal_group_commits_total",
                "Group-commit batches written", w.group_commits);
    PromCounter(&out, "chronicle_wal_group_commit_ticks_total",
                "Ticks covered by group commits", w.group_commit_ticks);
    Appendf(&out,
            "# HELP chronicle_wal_fsync_latency_ns WAL fsync latency\n"
            "# TYPE chronicle_wal_fsync_latency_ns histogram\n");
    PromHistogram(&out, "chronicle_wal_fsync_latency_ns", "", w.fsync_latency);
  }

  if (snapshot.storage.attached) {
    const StorageStatsSnapshot& s = snapshot.storage;
    // Aggregate counters (storage_*_total) come from the metrics registry
    // above; only the section-local aggregates and per-chronicle tier
    // gauges are rendered here, under distinct names.
    PromCounter(&out, "chronicle_storage_segments_quarantined_total",
                "Segments quarantined as corrupt at attach",
                s.segments_quarantined);
    PromCounter(&out, "chronicle_storage_backfill_views_total",
                "Views registered with historical backfill", s.backfill_views);
    PromCounter(&out, "chronicle_storage_backfill_rows_total",
                "Rows replayed into late-registered views", s.backfill_rows);
    if (!s.chronicles.empty()) {
      struct Field {
        const char* metric;
        const char* help;
        uint64_t (*get)(const ChronicleTierSnapshot&);
      };
      static const Field kFields[] = {
          {"chronicle_storage_hot_rows", "Rows in the hot in-memory window",
           [](const ChronicleTierSnapshot& c) { return c.hot_rows; }},
          {"chronicle_storage_hot_bytes",
           "Approximate in-memory bytes of the hot window",
           [](const ChronicleTierSnapshot& c) { return c.hot_bytes; }},
          {"chronicle_storage_warm_rows", "Rows in sealed warm segments",
           [](const ChronicleTierSnapshot& c) { return c.warm_rows; }},
          {"chronicle_storage_warm_segments", "Sealed warm segment files",
           [](const ChronicleTierSnapshot& c) { return c.warm_segments; }},
          {"chronicle_storage_warm_bytes", "On-disk bytes of warm segments",
           [](const ChronicleTierSnapshot& c) { return c.warm_bytes; }},
          {"chronicle_storage_warm_raw_bytes",
           "In-memory-equivalent bytes of the warm rows",
           [](const ChronicleTierSnapshot& c) { return c.warm_raw_bytes; }},
          {"chronicle_storage_last_sealed_sn",
           "Highest SN covered by a sealed segment",
           [](const ChronicleTierSnapshot& c) { return c.last_sealed_sn; }},
      };
      for (const Field& f : kFields) {
        Appendf(&out, "# HELP %s %s\n# TYPE %s gauge\n", f.metric, f.help,
                f.metric);
        for (const ChronicleTierSnapshot& c : s.chronicles) {
          Appendf(&out, "%s{chronicle=\"%s\"} %" PRIu64 "\n", f.metric,
                  Escape(c.name).c_str(), f.get(c));
        }
      }
    }
  }

  if (snapshot.sharding.attached) {
    const ShardingStatsSnapshot& sh = snapshot.sharding;
    Appendf(&out,
            "# HELP chronicle_sharding_num_shards Shards in the router\n"
            "# TYPE chronicle_sharding_num_shards gauge\n"
            "chronicle_sharding_num_shards %zu\n",
            sh.num_shards);
    struct Field {
      const char* metric;
      const char* help;
      const char* type;
      uint64_t (*get)(const ShardStatsSnapshot&);
    };
    static const Field kFields[] = {
        {"chronicle_shard_appends_processed_total",
         "Ticks applied by the shard's engine", "counter",
         [](const ShardStatsSnapshot& s) { return s.appends_processed; }},
        {"chronicle_shard_queue_depth",
         "Rows waiting in the shard's ingest lanes", "gauge",
         [](const ShardStatsSnapshot& s) { return s.queue_depth; }},
        {"chronicle_shard_enqueued_batches_total",
         "Batches routed to the shard", "counter",
         [](const ShardStatsSnapshot& s) { return s.enqueued_batches; }},
        {"chronicle_shard_routed_rows_total", "Rows routed to the shard",
         "counter",
         [](const ShardStatsSnapshot& s) { return s.routed_rows; }},
    };
    for (const Field& f : kFields) {
      Appendf(&out, "# HELP %s %s\n# TYPE %s %s\n", f.metric, f.help, f.metric,
              f.type);
      for (const ShardStatsSnapshot& s : sh.shards) {
        Appendf(&out, "%s{shard=\"%zu\"} %" PRIu64 "\n", f.metric, s.shard,
                f.get(s));
      }
    }
    Appendf(&out,
            "# HELP chronicle_shard_tick_ns Per-shard maintenance tick "
            "latency\n# TYPE chronicle_shard_tick_ns histogram\n");
    for (const ShardStatsSnapshot& s : sh.shards) {
      if (!s.tick_latency_populated) continue;
      PromHistogram(&out, "chronicle_shard_tick_ns",
                    "shard=\"" + std::to_string(s.shard) + "\"",
                    s.tick_latency);
    }
  }

  if (snapshot.net.attached) {
    const NetStatsSnapshot& n = snapshot.net;
    PromCounter(&out, "chronicle_net_requests_total",
                "HTTP requests routed by the wire service", n.requests_total);
    PromCounter(&out, "chronicle_net_http_errors_total",
                "Wire-service responses with status >= 400",
                n.http_errors_total);
    PromCounter(&out, "chronicle_net_sessions_opened_total",
                "Sessions opened over the wire", n.sessions_opened);
    Appendf(&out,
            "# HELP chronicle_net_active_sessions Currently open sessions\n"
            "# TYPE chronicle_net_active_sessions gauge\n"
            "chronicle_net_active_sessions %" PRIu64 "\n",
            n.active_sessions);
    PromCounter(&out, "chronicle_net_sql_statements_total",
                "Statements executed via POST /v1/sql",
                n.sql_statements_total);
    PromCounter(&out, "chronicle_net_append_batches_total",
                "Ticks accepted via POST /v1/append", n.append_batches_total);
    PromCounter(&out, "chronicle_net_append_rows_total",
                "Rows accepted via POST /v1/append", n.append_rows_total);
    PromCounter(&out, "chronicle_net_rows_applied_total",
                "Accepted rows applied by the ingest worker",
                n.rows_applied_total);
    Appendf(&out,
            "# HELP chronicle_net_queue_rows Rows waiting in session ingest "
            "queues\n# TYPE chronicle_net_queue_rows gauge\n"
            "chronicle_net_queue_rows %" PRIu64 "\n",
            n.queue_rows);
    PromCounter(&out, "chronicle_net_rejected_backpressure_total",
                "Appends rejected with 429 by a full session queue",
                n.rejected_backpressure_total);
    PromCounter(&out, "chronicle_net_rejected_quota_total",
                "Appends rejected with 429 by a spent session row quota",
                n.rejected_quota_total);
    PromCounter(&out, "chronicle_net_rejected_auth_total",
                "Requests rejected with 401", n.rejected_auth_total);
    if (!n.sessions.empty()) {
      struct Field {
        const char* metric;
        const char* help;
        const char* type;
        uint64_t (*get)(const NetSessionSnapshot&);
      };
      static const Field kFields[] = {
          {"chronicle_net_session_statements_total",
           "Statements executed by the session", "counter",
           [](const NetSessionSnapshot& s) { return s.statements; }},
          {"chronicle_net_session_rows_accepted_total",
           "Rows accepted into the session's queue", "counter",
           [](const NetSessionSnapshot& s) { return s.append_rows_accepted; }},
          {"chronicle_net_session_rows_applied_total",
           "Session rows applied by the ingest worker", "counter",
           [](const NetSessionSnapshot& s) { return s.append_rows_applied; }},
          {"chronicle_net_session_queue_rows",
           "Rows waiting in the session's bounded queue", "gauge",
           [](const NetSessionSnapshot& s) { return s.queue_rows; }},
          {"chronicle_net_session_rejected_backpressure_total",
           "Session 429s from a full queue", "counter",
           [](const NetSessionSnapshot& s) { return s.rejected_backpressure; }},
          {"chronicle_net_session_rejected_quota_total",
           "Session 429s from a spent row quota", "counter",
           [](const NetSessionSnapshot& s) { return s.rejected_quota; }},
      };
      for (const Field& f : kFields) {
        Appendf(&out, "# HELP %s %s\n# TYPE %s %s\n", f.metric, f.help,
                f.metric, f.type);
        for (const NetSessionSnapshot& s : n.sessions) {
          Appendf(&out, "%s{session=\"%s\"} %" PRIu64 "\n", f.metric,
                  Escape(s.id).c_str(), f.get(s));
        }
      }
    }
  }

  if (snapshot.req.attached) {
    const ReqStatsSnapshot& r = snapshot.req;
    PromCounter(&out, "chronicle_req_sampled_total",
                "Requests whose span tree was sampled", r.sampled_requests);
    PromCounter(&out, "chronicle_req_unsampled_total",
                "Requests that took the zero-span overhead path",
                r.unsampled_requests);
    PromCounter(&out, "chronicle_req_spans_emitted_total",
                "Spans emitted into the request-trace ring",
                r.spans_emitted);
    PromCounter(&out, "chronicle_req_slow_captures_total",
                "Slow-request flight-recorder captures", r.slow_captures);
    // Per-stage latency: one histogram family with a stage label; every
    // fixed stage is present (empty histograms still emit _sum/_count)
    // so dashboards can key on the full glossary before traffic.
    Appendf(&out,
            "# HELP chronicle_req_stage_ns Per-stage request latency\n"
            "# TYPE chronicle_req_stage_ns histogram\n");
    for (const ReqStageStatsSnapshot& s : r.stages) {
      PromHistogram(&out, "chronicle_req_stage_ns",
                    "stage=\"" + Escape(s.stage) + "\"", s.latency);
    }
    // RED per endpoint: rate, errors, duration.
    Appendf(&out,
            "# HELP chronicle_req_requests_total Requests per endpoint\n"
            "# TYPE chronicle_req_requests_total counter\n");
    for (const ReqEndpointStatsSnapshot& e : r.endpoints) {
      Appendf(&out, "chronicle_req_requests_total{endpoint=\"%s\"} %" PRIu64
                    "\n",
              Escape(e.endpoint).c_str(), e.requests);
    }
    Appendf(&out,
            "# HELP chronicle_req_errors_total Responses with status >= 400 "
            "per endpoint\n"
            "# TYPE chronicle_req_errors_total counter\n");
    for (const ReqEndpointStatsSnapshot& e : r.endpoints) {
      Appendf(&out, "chronicle_req_errors_total{endpoint=\"%s\"} %" PRIu64
                    "\n",
              Escape(e.endpoint).c_str(), e.errors);
    }
    Appendf(&out,
            "# HELP chronicle_req_duration_ns Request latency per endpoint\n"
            "# TYPE chronicle_req_duration_ns histogram\n");
    for (const ReqEndpointStatsSnapshot& e : r.endpoints) {
      PromHistogram(&out, "chronicle_req_duration_ns",
                    "endpoint=\"" + Escape(e.endpoint) + "\"", e.duration);
    }
  }
  return out;
}

std::string RenderJson(const StatsSnapshot& snapshot) {
  std::string out;
  out += "{";
  Appendf(&out, "\"appends_processed\":%" PRIu64 ",", snapshot.appends_processed);
  Appendf(&out, "\"live_views\":%" PRIu64 ",", snapshot.live_views);
  Appendf(&out, "\"delta_cache\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64 "},",
          snapshot.delta_cache_hits, snapshot.delta_cache_misses);
  Appendf(&out, "\"trace\":{\"emitted\":%" PRIu64 ",\"capacity\":%" PRIu64 "},",
          snapshot.trace_emitted, snapshot.trace_capacity);

  out += "\"metrics\":{";
  for (size_t i = 0; i < snapshot.metrics.size(); ++i) {
    const MetricSample& m = snapshot.metrics[i];
    if (i > 0) out += ",";
    Appendf(&out, "\"%s\":", Escape(m.name).c_str());
    if (m.is_histogram) {
      JsonHistogram(&out, m.histogram);
    } else {
      Appendf(&out, "%" PRIu64, m.value);
    }
  }
  out += "},";

  out += "\"views\":[";
  for (size_t i = 0; i < snapshot.views.size(); ++i) {
    const ViewStatsSnapshot& v = snapshot.views[i];
    const ViewStats& s = v.stats;
    if (i > 0) out += ",";
    Appendf(&out,
            "{\"name\":\"%s\",\"ticks\":%" PRIu64 ",\"updates\":%" PRIu64
            ",\"delta_rows\":%" PRIu64 ",\"compiled_ticks\":%" PRIu64
            ",\"interpreted_ticks\":%" PRIu64 ",\"relation_lookups\":%" PRIu64
            ",\"max_intermediate_rows\":%" PRIu64 ",\"plan_slots\":%u"
            ",\"arena_hwm_bytes\":%" PRIu64 ",\"max_dedupe_load\":%s",
            Escape(v.name).c_str(), s.ticks, s.updates, s.delta_rows,
            s.compiled_ticks, s.interpreted_ticks, s.relation_lookups,
            s.max_intermediate_rows, s.plan_slots, s.arena_hwm_bytes,
            Dbl(s.max_dedupe_load).c_str());
    if (v.profiled) {
      out += ",\"latency\":";
      JsonHistogram(&out, v.latency);
    }
    out += "}";
  }
  out += "],";

  out += "\"wal\":";
  if (snapshot.wal.attached) {
    const WalStatsSnapshot& w = snapshot.wal;
    Appendf(&out,
            "{\"records_logged\":%" PRIu64 ",\"bytes_logged\":%" PRIu64
            ",\"syncs\":%" PRIu64 ",\"segments_created\":%" PRIu64
            ",\"segments_removed\":%" PRIu64 ",\"checkpoints_written\":%" PRIu64
            ",\"group_commits\":%" PRIu64 ",\"group_commit_ticks\":%" PRIu64
            ",\"fsync_latency\":",
            w.records_logged, w.bytes_logged, w.syncs, w.segments_created,
            w.segments_removed, w.checkpoints_written, w.group_commits,
            w.group_commit_ticks);
    JsonHistogram(&out, w.fsync_latency);
    if (w.recovered) {
      Appendf(&out,
              ",\"recovery\":{\"applied\":%" PRIu64 ",\"skipped\":%" PRIu64 "}",
              w.recovery_records_applied, w.recovery_records_skipped);
    }
    out += "}";
  } else {
    out += "null";
  }

  out += ",\"storage\":";
  if (snapshot.storage.attached) {
    const StorageStatsSnapshot& s = snapshot.storage;
    Appendf(&out,
            "{\"data_dir\":\"%s\",\"segments_sealed\":%" PRIu64
            ",\"segments_evicted\":%" PRIu64
            ",\"segments_quarantined\":%" PRIu64 ",\"rows_sealed\":%" PRIu64
            ",\"rows_evicted\":%" PRIu64 ",\"bytes_written\":%" PRIu64
            ",\"seal_failures\":%" PRIu64 ",\"backfill_views\":%" PRIu64
            ",\"backfill_rows\":%" PRIu64 ",\"chronicles\":[",
            Escape(s.data_dir).c_str(), s.segments_sealed, s.segments_evicted,
            s.segments_quarantined, s.rows_sealed, s.rows_evicted,
            s.bytes_written, s.seal_failures, s.backfill_views,
            s.backfill_rows);
    for (size_t i = 0; i < s.chronicles.size(); ++i) {
      const ChronicleTierSnapshot& c = s.chronicles[i];
      if (i > 0) out += ",";
      Appendf(&out,
              "{\"name\":\"%s\",\"hot_rows\":%" PRIu64 ",\"hot_bytes\":%" PRIu64
              ",\"warm_segments\":%" PRIu64 ",\"warm_rows\":%" PRIu64
              ",\"warm_bytes\":%" PRIu64 ",\"warm_raw_bytes\":%" PRIu64
              ",\"last_sealed_sn\":%" PRIu64 "}",
              Escape(c.name).c_str(), c.hot_rows, c.hot_bytes, c.warm_segments,
              c.warm_rows, c.warm_bytes, c.warm_raw_bytes, c.last_sealed_sn);
    }
    out += "]}";
  } else {
    out += "null";
  }

  out += ",\"sharding\":";
  if (snapshot.sharding.attached) {
    const ShardingStatsSnapshot& sh = snapshot.sharding;
    Appendf(&out, "{\"num_shards\":%zu,\"partition_key\":\"%s\",\"shards\":[",
            sh.num_shards, Escape(sh.partition_key).c_str());
    for (size_t i = 0; i < sh.shards.size(); ++i) {
      const ShardStatsSnapshot& s = sh.shards[i];
      if (i > 0) out += ",";
      Appendf(&out,
              "{\"shard\":%zu,\"appends_processed\":%" PRIu64
              ",\"queue_depth\":%" PRIu64 ",\"enqueued_batches\":%" PRIu64
              ",\"routed_rows\":%" PRIu64,
              s.shard, s.appends_processed, s.queue_depth, s.enqueued_batches,
              s.routed_rows);
      if (s.tick_latency_populated) {
        out += ",\"tick_latency\":";
        JsonHistogram(&out, s.tick_latency);
      }
      out += "}";
    }
    out += "]}";
  } else {
    out += "null";
  }

  out += ",\"net\":";
  if (snapshot.net.attached) {
    const NetStatsSnapshot& n = snapshot.net;
    Appendf(&out,
            "{\"port\":%u,\"requests_total\":%" PRIu64
            ",\"http_errors_total\":%" PRIu64 ",\"sessions_opened\":%" PRIu64
            ",\"active_sessions\":%" PRIu64 ",\"sql_statements_total\":%" PRIu64
            ",\"append_batches_total\":%" PRIu64
            ",\"append_rows_total\":%" PRIu64 ",\"rows_applied_total\":%" PRIu64
            ",\"queue_rows\":%" PRIu64
            ",\"rejected_backpressure_total\":%" PRIu64
            ",\"rejected_quota_total\":%" PRIu64
            ",\"rejected_auth_total\":%" PRIu64 ",\"sessions\":[",
            unsigned{n.port}, n.requests_total, n.http_errors_total,
            n.sessions_opened, n.active_sessions, n.sql_statements_total,
            n.append_batches_total, n.append_rows_total, n.rows_applied_total,
            n.queue_rows, n.rejected_backpressure_total,
            n.rejected_quota_total, n.rejected_auth_total);
    for (size_t i = 0; i < n.sessions.size(); ++i) {
      const NetSessionSnapshot& s = n.sessions[i];
      if (i > 0) out += ",";
      Appendf(&out,
              "{\"id\":\"%s\",\"statements\":%" PRIu64
              ",\"append_rows_accepted\":%" PRIu64
              ",\"append_rows_applied\":%" PRIu64 ",\"queue_rows\":%" PRIu64
              ",\"rejected_backpressure\":%" PRIu64
              ",\"rejected_quota\":%" PRIu64 ",\"row_quota\":%" PRIu64 "}",
              Escape(s.id).c_str(), s.statements, s.append_rows_accepted,
              s.append_rows_applied, s.queue_rows, s.rejected_backpressure,
              s.rejected_quota, s.row_quota);
    }
    out += "]}";
  } else {
    out += "null";
  }

  out += ",\"req\":";
  if (snapshot.req.attached) {
    const ReqStatsSnapshot& r = snapshot.req;
    Appendf(&out,
            "{\"sample_rate\":%s,\"sampled_requests\":%" PRIu64
            ",\"unsampled_requests\":%" PRIu64 ",\"spans_emitted\":%" PRIu64
            ",\"capacity\":%" PRIu64 ",\"slow_captures\":%" PRIu64
            ",\"slow_budget_ns\":%" PRId64 ",\"stages\":{",
            Dbl(r.sample_rate).c_str(), r.sampled_requests,
            r.unsampled_requests, r.spans_emitted, r.capacity,
            r.slow_captures, r.slow_budget_ns);
    for (size_t i = 0; i < r.stages.size(); ++i) {
      const ReqStageStatsSnapshot& s = r.stages[i];
      if (i > 0) out += ",";
      Appendf(&out, "\"%s\":", Escape(s.stage).c_str());
      JsonHistogram(&out, s.latency);
    }
    out += "},\"endpoints\":{";
    for (size_t i = 0; i < r.endpoints.size(); ++i) {
      const ReqEndpointStatsSnapshot& e = r.endpoints[i];
      if (i > 0) out += ",";
      Appendf(&out, "\"%s\":{\"requests\":%" PRIu64 ",\"errors\":%" PRIu64
                    ",\"duration\":",
              Escape(e.endpoint).c_str(), e.requests, e.errors);
      JsonHistogram(&out, e.duration);
      out += "}";
    }
    out += "}}";
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

std::string RenderTraceText(const std::vector<TraceSpan>& spans,
                            uint64_t total_emitted, uint64_t capacity) {
  std::string out;
  Appendf(&out, "trace ring: %" PRIu64 " spans emitted, %zu retained (capacity %" PRIu64 ")\n",
          total_emitted, spans.size(), capacity);
  for (const TraceSpan& span : spans) {
    Appendf(&out,
            "  #%-6" PRIu64 " %-12s sn=%-6" PRIu64 " worker=%-2u t=%.3fms dur=%.3fus d0=%" PRIu64
            " d1=%" PRIu64 "\n",
            span.seq, SpanKindToString(span.kind), span.sn,
            unsigned{span.worker}, span.start_ns / 1e6, span.duration_ns / 1e3,
            span.detail0, span.detail1);
  }
  return out;
}

namespace {

// One span listing, every span tagged with the shard that emitted it
// (-1 = unsharded) — seq orders spans only within one shard's ring.
void JsonSpanArray(std::string* out, const std::vector<TraceSpan>& spans,
                   int shard) {
  *out += "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    if (i > 0) *out += ",";
    Appendf(out,
            "{\"seq\":%" PRIu64 ",\"kind\":\"%s\",\"shard\":%d,\"worker\":%u"
            ",\"sn\":%" PRIu64 ",\"start_ns\":%" PRId64
            ",\"duration_ns\":%" PRId64 ",\"detail0\":%" PRIu64
            ",\"detail1\":%" PRIu64 "}",
            span.seq, SpanKindToString(span.kind), shard,
            unsigned{span.worker}, span.sn, span.start_ns, span.duration_ns,
            span.detail0, span.detail1);
  }
  *out += "]";
}

}  // namespace

std::string RenderTraceJson(const std::vector<TraceSpan>& spans,
                            uint64_t total_emitted, uint64_t capacity) {
  std::string out;
  Appendf(&out, "{\"emitted\":%" PRIu64 ",\"capacity\":%" PRIu64
                ",\"spans\":",
          total_emitted, capacity);
  JsonSpanArray(&out, spans, /*shard=*/-1);
  out += "}";
  return out;
}

std::string RenderTraceJson(const std::vector<ShardTraceSnapshot>& shards) {
  uint64_t emitted = 0;
  uint64_t capacity = 0;
  for (const ShardTraceSnapshot& s : shards) {
    emitted += s.emitted;
    capacity += s.capacity;
  }
  std::string out;
  Appendf(&out, "{\"emitted\":%" PRIu64 ",\"capacity\":%" PRIu64
                ",\"shards\":[",
          emitted, capacity);
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardTraceSnapshot& s = shards[i];
    if (i > 0) out += ",";
    Appendf(&out, "{\"shard\":%d,\"emitted\":%" PRIu64 ",\"capacity\":%" PRIu64
                  ",\"spans\":",
            s.shard, s.emitted, s.capacity);
    JsonSpanArray(&out, s.spans, s.shard);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string JsonEscape(const std::string& s) { return Escape(s); }

Status ValidateJson(const std::string& text) {
  return JsonParser(text).Validate();
}

}  // namespace obs
}  // namespace chronicle
