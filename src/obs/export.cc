#include "obs/export.h"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstring>
#include <string_view>

#include "common/strings.h"
#include "obs/stats_table.h"

namespace chronicle {
namespace obs {

namespace {

namespace st = stats_table;
using st::ForEachRow;
using st::MemberOf;
using st::Table;

// Renders a double without locale surprises; trims to something readable.
std::string Dbl(double v) {
  std::string out;
  StrAppendf(&out, "%.6g", v);
  return out;
}

// A scalar as plain text: decimal integers, %.6g doubles, raw strings.
template <class M>
std::string Plain(const M& v) {
  if constexpr (std::is_same_v<M, std::string>) return v;
  else if constexpr (std::is_floating_point_v<M>) return Dbl(v);
  else return std::to_string(v);
}

// A list row's key as text (a view's name, a shard's index).
template <class R>
std::string KeyText(const R& r) {
  return Plain(r.*st::kKeyRow<R>.member);
}

// --- text ---

// Calls fn with the value of row `key` of s, looking into inlined structs.
template <class S, class Fn>
void WithField(const S& s, std::string_view key, Fn&& fn) {
  ForEachRow<S>([&](const auto& row) {
    if constexpr (st::Inlined<MemberOf<decltype(row)>>) {
      WithField(s.*row.member, key, fn);
    } else if (key == row.key) {
      fn(s.*row.member);
    }
  });
}

// What a "?key " guard tests: nonzero, nonempty or attached.
template <class M>
bool Truthy(const M& v) {
  if constexpr (st::Section<M>) return v.attached;
  else if constexpr (std::is_same_v<M, LatencyHistogram>) return v.count() > 0;
  else if constexpr (std::is_arithmetic_v<M>) return v != 0;
  else return !v.empty();
}

template <class S>
void Text(const S& s, std::string* out);

template <class M>
void TextValue(const M& v, std::string* out) {
  if constexpr (std::is_same_v<M, LatencyHistogram>) {
    *out += v.ToString();
  } else if constexpr (std::is_same_v<M, std::vector<MetricSample>>) {
    for (const MetricSample& m : v) {
      StrAppendf(out, "  %-40s %s\n", m.name.c_str(),
                 (m.is_histogram ? m.histogram.ToString()
                                 : std::to_string(m.value))
                     .c_str());
    }
  } else if constexpr (st::kIsList<M>) {
    for (const auto& r : v) Text(r, out);
  } else if constexpr (st::Section<M>) {
    Text(v, out);
  } else {
    *out += Plain(v);
  }
}

// Writes S's text template (the syntax is in obs/stats_table.h).
template <class S>
void Text(const S& s, std::string* out) {
  for (std::string_view entry : Table<S>::text) {
    bool shown = true;
    while (entry.starts_with('?')) {
      const size_t end = entry.find(' ');
      WithField(s, entry.substr(1, end - 1),
                [&](const auto& v) { shown = shown && Truthy(v); });
      entry.remove_prefix(end + 1);
    }
    if (!shown) continue;
    for (size_t open; (open = entry.find('{')) != entry.npos;) {
      out->append(entry.substr(0, open));
      const size_t close = entry.find('}', open);
      const std::string_view spec = entry.substr(open + 1, close - open - 1);
      entry.remove_prefix(close + 1);
      const size_t mark = spec.find_first_of(":|");
      const std::string_view arg =
          mark == spec.npos ? std::string_view() : spec.substr(mark + 1);
      const size_t start = out->size();
      WithField(s, spec.substr(0, mark),
                [&](const auto& v) { TextValue(v, out); });
      size_t width = 0;
      if (mark != spec.npos && spec[mark] == ':') {
        std::from_chars(arg.data(), arg.data() + arg.size(), width);
      } else if (out->size() == start) {
        out->append(arg);  // the {key|x} fallback
      }
      if (out->size() - start < width) {
        out->append(width - (out->size() - start), ' ');
      }
    }
    out->append(entry);
  }
}

// --- Prometheus ---

void PromHistogram(std::string* out, const std::string& name,
                   const std::string& labels, const LatencyHistogram& h) {
  // Only emit non-empty buckets (plus the terminal +Inf) — 52 series per
  // histogram would drown the exposition; cumulative counts stay exact.
  uint64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += h.bucket(i);
    const bool last = i == LatencyHistogram::kBuckets - 1;
    if (h.bucket(i) == 0 && !last) continue;
    const std::string le =
        last ? "+Inf" : std::to_string(LatencyHistogram::BucketUpperBound(i));
    StrAppendf(out, "%s_bucket{%s%sle=\"%s\"} %" PRIu64 "\n", name.c_str(),
               labels.c_str(), labels.empty() ? "" : ",", le.c_str(),
               cumulative);
  }
  const std::string brace = labels.empty() ? "" : "{" + labels + "}";
  StrAppendf(out, "%s_sum%s %s\n", name.c_str(), brace.c_str(),
             Dbl(h.SumNanos()).c_str());
  StrAppendf(out, "%s_count%s %" PRIu64 "\n", name.c_str(), brace.c_str(),
             h.count());
}

// Writes the families of S's rows, family by family, with one sample per
// entry of `of`, labelled by the same entry of `labels`: one entry for
// the snapshot and its sections, one per row of a list.
template <class S>
void Prom(const std::vector<const S*>& of,
          const std::vector<std::string>& labels, std::string* out) {
  std::string held;  // a prom_late family, written after the next one
  ForEachRow<S>([&](const auto& row) {
    using M = MemberOf<decltype(row)>;
    std::vector<const M*> values;
    for (const S* s : of) values.push_back(&(s->*row.member));
    if constexpr (std::is_same_v<M, std::vector<MetricSample>>) {
      for (const MetricSample& m : *values[0]) {
        const std::string name = "chronicle_" + m.name;
        StrAppendf(out, "# HELP %s %s\n# TYPE %s %s\n", name.c_str(),
                   m.help.c_str(), name.c_str(),
                   m.is_histogram ? "histogram" : "counter");
        if (m.is_histogram) {
          PromHistogram(out, name, "", m.histogram);
        } else {
          StrAppendf(out, "%s %" PRIu64 "\n", name.c_str(), m.value);
        }
      }
    } else if constexpr (st::kIsList<M>) {  // lists hang off one struct
      using R = typename M::value_type;
      std::vector<const R*> rows;
      std::vector<std::string> row_labels;
      for (const R& r : *values[0]) {
        rows.push_back(&r);
        row_labels.push_back(std::string(st::kKeyRow<R>.prom) + "=\"" +
                             JsonEscape(KeyText(r)) + "\"");
      }
      if (!rows.empty()) Prom(rows, row_labels, out);
    } else if constexpr (st::Section<M>) {
      if (values[0]->attached) Prom(values, labels, out);
    } else if constexpr (st::Inlined<M>) {
      Prom(values, labels, out);
    } else if (row.kind != st::kInfo && row.kind != st::kMap) {
      static constexpr const char* kTypes[] = {"", "counter", "gauge",
                                               "histogram"};
      std::string family;
      StrAppendf(&family, "# HELP %s %s\n# TYPE %s %s\n", row.prom, row.help,
                 row.prom, kTypes[static_cast<int>(row.kind)]);
      for (size_t i = 0; i < of.size(); ++i) {
        if (row.guard != nullptr && !(of[i]->*row.guard)) continue;
        if constexpr (std::is_same_v<M, LatencyHistogram>) {
          PromHistogram(&family, row.prom, labels[i], *values[i]);
        } else if constexpr (std::is_arithmetic_v<M>) {
          const bool bare = labels[i].empty();
          StrAppendf(&family, "%s%s%s%s %s\n", row.prom, bare ? "" : "{",
                     labels[i].c_str(), bare ? "" : "}",
                     Plain(*values[i]).c_str());
        }
      }
      if (row.prom_late) {
        held = std::move(family);
        return;
      }
      *out += family;
      *out += held;
      held.clear();
    }
  });
}

// --- JSON ---

void JsonHistogram(std::string* out, const LatencyHistogram& h) {
  StrAppendf(out,
             "{\"count\":%" PRIu64 ",\"sum\":%s,\"min\":%" PRId64
             ",\"max\":%" PRId64 ",\"p50\":%" PRId64 ",\"p99\":%" PRId64 "}",
             h.count(), Dbl(h.SumNanos()).c_str(), h.MinNanos(), h.MaxNanos(),
             h.PercentileNanos(0.5), h.PercentileNanos(0.99));
}

// A comma before every member or element but the first.
void Comma(std::string* out) {
  if (out->back() != '{' && out->back() != '[') *out += ',';
}

void JsonKey(std::string_view key, std::string* out) {
  Comma(out);
  *out += '"' + JsonEscape(key) + "\":";
}

template <class S>
void JsonObject(const S& s, std::string* out, bool skip_key = false);

template <class Row, class M>
void JsonValue(const Row& row, const M& v, std::string* out) {
  if constexpr (std::is_same_v<M, LatencyHistogram>) {
    JsonHistogram(out, v);
  } else if constexpr (std::is_same_v<M, std::string>) {
    *out += '"' + JsonEscape(v) + '"';
  } else if constexpr (std::is_same_v<M, std::vector<MetricSample>>) {
    *out += '{';
    for (const MetricSample& m : v) {
      JsonKey(m.name, out);
      if (m.is_histogram) {
        JsonHistogram(out, m.histogram);
      } else {
        *out += std::to_string(m.value);
      }
    }
    *out += '}';
  } else if constexpr (st::kIsList<M>) {
    // A kMap list names each row by its key and maps it to its one other
    // field's value or, for a wider row, to an object of the others.
    using R = typename M::value_type;
    const bool map = row.kind == st::kMap;
    *out += map ? '{' : '[';
    for (const R& r : v) {
      if (!map) {
        Comma(out);
        JsonObject(r, out);
        continue;
      }
      JsonKey(KeyText(r), out);
      if constexpr (std::tuple_size_v<decltype(Table<R>::rows)> == 2) {
        ForEachRow<R>([&](const auto& f) {
          if (f.merge != st::kKey) JsonValue(f, r.*f.member, out);
        });
      } else {
        JsonObject(r, out, /*skip_key=*/true);
      }
    }
    *out += map ? '}' : ']';
  } else if constexpr (st::Section<M>) {
    if (v.attached) {
      JsonObject(v, out);
    } else {
      *out += "null";
    }
  } else {
    *out += Plain(v);
  }
}

// Writes s's rows into the open object. A dotted key "g.k" writes k into a
// nested object g, which the next key outside g closes.
template <class S>
void JsonMembers(const S& s, std::string* out, bool skip_key,
                 std::string_view* group) {
  ForEachRow<S>([&](const auto& row) {
    using M = MemberOf<decltype(row)>;
    if (std::is_same_v<M, bool> || (skip_key && row.merge == st::kKey) ||
        (row.guard != nullptr && !(s.*row.guard))) {
      return;
    }
    if constexpr (st::Inlined<M>) {
      JsonMembers(s.*row.member, out, false, group);
    } else {
      const std::string_view key = row.key;
      const size_t dot = key.find('.');
      const std::string_view g = key.substr(0, dot == key.npos ? 0 : dot);
      if (g != *group) {
        if (!group->empty()) *out += '}';
        if (!g.empty()) {
          JsonKey(g, out);
          *out += '{';
        }
        *group = g;
      }
      JsonKey(key.substr(g.empty() ? 0 : dot + 1), out);
      JsonValue(row, s.*row.member, out);
    }
  });
}

template <class S>
void JsonObject(const S& s, std::string* out, bool skip_key) {
  std::string_view group;
  *out += '{';
  JsonMembers(s, out, skip_key, &group);
  *out += group.empty() ? "}" : "}}";
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

// One span listing, every span tagged with the shard that emitted it
// (-1 = unsharded) — seq orders spans only within one shard's ring.
void JsonSpanArray(std::string* out, const std::vector<TraceSpan>& spans,
                   int shard) {
  *out += "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    if (i > 0) *out += ",";
    StrAppendf(out,
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

std::string RenderText(const StatsSnapshot& snapshot) {
  std::string out;
  Text(snapshot, &out);
  return out;
}

std::string RenderPrometheus(const StatsSnapshot& snapshot) {
  std::string out;
  Prom<StatsSnapshot>({&snapshot}, {""}, &out);
  return out;
}

std::string RenderJson(const StatsSnapshot& snapshot) {
  std::string out;
  JsonObject(snapshot, &out);
  return out;
}

std::string RenderTraceText(const std::vector<TraceSpan>& spans,
                            uint64_t total_emitted, uint64_t capacity) {
  std::string out;
  StrAppendf(&out,
             "trace ring: %" PRIu64 " spans emitted, %zu retained (capacity "
             "%" PRIu64 ")\n",
             total_emitted, spans.size(), capacity);
  for (const TraceSpan& span : spans) {
    StrAppendf(&out,
               "  #%-6" PRIu64 " %-12s sn=%-6" PRIu64
               " worker=%-2u t=%.3fms dur=%.3fus d0=%" PRIu64 " d1=%" PRIu64
               "\n",
               span.seq, SpanKindToString(span.kind), span.sn,
               unsigned{span.worker}, span.start_ns / 1e6,
               span.duration_ns / 1e3, span.detail0, span.detail1);
  }
  return out;
}

std::string RenderTraceJson(const std::vector<TraceSpan>& spans,
                            uint64_t total_emitted, uint64_t capacity) {
  std::string out;
  StrAppendf(&out, "{\"emitted\":%" PRIu64 ",\"capacity\":%" PRIu64
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
  StrAppendf(&out, "{\"emitted\":%" PRIu64 ",\"capacity\":%" PRIu64
                   ",\"shards\":[",
             emitted, capacity);
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardTraceSnapshot& s = shards[i];
    if (i > 0) out += ",";
    StrAppendf(&out, "{\"shard\":%d,\"emitted\":%" PRIu64
                     ",\"capacity\":%" PRIu64 ",\"spans\":",
               s.shard, s.emitted, s.capacity);
    JsonSpanArray(&out, s.spans, s.shard);
    out += "}";
  }
  out += "]}";
  return out;
}

Status ValidateJson(const std::string& text) {
  return JsonParser(text).Validate();
}

}  // namespace obs
}  // namespace chronicle
