#include "common/strings.h"

#include <cstdarg>
#include <cstdio>

namespace chronicle {

void StrAppendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n > 0) {
    const size_t old = out->size();
    out->resize(old + static_cast<size_t>(n) + 1);  // room for the NUL
    vsnprintf(out->data() + old, static_cast<size_t>(n) + 1, fmt, again);
    out->resize(old + static_cast<size_t>(n));
  }
  va_end(again);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n' || c == '\t' || c == '\r') {
      out += c == '\n' ? "\\n" : c == '\t' ? "\\t" : "\\r";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      StrAppendf(&out, "\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace chronicle
