// String encoding shared by every text and JSON emitter: a printf-append
// that grows its output instead of truncating it, and the one JSON string
// escaper.

#ifndef CHRONICLE_COMMON_STRINGS_H_
#define CHRONICLE_COMMON_STRINGS_H_

#include <string>
#include <string_view>

namespace chronicle {

// Appends printf-formatted text to `out`, however long it is.
void StrAppendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// Escapes `s` for the inside of a JSON string literal (`"`, `\`, the \n \t
// \r shorthands, \u00XX for other control bytes); also a valid Prometheus
// label value.
std::string JsonEscape(std::string_view s);

}  // namespace chronicle

#endif  // CHRONICLE_COMMON_STRINGS_H_
