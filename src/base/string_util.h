// String helpers shared by the description parser and report printers.

#ifndef SRC_BASE_STRING_UTIL_H_
#define SRC_BASE_STRING_UTIL_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace healer {

// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Removes leading and trailing ASCII whitespace.
std::string_view StrStrip(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Joins items with `sep`.
std::string StrJoin(const std::vector<std::string>& items, std::string_view sep);

// Strict number parsing for flag values: all of `text` must be the number
// (no sign, no whitespace, nothing after it). The error names the accepted
// range.
//   ParseUint            — an unsigned integer in [0, max];
//   ParseNonNegativeReal — a finite real >= 0.
Result<uint64_t> ParseUint(std::string_view text, uint64_t max);
Result<double> ParseNonNegativeReal(std::string_view text);

}  // namespace healer

#endif  // SRC_BASE_STRING_UTIL_H_
