#ifndef WYM_UTIL_STRING_UTIL_H_
#define WYM_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Small string helpers shared by the tokenizer, CSV reader and benchmark
/// table printer. ASCII-oriented: the synthetic benchmark corpus is ASCII.

namespace wym::strings {

/// Lower-cases ASCII letters in place and returns the result.
std::string ToLower(std::string_view text);

/// Splits on a single delimiter character; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Splits on runs of whitespace; drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// Strips leading/trailing whitespace.
std::string Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses all of `text` as a decimal integer in [0, max]; no sign, no
/// whitespace. The one unsigned-number parser for flags and env knobs.
bool ParseUint(std::string_view text, uint64_t max, uint64_t* out);

/// True when every character is an ASCII digit (and text is non-empty).
bool IsNumeric(std::string_view text);

/// True when the token mixes letters and digits (product-code shape,
/// e.g. "dslra200w"); used by the domain-knowledge unit rules.
bool IsAlphanumericCode(std::string_view text);

/// Formats a double with fixed precision (printf "%.*f").
std::string FormatDouble(double value, int precision);

}  // namespace wym::strings

#endif  // WYM_UTIL_STRING_UTIL_H_
