// Small string helpers shared by the CSV writer, CLI parser and renderers.
#ifndef ACS_UTIL_STRINGS_H
#define ACS_UTIL_STRINGS_H

#include <string>
#include <string_view>
#include <vector>

namespace dvs::util {

/// Splits `text` at every occurrence of `sep`; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style double formatting with a fixed number of decimals.
std::string FormatDouble(double value, int decimals);

/// Formats `value` as a percentage ("12.3%") with the given decimals.
std::string FormatPercent(double fraction, int decimals = 1);

/// Right-pads `text` with spaces to at least `width` characters.
std::string PadRight(std::string_view text, std::size_t width);

/// Lower-cases ASCII characters.
std::string ToLower(std::string_view text);

}  // namespace dvs::util

#endif  // ACS_UTIL_STRINGS_H
