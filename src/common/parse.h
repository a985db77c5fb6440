// Whole-token parsing of non-negative integer counts, for command-line
// flags and environment variables.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace protean {

/// Parses all of `text` as a non-negative decimal integer. A sign, a
/// fraction, an exponent, surrounding space, a trailing character ("12x")
/// or a value above 2^64 - 1 gives nullopt. Callers check their own range.
inline std::optional<std::uint64_t> parse_count(std::string_view text) {
  std::uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return n;
}

}  // namespace protean
