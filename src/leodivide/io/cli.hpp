#pragma once
// Command-line flag values, shared by the module flag parsers and the
// example CLIs: one matcher for the `--flag V` / `--flag=V` spellings and
// one whole-field number parser that names the flag on a bad value, so no
// binary truncates "0.01x", wraps "-1" or narrows "70000".

#include <charconv>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace leodivide::io {

/// Matches `--flag V` or `--flag=V` at argv[i]. On a match returns V,
/// advancing i past a separate value argument; returns std::nullopt when
/// argv[i] is any other argument. Throws std::runtime_error naming the
/// flag when the flag is present but its value is missing.
[[nodiscard]] std::optional<std::string_view> flag_value(int argc,
                                                         char** argv, int& i,
                                                         std::string_view flag);

/// Parses a whole flag value as a T with std::from_chars: the field must be
/// non-empty, fully consumed and in T's range (so "-1" fails for unsigned
/// T, and "nan" parses for double, leaving range checks to the caller).
/// Throws std::runtime_error "invalid <flag> value '<text>'" otherwise.
template <typename T>
[[nodiscard]] T parse_flag(std::string_view flag, std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error("invalid " + std::string(flag) + " value '" +
                             std::string(text) + "'");
  }
  return v;
}

/// parse_flag for a size or count: the value must also be finite and above
/// zero, so "0", "nan", "inf" and "-0.5" fail with the same message.
template <typename T>
[[nodiscard]] T parse_positive(std::string_view flag, std::string_view text) {
  const T v = parse_flag<T>(flag, text);
  if (!(v > T{0}) || !std::isfinite(static_cast<double>(v))) {
    throw std::runtime_error("invalid " + std::string(flag) + " value '" +
                             std::string(text) +
                             "': must be finite and above zero");
  }
  return v;
}

}  // namespace leodivide::io
