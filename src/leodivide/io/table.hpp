#pragma once
// Aligned console tables. Every bench binary prints its paper-table /
// paper-figure reproduction through this writer so output is uniform.

#include <iosfwd>
#include <string>
#include <vector>

namespace leodivide::io {

/// Builds a fixed-width text table: add a header, then rows; render() pads
/// every column to its widest cell, the first left-aligned and the rest
/// right-aligned (the common numeric-table layout).
class TextTable {
 public:
  /// Sets the header row (also fixes the column count).
  void set_header(std::vector<std::string> header);

  /// Appends a row; throws std::invalid_argument if the column count does
  /// not match the header.
  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places.
[[nodiscard]] std::string fmt(double v, int digits = 2);

/// Formats an integer with thousands separators ("79,287").
[[nodiscard]] std::string fmt_count(long long v);

/// Formats a ratio as a percentage string with `digits` decimals.
[[nodiscard]] std::string fmt_pct(double ratio, int digits = 2);

}  // namespace leodivide::io
