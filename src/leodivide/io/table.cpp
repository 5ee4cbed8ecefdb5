#include "leodivide/io/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace leodivide::io {

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  if (!header_.empty() && row.size() != header_.size()) {
    throw std::invalid_argument("TextTable: row width != header width");
  }
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  const std::size_t cols =
      header_.empty() ? (rows_.empty() ? 0 : rows_.front().size())
                      : header_.size();
  if (cols == 0) return "";
  std::vector<std::size_t> width(cols, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < cols && c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  };
  if (!header_.empty()) widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      const std::size_t pad = width[c] - cell.size();
      if (c > 0) out << "  " << std::string(pad, ' ') << cell;
      else out << cell << std::string(pad, ' ');
    }
    out << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < cols; ++c) total += width[c] + (c ? 2 : 0);
    out << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) emit(r);
  return out.str();
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string fmt_count(long long v) {
  const bool neg = v < 0;
  unsigned long long u = neg ? static_cast<unsigned long long>(-(v + 1)) + 1
                             : static_cast<unsigned long long>(v);
  std::string digits = std::to_string(u);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

std::string fmt_pct(double ratio, int digits) {
  return fmt(ratio * 100.0, digits) + "%";
}

}  // namespace leodivide::io
