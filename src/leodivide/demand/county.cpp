#include "leodivide/demand/county.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace leodivide::demand {

bool valid_median_income(double usd) noexcept {
  return std::isfinite(usd) && usd > 0.0;
}

CountyTable::CountyTable(std::vector<County> counties) {
  for (auto& c : counties) add(std::move(c));
}

std::uint32_t CountyTable::add(County county) {
  if (find(county.fips) >= 0) {
    throw std::invalid_argument("CountyTable: duplicate FIPS " + county.fips);
  }
  if (2 * (counties_.size() + 1) > fips_slots_.size()) {
    fips_slots_.assign(
        std::bit_ceil(std::max<std::size_t>(16, 4 * (counties_.size() + 1))),
        0);
    for (std::size_t i = 0; i < counties_.size(); ++i) {
      fips_slots_[slot_of(counties_[i].fips)] =
          static_cast<std::uint32_t>(i + 1);
    }
  }
  const std::size_t slot = slot_of(county.fips);
  counties_.push_back(std::move(county));
  fips_slots_[slot] = static_cast<std::uint32_t>(counties_.size());
  return static_cast<std::uint32_t>(counties_.size() - 1);
}

std::size_t CountyTable::slot_of(const std::string& fips) const {
  const std::size_t mask = fips_slots_.size() - 1;
  std::size_t slot = std::hash<std::string>{}(fips) & mask;
  while (fips_slots_[slot] != 0 &&
         counties_[fips_slots_[slot] - 1].fips != fips) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

const County& CountyTable::at(std::uint32_t index) const {
  if (index >= counties_.size()) throw std::out_of_range("CountyTable::at");
  return counties_[index];
}

County& CountyTable::at(std::uint32_t index) {
  if (index >= counties_.size()) throw std::out_of_range("CountyTable::at");
  return counties_[index];
}

std::int64_t CountyTable::find(const std::string& fips) const {
  if (fips_slots_.empty()) return -1;
  return static_cast<std::int64_t>(fips_slots_[slot_of(fips)]) - 1;
}

}  // namespace leodivide::demand
