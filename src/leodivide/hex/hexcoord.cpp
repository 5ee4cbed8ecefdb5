#include "leodivide/hex/hexcoord.hpp"

#include <cmath>

namespace leodivide::hex {

HexCoord hex_round(const FractionalHex& f) noexcept {
  const double fs = -f.q - f.r;
  double q = std::round(f.q);
  double r = std::round(f.r);
  const double s = std::round(fs);
  const double dq = std::abs(q - f.q);
  const double dr = std::abs(r - f.r);
  const double ds = std::abs(s - fs);
  if (dq > dr && dq > ds) {
    q = -r - s;
  } else if (dr > ds) {
    r = -q - s;
  }
  return {static_cast<std::int32_t>(q), static_cast<std::int32_t>(r)};
}

}  // namespace leodivide::hex
