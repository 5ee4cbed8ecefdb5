#include "leodivide/hex/cellid.hpp"

#include <sstream>
#include <stdexcept>

namespace leodivide::hex {

namespace {

constexpr std::uint32_t kCoordMask = (1U << 30) - 1;
constexpr std::int32_t kCoordLimit = 1 << 29;

constexpr std::uint32_t zigzag(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}

constexpr std::int32_t unzigzag(std::uint32_t u) noexcept {
  return static_cast<std::int32_t>((u >> 1) ^ (~(u & 1) + 1));
}

}  // namespace

CellId::CellId(int resolution, HexCoord coord) : bits_(0) {
  if (resolution < 0 || resolution > kMaxResolution) {
    throw std::out_of_range("CellId: resolution outside [0, 15]");
  }
  if (coord.q <= -kCoordLimit || coord.q >= kCoordLimit ||
      coord.r <= -kCoordLimit || coord.r >= kCoordLimit) {
    throw std::out_of_range("CellId: coordinate exceeds packing range");
  }
  bits_ = (static_cast<std::uint64_t>(resolution) << 60) |
          (static_cast<std::uint64_t>(zigzag(coord.q) & kCoordMask) << 30) |
          static_cast<std::uint64_t>(zigzag(coord.r) & kCoordMask);
}

CellId CellId::from_bits(std::uint64_t bits) {
  if (bits == kInvalidBits) return invalid();
  const int res = static_cast<int>(bits >> 60);
  if (res > kMaxResolution) {
    throw std::invalid_argument("CellId::from_bits: bad resolution nibble");
  }
  return CellId(bits);
}

int CellId::resolution() const noexcept {
  return valid() ? static_cast<int>(bits_ >> 60) : -1;
}

HexCoord CellId::coord() const noexcept {
  const auto qz = static_cast<std::uint32_t>((bits_ >> 30) & kCoordMask);
  const auto rz = static_cast<std::uint32_t>(bits_ & kCoordMask);
  return {unzigzag(qz), unzigzag(rz)};
}

std::string CellId::to_string() const {
  std::ostringstream os;
  os << std::hex << bits_;
  return os.str();
}

}  // namespace leodivide::hex
