#pragma once
// Multi-operator spectrum sharing. When several operators' Schedule-S
// tables overlap (Starlink and OneWeb both claim 10.7-12.7 GHz Ku;
// Starlink and Kuiper share the Ka downlink bands), a sharing regime
// decides how much of its filed user-downlink spectrum each operator can
// actually energise over a cell. Three policies:
//
//   * kExclusive     — the regulatory fiction the paper implicitly assumes:
//                      every operator uses its full table everywhere.
//   * kProportional  — each contested slice is divided equally among its
//                      claimants, everywhere (a static coordination split).
//   * kFairShare     — a FairShare-style geographic split (arXiv
//                      2601.09641): latitude zones rotate priority among
//                      the operators; in its priority zones an operator
//                      takes `priority_weight` of each contested slice it
//                      claims, the rest is divided among the other
//                      claimants.
//
// The resulting share — the usable fraction of an operator's user-downlink
// spectrum — depends only on (operator, zone-priority operator), so the
// whole policy reduces to an n x n share matrix computed once from the
// elementary intervals of the overlapping band tables.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "leodivide/market/operator.hpp"

namespace leodivide::market {

/// How contested spectrum is divided among claimants.
enum class SplitPolicy : std::uint8_t {
  kExclusive = 0,
  kProportional = 1,
  kFairShare = 2,
};

[[nodiscard]] std::string_view to_string(SplitPolicy policy) noexcept;

/// Sharing-regime parameters.
struct SpectrumSplitConfig {
  SplitPolicy policy = SplitPolicy::kExclusive;

  /// FairShare latitude-zone height [deg]; zone k spans
  /// [-90 + k*zone_deg, -90 + (k+1)*zone_deg) and has priority operator
  /// k mod n.
  double zone_deg = 5.0;

  /// FairShare: fraction of a contested slice the zone's priority operator
  /// takes when it is a claimant, in [0, 1]. At 1.0 the other claimants
  /// get nothing there (their share may reach zero — such cells are simply
  /// unservable by them).
  double priority_weight = 0.7;

  /// Exact (bit-level) equality; snapshot round-trip tests rely on it.
  friend bool operator==(const SpectrumSplitConfig&,
                         const SpectrumSplitConfig&) = default;
};

/// Validates policy parameters; throws std::invalid_argument.
void validate(const SpectrumSplitConfig& config);

/// The resolved share matrix for one operator set under one policy.
class SpectrumSplit {
 public:
  /// Computes the shares from the operators' user-downlink-capable bands.
  /// Every operator must pass market::validate (positive user spectrum).
  SpectrumSplit(const std::vector<OperatorConfig>& operators,
                SpectrumSplitConfig config);

  [[nodiscard]] const SpectrumSplitConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t operator_count() const noexcept { return n_; }

  /// Priority operator of the latitude's zone (kFairShare rotation). The
  /// other policies are zone-independent; 0 is returned so callers can use
  /// a single code path.
  [[nodiscard]] std::size_t priority_operator(double lat_deg) const;

  /// Usable fraction of operator `op`'s user-downlink spectrum when
  /// `priority_op` holds zone priority, in [0, 1].
  [[nodiscard]] double share(std::size_t op, std::size_t priority_op) const;

  /// Whether `op`'s share is the same in every zone (always true for
  /// kExclusive / kProportional; true under kFairShare iff none of the
  /// operator's spectrum is contested).
  [[nodiscard]] bool uniform(std::size_t op) const;

  /// Zone-averaged share — the single number the economic ($/location-year)
  /// curves use for an operator under a geographic split. Equals share(op,
  /// 0) exactly for uniform operators.
  [[nodiscard]] double economic_share(std::size_t op) const;

 private:
  SpectrumSplitConfig config_;
  std::size_t n_ = 0;
  std::vector<double> matrix_;        ///< n*n, [op * n_ + priority_op]
  std::vector<bool> has_contested_;   ///< per op: claims a shared slice
};

}  // namespace leodivide::market
