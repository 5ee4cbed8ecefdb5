#pragma once
// Beam bookkeeping for the scheduler: what one satellite's beams are doing
// at an epoch.

#include <cstdint>

namespace leodivide::sim {

/// Per-satellite beam budget tracker. A satellite has `total_beams` user
/// beams. A cell needing b >= 2 beams consumes b whole beams. Cells needing
/// one beam are packed into shared beams: each shared beam carries up to
/// `beamspread` cells.
class BeamBudget {
 public:
  BeamBudget(std::uint32_t total_beams, std::uint32_t beamspread);

  /// Attempts to reserve `beams` whole beams; false if insufficient.
  [[nodiscard]] bool reserve_whole(std::uint32_t beams) noexcept;

  /// Attempts to reserve one shared-slot (a 1/beamspread share of a beam);
  /// opens a new shared beam when needed. False when no beam is free.
  [[nodiscard]] bool reserve_shared_slot() noexcept;

  [[nodiscard]] std::uint32_t beams_free() const noexcept {
    return beams_free_;
  }
  [[nodiscard]] std::uint32_t beams_used() const noexcept {
    return total_ - beams_free_;
  }
  [[nodiscard]] std::uint32_t shared_slots_free() const noexcept {
    return shared_slots_free_;
  }
  [[nodiscard]] std::uint32_t cells_assigned() const noexcept {
    return cells_assigned_;
  }

  /// Remaining capacity in cell units: whole-beam cells it could still take
  /// plus open shared slots (used by the scheduler's satellite choice).
  [[nodiscard]] std::uint32_t slack() const noexcept {
    return beams_free_ * beamspread_ + shared_slots_free_;
  }

 private:
  std::uint32_t total_;
  std::uint32_t beamspread_;
  std::uint32_t beams_free_;
  std::uint32_t shared_slots_free_ = 0;
  std::uint32_t cells_assigned_ = 0;
};

}  // namespace leodivide::sim
