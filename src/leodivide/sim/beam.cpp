#include "leodivide/sim/beam.hpp"

#include <stdexcept>

namespace leodivide::sim {

BeamBudget::BeamBudget(std::uint32_t total_beams, std::uint32_t beamspread)
    : total_(total_beams), beamspread_(beamspread), beams_free_(total_beams) {
  if (total_beams == 0 || beamspread == 0) {
    throw std::invalid_argument("BeamBudget: zero beams or beamspread");
  }
}

bool BeamBudget::reserve_whole(std::uint32_t beams) noexcept {
  if (beams == 0 || beams > beams_free_) return false;
  beams_free_ -= beams;
  ++cells_assigned_;
  return true;
}

bool BeamBudget::reserve_shared_slot() noexcept {
  if (shared_slots_free_ == 0) {
    if (beams_free_ == 0) return false;
    --beams_free_;
    shared_slots_free_ = beamspread_;
  }
  --shared_slots_free_;
  ++cells_assigned_;
  return true;
}

}  // namespace leodivide::sim
