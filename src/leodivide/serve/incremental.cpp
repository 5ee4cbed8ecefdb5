#include "leodivide/serve/incremental.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "leodivide/core/beamspread.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/runtime/executor.hpp"

namespace leodivide::serve {

namespace {

[[nodiscard]] std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

void count_metric(const char* name, std::uint64_t n = 1) {
  if (!obs::metrics_enabled()) return;
  obs::registry().counter(name).add(n);
}

}  // namespace

IncrementalEngine::IncrementalEngine(demand::DemandProfile baseline,
                                     EngineConfig config)
    : config_(config),
      grid_(),
      profile_(std::move(baseline)),
      applier_(profile_, grid_, hex::kServiceCellResolution) {
  const auto& cells = profile_.cells();
  cell_region_.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t region = region_of(cells[i].cell);
    regions_[region].members.push_back(i);
    cell_region_.push_back(region);
  }
  total_locations_ = profile_.total_locations();
}

std::size_t IncrementalEngine::region_of(hex::CellId cell) {
  const hex::CellId parent = grid_.parent_of(cell, kRegionResolution);
  const auto [it, inserted] =
      region_index_.emplace(parent.bits(), regions_.size());
  if (inserted) regions_.emplace_back();
  return it->second;
}

ApplyOutcome IncrementalEngine::apply(const demand::DeltaOp& op) {
  ApplyOutcome out;
  out.effect = applier_.apply(op);
  ++stats_.deltas_applied;
  count_metric("serve.deltas");
  if (out.effect.cells_changed) {
    if (out.effect.cell_added) {
      const std::size_t before = regions_.size();
      const std::size_t region =
          region_of(profile_.cells()[out.effect.cell_index].cell);
      out.region_added = regions_.size() != before;
      regions_[region].members.push_back(out.effect.cell_index);
      cell_region_.push_back(region);
      out.region = region;
    } else {
      out.region = cell_region_[out.effect.cell_index];
    }
    ++regions_[out.region].version;
    ++stats_.dirty_regions;
    count_metric("serve.dirty_regions");
    if (op.kind == demand::DeltaKind::kAddLocations) {
      total_locations_ += op.count;
    } else {
      total_locations_ -= op.count;
    }
  }
  if (out.effect.counties_changed) {
    analyzer_.reset();
    afford_memo_.clear();
  }
  return out;
}

// -------------------------------------------------------------- partials --

template <typename Candidate, typename Fold>
const Candidate& IncrementalEngine::region_partial(
    std::size_t region, std::vector<Partial<Candidate>>& partials,
    const Fold& fold) {
  if (partials.size() < regions_.size()) partials.resize(regions_.size());
  Partial<Candidate>& p = partials[region];
  const std::uint64_t version = regions_[region].version;
  if (p.version == version) {
    ++stats_.partial_hits;
    count_metric("serve.partial_hits");
    return p.value;
  }
  ++stats_.partial_misses;
  count_metric("serve.partial_misses");
  ++stats_.region_recomputes;
  count_metric("serve.region_recomputes");
  p.value = Candidate{};
  const auto& cells = profile_.cells();
  for (std::size_t i : regions_[region].members) fold(p.value, i, cells[i]);
  p.version = version;
  return p.value;
}

demand::PeakCandidate IncrementalEngine::merged_peak() {
  demand::PeakCandidate peak;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    peak.merge(region_partial(
        r, peak_memo_,
        [](demand::PeakCandidate& c, std::size_t i,
           const demand::CellDemand& cell) { c.consider(i, cell); }));
  }
  return peak;
}

// ---------------------------------------------------------------- resize --

ResizeAnswer IncrementalEngine::query_resize(double beamspread,
                                             double oversub_cap) {
  if (profile_.cell_count() == 0) {
    throw std::invalid_argument("size_full_service: empty profile");
  }
  // Validates both parameters before a memo entry is created for them.
  const core::CellCapacity capacity =
      core::cell_capacity(model_, beamspread, oversub_cap);
  const demand::PeakCandidate peak = merged_peak();
  const demand::CellDemand& peak_cell = profile_.cells()[peak.index];
  ResizeAnswer answer;
  answer.full =
      core::binding_at(model_, peak.index, peak_cell, beamspread,
                       model_.capacity.plan().beams_per_full_cell());

  std::vector<Partial<core::BindingCandidate>>& partials =
      sizing_memo_[SizeKey{bits(beamspread), bits(oversub_cap)}];
  core::BindingCandidate binding;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    binding.merge(region_partial(
        r, partials,
        [&capacity](core::BindingCandidate& c, std::size_t i,
                    const demand::CellDemand& cell) {
          c.consider(i, cell, capacity);
        }));
  }
  // No cell needs more than one beam: the peak cell binds with a single
  // beam, as in core::size_with_cap.
  answer.capped = binding.found ? binding.best
                                : core::binding_at(model_, peak.index,
                                                   peak_cell, beamspread, 1);

  if (config_.paranoid) paranoid_check_resize(beamspread, oversub_cap, answer);
  return answer;
}

// ------------------------------------------------------- served fraction --

ServedFractionAnswer IncrementalEngine::query_served_fraction(double beamspread,
                                                              double oversub) {
  ServedFractionAnswer answer;
  answer.total_cells = profile_.cell_count();
  answer.total_locations = total_locations_;
  if (answer.total_cells != 0) {
    const std::uint32_t limit =
        core::max_locations_spread(model_.capacity, beamspread, oversub);
    std::vector<Partial<core::ServedCounts>>& partials = served_memo_[limit];
    core::ServedCounts counts;
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      counts.merge(region_partial(
          r, partials,
          [limit](core::ServedCounts& c, std::size_t,
                  const demand::CellDemand& cell) { c.consider(cell, limit); }));
    }
    answer.served_cells = counts.cells;
    answer.served_locations = counts.locations;
  }
  // Same divisions (and the same empty-input conventions) as
  // core::served_cell_fraction / served_location_fraction.
  answer.cell_fraction =
      answer.total_cells == 0
          ? 1.0
          : static_cast<double>(answer.served_cells) /
                static_cast<double>(answer.total_cells);
  answer.location_fraction =
      answer.total_locations == 0
          ? 1.0
          : static_cast<double>(answer.served_locations) /
                static_cast<double>(answer.total_locations);

  if (config_.paranoid) paranoid_check_served(beamspread, oversub, answer);
  return answer;
}

// ----------------------------------------------------------- afford ------

afford::PlanAffordability IncrementalEngine::query_affordability(
    const afford::ServicePlan& plan, double threshold) {
  if (!analyzer_.has_value()) analyzer_.emplace(profile_);
  const AffordKey key{plan.name, bits(plan.monthly_usd),
                      bits(plan.speeds.down_mbps), bits(plan.speeds.up_mbps),
                      bits(threshold)};
  auto it = afford_memo_.find(key);
  if (it == afford_memo_.end()) {
    it = afford_memo_.emplace(key, analyzer_->evaluate(plan, threshold)).first;
  }
  const afford::PlanAffordability answer = it->second;
  if (config_.paranoid) paranoid_check_affordability(plan, threshold, answer);
  return answer;
}

// ----------------------------------------------------------- paranoia ----

namespace {

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool same_sizing(const core::SizingResult& a,
                               const core::SizingResult& b) {
  return same_bits(a.satellites, b.satellites) &&
         same_bits(a.binding_lat_deg, b.binding_lat_deg) &&
         a.beams_on_binding == b.beams_on_binding &&
         a.binding_cell_index == b.binding_cell_index;
}

[[noreturn]] void paranoia_fail(const std::string& what) {
  throw ParanoiaError("serve: paranoid cross-check failed for " + what +
                      " (incremental answer differs from full recompute)");
}

}  // namespace

void IncrementalEngine::paranoid_check_resize(double beamspread,
                                              double oversub_cap,
                                              const ResizeAnswer& answer) {
  ++stats_.paranoid_checks;
  count_metric("serve.paranoid_checks");
  const core::SizingResult full =
      core::size_full_service(profile_, model_, beamspread);
  const core::SizingResult capped =
      core::size_with_cap(profile_, model_, beamspread, oversub_cap,
                          runtime::serial_executor());
  if (!same_sizing(full, answer.full) || !same_sizing(capped, answer.capped)) {
    paranoia_fail("query_resize");
  }
}

void IncrementalEngine::paranoid_check_served(
    double beamspread, double oversub, const ServedFractionAnswer& answer) {
  ++stats_.paranoid_checks;
  count_metric("serve.paranoid_checks");
  const double cell_fraction = core::served_cell_fraction(
      profile_, model_.capacity, beamspread, oversub);
  const double location_fraction = core::served_location_fraction(
      profile_, model_.capacity, beamspread, oversub);
  if (!same_bits(cell_fraction, answer.cell_fraction) ||
      !same_bits(location_fraction, answer.location_fraction)) {
    paranoia_fail("query_served_fraction");
  }
}

void IncrementalEngine::paranoid_check_affordability(
    const afford::ServicePlan& plan, double threshold,
    const afford::PlanAffordability& answer) {
  ++stats_.paranoid_checks;
  count_metric("serve.paranoid_checks");
  const afford::AffordabilityAnalyzer fresh(profile_);
  const afford::PlanAffordability expected = fresh.evaluate(plan, threshold);
  const bool same =
      expected.plan.name == answer.plan.name &&
      same_bits(expected.plan.monthly_usd, answer.plan.monthly_usd) &&
      same_bits(expected.plan.speeds.down_mbps, answer.plan.speeds.down_mbps) &&
      same_bits(expected.plan.speeds.up_mbps, answer.plan.speeds.up_mbps) &&
      same_bits(expected.income_required_usd, answer.income_required_usd) &&
      same_bits(expected.locations_unable, answer.locations_unable) &&
      same_bits(expected.fraction_unable, answer.fraction_unable);
  if (!same) paranoia_fail("query_affordability");
}

EngineStats IncrementalEngine::stats() const noexcept {
  EngineStats s = stats_;
  s.cells = profile_.cell_count();
  s.regions = regions_.size();
  return s;
}

}  // namespace leodivide::serve
