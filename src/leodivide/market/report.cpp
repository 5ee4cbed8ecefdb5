#include "leodivide/market/report.hpp"

#include <iomanip>
#include <sstream>

namespace leodivide::market {

std::string render_market_report(const MarketReport& report) {
  std::ostringstream out;
  out << "Market simulation - policy: " << to_string(report.policy)
      << ", beamspread " << report.beamspread << ", cap "
      << report.oversub_cap << ":1\n\n";
  out << std::left << std::setw(12) << "operator" << std::right
      << std::setw(8) << "share" << std::setw(12) << "sats(full)"
      << std::setw(12) << "sats(cap)" << std::setw(10) << "cells%"
      << std::setw(10) << "locs%" << std::setw(14) << "$/loc-yr"
      << std::setw(10) << "unaff%" << '\n';
  for (const OperatorOutcome& op : report.operators) {
    out << std::left << std::setw(12) << op.name << std::right
        << std::fixed << std::setprecision(3) << std::setw(8)
        << op.economic_share << std::setprecision(0) << std::setw(12)
        << op.full.satellites << std::setw(12) << op.capped.satellites
        << std::setprecision(1) << std::setw(9)
        << 100.0 * op.served_cell_fraction << '%' << std::setw(9)
        << 100.0 * op.served_location_fraction << '%' << std::setprecision(2)
        << std::setw(14) << op.cost_per_location_year_usd
        << std::setprecision(1) << std::setw(9)
        << 100.0 * op.affordability.fraction_unable << "%\n";
    out.unsetf(std::ios::fixed);
  }
  const FairnessReport& f = report.fairness;
  out << "\nfairness: Jain(served locations) = " << std::fixed
      << std::setprecision(4) << f.jain_served_locations;
  out.unsetf(std::ios::fixed);
  out << "\nunserved: " << f.unserved_cells << " cells / "
      << f.unserved_locations << " locations (" << f.capacity_limited_cells
      << " capacity-limited, " << f.split_limited_cells
      << " split-limited)\n";
  for (std::size_t o = 0; o < report.operators.size(); ++o) {
    const OperatorFairness& of = f.operators[o];
    out << "  " << report.operators[o].name << ": wins " << of.cells_won
        << " cells, serves " << of.cells_served << " cells / "
        << of.locations_served << " locations\n";
  }
  return out.str();
}

}  // namespace leodivide::market
