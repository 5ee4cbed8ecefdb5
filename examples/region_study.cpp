// Region study: the paper's stated future work — how do the capacity and
// affordability conclusions change for service regions with different
// demand geographies and income distributions? Three illustrative regions
// are compared with the same pipeline used for the US analysis.
//
//   $ ./region_study
//
// It takes no arguments: any argument is rejected with exit code 2.

#include <cmath>
#include <iostream>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/oversubscription.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/region.hpp"
#include "leodivide/io/table.hpp"
#include "leodivide/stats/lorenz.hpp"

int main(int argc, char** argv) {
  using namespace leodivide;

  if (argc > 1) {
    std::cerr << "unexpected argument: " << argv[1]
              << "\nusage: region_study\n";
    return 2;
  }

  const demand::RegionSpec specs[] = {
      demand::dense_compact_region(),
      demand::sparse_expansive_region(),
      demand::temperate_mixed_region(),
  };

  io::TextTable table;
  table.set_header({"region", "locations", "cells", "peak cell",
                    "demand Gini", "peak oversub",
                    "sats @s=2,20:1", "unable to afford $120 @2%"});
  for (const auto& spec : specs) {
    const demand::RegionGenerator generator(spec);
    const demand::DemandProfile profile = generator.generate();
    const core::SatelliteCapacityModel capacity;
    const core::SizingModel sizing;

    const auto f1 = core::analyze_oversubscription(profile, capacity);
    const double sats =
        core::size_with_cap(profile, sizing, 2.0, 20.0).satellites;
    const afford::AffordabilityAnalyzer afford_analyzer(profile);
    const auto starlink =
        afford_analyzer.evaluate(afford::starlink_residential());
    const auto counts = profile.counts_as_doubles();

    table.add_row({spec.name,
                   io::fmt_count(static_cast<long long>(
                       profile.total_locations())),
                   io::fmt_count(static_cast<long long>(profile.cell_count())),
                   io::fmt_count(profile.peak_cell_count()),
                   io::fmt(stats::gini(counts), 2),
                   io::fmt(f1.peak_oversubscription, 1) + ":1",
                   io::fmt_count(std::llround(sats)),
                   io::fmt_pct(starlink.fraction_unable, 1)});
  }
  std::cout << "Cross-region comparison (same model, different geography "
               "and incomes):\n\n"
            << table.render() << '\n';

  std::cout
      << "Observations:\n"
      << "  * The dense compact region needs >50:1 oversubscription at its "
         "peak cells even though its total demand is modest — peak density, "
         "not totals, drives the constellation (P2).\n"
      << "  * The sparse low-latitude region has tame peak cells yet still "
         "demands a huge fleet: a 53-degree constellation is thinnest near "
         "the tropics, so every beam there costs more total satellites — "
         "the latitude effect behind the paper's Table 2.\n"
      << "  * Both low-income regions fail the affordability test almost "
         "completely at $120/month; capacity and affordability barriers "
         "are independent, and a constellation sized for one does not "
         "solve the other. ('Another stone for the jar', Section 6.)\n";
  return 0;
}
