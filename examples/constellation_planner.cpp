// Constellation planner: given a target service quality (max acceptable
// oversubscription) and a satellite budget, find the (beamspread,
// locations-left-unserved) operating points that fit the budget.
//
//   $ ./constellation_planner [satellite_budget] [oversub_cap]
//
// Defaults: 8000 satellites (roughly today's deployed fleet), 20:1 (the
// FCC's fixed-wireless benchmark). Both are finite numbers above zero; any
// other value exits 2 with the usage line.

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>

#include "leodivide/core/longtail.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/io/cli.hpp"
#include "leodivide/io/table.hpp"

namespace {

constexpr const char* kUsage =
    "usage: constellation_planner [satellite_budget] [oversub_cap]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace leodivide;

  double budget = 8000.0;
  double cap = 20.0;
  try {
    // Positional args only: a stray --flag is never read as a number.
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]).rfind("--", 0) == 0) {
        throw std::runtime_error(std::string("unknown flag: ") + argv[i]);
      }
    }
    if (argc > 3) {
      throw std::runtime_error(std::string("unexpected argument '") +
                               argv[3] + "'");
    }
    if (argc > 1) {
      budget = io::parse_positive<double>("satellite_budget", argv[1]);
    }
    if (argc > 2) cap = io::parse_positive<double>("oversub_cap", argv[2]);
  } catch (const std::runtime_error& e) {
    std::cerr << e.what() << '\n' << kUsage;
    return 2;
  }

  std::cout << "Constellation planner: budget "
            << io::fmt_count(std::llround(budget))
            << " satellites, max oversubscription " << io::fmt(cap, 0)
            << ":1\n\ngenerating national demand profile...\n\n";
  const demand::DemandProfile profile =
      demand::SyntheticGenerator{demand::GeneratorConfig{}}
          .generate_profile();
  const core::SizingModel model;

  // For each beamspread: cost of full coverage at the cap, and what must be
  // left unserved to fit the budget (the Figure-3 curve at the budget).
  io::TextTable table;
  table.set_header({"beamspread", "sats for full service @cap",
                    "fits budget?", "min locations unserved within budget",
                    "per-cell capacity (Gbps)"});
  for (double s : {1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 15.0}) {
    const double full = core::size_with_cap(profile, model, s, cap).satellites;
    const auto curve = core::longtail_curve(profile, model, s, cap);
    std::string min_unserved = "n/a (over budget at every step)";
    for (const auto& p : curve) {
      if (p.satellites <= budget) {
        min_unserved =
            io::fmt_count(static_cast<long long>(p.locations_unserved));
        break;
      }
    }
    table.add_row({io::fmt(s, 0), io::fmt_count(std::llround(full)),
                   full <= budget ? "yes" : "no", min_unserved,
                   io::fmt(model.capacity.cell_capacity_gbps() / s, 2)});
  }
  std::cout << table.render() << '\n';

  std::cout << "Reading the table: higher beamspread shrinks the fleet but "
               "divides per-cell capacity, pushing more cells over the "
            << io::fmt(cap, 0)
            << ":1 limit (Figure 2's tradeoff). The 'locations unserved' "
               "column is the Figure 3 curve evaluated at your budget.\n";
  return 0;
}
