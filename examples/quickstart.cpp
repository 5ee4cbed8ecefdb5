// Quickstart: generate the calibrated national demand profile and reproduce
// the paper's headline numbers in one call.
//
//   $ ./quickstart [scale]
//
// `scale` in (0, 1] shrinks the synthetic dataset (default 1.0 = the full
// 4.67M-location national profile). Any other value, or one too small to
// give a single location, exits 2 with the usage line.

#include <iostream>
#include <stdexcept>
#include <string>

#include "leodivide/core/report.hpp"
#include "leodivide/demand/generator.hpp"

int main(int argc, char** argv) {
  using namespace leodivide;

  demand::GeneratorConfig config;
  try {
    // Positional args only: a stray --flag is never read as a scale.
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]).rfind("--", 0) == 0) {
        throw std::runtime_error(std::string("unknown flag: ") + argv[i]);
      }
    }
    if (argc > 2) {
      throw std::runtime_error(std::string("unexpected argument '") +
                               argv[2] + "'");
    }
    if (argc > 1) config.scale = demand::parse_scale("scale", argv[1]);
  } catch (const std::runtime_error& e) {
    std::cerr << e.what() << "\nusage: quickstart [scale in (0,1]]\n";
    return 2;
  }

  std::cout << "Generating calibrated synthetic demand profile (scale="
            << config.scale << ") ...\n";
  const demand::SyntheticGenerator generator(config);
  const demand::DemandProfile profile = generator.generate_profile();
  std::cout << "  cells: " << profile.cell_count()
            << ", un(der)served locations: " << profile.total_locations()
            << ", counties: " << profile.counties().size() << "\n\n";

  const auto results = core::run_full_analysis(profile);
  std::cout << core::render_report(results) << '\n';
  return 0;
}
