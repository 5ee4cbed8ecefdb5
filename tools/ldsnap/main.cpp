// ldsnap — inspect, verify and query LDSNAP snapshot files.
//
//   ldsnap inspect <file>            header + section table
//   ldsnap verify  <file>...         full validation (exit 0 clean, 1 bad)
//   ldsnap query   <file> <cell-id>  per-cell capacity / served-fraction
//
// `query` works on profile snapshots (artifact kind "profile") and answers
// in O(log n): the per-cell records are indexed once by cell id, then the
// requested cell is found by binary search. Cell ids use the same hex form
// the library writes to cells.csv.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "leodivide/core/capacity_model.hpp"
#include "leodivide/io/fileio.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace {

using namespace leodivide;

void usage() {
  std::fputs(
      "usage: ldsnap <command> [args]\n"
      "\n"
      "  inspect <file>            print header and section table\n"
      "  verify <file>...          validate headers, bounds and checksums\n"
      "  query <file> <cell-id>    per-cell capacity and served fraction\n"
      "                            (profile snapshots; hex cell id as in\n"
      "                            cells.csv)\n"
      "\n"
      "Exit status: 0 ok, 1 invalid snapshot or cell not found, 2 usage.\n",
      stderr);
}

int cmd_inspect(const std::string& path) {
  const std::string file = io::read_text_file(path);
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(file);
  std::printf(
      "%s: LDSNAP v%u, artifact kind: %s (%u), %zu section(s), %zu bytes\n",
      path.c_str(), reader.version(),
      std::string(to_string(reader.kind())).c_str(),
      static_cast<unsigned>(reader.kind()), reader.sections().size(),
      file.size());
  for (const auto& s : reader.sections()) {
    std::printf("  section %-12s %12zu bytes  checksum %016llx\n",
                s.name.c_str(), s.payload.size(),
                static_cast<unsigned long long>(s.checksum));
  }
  return 0;
}

// Full validation: container parse (header, bounds, checksums) plus the
// kind-specific deserializer, so semantic corruption (dangling county
// indices, unknown enum values) fails verify too.
void deep_verify(const std::string& file) {
  const snapshot::SnapshotReader reader = snapshot::SnapshotReader::parse(file);
  switch (reader.kind()) {
    case snapshot::ArtifactKind::kProfile:
      (void)snapshot::deserialize_profile(file);
      break;
    case snapshot::ArtifactKind::kAnalysis:
      (void)snapshot::deserialize_analysis(file);
      break;
    case snapshot::ArtifactKind::kEpochs:
      (void)snapshot::deserialize_epochs(file);
      break;
    case snapshot::ArtifactKind::kMarketReport:
      (void)snapshot::deserialize_market_report(file);
      break;
  }
}

int cmd_verify(const std::vector<std::string>& paths) {
  int bad = 0;
  for (const auto& path : paths) {
    try {
      const std::string file = io::read_text_file(path);
      deep_verify(file);
      std::printf("%s: OK\n", path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), e.what());
      bad = 1;
    }
  }
  return bad;
}

int cmd_query(const std::string& path, const std::string& cell_hex) {
  char* end = nullptr;
  const std::uint64_t want_bits = std::strtoull(cell_hex.c_str(), &end, 16);
  if (end == cell_hex.c_str() || *end != '\0') {
    std::fprintf(stderr, "ldsnap query: not a hex cell id: '%s'\n",
                 cell_hex.c_str());
    return 2;
  }

  const std::string file = io::read_text_file(path);
  const demand::DemandProfile profile = snapshot::deserialize_profile(file);

  // Index once (cells are stored sorted by cell id, but sorting an index is
  // cheap insurance), then answer by binary search: O(log n) per query.
  std::vector<std::pair<std::uint64_t, std::size_t>> index;
  index.reserve(profile.cells().size());
  for (std::size_t i = 0; i < profile.cells().size(); ++i) {
    index.emplace_back(profile.cells()[i].cell.bits(), i);
  }
  std::sort(index.begin(), index.end());
  const auto it = std::lower_bound(
      index.begin(), index.end(),
      std::make_pair(want_bits, std::size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == index.end() || it->first != want_bits) {
    std::fprintf(stderr, "%s: no cell %s in this snapshot (%zu cells)\n",
                 path.c_str(), cell_hex.c_str(), profile.cells().size());
    return 1;
  }

  const demand::CellDemand& cell = profile.cells()[it->second];
  const core::SatelliteCapacityModel model;
  const double capacity = model.cell_capacity_gbps();
  const double demand = model.cell_demand_gbps(cell.underserved);
  const std::uint32_t servable_20to1 = model.max_locations_at(20.0);
  const double served_fraction =
      cell.underserved == 0
          ? 1.0
          : std::min(1.0, static_cast<double>(servable_20to1) /
                              static_cast<double>(cell.underserved));
  const demand::County& county = profile.counties().at(cell.county_index);

  std::printf("cell %s\n", cell.cell.to_string().c_str());
  std::printf("  center:                 %.4f, %.4f\n", cell.center.lat_deg,
              cell.center.lon_deg);
  std::printf("  county:                 %s (median income $%.0f)\n",
              county.fips.c_str(), county.median_income_usd);
  std::printf("  underserved locations:  %u\n", cell.underserved);
  std::printf("  demand at 100 Mbps:     %.3f Gbps\n", demand);
  std::printf("  max cell capacity:      %.3f Gbps\n", capacity);
  std::printf("  required oversub:       %.2f:1\n",
              model.required_oversubscription(cell.underserved));
  std::printf("  servable at 20:1:       %u locations\n", servable_20to1);
  std::printf("  served fraction (20:1): %.4f\n", served_fraction);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "-h" || cmd == "--help") {
      usage();
      return 0;
    }
    if (cmd == "inspect" && argc == 3) {
      return cmd_inspect(argv[2]);
    }
    if (cmd == "verify" && argc >= 3) {
      return cmd_verify(std::vector<std::string>(argv + 2, argv + argc));
    }
    if (cmd == "query" && argc == 4) {
      return cmd_query(argv[2], argv[3]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldsnap %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  usage();
  return 2;
}
