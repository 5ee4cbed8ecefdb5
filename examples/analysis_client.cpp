// Analysis client: scripted driver for the LSRV analysis service, with a
// twin "batch" mode that answers the same script offline.
//
//   socket mode:
//   $ ./analysis_client --connect HOST --port N --script FILE --out FILE
//                       [--shutdown]
//
//   batch mode (no server; plain library full recompute):
//   $ ./analysis_client --batch --script FILE --out FILE
//                       [--scale S] [--seed N] [--threads N]
//
// Both modes read the same script and write query answers through the same
// formatter, so for any delta/query sequence the two --out files must be
// byte-identical — CI diffs them (the golden-equivalence gate). Doubles are
// printed as %.17g plus their IEEE-754 bit pattern, so "identical" means
// bit-identical, not almost-equal.
//
// Script grammar (one command per line, '#' starts a comment):
//   add <lat> <lon> <count> [county_index]   new un(der)served locations
//   remove <lat> <lon> <count>               locations leave the set
//   upgrade <lat> <lon> <count>              locations upgraded (subsidy)
//   price <plan name...> <usd>               reprice a retail plan
//   income <county_index> <usd>              county median-income revision
//   threshold <x>                            affordability threshold for
//                                            later afford queries (0 = default)
//   resize <beamspread> <oversub_cap>        constellation sizing query
//   afford <plan name...>                    affordability query
//   served <beamspread> <oversub>            served-fraction query
//   stats                                    server counters (stderr only)

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/core/beamspread.hpp"
#include "leodivide/core/served_fraction.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/delta.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/io/cli.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/serve/client.hpp"
#include "leodivide/serve/session.hpp"

namespace {

using namespace leodivide;

constexpr const char* kUsage =
    "usage: analysis_client --connect HOST --port N --script FILE --out FILE"
    " [--shutdown]\n"
    "       analysis_client --batch --script FILE --out FILE [--scale S]"
    " [--seed N] [--threads N]\n";

/// Bit-exact double rendering: decimal for humans, bit pattern for diff.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g:0x%016llx", v,
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

struct ResizeAnswerLine {
  double beamspread = 0.0;
  double oversub_cap = 0.0;
  double full_satellites = 0.0;
  double full_binding_lat_deg = 0.0;
  std::uint32_t full_beams = 0;
  std::uint64_t full_cell_index = 0;
  double capped_satellites = 0.0;
  double capped_binding_lat_deg = 0.0;
  std::uint32_t capped_beams = 0;
  std::uint64_t capped_cell_index = 0;
};

void write_resize(std::ostream& out, const ResizeAnswerLine& a) {
  out << "resize " << fmt(a.beamspread) << ' ' << fmt(a.oversub_cap)
      << " full sat=" << fmt(a.full_satellites)
      << " lat=" << fmt(a.full_binding_lat_deg) << " beams=" << a.full_beams
      << " cell=" << a.full_cell_index
      << " capped sat=" << fmt(a.capped_satellites)
      << " lat=" << fmt(a.capped_binding_lat_deg)
      << " beams=" << a.capped_beams << " cell=" << a.capped_cell_index
      << '\n';
}

void write_afford(std::ostream& out, const std::string& plan,
                  double monthly_usd, double income_required_usd,
                  double locations_unable, double fraction_unable) {
  out << "afford " << plan << " monthly=" << fmt(monthly_usd)
      << " income=" << fmt(income_required_usd)
      << " unable=" << fmt(locations_unable)
      << " fraction=" << fmt(fraction_unable) << '\n';
}

void write_served(std::ostream& out, double beamspread, double oversub,
                  double cell_fraction, std::uint64_t served_cells,
                  std::uint64_t total_cells, double location_fraction,
                  std::uint64_t served_locations,
                  std::uint64_t total_locations) {
  out << "served " << fmt(beamspread) << ' ' << fmt(oversub)
      << " cells=" << fmt(cell_fraction) << '(' << served_cells << '/'
      << total_cells << ')' << " locations=" << fmt(location_fraction) << '('
      << served_locations << '/' << total_locations << ')' << '\n';
}

/// One parsed script command.
struct Command {
  std::string verb;
  std::vector<std::string> args;  ///< whitespace-split operands
  std::size_t line_no = 0;
};

std::vector<Command> parse_script(std::istream& in) {
  std::vector<Command> commands;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    Command cmd;
    cmd.line_no = line_no;
    if (!(tokens >> cmd.verb)) continue;  // blank / comment-only line
    std::string tok;
    while (tokens >> tok) cmd.args.push_back(tok);
    commands.push_back(std::move(cmd));
  }
  return commands;
}

[[noreturn]] void script_fail(const Command& cmd, const std::string& what) {
  throw std::runtime_error("script line " + std::to_string(cmd.line_no) +
                           " (" + cmd.verb + "): " + what);
}

/// Joins args[0..n) into the plan name (plan names contain spaces).
std::string join_plan_name(const Command& cmd, std::size_t n) {
  if (n == 0) script_fail(cmd, "missing plan name");
  std::string name = cmd.args[0];
  for (std::size_t i = 1; i < n; ++i) {
    name += ' ';
    name += cmd.args[i];
  }
  return name;
}

/// Parses a delta command (add/remove/upgrade/price/income) into a DeltaOp;
/// returns false if `cmd` is not a delta command.
bool parse_delta(const Command& cmd, demand::DeltaOp& op) {
  if (cmd.verb == "add" || cmd.verb == "remove" || cmd.verb == "upgrade") {
    if (cmd.args.size() < 3) script_fail(cmd, "need <lat> <lon> <count>");
    op.kind = cmd.verb == "add"      ? demand::DeltaKind::kAddLocations
              : cmd.verb == "remove" ? demand::DeltaKind::kRemoveLocations
                                     : demand::DeltaKind::kUpgradeLocations;
    op.position = {std::stod(cmd.args[0]), std::stod(cmd.args[1])};
    op.count = static_cast<std::uint32_t>(std::stoul(cmd.args[2]));
    op.county_index = cmd.args.size() > 3
                          ? static_cast<std::uint32_t>(std::stoul(cmd.args[3]))
                          : 0;
    return true;
  }
  if (cmd.verb == "price") {
    if (cmd.args.size() < 2) script_fail(cmd, "need <plan name...> <usd>");
    op.kind = demand::DeltaKind::kSetPlanPrice;
    op.plan_name = join_plan_name(cmd, cmd.args.size() - 1);
    op.value = std::stod(cmd.args.back());
    return true;
  }
  if (cmd.verb == "income") {
    if (cmd.args.size() != 2) script_fail(cmd, "need <county_index> <usd>");
    op.kind = demand::DeltaKind::kSetCountyIncome;
    op.county_index = static_cast<std::uint32_t>(std::stoul(cmd.args[0]));
    op.value = std::stod(cmd.args[1]);
    return true;
  }
  return false;
}

int run_socket_mode(const std::string& host, std::uint16_t port,
                    const std::vector<Command>& commands, std::ostream& out,
                    bool shutdown_at_end) {
  serve::Client client;
  client.connect(host, port);
  const auto hello = client.hello("analysis_client");
  std::cerr << "connected to " << hello.server << ": " << hello.cells
            << " cells, " << hello.counties << " counties, " << hello.regions
            << " regions" << (hello.paranoid ? " (paranoid)" : "") << '\n';

  double threshold = 0.0;  // 0 = server default
  for (const Command& cmd : commands) {
    demand::DeltaOp op;
    if (parse_delta(cmd, op)) {
      const auto reply = client.apply_delta({op});
      std::cerr << "applied " << cmd.verb << ": " << reply.dirty_regions
                << " dirty region(s), journal length "
                << reply.journal_length << '\n';
    } else if (cmd.verb == "threshold") {
      if (cmd.args.size() != 1) script_fail(cmd, "need <x>");
      threshold = std::stod(cmd.args[0]);
    } else if (cmd.verb == "resize") {
      if (cmd.args.size() != 2) {
        script_fail(cmd, "need <beamspread> <oversub_cap>");
      }
      const double bs = std::stod(cmd.args[0]);
      const double cap = std::stod(cmd.args[1]);
      const auto reply = client.query_resize(bs, cap);
      write_resize(out, {bs, cap, reply.full_satellites,
                         reply.full_binding_lat_deg, reply.full_beams,
                         reply.full_cell_index, reply.capped_satellites,
                         reply.capped_binding_lat_deg, reply.capped_beams,
                         reply.capped_cell_index});
    } else if (cmd.verb == "afford") {
      const std::string plan = join_plan_name(cmd, cmd.args.size());
      const auto reply = client.query_affordability(plan, threshold);
      write_afford(out, reply.plan_name, reply.monthly_usd,
                   reply.income_required_usd, reply.locations_unable,
                   reply.fraction_unable);
    } else if (cmd.verb == "served") {
      if (cmd.args.size() != 2) script_fail(cmd, "need <beamspread> <oversub>");
      const double bs = std::stod(cmd.args[0]);
      const double os = std::stod(cmd.args[1]);
      const auto reply = client.query_served_fraction(bs, os);
      write_served(out, bs, os, reply.cell_fraction, reply.served_cells,
                   reply.total_cells, reply.location_fraction,
                   reply.served_locations, reply.total_locations);
    } else if (cmd.verb == "stats") {
      const auto reply = client.stats();
      for (const auto& [name, value] : reply.counters) {
        std::cerr << name << '=' << value << '\n';
      }
    } else {
      script_fail(cmd, "unknown command");
    }
  }
  if (shutdown_at_end) {
    client.shutdown_server();
    std::cerr << "server acknowledged shutdown\n";
  }
  return 0;
}

int run_batch_mode(const demand::GeneratorConfig& gen_config,
                   const std::vector<Command>& commands, std::ostream& out) {
  demand::DemandProfile profile =
      demand::SyntheticGenerator{gen_config}.generate_profile();
  std::cerr << "batch baseline: " << profile.cell_count() << " cells, "
            << profile.counties().size() << " counties\n";

  const hex::HexGrid grid;
  demand::DeltaApplier applier(profile, grid, hex::kServiceCellResolution);
  serve::PlanTable plans;
  const core::SizingModel model{};
  double threshold = 0.0;

  for (const Command& cmd : commands) {
    demand::DeltaOp op;
    if (parse_delta(cmd, op)) {
      if (op.kind == demand::DeltaKind::kSetPlanPrice) {
        plans.set_price(op.plan_name, op.value);
      } else {
        (void)applier.apply(op);
      }
    } else if (cmd.verb == "threshold") {
      if (cmd.args.size() != 1) script_fail(cmd, "need <x>");
      threshold = std::stod(cmd.args[0]);
    } else if (cmd.verb == "resize") {
      if (cmd.args.size() != 2) {
        script_fail(cmd, "need <beamspread> <oversub_cap>");
      }
      const double bs = std::stod(cmd.args[0]);
      const double cap = std::stod(cmd.args[1]);
      const core::SizingResult full =
          core::size_full_service(profile, model, bs);
      const core::SizingResult capped =
          core::size_with_cap(profile, model, bs, cap);
      write_resize(out,
                   {bs, cap, full.satellites, full.binding_lat_deg,
                    full.beams_on_binding, full.binding_cell_index,
                    capped.satellites, capped.binding_lat_deg,
                    capped.beams_on_binding, capped.binding_cell_index});
    } else if (cmd.verb == "afford") {
      const std::string name = join_plan_name(cmd, cmd.args.size());
      const afford::ServicePlan& plan = plans.find(name);
      const double t =
          threshold > 0.0 ? threshold : afford::kAffordabilityThreshold;
      const afford::PlanAffordability a =
          afford::AffordabilityAnalyzer(profile).evaluate(plan, t);
      write_afford(out, a.plan.name, a.plan.monthly_usd,
                   a.income_required_usd, a.locations_unable,
                   a.fraction_unable);
    } else if (cmd.verb == "served") {
      if (cmd.args.size() != 2) script_fail(cmd, "need <beamspread> <oversub>");
      const double bs = std::stod(cmd.args[0]);
      const double os = std::stod(cmd.args[1]);
      // Same integer evidence the server reports: count cells at or under
      // the per-cell location limit, then form the fractions.
      const std::uint64_t total_cells = profile.cell_count();
      const std::uint64_t total_locations = profile.total_locations();
      std::uint64_t served_cells = 0;
      std::uint64_t served_locations = 0;
      if (total_cells != 0) {
        const std::uint32_t limit =
            core::max_locations_spread(model.capacity, bs, os);
        for (const auto& cell : profile.cells()) {
          if (cell.underserved <= limit) {
            ++served_cells;
            served_locations += cell.underserved;
          }
        }
      }
      const double cell_fraction =
          total_cells == 0 ? 1.0
                           : static_cast<double>(served_cells) /
                                 static_cast<double>(total_cells);
      const double location_fraction =
          total_locations == 0 ? 1.0
                               : static_cast<double>(served_locations) /
                                     static_cast<double>(total_locations);
      write_served(out, bs, os, cell_fraction, served_cells, total_cells,
                   location_fraction, served_locations, total_locations);
    } else if (cmd.verb == "stats") {
      std::cerr << "stats: not available in batch mode\n";
    } else {
      script_fail(cmd, "unknown command");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool batch = false;
  bool shutdown_at_end = false;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string script_path;
  std::string out_path;
  demand::GeneratorConfig gen_config{};
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--batch") {
        batch = true;
      } else if (arg == "--shutdown") {
        shutdown_at_end = true;
      } else if (arg == "--connect" && i + 1 < argc) {
        host = argv[++i];
      } else if (const auto v = io::flag_value(argc, argv, i, "--port")) {
        port = io::parse_flag<std::uint16_t>("--port", *v);
      } else if (arg == "--script" && i + 1 < argc) {
        script_path = argv[++i];
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (demand::parse_cli_arg(argc, argv, i, gen_config)) {
        // --scale / --seed; consumed.
      } else if (runtime::parse_threads_arg(argc, argv, i)) {
        // Executor size; consumed.
      } else {
        std::cerr << "unknown or malformed flag: " << arg << '\n' << kUsage;
        return 2;
      }
    }
    if (script_path.empty() || out_path.empty() || (!batch && port == 0)) {
      std::cerr << kUsage;
      return 2;
    }

    std::ifstream script_in(script_path);
    if (!script_in) {
      std::cerr << "cannot open script: " << script_path << '\n';
      return 2;
    }
    const std::vector<Command> commands = parse_script(script_in);

    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open output: " << out_path << '\n';
      return 2;
    }
    return batch ? run_batch_mode(gen_config, commands, out)
                 : run_socket_mode(host, port, commands, out, shutdown_at_end);
  } catch (const std::exception& e) {
    std::cerr << "analysis_client: " << e.what() << '\n';
    return 1;
  }
}
