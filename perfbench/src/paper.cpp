// paper_cold and paper_warm: the paper's whole evaluation as one pass, in
// the order national_analysis and market_compare run it:
//
//   generate profile -> CSV save/load -> run_full_analysis -> market under
//   exclusive, proportional and FairShare -> render_report, results JSON,
//   dense-cell GeoJSON
//
// Profile, analysis and market reports go through a StageCache exactly as
// StageCache::get_or_compute would (load -> deserialize, or compute ->
// serialize -> store), spelled out here so each of those public calls is
// timed on its own. paper_cold empties the cache before every pass;
// paper_warm fills it during set-up, so its passes restore all five
// artifacts from LDSNAP blobs.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>

#include "harness.hpp"
#include "leodivide/core/report.hpp"
#include "leodivide/core/scenario.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/demand/geojson.hpp"
#include "leodivide/io/json.hpp"
#include "leodivide/market/market.hpp"
#include "leodivide/obs/obs.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/snapshot.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace leodivide;

/// Stage-cache artifacts per pass: profile, analysis, three market reports.
constexpr std::uint64_t kArtifactsPerPass = 5;

struct PaperInputs {
  demand::GeneratorConfig gen;
  std::vector<market::MarketSimulation> markets;
  fs::path out_dir;
  fs::path cache_dir;
};

PaperInputs make_inputs(const Options& opt, const std::string& name) {
  PaperInputs in;
  in.gen.seed = opt.seed;
  in.gen.scale = opt.scale;
  for (const market::SplitPolicy policy :
       {market::SplitPolicy::kExclusive, market::SplitPolicy::kProportional,
        market::SplitPolicy::kFairShare}) {
    market::MarketConfig config;
    config.operators = market::default_market();
    config.split.policy = policy;
    in.markets.emplace_back(std::move(config));
  }
  in.out_dir = opt.work_dir / name;
  in.cache_dir = opt.work_dir / (name + "-cache");
  fs::create_directories(in.out_dir);
  return in;
}

std::string market_metric(market::SplitPolicy policy) {
  return "market." + std::string(to_string(policy)) + "_ms";
}

/// Everything one pass produces. `files` is read back after the pass.
struct PaperOutputs {
  demand::DemandProfile loaded;
  core::AnalysisResults results;
  std::vector<market::MarketReport> markets;
  std::string report;
  std::map<std::string, std::string> files;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

bool same_profile(const demand::DemandProfile& a,
                  const demand::DemandProfile& b) {
  return a.cells() == b.cells() && a.counties().all() == b.counties().all();
}

bool same_outputs(const PaperOutputs& a, const PaperOutputs& b) {
  return same_profile(a.loaded, b.loaded) && a.results == b.results &&
         a.markets == b.markets && a.report == b.report && a.files == b.files;
}

/// StageCache::get_or_compute with every public call timed separately.
template <typename Compute, typename Serialize, typename Deserialize>
auto cached(const snapshot::StageCache& cache, std::string_view stage,
            const snapshot::Fingerprint& fp, Layers& layers,
            const std::string& compute_metric, Compute&& compute,
            Serialize&& serialize, Deserialize&& deserialize)
    -> decltype(compute()) {
  std::optional<std::string> blob =
      layers.time("snapshot.load_ms", [&] { return cache.load(stage, fp); });
  if (blob) {
    try {
      return layers.time("snapshot.deserialize_ms",
                         [&] { return deserialize(std::string_view(*blob)); });
    } catch (const snapshot::SnapshotError&) {
      cache.note_bad_blob();
    }
  }
  auto result = layers.time(compute_metric, compute);
  const std::string bytes =
      layers.time("snapshot.serialize_ms", [&] { return serialize(result); });
  layers.time("snapshot.store_ms", [&] { cache.store(stage, fp, bytes); });
  return result;
}

void write_results_json(std::ostream& out, const demand::DemandProfile& loaded,
                        const core::AnalysisResults& results,
                        const std::vector<market::MarketReport>& markets) {
  io::JsonWriter json(out);
  json.begin_object();
  json.value("total_locations",
             static_cast<long long>(loaded.total_locations()));
  json.value("peak_cell_locations",
             static_cast<long long>(loaded.peak_cell_count()));
  json.value("peak_oversubscription", results.f1.peak_oversubscription);
  json.value("locations_above_20to1",
             static_cast<long long>(results.f1.locations_above_cap));
  json.value("unservable_at_20to1",
             static_cast<long long>(results.f1.locations_unservable_at_cap));
  json.begin_array("table2");
  for (const auto& row : results.table2) {
    json.begin_object();
    json.value("beamspread", row.beamspread);
    json.value("satellites_full_service", row.satellites_full_service);
    json.value("satellites_capped_20to1", row.satellites_capped);
    json.end_object();
  }
  json.end_array();
  json.begin_array("affordability");
  for (const auto& p : results.fig4) {
    json.begin_object();
    json.value("plan", p.plan.name);
    json.value("monthly_usd", p.plan.monthly_usd);
    json.value("locations_unable", p.locations_unable);
    json.value("fraction_unable", p.fraction_unable);
    json.end_object();
  }
  json.end_array();
  json.begin_array("markets");
  for (const market::MarketReport& report : markets) {
    json.begin_object();
    json.value("policy", to_string(report.policy));
    json.value("jain_served_locations", report.fairness.jain_served_locations);
    json.value("unserved_locations",
               static_cast<long long>(report.fairness.unserved_locations));
    json.begin_array("operators");
    for (const market::OperatorOutcome& op : report.operators) {
      json.begin_object();
      json.value("name", op.name);
      json.value("satellites_full_service", op.full.satellites);
      json.value("satellites_capped", op.capped.satellites);
      json.value("served_location_fraction", op.served_location_fraction);
      json.value("fraction_unable_to_afford",
                 op.affordability.fraction_unable);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

PaperOutputs paper_pass(const PaperInputs& in,
                        const snapshot::StageCache& cache, Layers& layers) {
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t misses0 = cache.misses();
  PaperOutputs out;

  snapshot::Fingerprint profile_fp =
      snapshot::stage_fingerprint("demand.profile");
  snapshot::mix(profile_fp, in.gen);
  const demand::DemandProfile profile = cached(
      cache, "demand.profile", profile_fp, layers, "demand.generate_ms",
      [&in] { return demand::SyntheticGenerator{in.gen}.generate_profile(); },
      [](const demand::DemandProfile& p) { return snapshot::serialize(p); },
      [](std::string_view b) { return snapshot::deserialize_profile(b); });

  const fs::path cells_path = in.out_dir / "cells.csv";
  const fs::path counties_path = in.out_dir / "counties.csv";
  layers.time("demand.save_csv_ms", [&] {
    std::ofstream cells(cells_path);
    std::ofstream counties(counties_path);
    profile.save_csv(cells, counties);
  });
  out.loaded = layers.time("demand.load_csv_ms", [&] {
    std::ifstream cells(cells_path);
    std::ifstream counties(counties_path);
    return demand::DemandProfile::load_csv(cells, counties);
  });
  const demand::DemandProfile& loaded = out.loaded;

  // The analysis key binds the reloaded profile's bytes, as in
  // national_analysis.
  snapshot::Fingerprint analysis_fp =
      snapshot::stage_fingerprint("core.analysis");
  snapshot::mix(analysis_fp, core::SizingModel{});
  snapshot::mix(analysis_fp, core::AnalysisConfig{});
  layers.time("snapshot.serialize_ms",
              [&] { analysis_fp.mix(snapshot::serialize(loaded)); });
  out.results = cached(
      cache, "core.analysis", analysis_fp, layers, "core.analysis_ms",
      [&loaded] { return core::run_full_analysis(loaded); },
      [](const core::AnalysisResults& r) { return snapshot::serialize(r); },
      [](std::string_view b) { return snapshot::deserialize_analysis(b); });

  for (const market::MarketSimulation& simulation : in.markets) {
    snapshot::Fingerprint fp = snapshot::stage_fingerprint("market.report");
    snapshot::mix(fp, in.gen);
    snapshot::mix(fp, simulation.config());
    out.markets.push_back(cached(
        cache, "market.report", fp, layers,
        market_metric(simulation.config().split.policy),
        [&simulation, &loaded] { return simulation.run(loaded); },
        [](const market::MarketReport& r) { return snapshot::serialize(r); },
        [](std::string_view b) {
          return snapshot::deserialize_market_report(b);
        }));
  }

  out.report = layers.time("core.render_report_ms",
                           [&] { return core::render_report(out.results); });
  layers.time("io.json_write_ms", [&] {
    std::ofstream json_out(in.out_dir / "results.json");
    write_results_json(json_out, loaded, out.results, out.markets);
  });
  layers.time("demand.write_geojson_ms", [&] {
    std::ofstream geo_out(in.out_dir / "dense_cells.geojson");
    demand::write_geojson(geo_out, loaded, hex::HexGrid(),
                          /*min_locations=*/1000);
  });
  out.hits = cache.hits() - hits0;
  out.misses = cache.misses() - misses0;
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void read_back(const PaperInputs& in, PaperOutputs& out) {
  for (const char* name : {"cells.csv", "counties.csv", "results.json",
                           "dense_cells.geojson"}) {
    out.files[name] = read_file(in.out_dir / name);
  }
}

/// The EXPERIMENTS.md anchors, checked on the full-scale seed-42 profile.
bool paper_anchors_hold(const Options& opt, const PaperOutputs& o) {
  if (opt.seed != 42 || opt.scale != 1.0) return true;
  char f1[32];
  std::snprintf(f1, sizeof(f1), "%.1f", o.results.f1.peak_oversubscription);
  return std::string(f1) == "34.6" && !o.results.table2.empty() &&
         std::llround(o.results.table2[0].satellites_full_service) == 79325 &&
         std::llround(o.results.table2[0].satellites_capped) == 80692;
}

/// Checks one pass against the reference and the cache behaviour its
/// workload promises: a cold pass misses every artifact, a warm pass hits
/// every one (a hit ratio below 1 is a failed warm pass).
bool pass_ok(const PaperOutputs& o, const PaperOutputs& reference, bool warm) {
  const bool cache_ok = warm ? o.hits == kArtifactsPerPass && o.misses == 0
                             : o.hits == 0 && o.misses == kArtifactsPerPass;
  return cache_ok && same_outputs(o, reference);
}

/// Flips one byte in the middle of every cached blob.
void corrupt_blobs(const fs::path& cache_dir) {
  for (const auto& entry : fs::recursive_directory_iterator(cache_dir)) {
    if (!entry.is_regular_file()) continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
    const auto size = static_cast<std::streamoff>(entry.file_size());
    f.seekg(size / 2);
    const int c = f.get();
    f.seekp(size / 2);
    f.put(static_cast<char>(c ^ 0x5a));
  }
}

/// Runs one pass and reads its files back; returns the outputs and the
/// pass wall time. A cold pass starts from an empty cache directory, a warm
/// one from the cache set-up filled.
std::pair<PaperOutputs, double> run_pass(const PaperInputs& in, bool warm,
                                         Layers& layers) {
  if (!warm) fs::remove_all(in.cache_dir);
  const snapshot::StageCache cache(in.cache_dir.string());
  const Clock::time_point t0 = Clock::now();
  PaperOutputs o = paper_pass(in, cache, layers);
  const double ms = ms_between(t0, Clock::now());
  read_back(in, o);
  return {std::move(o), ms};
}

/// Set-up shared by both modes: kSetupRepeats cold passes (for paper_warm
/// they fill the cache). The first is the reference; the others must match
/// it. Returns the reference.
PaperOutputs setup_reference(const Options& opt, const PaperInputs& in,
                             Tally& tally, std::vector<double>* setup_s) {
  PaperOutputs reference;
  const int repeats = setup_s != nullptr ? kSetupRepeats : 1;
  for (int r = 0; r < repeats; ++r) {
    Layers layers;
    auto [o, ms] = run_pass(in, /*warm=*/false, layers);
    if (setup_s != nullptr) setup_s->push_back(ms / 1000.0);
    if (r == 0) {
      tally.record(pass_ok(o, o, false) && paper_anchors_hold(opt, o),
                   "paper reference pass (cache misses or paper anchors)");
      reference = std::move(o);
    } else {
      tally.record(pass_ok(o, reference, false),
                   "set-up pass differs from the reference pass");
    }
  }
  if (opt.corrupt_cache) corrupt_blobs(in.cache_dir);
  return reference;
}

}  // namespace

void paper_run(const Options& opt, bool warm, Tally& tally, Metrics& out) {
  const PaperInputs in = make_inputs(opt, opt.workload);
  std::vector<double> setup_s;
  const PaperOutputs reference = setup_reference(opt, in, tally, &setup_s);

  std::vector<double> pass_ms;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  for (int n = 0; n == 0 || Clock::now() < deadline; ++n) {
    Layers layers;
    const auto [o, ms] = run_pass(in, warm, layers);
    const bool ok = pass_ok(o, reference, warm);
    tally.record(ok, warm ? "warm pass differs from the cold reference or "
                            "missed the cache"
                          : "cold pass differs from the reference");
    if (ok) pass_ms.push_back(ms);  // a wrong pass is never timed
  }
  set_end_to_end(out, setup_s, pass_ms);
}

namespace {

/// Layer metrics the traced pass records from its own timers.
const std::vector<std::string>& timed_layers(bool warm) {
  static const std::vector<std::string> cold = {
      "demand.generate_ms",     "demand.save_csv_ms",
      "demand.load_csv_ms",     "demand.write_geojson_ms",
      "core.render_report_ms",  "io.json_write_ms",
      "core.analysis_ms",       "market.exclusive_ms",
      "market.proportional_ms", "market.fairshare_ms",
      "snapshot.serialize_ms",  "snapshot.store_ms"};
  static const std::vector<std::string> hot = {
      "demand.save_csv_ms",    "demand.load_csv_ms",
      "demand.write_geojson_ms", "core.render_report_ms",
      "io.json_write_ms",      "snapshot.load_ms",
      "snapshot.deserialize_ms", "snapshot.serialize_ms"};
  return warm ? hot : cold;
}

/// Calls run_full_analysis's component functions one by one, in its order,
/// timing each, and checks that the assembled results equal `expected`.
void analysis_components(const demand::DemandProfile& profile,
                         const core::AnalysisResults& expected, Tally& tally,
                         Samples& samples) {
  const core::SizingModel model{};
  const core::AnalysisConfig config{};
  Layers layers;
  core::AnalysisResults r;
  layers.time("core.f1_ms", [&] {
    r.table1 = model.capacity.table1(profile);
    r.f1 = core::analyze_oversubscription(profile, model.capacity,
                                          config.oversub_cap);
  });
  layers.time("core.sizing_ms", [&] {
    for (const double s : config.table2_beamspreads) {
      core::Table2Row row;
      row.beamspread = s;
      row.satellites_full_service =
          core::size_full_service(profile, model, s).satellites;
      row.satellites_capped =
          core::size_with_cap(profile, model, s, config.oversub_cap)
              .satellites;
      r.table2.push_back(row);
    }
  });
  r.fig2_beamspreads = config.fig2_beamspreads;
  r.fig2_oversubs = config.fig2_oversubs;
  r.fig2_grid = layers.time("core.served_grid_ms", [&] {
    return core::served_fraction_grid(profile, model.capacity,
                                      config.fig2_beamspreads,
                                      config.fig2_oversubs);
  });
  layers.time("core.longtail_ms", [&] {
    for (const auto& [s, o] : config.fig3_curves) {
      r.fig3.push_back(
          core::Fig3Curve{s, o, core::longtail_curve(profile, model, s, o)});
    }
  });
  layers.time("afford.evaluate_ms", [&] {
    const afford::AffordabilityAnalyzer analyzer(profile);
    r.fig4 = analyzer.evaluate_paper_plans();
    r.fig4_lifeline_threshold_income = afford::income_required_usd(
        afford::starlink_residential_lifeline().monthly_usd);
    r.fig4_starlink_threshold_income = afford::income_required_usd(
        afford::starlink_residential().monthly_usd);
  });
  tally.record(r == expected,
               "run_full_analysis components differ from the single call");
  for (const char* name : {"core.f1_ms", "core.sizing_ms",
                           "core.served_grid_ms", "core.longtail_ms",
                           "afford.evaluate_ms"}) {
    samples[name].push_back(layers.ms(name));
  }
}

}  // namespace

void paper_traced(const Options& opt, bool warm, double budget_s,
                  Tally& tally, Metrics& out) {
  const std::string name = warm ? "paper_warm" : "paper_cold";
  const PaperInputs in = make_inputs(opt, name);
  const PaperOutputs reference = setup_reference(opt, in, tally, nullptr);

  Samples samples;
  obs::HistogramSnapshot queue_wait;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  // Untraced and traced passes alternate so drift hits both equally.
  while (traced_ms.size() < 2 || Clock::now() < deadline) {
    for (const bool traced : {false, true}) {
      set_observability(traced);
      Layers layers;
      const auto [o, ms] = run_pass(in, warm, layers);
      const obs::MetricsSnapshot snap = obs::registry().snapshot();
      set_observability(false);
      const bool ok = pass_ok(o, reference, warm);
      tally.record(ok, name + " traced-run pass differs from the reference");
      if (traced && warm) {
        // Every traced warm pass counts here, also one that missed the
        // cache and so failed above: then the ratio drops below 1.
        samples["snapshot.hit_ratio"].push_back(
            static_cast<double>(o.hits) /
            static_cast<double>(o.hits + o.misses));
      }
      if (!ok) continue;
      if (!traced) {
        untraced_ms.push_back(ms);
        continue;
      }
      traced_ms.push_back(ms);
      for (const std::string& layer : timed_layers(warm)) {
        samples[layer].push_back(layers.ms(layer));
      }
      samples["pass.untimed_frac"].push_back((ms - layers.total_ms()) / ms);
      if (warm) {
        samples["snapshot.load_bytes"].push_back(
            counter(snap, "snapshot.load_bytes"));
        continue;
      }
      samples["snapshot.store_bytes"].push_back(
          counter(snap, "snapshot.store_bytes"));
      samples["hex.polyfill_keep_ratio"].push_back(
          counter(snap, "hex.polyfill.cells_kept") /
          counter(snap, "hex.polyfill.cells_scanned"));
      samples["hex.polyfill_ms"].push_back(timer_ms(snap, "hex.polyfill"));
      record_runtime(snap, ms, opt.threads, samples, queue_wait);
    }
  }
  samples["trace_overhead_frac"].push_back(median(traced_ms) /
                                               median(untraced_ms) -
                                           1.0);

  if (!warm) {
    samples["runtime.queue_wait_us_p50"].push_back(
        histogram_quantile_us(queue_wait, 0.5));
    analysis_components(reference.loaded, reference.results, tally, samples);

    // One traced pass at 1 thread: each executor-backed layer reports its
    // 1-thread time over its N-thread time (medians of the traced passes).
    runtime::set_global_threads(1);
    set_observability(true);
    Layers layers;
    const auto [o, ms] = run_pass(in, /*warm=*/false, layers);
    const double polyfill_1t_ms =
        timer_ms(obs::registry().snapshot(), "hex.polyfill");
    set_observability(false);
    runtime::set_global_threads(opt.threads);
    tally.record(pass_ok(o, reference, false),
                 "1-thread pass differs from the N-thread reference");
    const auto ratio = [&samples](double one_thread, const std::string& key) {
      return one_thread / median(samples[key]);
    };
    double market_1t = 0.0;
    double market_nt = 0.0;
    for (const market::MarketSimulation& sim : in.markets) {
      const std::string key = market_metric(sim.config().split.policy);
      market_1t += layers.ms(key);
      market_nt += median(samples[key]);
    }
    out.set(name + ".demand.generate_t1_ratio",
            ratio(layers.ms("demand.generate_ms"), "demand.generate_ms"),
            "ratio");
    out.set(name + ".hex.polyfill_t1_ratio",
            ratio(polyfill_1t_ms, "hex.polyfill_ms"), "ratio");
    out.set(name + ".core.analysis_t1_ratio",
            ratio(layers.ms("core.analysis_ms"), "core.analysis_ms"),
            "ratio");
    out.set(name + ".market.run_t1_ratio", market_1t / market_nt,
            "ratio");
  }
  emit_medians(name + ".", samples, out);
}

}  // namespace perfbench
