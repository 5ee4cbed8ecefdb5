#include "leodivide/core/scenario.hpp"

#include "leodivide/obs/trace.hpp"
#include "leodivide/runtime/executor.hpp"

namespace leodivide::core {

AnalysisResults run_full_analysis(const demand::DemandProfile& profile,
                                  const SizingModel& model,
                                  const AnalysisConfig& config) {
  const obs::Span span("core.run_full_analysis");
  AnalysisResults out;
  out.table1 = model.capacity.table1(profile);
  out.f1 = analyze_oversubscription(profile, model.capacity,
                                    config.oversub_cap);

  for (double s : config.table2_beamspreads) {
    Table2Row row;
    row.beamspread = s;
    row.satellites_full_service =
        size_full_service(profile, model, s).satellites;
    row.satellites_capped =
        size_with_cap(profile, model, s, config.oversub_cap).satellites;
    out.table2.push_back(row);
  }

  out.fig2_beamspreads = config.fig2_beamspreads;
  out.fig2_oversubs = config.fig2_oversubs;
  out.fig2_grid = served_fraction_grid(profile, model.capacity,
                                       config.fig2_beamspreads,
                                       config.fig2_oversubs);

  // One task per curve, each into its own slot, so fig3 keeps config order
  // at every thread count.
  out.fig3.resize(config.fig3_curves.size());
  runtime::global_executor().run_tasks(
      out.fig3.size(),
      // leolint:allow(parallel-capture): each task writes only its own fig3 slot
      [&profile, &model, &config, &out](std::size_t i) {
        const auto [s, o] = config.fig3_curves[i];
        out.fig3[i] = Fig3Curve{s, o, longtail_curve(profile, model, s, o)};
      });

  const afford::AffordabilityAnalyzer analyzer(profile);
  out.fig4 = analyzer.evaluate_paper_plans();
  out.fig4_lifeline_threshold_income = afford::income_required_usd(
      afford::starlink_residential_lifeline().monthly_usd);
  out.fig4_starlink_threshold_income =
      afford::income_required_usd(afford::starlink_residential().monthly_usd);
  return out;
}

}  // namespace leodivide::core
