// Phase-2 (whole-program) leolint tests: the graph fixture corpus, the
// seeded-mutation suites (delete a mixer line and R9 must fire, inject a
// back-edge include and R8 must fire, reintroduce a by-ref capture and
// R10 must fire), waiver parsing edge cases, manifest hygiene, and the
// DESIGN.md-vs-layers.txt consistency check.

#include "analyze.hpp"
#include "lint.hpp"
#include "project.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

using leolint::build_project;
using leolint::build_project_from_paths;
using leolint::ExemptionManifest;
using leolint::Finding;
using leolint::Layers;
using leolint::parse_exemptions;
using leolint::parse_layers;
using leolint::ProjectModel;
using leolint::run_project_rules;
using leolint::SourceText;

std::string fixture(const std::string& name) {
  return std::string(LEOLINT_FIXTURES_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The graph fixture corpus as in-memory sources, so tests can mutate a
/// file and assert the corresponding rule fires.
std::vector<SourceText> graph_sources() {
  std::vector<SourceText> out;
  for (const std::string& path :
       leolint::enumerate_sources({fixture("graph/src")})) {
    out.push_back(SourceText{path, read_file(path)});
  }
  return out;
}

Layers graph_layers() {
  return parse_layers(read_file(fixture("graph/layers.txt")));
}

ExemptionManifest graph_exemptions() {
  const std::string path = fixture("graph/exemptions.txt");
  return parse_exemptions(path, read_file(path));
}

/// Replaces `from` with `to` in the source whose path ends in
/// `path_suffix`; fails the test if the file or needle is missing.
void mutate(std::vector<SourceText>& sources, const std::string& path_suffix,
            const std::string& from, const std::string& to) {
  for (SourceText& src : sources) {
    if (src.path.size() >= path_suffix.size() &&
        src.path.compare(src.path.size() - path_suffix.size(),
                         path_suffix.size(), path_suffix) == 0) {
      const std::size_t at = src.text.find(from);
      ASSERT_NE(at, std::string::npos)
          << "needle '" << from << "' not in " << src.path;
      src.text.replace(at, from.size(), to);
      return;
    }
  }
  FAIL() << "no source ends in " << path_suffix;
}

std::map<std::string, int> rule_counts(const std::vector<Finding>& findings) {
  std::map<std::string, int> counts;
  for (const Finding& f : findings) ++counts[f.rule];
  return counts;
}

// ------------------------------------------------------------ baseline --

TEST(LeolintGraph, CleanCorpusHasNoFindings) {
  const ProjectModel model = build_project(graph_sources());
  const auto findings =
      run_project_rules(model, graph_layers(), graph_exemptions());
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : leolint::format(findings.front()));
}

TEST(LeolintGraph, DiskAndMemoryBuildsAgree) {
  const ProjectModel disk = build_project_from_paths({fixture("graph/src")});
  const ProjectModel mem = build_project(graph_sources());
  EXPECT_EQ(disk.file_module, mem.file_module);
  EXPECT_EQ(disk.includes.size(), mem.includes.size());
  EXPECT_EQ(disk.structs.size(), mem.structs.size());
  EXPECT_EQ(disk.mixers.size(), mem.mixers.size());
  EXPECT_EQ(disk.parallel_sites.size(), mem.parallel_sites.size());
}

TEST(LeolintGraph, ModelSeesTheCorpus) {
  const ProjectModel model = build_project(graph_sources());
  ASSERT_EQ(model.mixers.size(), 1U);
  EXPECT_EQ(model.mixers[0].qualified_type, "sim::MiniConfig");
  EXPECT_EQ(model.structs.count("sim::MiniConfig"), 1U);
  EXPECT_EQ(model.structs.count("sim::ShellSpec"), 1U);
  EXPECT_EQ(model.structs.count("geo::GeoPoint"), 1U);
  ASSERT_EQ(model.parallel_sites.size(), 1U);
  EXPECT_EQ(model.parallel_sites[0].callee, "parallel_for_each");
}

// ----------------------------------------------------- seeded mutations --

TEST(LeolintGraphMutation, DeletedMixerLineFiresFingerprintGap) {
  auto sources = graph_sources();
  mutate(sources, "snapshot/fp.cpp",
         "  fp.mix_u64(static_cast<unsigned long long>(config.step_s));\n",
         "");
  const auto findings = run_project_rules(build_project(std::move(sources)),
                                          graph_layers(), graph_exemptions());
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "fingerprint-gap");
  EXPECT_NE(findings[0].message.find("sim::MiniConfig::step_s"),
            std::string::npos);
}

TEST(LeolintGraphMutation, DeletedNestedMixLineFiresFingerprintGap) {
  auto sources = graph_sources();
  mutate(sources, "snapshot/fp.cpp",
         "  fp.mix_u64(static_cast<unsigned long long>(config.shell.planes));"
         "\n",
         "");
  const auto findings = run_project_rules(build_project(std::move(sources)),
                                          graph_layers(), graph_exemptions());
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "fingerprint-gap");
  EXPECT_NE(findings[0].message.find("sim::MiniConfig::shell.planes"),
            std::string::npos);
}

TEST(LeolintGraphMutation, InjectedBackEdgeFiresLayerViolationAndCycle) {
  auto sources = graph_sources();
  // geo (base) reaching up into sim (top) is both a layering violation
  // and, because sim already includes geo, a module cycle {geo, sim}.
  mutate(sources, "geo/point.hpp", "#pragma once\n",
         "#pragma once\n#include \"leodivide/sim/config.hpp\"\n");
  const auto findings = run_project_rules(build_project(std::move(sources)),
                                          graph_layers(), graph_exemptions());
  const auto counts = rule_counts(findings);
  EXPECT_EQ(counts.at("layer-violation"), 1);
  EXPECT_EQ(counts.at("layer-cycle"), 2);  // both edges of the cycle
}

TEST(LeolintGraphMutation, ByRefCaptureFiresParallelCapture) {
  auto sources = graph_sources();
  mutate(sources, "sim/run.cpp",
         "      // leolint:allow(parallel-capture): each task writes only "
         "its own out[i] slot\n      [&out, scale](std::size_t i) {",
         "      [&](std::size_t i) {");
  const auto findings = run_project_rules(build_project(std::move(sources)),
                                          graph_layers(), graph_exemptions());
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "parallel-capture");
  EXPECT_NE(findings[0].message.find("[&]"), std::string::npos);
}

TEST(LeolintGraphMutation, UnlayeredModuleFiresLayerUnknown) {
  auto sources = graph_sources();
  sources.push_back(SourceText{
      fixture("graph/src") + "/leodivide/mystery/widget.hpp",
      "#pragma once\n#include \"leodivide/geo/point.hpp\"\n"});
  const auto findings = run_project_rules(build_project(std::move(sources)),
                                          graph_layers(), graph_exemptions());
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "layer-unknown");
  EXPECT_NE(findings[0].message.find("mystery"), std::string::npos);
}

// ------------------------------------------------------- R10 waivering --

std::vector<Finding> with_run_cpp_lambda(const std::string& replacement) {
  auto sources = graph_sources();
  mutate(sources, "sim/run.cpp",
         "      // leolint:allow(parallel-capture): each task writes only "
         "its own out[i] slot\n      [&out, scale](std::size_t i) {",
         replacement);
  return run_project_rules(build_project(std::move(sources)), graph_layers(),
                           graph_exemptions());
}

TEST(LeolintGraphWaiver, WaiverOnWrongLineDoesNotApply) {
  // Two lines above the lambda: the annotation binds to the blank line
  // below it, not to the capture.
  const auto findings = with_run_cpp_lambda(
      "      // leolint:allow(parallel-capture): too far away\n\n"
      "      [&out, scale](std::size_t i) {");
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "parallel-capture");
}

TEST(LeolintGraphWaiver, EmptyJustificationDoesNotWaive) {
  const auto findings = with_run_cpp_lambda(
      "      // leolint:allow(parallel-capture):\n"
      "      [&out, scale](std::size_t i) {");
  const auto counts = rule_counts(findings);
  EXPECT_EQ(counts.at("parallel-capture"), 1);
}

TEST(LeolintGraphWaiver, UnknownRuleDoesNotWaive) {
  const auto findings = with_run_cpp_lambda(
      "      // leolint:allow(parallel-capture-typo): disjoint slots\n"
      "      [&out, scale](std::size_t i) {");
  const auto counts = rule_counts(findings);
  EXPECT_EQ(counts.at("parallel-capture"), 1);
}

TEST(LeolintGraphWaiver, MultipleRulesInOneAnnotationApply) {
  const auto findings = with_run_cpp_lambda(
      "      // leolint:allow(parallel-capture, unordered-iter): disjoint "
      "out[i] slots\n"
      "      [&out, scale](std::size_t i) {");
  EXPECT_TRUE(findings.empty());
}

TEST(LeolintGraphWaiver, SameLineWaiverApplies) {
  const auto findings = with_run_cpp_lambda(
      "      [&out, scale](std::size_t i) {  "
      "// leolint:allow(parallel-capture): disjoint out[i] slots");
  EXPECT_TRUE(findings.empty());
}

// Phase 1 reports the malformed annotations themselves; phase 2 only
// refuses to honor them. Check the phase-1 side of the contract too.
TEST(LeolintGraphWaiver, MalformedAnnotationsAreBadAnnotationFindings) {
  const std::string no_justification =
      "int f() {\n"
      "  // leolint:allow(parallel-capture):\n"
      "  return 0;\n"
      "}\n";
  const std::string unknown_rule =
      "int f() {\n"
      "  // leolint:allow(not-a-rule): because\n"
      "  return 0;\n"
      "}\n";
  for (const std::string& text : {no_justification, unknown_rule}) {
    const auto findings = leolint::lint_source("src/leodivide/x/f.cpp", text);
    ASSERT_EQ(findings.size(), 1U);
    EXPECT_EQ(findings[0].rule, "bad-annotation");
    EXPECT_EQ(findings[0].line, 2U);
  }
}

// ------------------------------------------------------------ manifests --

TEST(LeolintGraphManifest, StaleExemptionIsReported) {
  auto manifest = graph_exemptions();
  leolint::Exemption stale;
  stale.struct_qualified = "sim::MiniConfig";
  stale.field_path = "not_a_field";
  stale.justification = "points at nothing";
  stale.line = 99;
  manifest.entries.push_back(stale);
  const auto findings = run_project_rules(build_project(graph_sources()),
                                          graph_layers(), manifest);
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "stale-exemption");
  EXPECT_EQ(findings[0].line, 99U);
  EXPECT_EQ(findings[0].file, manifest.file);
}

TEST(LeolintGraphManifest, EntryWithoutJustificationIsBadExemption) {
  const auto manifest =
      parse_exemptions("x.txt", "sim::MiniConfig::debug_label\n");
  EXPECT_TRUE(manifest.entries.empty());
  ASSERT_EQ(manifest.errors.size(), 1U);
  const auto findings = run_project_rules(build_project(graph_sources()),
                                          graph_layers(), manifest);
  // debug_label loses its exemption, so the gap resurfaces alongside the
  // malformed manifest line.
  const auto counts = rule_counts(findings);
  EXPECT_EQ(counts.at("bad-exemption"), 1);
  EXPECT_EQ(counts.at("fingerprint-gap"), 1);
}

TEST(LeolintGraphManifest, MalformedKeyIsAnError) {
  const auto manifest = parse_exemptions("x.txt", "debug_label: why\n");
  EXPECT_TRUE(manifest.entries.empty());
  EXPECT_EQ(manifest.errors.size(), 1U);
}

TEST(LeolintGraphManifest, NestedFieldPathResolves) {
  // An exemption addressed into a nested struct resolves (not stale).
  auto manifest = graph_exemptions();
  leolint::Exemption nested;
  nested.struct_qualified = "sim::MiniConfig";
  nested.field_path = "shell.planes";
  nested.justification = "resolves through ShellSpec";
  nested.line = 50;
  manifest.entries.push_back(nested);
  const auto findings = run_project_rules(build_project(graph_sources()),
                                          graph_layers(), manifest);
  EXPECT_TRUE(findings.empty());
}

// --------------------------------------------------------- layers file --

TEST(LeolintGraphLayers, DuplicateModuleThrows) {
  EXPECT_THROW(parse_layers("layer a: geo\nlayer b: geo\n"),
               std::runtime_error);
}

TEST(LeolintGraphLayers, MalformedLineThrows) {
  EXPECT_THROW(parse_layers("tier base: geo\n"), std::runtime_error);
  EXPECT_THROW(parse_layers("layer base geo\n"), std::runtime_error);
  EXPECT_THROW(parse_layers("# only comments\n"), std::runtime_error);
}

TEST(LeolintGraphLayers, ParsesBottomUpOrder) {
  const Layers layers = parse_layers("layer a: m1\nlayer b: m2 m3\n");
  ASSERT_EQ(layers.names.size(), 2U);
  EXPECT_EQ(layers.module_layer.at("m1"), 0U);
  EXPECT_EQ(layers.module_layer.at("m2"), 1U);
  EXPECT_EQ(layers.module_layer.at("m3"), 1U);
}

// ----------------------------------------------------------- artifacts --

TEST(LeolintGraphArtifacts, DotIsDeterministicAndClustered) {
  const ProjectModel model = build_project(graph_sources());
  const Layers layers = graph_layers();
  const std::string a = leolint::to_dot(model, layers);
  const std::string b = leolint::to_dot(model, layers);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("digraph"), std::string::npos);
  EXPECT_NE(a.find("label = \"base\""), std::string::npos);
  EXPECT_NE(a.find("\"sim\" -> \"geo\""), std::string::npos);
  EXPECT_EQ(a.find("color = red"), std::string::npos);
}

TEST(LeolintGraphArtifacts, DotHighlightsBackEdges) {
  auto sources = graph_sources();
  mutate(sources, "geo/point.hpp", "#pragma once\n",
         "#pragma once\n#include \"leodivide/sim/config.hpp\"\n");
  const std::string dot =
      leolint::to_dot(build_project(std::move(sources)), graph_layers());
  EXPECT_NE(dot.find("\"geo\" -> \"sim\" [color = red"), std::string::npos);
}

TEST(LeolintGraphArtifacts, CoverageReportShowsExemptAndSummary) {
  const ProjectModel model = build_project(graph_sources());
  const std::string report =
      leolint::coverage_report(model, graph_exemptions());
  EXPECT_NE(report.find("sim::MiniConfig"), std::string::npos);
  EXPECT_NE(report.find("shell.planes"), std::string::npos);
  EXPECT_NE(report.find("exempt: presentation-only"), std::string::npos);
  EXPECT_NE(report.find("0 gaps"), std::string::npos);
}

// ---------------------------------------------- real tree + DESIGN sync --

TEST(LeolintGraphRealTree, LayersFileParsesAndCoversKnownModules) {
  const Layers layers =
      parse_layers(read_file(std::string(LEOLINT_TOOL_DIR) + "/layers.txt"));
  ASSERT_EQ(layers.names.size(), 4U);
  for (const char* mod : {"geo", "stats", "io", "runtime", "obs", "hex",
                          "demand", "orbit", "core", "afford", "spectrum",
                          "sim", "snapshot", "serve"}) {
    EXPECT_EQ(layers.module_layer.count(mod), 1U) << mod;
  }
}

TEST(LeolintGraphRealTree, DesignTableMatchesLayersFile) {
  const Layers layers =
      parse_layers(read_file(std::string(LEOLINT_TOOL_DIR) + "/layers.txt"));
  // DESIGN.md's "Module layering" table rows: `| layer | `mod`, `mod` |`.
  const std::string design = read_file(LEOLINT_DESIGN_MD);
  const std::regex kRow(R"(\|\s*(\w+)\s*\|\s*(`[a-z`,\s]+`)\s*\|)");
  std::map<std::string, std::set<std::string>> design_layers;
  std::vector<std::string> design_order;
  for (auto it = std::sregex_iterator(design.begin(), design.end(), kRow);
       it != std::sregex_iterator(); ++it) {
    const std::string layer = (*it)[1].str();
    if (std::find(layers.names.begin(), layers.names.end(), layer) ==
        layers.names.end()) {
      continue;  // header or unrelated table row
    }
    design_order.push_back(layer);
    std::string mods = (*it)[2].str();
    for (char& c : mods) {
      if (c == ',' || c == '`') c = ' ';
    }
    std::istringstream stream(mods);
    std::string mod;
    while (stream >> mod) design_layers[layer].insert(mod);
  }
  ASSERT_EQ(design_order.size(), layers.names.size())
      << "DESIGN.md module-layering table must list every layer in "
         "layers.txt exactly once";
  EXPECT_EQ(design_order, layers.names) << "layer order must match";
  for (std::size_t i = 0; i < layers.names.size(); ++i) {
    std::set<std::string> expected;
    for (const auto& [mod, layer] : layers.module_layer) {
      if (layer == i) expected.insert(mod);
    }
    EXPECT_EQ(design_layers[layers.names[i]], expected)
        << "modules of layer " << layers.names[i];
  }
}

TEST(LeolintGraphRealTree, WholeTreeRunsClean) {
  // The same invariant `lint.graph` gates in CI: zero unwaived phase-2
  // findings over src/.
  const std::string src = std::string(LEOLINT_TOOL_DIR) + "/../../src";
  const ProjectModel model = build_project_from_paths({src});
  const Layers layers =
      parse_layers(read_file(std::string(LEOLINT_TOOL_DIR) + "/layers.txt"));
  const std::string manifest_path =
      std::string(LEOLINT_TOOL_DIR) + "/fingerprint_exemptions.txt";
  const auto manifest =
      parse_exemptions(manifest_path, read_file(manifest_path));
  const auto findings = run_project_rules(model, layers, manifest);
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : leolint::format(findings.front()));
  EXPECT_FALSE(model.mixers.empty());
  EXPECT_FALSE(model.parallel_sites.empty());
}

}  // namespace
