// Ablation bench for the §5.4 heuristic registry (DESIGN.md §15).
//
// For every registered scenario family this measures, against the
// generator's ground truth (§5.6):
//
//  1. full-registry accuracy and wall clock — link/router accuracy of the
//     default engine, median of --repeat runs after one warmup;
//  2. a confidence-threshold sweep — per threshold t, the accuracy and
//     coverage of only the links whose emitted confidence is >= t. Higher
//     thresholds should trade coverage for precision; the committed JSON
//     is the regression reference for that trade-off;
//  3. leave-one-out rule subsets — each of the eight registry rules
//     disabled in turn via HeuristicsConfig::rule_overrides, re-scored.
//     The accuracy drop attributes ground-truth damage to individual
//     §5.4 steps (the per-rule floors live in EXPERIMENTS.md and gate
//     warn-only in CI through tools/check_ablation.py).
//
// Honesty rules match bench_scale: timings are medians of --repeat runs
// after one warmup, and the JSON records repeat, warmup and the host's
// hardware concurrency next to every number.
//
// Usage: bench_ablation [--out FILE] [--repeat N] [--smoke]
//
// --smoke keeps only the "small" family with one repeat: same code paths,
// CI-friendly wall clock. The border maps themselves are pinned by the
// golden corpus (tests/golden/border_maps.txt), not here.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/heuristic_engine.h"
#include "eval/ground_truth.h"
#include "eval/report.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"

using namespace bdrmap;

namespace {

constexpr double kThresholds[] = {0.0, 0.25, 0.5, 0.75, 0.9};
constexpr std::uint64_t kScenarioSeed = 42;
constexpr std::uint64_t kRunSeed = 0x515;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double median_of(int repeat, Fn&& fn) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    double t0 = now_seconds();
    fn();
    times.push_back(now_seconds() - t0);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

struct ThresholdRow {
  double threshold = 0.0;
  std::size_t retained = 0;   // links with confidence >= threshold
  std::size_t correct = 0;    // retained links scored correct
  double accuracy = 0.0;      // correct / retained (0 when none retained)
  double coverage = 0.0;      // retained / links_total
};

struct SubsetRow {
  std::string rule;           // disabled rule's slug ("" == full registry)
  std::size_t links = 0;
  double link_accuracy = 0.0;
  double router_accuracy = 0.0;
};

struct FamilyReport {
  std::string family;
  std::size_t links = 0;
  double link_accuracy = 0.0;
  double router_accuracy = 0.0;
  double registry_seconds = 0.0;
  std::vector<ThresholdRow> thresholds;
  std::vector<SubsetRow> leave_one_out;
};

SubsetRow score(const eval::GroundTruth& truth,
                const core::BdrmapResult& result, std::string rule) {
  eval::ValidationSummary summary = truth.validate(result);
  SubsetRow row;
  row.rule = std::move(rule);
  row.links = summary.links_total;
  row.link_accuracy = summary.link_accuracy();
  row.router_accuracy = summary.router_accuracy();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_ablation.json";
  int repeat = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) repeat = 1;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE] [--repeat N] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) repeat = 1;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::string> families =
      smoke ? std::vector<std::string>{"small"} : eval::scenario_names();

  std::printf("bench_ablation: %zu families, median of %d (1 warmup), "
              "hardware_concurrency=%u\n\n",
              families.size(), repeat, hw);

  std::vector<FamilyReport> reports;
  for (const std::string& family : families) {
    auto scenario = eval::make_scenario(family, kScenarioSeed);
    if (!scenario) {
      std::fprintf(stderr, "unknown scenario family %s\n", family.c_str());
      return 1;
    }
    net::AsId vp_as = scenario->first_of(scenario->spec().vp_kind);
    auto vps = scenario->vps_in(vp_as);
    if (vps.empty()) {
      std::fprintf(stderr, "family %s has no VPs\n", family.c_str());
      return 1;
    }
    const topo::Vp vp = vps.front();
    eval::GroundTruth truth(scenario->net(), vp_as);

    auto run_with = [&](core::BdrmapConfig config) {
      return scenario->run_bdrmap(vp, config, kRunSeed);
    };

    FamilyReport report;
    report.family = family;

    // 1. Full registry: score once, then the honest median wall clock.
    core::BdrmapResult full = run_with({});
    eval::ValidationSummary summary = truth.validate(full);
    report.links = summary.links_total;
    report.link_accuracy = summary.link_accuracy();
    report.router_accuracy = summary.router_accuracy();
    report.registry_seconds =
        median_of(repeat, [&] { auto r = run_with({}); (void)r; });

    // 2. Confidence-threshold sweep over the scored links. LinkTruth rows
    // index into BdrmapResult::links, where the §15 confidence lives.
    for (double threshold : kThresholds) {
      ThresholdRow row;
      row.threshold = threshold;
      for (const eval::LinkTruth& link : summary.links) {
        if (full.links[link.link_index].confidence < threshold) continue;
        ++row.retained;
        row.correct += link.correct;
      }
      row.accuracy = row.retained == 0
                         ? 0.0
                         : static_cast<double>(row.correct) /
                               static_cast<double>(row.retained);
      row.coverage = summary.links_total == 0
                         ? 0.0
                         : static_cast<double>(row.retained) /
                               static_cast<double>(summary.links_total);
      report.thresholds.push_back(row);
    }

    // 3. Leave-one-out rule subsets.
    for (const core::HeuristicRule& rule :
         core::HeuristicEngine::registry()) {
      core::BdrmapConfig config;
      config.heuristics.rule_overrides[rule.slug()].enabled = false;
      report.leave_one_out.push_back(
          score(truth, run_with(config), rule.slug()));
    }

    std::printf("%-28s links %4zu  link acc %5.1f%%  router acc %5.1f%%  "
                "%.3fs\n",
                family.c_str(), report.links, 100.0 * report.link_accuracy,
                100.0 * report.router_accuracy, report.registry_seconds);
    reports.push_back(std::move(report));
  }

  // Per-rule damage table (accuracy delta vs the full registry).
  std::printf("\nleave-one-out link-accuracy deltas (percentage points):\n");
  std::vector<std::vector<std::string>> cells;
  for (const auto& report : reports) {
    std::vector<std::string> row{report.family};
    for (const SubsetRow& subset : report.leave_one_out) {
      double delta = 100.0 * (subset.link_accuracy - report.link_accuracy);
      row.push_back(eval::format_double(delta));
    }
    cells.push_back(std::move(row));
  }
  std::vector<std::string> header{"family"};
  for (const core::HeuristicRule& rule : core::HeuristicEngine::registry()) {
    header.push_back(std::string("-") + rule.slug());
  }
  std::fputs(eval::render_table(header, cells).c_str(), stdout);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"ablation\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"repeat\": " << repeat << ",\n";
  out << "  \"warmup\": true,\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"scenario_seed\": " << kScenarioSeed << ",\n";
  out << "  \"families\": [\n";
  for (std::size_t f = 0; f < reports.size(); ++f) {
    const FamilyReport& r = reports[f];
    out << "    {\n";
    out << "      \"family\": \"" << r.family << "\",\n";
    out << "      \"links\": " << r.links << ",\n";
    out << "      \"link_accuracy\": " << json_double(r.link_accuracy)
        << ",\n";
    out << "      \"router_accuracy\": " << json_double(r.router_accuracy)
        << ",\n";
    out << "      \"registry_seconds\": " << json_double(r.registry_seconds)
        << ",\n";
    out << "      \"thresholds\": [\n";
    for (std::size_t t = 0; t < r.thresholds.size(); ++t) {
      const ThresholdRow& row = r.thresholds[t];
      out << "        {\"threshold\": " << json_double(row.threshold)
          << ", \"links_retained\": " << row.retained
          << ", \"accuracy\": " << json_double(row.accuracy)
          << ", \"coverage\": " << json_double(row.coverage) << "}"
          << (t + 1 < r.thresholds.size() ? "," : "") << "\n";
    }
    out << "      ],\n";
    out << "      \"leave_one_out\": [\n";
    for (std::size_t s = 0; s < r.leave_one_out.size(); ++s) {
      const SubsetRow& row = r.leave_one_out[s];
      out << "        {\"rule\": \"" << row.rule
          << "\", \"links\": " << row.links
          << ", \"link_accuracy\": " << json_double(row.link_accuracy)
          << ", \"router_accuracy\": " << json_double(row.router_accuracy)
          << "}" << (s + 1 < r.leave_one_out.size() ? "," : "") << "\n";
    }
    out << "      ]\n";
    out << "    }" << (f + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
