// Golden border-map corpus (tests/golden/border_maps.txt, DESIGN.md §15).
//
// Each corpus line is `family seed salt wave digest`: the border-map
// digest (golden_corpus.h) of the family's first VP at scenario seed
// `seed`, probe seed 0x515 + salt and probe_wave `wave`. The corpus covers
// every registered scenario family at seed 42 across salts 0-3 and waves
// {0, 64} (checked here), the fuzz families at seeds 11 and 12
// (HeuristicConfidenceTest.FuzzedTopologiesHoldTheProperties), and the
// sharded plan on small_access (2 VPs, 4 target ASes per shard) at 1, 2
// and 8 workers (HeuristicParityTest.ShardedIdenticalAcrossWorkersAndEngines).
//
// The corpus was captured while four alternative planes still ran beside
// the production one — the hard-coded legacy ladder, per-call heuristics
// scans, keyed FIB egress and a cache-free FIB — and all five agreed on
// every line, so it stands in for those planes as the recorded baseline.
// Suite names carry "Heuristic" so the tsan stage's ctest filter picks
// them up.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/fuzzer.h"
#include "eval/scenario_registry.h"
#include "golden_corpus.h"

namespace bdrmap::golden {
namespace {

constexpr std::uint64_t kFamilySeed = 42;
constexpr std::uint32_t kSalts = 4;
constexpr std::size_t kWaves[] = {0, 64};

class HeuristicGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(HeuristicGolden, BorderMapsMatchCorpus) {
  const std::string& family = GetParam();
  for (std::uint32_t salt = 0; salt < kSalts; ++salt) {
    for (std::size_t wave : kWaves) {
      const std::string k = key(family, kFamilySeed, salt, wave);
      core::BdrmapResult result =
          run_family_case(family, kFamilySeed, salt, wave);
      EXPECT_FALSE(result.links.empty()) << k;
      EXPECT_TRUE(border_map_corpus().check(k, border_map_digest(result)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, HeuristicGolden,
                         ::testing::ValuesIn(eval::scenario_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(HeuristicGolden, CorpusHoldsExactlyTheCoveredCases) {
  // A line no test produces would pin nothing; a case with no line fails
  // above. Together they keep the file and the coverage in step.
  std::set<std::string> expected;
  for (const std::string& family : eval::scenario_names()) {
    for (std::uint32_t salt = 0; salt < kSalts; ++salt) {
      for (std::size_t wave : kWaves) {
        expected.insert(key(family, kFamilySeed, salt, wave));
      }
    }
  }
  for (const std::string& family : eval::default_fuzz_families()) {
    for (std::uint64_t seed : kFuzzSeeds) {
      expected.insert(fuzz_key(family, seed));
    }
  }
  for (unsigned workers : kShardWorkers) expected.insert(sharded_key(workers));
  std::set<std::string> recorded;
  for (const auto& [k, digest] : border_map_corpus().cases()) {
    recorded.insert(k);
  }
  EXPECT_EQ(recorded, expected);
}

// -- Parity suite: the registry engine against the legacy ladder's recorded
// maps (the corpus), on the slices this suite has always covered.

class HeuristicParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HeuristicParityTest, RegistryMatchesLegacyLadder) {
  core::BdrmapResult result = run_family_case(GetParam(), kFamilySeed, 0, 64);
  EXPECT_TRUE(border_map_corpus().check(key(GetParam(), kFamilySeed, 0, 64),
                                        border_map_digest(result)));
  EXPECT_GT(result.links.size(), 0u) << "family must produce a map";
}

INSTANTIATE_TEST_SUITE_P(Families, HeuristicParityTest,
                         ::testing::ValuesIn(eval::scenario_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(HeuristicParityTest, EcmpSaltsAndProbeWaves) {
  // ECMP at the pipeline level: varying the probe seed re-salts every
  // flow's ECMP hash, steering traces down different parallel paths (the
  // unit-level FlowSpec::flow_salt sweep lives in trace_batch_test),
  // crossed with probe waving on/off.
  for (std::uint32_t salt = 0; salt < kSalts; ++salt) {
    for (std::size_t wave : kWaves) {
      EXPECT_TRUE(border_map_corpus().check(
          key("small", kFamilySeed, salt, wave),
          border_map_digest(run_family_case("small", kFamilySeed, salt,
                                            wave))));
    }
  }
}

TEST(HeuristicParityTest, ShardedIdenticalAcrossWorkersAndEngines) {
  // The sharded plan at 1, 2 and 8 workers reproduces the maps both
  // engines recorded.
  for (unsigned workers : kShardWorkers) {
    runtime::MultiVpResult result = run_sharded_case(workers);
    ASSERT_EQ(result.per_vp.size(), 2u);
    EXPECT_TRUE(border_map_corpus().check(sharded_key(workers),
                                          border_maps_digest(result)));
    EXPECT_GT(result.total.traces, 0u);
  }
}

TEST(HeuristicParityTest, ExplicitPaperOrderMatchesDefault) {
  // Naming every rule in registration order is the same thing as naming
  // none: resolve_order's tie-break must keep the paper ladder stable.
  auto run = [](std::vector<std::string> order) {
    core::BdrmapConfig config;
    config.heuristics.rule_order = std::move(order);
    return border_map_digest(
        run_family_case("small", kFamilySeed, 0, 64, std::move(config)));
  };
  const std::uint64_t implicit = run({});
  EXPECT_EQ(implicit,
            run({"vp_network", "firewall", "unrouted", "onenet",
                 "relationships", "counting", "analytic_alias",
                 "uncooperative"}))
      << "explicit paper order";
  EXPECT_EQ(implicit, run({"no_such_rule"})) << "unknown slug ignored";
}

}  // namespace
}  // namespace bdrmap::golden
