// Per-§5.4-step fixtures for the registry heuristic engine (DESIGN.md
// §15). Each test hand-builds the minimal topology one rule needs and pins
// down all three observable effects: which heuristic fires (router tag AND
// the per-rule fires counter), the exact confidence emitted (recomputed
// through the conf:: algebra with EXPECT_DOUBLE_EQ — the fixture knows the
// evidence counts, so the formula is checked end to end), and precondition
// short-circuits (skip counters when inputs or config disable a rule).
// Suite name carries "Heuristic" for the tsan stage's ctest filter.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "core/heuristic_engine.h"
#include "test_support.h"

namespace bdrmap::core {
namespace {

using net::AsId;
using net::OrgId;
using probe::ReplyKind;
using test::InputBundle;
using test::ip;
using test::make_trace;
using test::pfx;

class HeuristicRuleFixture : public ::testing::Test {
 protected:
  HeuristicRuleFixture() {
    in_.vp_ases = {AsId(1)};
    in_.origins.add(pfx("10.0.0.0/8"), AsId(1));
    in_.origins.add(pfx("20.0.0.0/8"), AsId(2));
    in_.origins.add(pfx("30.0.0.0/8"), AsId(3));
    in_.origins.add(pfx("40.0.0.0/8"), AsId(4));
    in_.origins.add(pfx("50.0.0.0/8"), AsId(5));
  }

  // Runs the registry engine (the HeuristicsConfig default) and keeps the
  // Heuristics instance alive so rule_stats() stays inspectable.
  std::vector<UncooperativeNeighbor> run(std::vector<ObservedTrace> traces) {
    graph_ = std::make_unique<RouterGraph>(std::move(traces), groups_);
    inputs_ = in_.inputs();
    if (drop_rels_) inputs_.rels = nullptr;
    h_ = std::make_unique<Heuristics>(*graph_, inputs_, config_);
    return h_->run();
  }

  const GraphRouter& router_at(const char* addr) {
    return graph_->routers()[*graph_->router_of(ip(addr))];
  }

  const HeuristicRuleStats& stats(std::string_view slug) {
    for (const auto& s : h_->rule_stats()) {
      if (s.slug == slug) return s;
    }
    ADD_FAILURE() << "no rule named " << slug;
    static const HeuristicRuleStats kMissing{};
    return kMissing;
  }

  InputBundle in_;
  InferenceInputs inputs_;
  HeuristicsConfig config_;
  bool drop_rels_ = false;  // simulate a run with no relationship data
  std::vector<std::vector<net::Ipv4Addr>> groups_;
  std::unique_ptr<RouterGraph> graph_;
  std::unique_ptr<Heuristics> h_;
};

// ---- §5.4.1 ----

TEST_F(HeuristicRuleFixture, Step1_VpNetworkFiresWithPriorConfidence) {
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"20.0.0.1"}})});
  // Only 10.0.0.1 has a VP-addressed successor: exactly one step-1 fire.
  EXPECT_EQ(router_at("10.0.0.1").how, Heuristic::kVpNetwork);
  EXPECT_TRUE(router_at("10.0.0.1").vp_side);
  EXPECT_DOUBLE_EQ(router_at("10.0.0.1").confidence,
                   conf::prior(Heuristic::kVpNetwork));
  EXPECT_EQ(stats("vp_network").fires, 1u);
  EXPECT_EQ(stats("vp_network").skips, 0u);
}

TEST_F(HeuristicRuleFixture, Step1_MultihomedExceptionUsesItsOwnPrior) {
  // Figure 4 step 1.1: AS2 multihomed via adjacent VP-addressed routers.
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"20.0.0.1"}}),
       make_trace(AsId(2), "20.0.1.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"10.0.1.2"}, {"20.0.1.1"}})});
  EXPECT_EQ(router_at("10.0.1.1").how, Heuristic::kMultihomed);
  EXPECT_DOUBLE_EQ(router_at("10.0.1.1").confidence,
                   conf::prior(Heuristic::kMultihomed));
  // 10.0.0.1 (plain VP) + 10.0.1.1 (exception) — both are step-1 fires.
  EXPECT_EQ(stats("vp_network").fires, 2u);
}

// ---- §5.4.2 ----

TEST_F(HeuristicRuleFixture, Step2_FirewallSupportCountsTerminatingOrgs) {
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {nullptr}}),
       make_trace(AsId(2), "20.0.1.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kFirewall);
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(2));
  // One terminating organization behind the silent border: n = 1.
  EXPECT_DOUBLE_EQ(router_at("10.0.1.2").confidence,
                   conf::both(conf::prior(Heuristic::kFirewall),
                              conf::support(0.5, 1)));
  EXPECT_EQ(stats("firewall").fires, 1u);
}

TEST_F(HeuristicRuleFixture, Step2_NextasVoteSharePricesTheFallback) {
  // Two destination orgs whose common provider is AS4: a unanimous 2-of-2
  // provider vote prices the nextas fallback.
  in_.rels.add_c2p(AsId(2), AsId(4));
  in_.rels.add_c2p(AsId(3), AsId(4));
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {nullptr}}),
       make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(4));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kFirewall);
  EXPECT_DOUBLE_EQ(router_at("10.0.1.2").confidence,
                   conf::both(conf::prior(Heuristic::kFirewall),
                              conf::vote(2, 2)));
}

// ---- §5.4.3 ----

TEST_F(HeuristicRuleFixture, Step3_UnroutedSupportCountsObservations) {
  // Two traces cross the unrouted router and resurface in AS3: two
  // independent first-external observations (counted before dedup).
  run({make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"172.16.0.1"}, {"30.0.0.1"}}),
       make_trace(AsId(3), "30.0.1.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"172.16.0.1"}, {"30.0.0.1"}})});
  const double expected = conf::both(conf::prior(Heuristic::kUnrouted),
                                     conf::support(0.35, 2));
  EXPECT_EQ(router_at("172.16.0.1").how, Heuristic::kUnrouted);
  EXPECT_EQ(router_at("172.16.0.1").owner, AsId(3));
  EXPECT_DOUBLE_EQ(router_at("172.16.0.1").confidence, expected);
  // Scenario (a) assigns the VP-addressed border in front the same way.
  EXPECT_EQ(router_at("10.0.0.2").how, Heuristic::kUnrouted);
  EXPECT_DOUBLE_EQ(router_at("10.0.0.2").confidence, expected);
  EXPECT_EQ(stats("unrouted").fires, 2u);
}

// ---- §5.4.4 ----

TEST_F(HeuristicRuleFixture, Step4_OnenetDirectAndIndirectEvidence) {
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {"20.0.1.1"}})});
  // Step 4.1: evidence directly adjacent — the bare prior.
  EXPECT_EQ(router_at("20.0.0.1").how, Heuristic::kOnenet);
  EXPECT_DOUBLE_EQ(router_at("20.0.0.1").confidence,
                   conf::prior(Heuristic::kOnenet));
  // Step 4.2: the two-consecutive-routers evidence sits one hop beyond
  // the VP-addressed border, so it carries the indirection discount.
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kOnenet);
  EXPECT_DOUBLE_EQ(router_at("10.0.1.2").confidence,
                   conf::both(conf::prior(Heuristic::kOnenet),
                              conf::kIndirectEvidence));
  EXPECT_EQ(stats("onenet").fires, 2u);
}

TEST_F(HeuristicRuleFixture, Step4_OnenetRequiresMatchingNextAs) {
  // Router with an AS2 address followed by an AS3 router: no onenet
  // (previously asserted coarsely in the edge suite).
  run({make_trace(AsId(3), "30.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"20.0.0.1"}, {"30.0.0.1"},
                   {"30.0.1.1"}})});
  EXPECT_NE(router_at("20.0.0.1").how, Heuristic::kOnenet);
}

// ---- §5.4.5 ----

TEST_F(HeuristicRuleFixture, Step5_ThirdPartyPricedByTheStoreEdge) {
  // AS4 space seen only toward AS3, and AS4 is AS3's provider (recorded
  // consistently in both directions): the c2p edge prices the conclusion.
  in_.rels.add_c2p(AsId(3), AsId(4));
  run({make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"40.0.0.1"}, {nullptr}}),
       make_trace(AsId(3), "30.0.1.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"40.0.0.1"}, {nullptr}})});
  EXPECT_EQ(router_at("40.0.0.1").how, Heuristic::kThirdParty);
  const double direct = conf::both(conf::prior(Heuristic::kThirdParty),
                                   conf::kConsistentEdgePrior);
  EXPECT_DOUBLE_EQ(router_at("40.0.0.1").confidence, direct);
  // Step 5.1: the preceding VP-addressed router inherits the conclusion
  // one hop removed, so its confidence is discounted once more.
  EXPECT_EQ(router_at("10.0.0.2").how, Heuristic::kThirdParty);
  EXPECT_DOUBLE_EQ(router_at("10.0.0.2").confidence,
                   conf::both(conf::kIndirectEvidence, direct));
  EXPECT_EQ(stats("relationships").fires, 2u);
}

TEST_F(HeuristicRuleFixture, Step5_RelationshipEdgeConsistencyMatters) {
  // Consistent p2p edge for AS2, one-sided raw row for AS3: the same rule
  // emits two different confidences depending on store consistency.
  in_.rels.add_p2p(AsId(1), AsId(2));
  in_.rels.add_raw(AsId(1), AsId(3), asdata::Relationship::kCustomer);
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {nullptr}}),
       make_trace(AsId(3), "30.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.2.2"}, {"30.0.0.1"},
                   {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kRelationship);
  EXPECT_DOUBLE_EQ(router_at("10.0.1.2").confidence,
                   conf::both(conf::prior(Heuristic::kRelationship),
                              conf::kConsistentEdgePrior));
  EXPECT_EQ(router_at("10.0.2.2").how, Heuristic::kRelationship);
  EXPECT_DOUBLE_EQ(router_at("10.0.2.2").confidence,
                   conf::both(conf::prior(Heuristic::kRelationship),
                              conf::kOneSidedEdgePrior));
}

// ---- §5.4.6 ----

TEST_F(HeuristicRuleFixture, Step6_CountVoteShare) {
  // Two adjacent AS2 addresses vs one AS3 address: a 2-of-3 vote.
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {nullptr}}),
       make_trace(AsId(2), "20.1.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.1.1"},
                   {nullptr}}),
       make_trace(AsId(3), "30.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"30.0.0.1"},
                   {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kCount);
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(2));
  EXPECT_DOUBLE_EQ(router_at("10.0.1.2").confidence,
                   conf::both(conf::prior(Heuristic::kCount),
                              conf::vote(2, 3)));
  // One step-6.1 fire plus three step-6.2 fires for the adjacent external
  // routers — both sub-steps live in the counting rule.
  EXPECT_EQ(stats("counting").fires, 4u);
}

TEST_F(HeuristicRuleFixture, Step6_IpAsMajorityOfOwnAddresses) {
  run({make_trace(AsId(5), "50.0.9.9",
                  {{"10.0.0.1"}, {nullptr}, {"50.0.0.1"}, {nullptr}})});
  EXPECT_EQ(router_at("50.0.0.1").how, Heuristic::kIpAs);
  EXPECT_DOUBLE_EQ(router_at("50.0.0.1").confidence,
                   conf::both(conf::prior(Heuristic::kIpAs),
                              conf::vote(1, 1)));
  EXPECT_EQ(stats("counting").fires, 1u);
}

// ---- §5.4.7 ----

TEST_F(HeuristicRuleFixture, Step7_AnalyticAliasCountsMerges) {
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"20.0.0.1"}, {nullptr}}),
       make_trace(AsId(2), "20.1.9.9",
                  {{"10.0.0.1"}, {"10.0.1.5"}, {"20.0.0.1"}, {nullptr}}),
       make_trace(AsId(3), "30.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"10.0.2.1"}, {"30.0.0.1"},
                   {nullptr}}),
       make_trace(AsId(3), "30.1.9.9",
                  {{"10.0.0.1"}, {"10.0.1.5"}, {"10.0.2.1"}, {"30.0.0.1"},
                   {nullptr}})});
  EXPECT_EQ(*graph_->router_of(ip("10.0.1.1")),
            *graph_->router_of(ip("10.0.1.5")));
  // Two collapsible predecessors -> exactly one merge.
  EXPECT_EQ(stats("analytic_alias").fires, 1u);
  EXPECT_EQ(stats("analytic_alias").skips, 0u);
}

TEST_F(HeuristicRuleFixture, Step7_DisabledViaOverrideSkips) {
  config_.rule_overrides["analytic_alias"].enabled = false;
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"20.0.0.1"}, {nullptr}}),
       make_trace(AsId(2), "20.1.9.9",
                  {{"10.0.0.1"}, {"10.0.1.5"}, {"20.0.0.1"}, {nullptr}}),
       make_trace(AsId(3), "30.0.9.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"10.0.2.1"}, {"30.0.0.1"},
                   {nullptr}}),
       make_trace(AsId(3), "30.1.9.9",
                  {{"10.0.0.1"}, {"10.0.1.5"}, {"10.0.2.1"}, {"30.0.0.1"},
                   {nullptr}})});
  EXPECT_NE(*graph_->router_of(ip("10.0.1.1")),
            *graph_->router_of(ip("10.0.1.5")));
  EXPECT_EQ(stats("analytic_alias").fires, 0u);
  EXPECT_EQ(stats("analytic_alias").skips, 1u);
}

// ---- §5.4.8 ----

TEST_F(HeuristicRuleFixture, Step8_SilentNeighborVoteConfidence) {
  in_.rels.add_c2p(AsId(4), AsId(1));
  auto placements =
      run({make_trace(AsId(4), "40.0.0.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {nullptr}, {nullptr}}),
           make_trace(AsId(4), "40.0.1.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {nullptr}, {nullptr}}),
           make_trace(AsId(2), "20.0.0.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.9.2"}, {"20.0.0.1"},
                       {nullptr}})});
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].how, Heuristic::kSilent);
  // Both AS4 traces agree on the last VP router: a unanimous 2-of-2 vote.
  EXPECT_DOUBLE_EQ(placements[0].confidence,
                   conf::both(conf::prior(Heuristic::kSilent),
                              conf::vote(2, 2)));
  EXPECT_EQ(stats("uncooperative").fires, 1u);
}

TEST_F(HeuristicRuleFixture, Step8_OtherIcmpTagAndConfidence) {
  in_.rels.add_c2p(AsId(4), AsId(1));
  auto placements = run(
      {make_trace(AsId(4), "40.0.0.9",
                  {{"10.0.0.1"},
                   {"10.0.0.2"},
                   {"40.0.0.9", ReplyKind::kEchoReply}},
                  true),
       make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.9.2"}, {"20.0.0.1"},
                   {nullptr}})});
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].how, Heuristic::kOtherIcmp);
  EXPECT_DOUBLE_EQ(placements[0].confidence,
                   conf::both(conf::prior(Heuristic::kOtherIcmp),
                              conf::vote(1, 1)));
}

// ---- precondition short-circuits ----

TEST_F(HeuristicRuleFixture, Precondition_MissingRelsSkipsDependentRules) {
  // Without a relationship store, §5.4.5 and §5.4.8 cannot run: both are
  // counted as skipped, nothing fires, and the router falls through to the
  // counting rule.
  drop_rels_ = true;
  auto placements =
      run({make_trace(AsId(2), "20.0.9.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                       {nullptr}})});
  EXPECT_TRUE(placements.empty());
  EXPECT_EQ(stats("relationships").skips, 1u);
  EXPECT_EQ(stats("relationships").fires, 0u);
  EXPECT_EQ(stats("uncooperative").skips, 1u);
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kCount);
  // Rules with met preconditions still ran.
  EXPECT_EQ(stats("vp_network").skips, 0u);
  EXPECT_GE(stats("vp_network").fires, 1u);
}

TEST_F(HeuristicRuleFixture, Precondition_OverrideDisableFallsToCounting) {
  // §5.4.5 would claim this border via step 5.3; disabling the rule by
  // override makes the counting step own it instead.
  config_.rule_overrides["relationships"].enabled = false;
  in_.rels.add_p2p(AsId(1), AsId(2));
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kCount);
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(2));
  EXPECT_EQ(stats("relationships").skips, 1u);
  EXPECT_EQ(stats("relationships").fires, 0u);
}

TEST_F(HeuristicRuleFixture, Override_ConfidenceScaleOnlyScalesConfidence) {
  config_.rule_overrides["vp_network"].confidence_scale = 0.5;
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"20.0.0.1"}})});
  // The assignment itself is untouched; only the emitted strength halves.
  EXPECT_EQ(router_at("10.0.0.1").how, Heuristic::kVpNetwork);
  EXPECT_TRUE(router_at("10.0.0.1").vp_side);
  EXPECT_DOUBLE_EQ(router_at("10.0.0.1").confidence,
                   conf::prior(Heuristic::kVpNetwork) * 0.5);
  EXPECT_EQ(stats("vp_network").fires, 1u);
}

}  // namespace
}  // namespace bdrmap::core
