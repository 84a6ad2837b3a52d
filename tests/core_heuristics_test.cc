// §5.4 heuristics, one paper figure per scenario, on hand-built traces.
//
// Conventions: the VP network is AS1 originating 10.0.0.0/8; external
// networks AS2.. originate 20.0.0.0/8, 30.0.0.0/8, ... Unrouted space uses
// 172.16/12. Every scenario constructs exactly the constraints the paper's
// figure shows and asserts the inference the text prescribes.
#include "core/heuristics.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace bdrmap::core {
namespace {

using net::AsId;
using probe::ReplyKind;
using test::HopSpec;
using test::InputBundle;
using test::ip;
using test::make_trace;
using test::pfx;

class HeuristicsFixture : public ::testing::Test {
 protected:
  HeuristicsFixture() {
    in_.vp_ases = {AsId(1)};
    in_.origins.add(pfx("10.0.0.0/8"), AsId(1));
    in_.origins.add(pfx("20.0.0.0/8"), AsId(2));
    in_.origins.add(pfx("30.0.0.0/8"), AsId(3));
    in_.origins.add(pfx("40.0.0.0/8"), AsId(4));
    in_.origins.add(pfx("50.0.0.0/8"), AsId(5));
    in_.origins.add(pfx("60.0.0.0/8"), AsId(6));
    in_.origins.add(pfx("70.0.0.0/8"), AsId(7));
  }

  // Runs the heuristics over `traces` and returns the graph + placements.
  std::vector<UncooperativeNeighbor> run(std::vector<ObservedTrace> traces) {
    graph_ = std::make_unique<RouterGraph>(std::move(traces), groups_);
    inputs_ = in_.inputs();
    Heuristics h(*graph_, inputs_, config_);
    return h.run();
  }

  const GraphRouter& router_at(const char* addr) {
    return graph_->routers()[*graph_->router_of(ip(addr))];
  }

  InputBundle in_;
  InferenceInputs inputs_;
  HeuristicsConfig config_;
  std::vector<std::vector<net::Ipv4Addr>> groups_;
  std::unique_ptr<RouterGraph> graph_;
};

// ---- §5.4.1, Figure 4 ----

TEST_F(HeuristicsFixture, Step12_VpAddressesFollowedByVpAddresses) {
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"20.0.0.1"}})});
  EXPECT_TRUE(router_at("10.0.0.1").vp_side);
  EXPECT_EQ(router_at("10.0.0.1").owner, AsId(1));
  EXPECT_EQ(router_at("10.0.0.1").how, Heuristic::kVpNetwork);
  // The last VP-addressed router has no VP addresses after it: far side.
  EXPECT_FALSE(router_at("10.0.0.2").vp_side);
}

TEST_F(HeuristicsFixture, Step11_MultihomedNeighborException) {
  // A (AS2) multihomed to the VP via adjacent routers: both respond with
  // VP-assigned addresses x1, x2, and A's addresses appear adjacent to
  // both (Figure 4, step 1.1).
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"20.0.0.1"}}),
       make_trace(AsId(2), "20.0.1.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"10.0.1.2"}, {"20.0.1.1"}})});
  // x1=10.0.1.1 sees A adjacent AND a VP-addressed successor x2=10.0.1.2
  // that also leads into A: both operated by A.
  EXPECT_EQ(router_at("10.0.1.1").how, Heuristic::kMultihomed);
  EXPECT_EQ(router_at("10.0.1.1").owner, AsId(2));
  EXPECT_FALSE(router_at("10.0.1.1").vp_side);
}

TEST_F(HeuristicsFixture, Step11_VetoWhenSubsequentCustomerNotNeighborOfA) {
  // Same shape, but a subsequent router leads to AS5, a customer of the VP
  // network with no relationship to A: the VP operates x1 after all.
  in_.rels.add_c2p(AsId(5), AsId(1));  // AS5 customer of VP
  in_.rels.add_p2p(AsId(2), AsId(1));
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"20.0.0.1"}}),
       make_trace(AsId(2), "20.0.1.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"10.0.1.2"}, {"20.0.1.1"}}),
       make_trace(AsId(5), "50.0.0.9",
                  {{"10.0.0.1"}, {"10.0.1.1"}, {"50.0.0.1"}})});
  EXPECT_TRUE(router_at("10.0.1.1").vp_side);
  EXPECT_EQ(router_at("10.0.1.1").how, Heuristic::kVpNetwork);
}

TEST_F(HeuristicsFixture, Step1_RirExtensionForUnannouncedVpSpace) {
  // The VP network numbers a router from space it never announces; the RIR
  // delegation ties it back to the VP org, and a VP-announced address
  // appears later in the path.
  in_.rir.add({pfx("172.16.0.0/16"), net::OrgId(77)});
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"172.16.0.1"}, {"10.0.0.2"}, {"20.0.0.1"}})});
  // 172.16.0.1 is attributed to the VP network and, having a VP-announced
  // successor, is VP-side.
  EXPECT_TRUE(router_at("172.16.0.1").vp_side);
  EXPECT_EQ(router_at("172.16.0.1").owner, AsId(1));
}

// ---- §5.4.2, Figure 5 ----

TEST_F(HeuristicsFixture, Step2_FirewalledCustomerBorder) {
  // Traces toward AS2 always end at a VP-addressed router with nothing
  // beyond: AS2's border, numbered from VP space, firewalling probes.
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {nullptr}}),
       make_trace(AsId(2), "20.0.1.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(2));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kFirewall);
  EXPECT_FALSE(router_at("10.0.1.2").vp_side);
  // The near side is VP-operated (step 1.2 via the far ingress address).
  EXPECT_TRUE(router_at("10.0.0.2").vp_side);
}

TEST_F(HeuristicsFixture, Step2_MultipleDestAsesUsesNextas) {
  // The terminal router carries traces to AS2 and AS3 whose common
  // provider (per relationships) is AS4: nextas names AS4.
  in_.rels.add_c2p(AsId(2), AsId(4));
  in_.rels.add_c2p(AsId(3), AsId(4));
  run({make_trace(AsId(2), "20.0.0.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {nullptr}}),
       make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.1.2"}, {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(4));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kFirewall);
}

// ---- §5.4.3, Figure 6 ----

TEST_F(HeuristicsFixture, Step31_UnroutedRouterSingleSubsequentAs) {
  run({make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"172.16.0.1"}, {"30.0.0.1"}})});
  EXPECT_EQ(router_at("172.16.0.1").owner, AsId(3));
  EXPECT_EQ(router_at("172.16.0.1").how, Heuristic::kUnrouted);
  // The VP-addressed router before the unrouted space is the neighbor's border
  // (scenario a): also inferred via the unrouted heuristic.
  EXPECT_EQ(router_at("10.0.0.2").owner, AsId(3));
}

TEST_F(HeuristicsFixture, Step32_UnroutedRouterMostFrequentProvider) {
  in_.rels.add_c2p(AsId(3), AsId(5));
  in_.rels.add_c2p(AsId(4), AsId(5));
  in_.rels.add_c2p(AsId(3), AsId(6));
  run({make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"172.16.0.1"}, {"30.0.0.1"}}),
       make_trace(AsId(4), "40.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"172.16.0.1"}, {"40.0.0.1"}})});
  // Two subsequent origins (AS3, AS4); their most frequent provider AS5
  // operates the unrouted router.
  EXPECT_EQ(router_at("172.16.0.1").owner, AsId(5));
  EXPECT_EQ(router_at("172.16.0.1").how, Heuristic::kUnrouted);
}

TEST_F(HeuristicsFixture, Step3_NextasFallbackWhenNothingRoutedAfter) {
  in_.rels.add_c2p(AsId(3), AsId(5));
  in_.rels.add_c2p(AsId(4), AsId(5));
  run({make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"172.16.0.1"}, {nullptr}}),
       make_trace(AsId(4), "40.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"172.16.0.1"}, {nullptr}})});
  EXPECT_EQ(router_at("172.16.0.1").owner, AsId(5));
}

TEST_F(HeuristicsFixture, Step3_IxpAddressesInferredFromSubsequentHops) {
  in_.ixps.add_ixp({"IX", pfx("198.32.0.0/24"), AsId{}});
  run({make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"198.32.0.7"}, {"30.0.0.1"}})});
  EXPECT_EQ(router_at("198.32.0.7").owner, AsId(3));
  // IXP-LAN routers are identified by their member's subsequent space and
  // accounted with the onenet row, as in Table 1's peer columns.
  EXPECT_EQ(router_at("198.32.0.7").how, Heuristic::kOnenet);
}

// ---- §5.4.4, Figure 7 ----

TEST_F(HeuristicsFixture, Step41_ConsecutiveSameAsNotThirdParty) {
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"20.0.0.1"}, {"20.0.1.1"}})});
  EXPECT_EQ(router_at("20.0.0.1").owner, AsId(2));
  EXPECT_EQ(router_at("20.0.0.1").how, Heuristic::kOnenet);
}

TEST_F(HeuristicsFixture, Step42_VpBorderBeforeTwoConsecutive) {
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {"20.0.1.1"}})});
  // 10.0.1.2 is the neighbor's VP-addressed border: two consecutive AS2
  // routers follow.
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(2));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kOnenet);
}

// ---- §5.4.5, Figure 8 ----

TEST_F(HeuristicsFixture, Step52_ThirdPartyAddressDetected) {
  // A router answers with AS4 space but only appears toward AS3, and AS4
  // is AS3's provider: it used its provider-facing interface ([4]).
  in_.rels.add_c2p(AsId(3), AsId(4));
  run({make_trace(AsId(3), "30.0.0.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"40.0.0.1"}, {nullptr}}),
       make_trace(AsId(3), "30.0.1.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"40.0.0.1"}, {nullptr}})});
  EXPECT_EQ(router_at("40.0.0.1").owner, AsId(3));
  EXPECT_EQ(router_at("40.0.0.1").how, Heuristic::kThirdParty);
  // Step 5.1: the preceding VP-addressed router is AS3's border too.
  EXPECT_EQ(router_at("10.0.0.2").owner, AsId(3));
  EXPECT_EQ(router_at("10.0.0.2").how, Heuristic::kThirdParty);
}

TEST_F(HeuristicsFixture, Step53_KnownPeerAdjacent) {
  in_.rels.add_p2p(AsId(1), AsId(2));
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(2));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kRelationship);
}

TEST_F(HeuristicsFixture, Step54_MissingCustomerViaSiblingIndirection) {
  // Adjacent space is AS6 (no relationship with the VP); AS7 is AS6's
  // provider and a customer of the VP: AS7 operates the border.
  in_.rels.add_c2p(AsId(6), AsId(7));
  in_.rels.add_c2p(AsId(7), AsId(1));
  run({make_trace(AsId(6), "60.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"60.0.0.1"},
                   {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(7));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kMissingCust);
}

TEST_F(HeuristicsFixture, Step55_HiddenPeerSingleSubsequentAs) {
  // No relationship data at all about AS2: single subsequent origin.
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(2));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kHiddenPeer);
}

// ---- §5.4.6, Figure 9 ----

TEST_F(HeuristicsFixture, Step61_CountMajorityOfAdjacentAddresses) {
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {nullptr}}),
       make_trace(AsId(2), "20.1.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.1.1"},
                   {nullptr}}),
       make_trace(AsId(3), "30.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"30.0.0.1"},
                   {nullptr}})});
  // Two adjacent AS2 addresses vs one AS3 address.
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(2));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kCount);
}

TEST_F(HeuristicsFixture, Step61_TieBrokenByKnownRelationship) {
  in_.rels.add_p2p(AsId(1), AsId(3));
  run({make_trace(AsId(2), "20.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"20.0.0.1"},
                   {nullptr}}),
       make_trace(AsId(3), "30.0.9.9",
                  {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.1.2"}, {"30.0.0.1"},
                   {nullptr}})});
  EXPECT_EQ(router_at("10.0.1.2").owner, AsId(3));
  EXPECT_EQ(router_at("10.0.1.2").how, Heuristic::kCount);
}

TEST_F(HeuristicsFixture, Step62_PlainIpAsForExternalRouters) {
  // A router deep in a neighbor network with no adjacency constraints.
  run({make_trace(AsId(5), "50.0.9.9",
                  {{"10.0.0.1"}, {nullptr}, {"50.0.0.1"}, {nullptr}})});
  EXPECT_EQ(router_at("50.0.0.1").owner, AsId(5));
  EXPECT_EQ(router_at("50.0.0.1").how, Heuristic::kIpAs);
}

// ---- §5.4.7, Figure 10 ----

TEST_F(HeuristicsFixture, Step71_CollapsesSingleInterfaceVpPredecessors) {
  // Two apparent VP routers xa/xb each precede the same neighbor router
  // a3 (which replies with one AS2 address); auxiliary traces make xa and
  // xb VP-side. They are aliases of one border router.
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
  // xa (10.0.1.1) and xb (10.0.1.5) merged into one router.
  EXPECT_EQ(*graph_->router_of(ip("10.0.1.1")),
            *graph_->router_of(ip("10.0.1.5")));
}

TEST_F(HeuristicsFixture, Step71_DisabledByConfig) {
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
}

// ---- §5.4.8, Figure 11 ----

TEST_F(HeuristicsFixture, Step81_SilentNeighborPlacedAtCommonLastRouter) {
  in_.rels.add_c2p(AsId(4), AsId(1));  // BGP says AS4 is our customer
  auto placements =
      run({make_trace(AsId(4), "40.0.0.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {nullptr}, {nullptr}}),
           make_trace(AsId(4), "40.0.1.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {nullptr}, {nullptr}}),
           // another trace elsewhere makes 10.0.0.2 VP-side
           make_trace(AsId(2), "20.0.0.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.9.2"}, {"20.0.0.1"},
                       {nullptr}})});
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].neighbor, AsId(4));
  EXPECT_EQ(placements[0].how, Heuristic::kSilent);
  EXPECT_EQ(placements[0].vp_router, *graph_->router_of(ip("10.0.0.2")));
}

TEST_F(HeuristicsFixture, Step82_EchoOnlyNeighborIsOtherIcmp) {
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
  EXPECT_EQ(placements[0].neighbor, AsId(4));
  EXPECT_EQ(placements[0].how, Heuristic::kOtherIcmp);
}

TEST_F(HeuristicsFixture, Step8_NoPlacementWhenLastRouterVaries) {
  in_.rels.add_c2p(AsId(4), AsId(1));
  auto placements =
      run({make_trace(AsId(4), "40.0.0.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {nullptr}}),
           make_trace(AsId(4), "40.0.1.9",
                      {{"10.0.0.1"}, {"10.0.0.3"}, {nullptr}}),
           make_trace(AsId(2), "20.0.0.9",
                      {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.9.2"}, {"20.0.0.1"},
                       {nullptr}}),
           make_trace(AsId(2), "20.0.1.9",
                      {{"10.0.0.1"}, {"10.0.0.3"}, {"10.0.9.6"}, {"20.0.1.1"},
                       {nullptr}})});
  EXPECT_TRUE(placements.empty());
}

TEST_F(HeuristicsFixture, Step8_NoPlacementForCoveredNeighbors) {
  // AS2 already has an inferred router: no synthetic placement.
  in_.rels.add_p2p(AsId(1), AsId(2));
  auto placements = run({make_trace(
      AsId(2), "20.0.9.9",
      {{"10.0.0.1"}, {"10.0.0.2"}, {"20.0.0.1"}, {"20.0.1.1"}})});
  EXPECT_TRUE(placements.empty());
}

// ---- classification & nextas plumbing ----

TEST_F(HeuristicsFixture, ClassifyCoversAllClasses) {
  in_.ixps.add_ixp({"IX", pfx("198.32.0.0/24"), AsId{}});
  run({make_trace(AsId(2), "20.0.0.9", {{"10.0.0.1"}, {"20.0.0.1"}})});
  Heuristics h(*graph_, inputs_, config_);
  EXPECT_EQ(h.classify(ip("10.1.2.3")).cls, AddrClass::kVp);
  EXPECT_EQ(h.classify(ip("20.1.2.3")).cls, AddrClass::kExternal);
  EXPECT_EQ(h.classify(ip("20.1.2.3")).origin, AsId(2));
  EXPECT_EQ(h.classify(ip("198.32.0.9")).cls, AddrClass::kIxp);
  EXPECT_EQ(h.classify(ip("172.16.0.1")).cls, AddrClass::kUnrouted);
}

}  // namespace
}  // namespace bdrmap::core
