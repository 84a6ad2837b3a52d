// Valley-free BGP route computation on hand-built AS graphs.
#include "route/bgp_sim.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace bdrmap::route {
namespace {

using net::AsId;

// Builds:            1 --- 2        (tier-1 clique, p2p)
//                    /|      |
//                   3 4      5      (transit customers)
//                  /   |    / |
//                 6    7   8  9     (stubs; 7 also buys from 5)
class BgpFixture : public ::testing::Test {
 protected:
  BgpFixture() {
    for (int i = 0; i < 9; ++i) {
      m_.add_as();
    }
    auto& rels = m_.net().truth_relationships();
    rels.add_p2p(AsId(1), AsId(2));
    rels.add_c2p(AsId(3), AsId(1));
    rels.add_c2p(AsId(4), AsId(1));
    rels.add_c2p(AsId(5), AsId(2));
    rels.add_c2p(AsId(6), AsId(3));
    rels.add_c2p(AsId(7), AsId(4));
    rels.add_c2p(AsId(7), AsId(5));
    rels.add_c2p(AsId(8), AsId(5));
    rels.add_c2p(AsId(9), AsId(5));
    bgp_ = std::make_unique<BgpSimulator>(m_.net());
  }

  test::MiniNet m_;
  std::unique_ptr<BgpSimulator> bgp_;
};

TEST_F(BgpFixture, SelfRoute) {
  auto r = bgp_->route(AsId(3), AsId(3));
  EXPECT_EQ(r.cls, RouteClass::kSelf);
}

TEST_F(BgpFixture, CustomerRoutePreferred) {
  // 1 reaches 7 via customer 4 (down-down), not via peer 2.
  auto r = bgp_->route(AsId(1), AsId(7));
  EXPECT_EQ(r.cls, RouteClass::kCustomer);
  EXPECT_EQ(r.dist, 2);
}

TEST_F(BgpFixture, PeerRouteWhenNoCustomerRoute) {
  // 1 -> 8: 8 is only under 5 (under peer 2): peer route 1-2-5-8.
  auto r = bgp_->route(AsId(1), AsId(8));
  EXPECT_EQ(r.cls, RouteClass::kPeer);
  EXPECT_EQ(r.dist, 3);
}

TEST_F(BgpFixture, ProviderRouteForStubs) {
  // 6 -> 8 climbs 6-3-1 then peer 2 then down: provider class from 6.
  auto r = bgp_->route(AsId(6), AsId(8));
  EXPECT_EQ(r.cls, RouteClass::kProvider);
}

TEST_F(BgpFixture, ValleyFreePathsOnly) {
  // 6 and 8 communicate via the clique; the path must not transit 7
  // (a customer) sideways.
  auto path = bgp_->as_path(AsId(6), AsId(8));
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), AsId(6));
  EXPECT_EQ(path.back(), AsId(8));
  const auto& rels = m_.net().truth_relationships();
  // Check valley-freedom: once we go down or across, never up again.
  bool descended = false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    auto rel = rels.rel(path[i], path[i + 1]);
    ASSERT_NE(rel, asdata::Relationship::kNone);
    if (rel == asdata::Relationship::kProvider) {
      EXPECT_FALSE(descended) << "climbed after descending";
    } else {
      descended = true;
    }
  }
}

TEST_F(BgpFixture, MultihomedStubReachableBothWays) {
  // 7 buys from 4 and 5; 1 reaches it via customer 4.
  auto tiers = bgp_->tiers(AsId(1), AsId(7)).tiers;
  ASSERT_FALSE(tiers.empty());
  ASSERT_EQ(tiers[0].size(), 1u);
  EXPECT_EQ(tiers[0][0], AsId(4));
}

TEST_F(BgpFixture, CandidateTiersOrderedByPreference) {
  // From 7: dst 9 (sibling customer of 5). Customer route: none.
  // 7's providers 4 and 5; 5 reaches 9 via customer (dist 1).
  auto tiers = bgp_->tiers(AsId(7), AsId(9)).tiers;
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers[0][0], AsId(5));
}

TEST_F(BgpFixture, TiersIncludeProviderFallback) {
  // From 1 toward 8 the best is the peer tier; a provider tier must not
  // exist (tier-1 has no providers).
  auto tiers = bgp_->tiers(AsId(1), AsId(8)).tiers;
  ASSERT_EQ(tiers.size(), 1u);
  EXPECT_EQ(tiers[0][0], AsId(2));
}

TEST_F(BgpFixture, UnreachableWithoutAnyRelationshipPath) {
  test::MiniNet isolated;
  isolated.add_as();
  isolated.add_as();
  BgpSimulator bgp(isolated.net());
  EXPECT_FALSE(bgp.reachable(AsId(1), AsId(2)));
  EXPECT_TRUE(bgp.as_path(AsId(1), AsId(2)).empty());
}

TEST_F(BgpFixture, PathsAreDeterministic) {
  auto p1 = bgp_->as_path(AsId(6), AsId(9));
  auto p2 = bgp_->as_path(AsId(6), AsId(9));
  EXPECT_EQ(p1, p2);
}

TEST_F(BgpFixture, PeerDoesNotExportPeerRoutes) {
  // 3 must not reach 5's customers via 1's *peer* route being re-exported
  // upward... it can: 3 -> 1 (provider) -> 2 (peer of 1)? No: 1 exports
  // peer-learned routes only to customers — 3 IS a customer of 1, so the
  // route is valid, class provider from 3's view.
  auto r = bgp_->route(AsId(3), AsId(8));
  EXPECT_EQ(r.cls, RouteClass::kProvider);
  auto path = bgp_->as_path(AsId(3), AsId(8));
  std::vector<AsId> want{AsId(3), AsId(1), AsId(2), AsId(5), AsId(8)};
  EXPECT_EQ(path, want);
}

}  // namespace
}  // namespace bdrmap::route
