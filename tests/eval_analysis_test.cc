// Exit analysis and link-discovery resolution (the §6 machinery).
#include "eval/analysis.h"

#include <gtest/gtest.h>

#include "eval/scenario.h"

namespace bdrmap::eval {
namespace {

class AnalysisFixture : public ::testing::Test {
 protected:
  AnalysisFixture() : scenario_(small_access_config(42)) {
    vp_as_ = scenario_.first_of(topo::AsKind::kAccess);
    truth_ = std::make_unique<GroundTruth>(scenario_.net(), vp_as_);
    result_ = std::make_unique<core::BdrmapResult>(
        scenario_.run_bdrmap(scenario_.vps_in(vp_as_).front()));
  }

  Scenario scenario_;
  net::AsId vp_as_;
  std::unique_ptr<GroundTruth> truth_;
  std::unique_ptr<core::BdrmapResult> result_;
};

TEST_F(AnalysisFixture, ExitsNameRealVpRouters) {
  auto exits = trace_exits(*result_, *truth_,
                           scenario_.collectors().public_origins());
  ASSERT_GT(exits.size(), 100u);
  for (const auto& exit : exits) {
    ASSERT_TRUE(exit.egress_truth.valid());
    // The egress must really be a router of the hosting organization.
    EXPECT_TRUE(truth_->same_org(
        scenario_.net().router(exit.egress_truth).owner, vp_as_))
        << exit.egress_truth.value;
  }
}

TEST_F(AnalysisFixture, ExitsCoverMostProbedPrefixes) {
  auto exits = trace_exits(*result_, *truth_,
                           scenario_.collectors().public_origins());
  std::set<net::Prefix> prefixes;
  for (const auto& e : exits) prefixes.insert(e.prefix);
  // Nearly every visible prefix yields an exit record.
  EXPECT_GT(prefixes.size() * 10,
            scenario_.collectors().public_origins().prefix_count() * 5);
}

TEST_F(AnalysisFixture, NextAsMostlyMatchesBgpCandidates) {
  auto exits = trace_exits(*result_, *truth_,
                           scenario_.collectors().public_origins());
  std::size_t checked = 0, consistent = 0;
  for (const auto& exit : exits) {
    auto origin = scenario_.collectors().public_origins().origin(
        exit.prefix.first());
    if (!origin.valid()) continue;
    auto tiers = scenario_.bgp().tiers(vp_as_, origin).tiers;
    if (tiers.empty()) continue;
    ++checked;
    for (const auto& tier : tiers) {
      for (net::AsId candidate : tier) {
        if (truth_->same_org(candidate, exit.next_as) ||
            exit.next_as == origin) {
          consistent = consistent + 1;
          goto next_exit;
        }
      }
    }
  next_exit:;
  }
  ASSERT_GT(checked, 100u);
  EXPECT_GT(static_cast<double>(consistent) / static_cast<double>(checked), 0.7);
}

TEST_F(AnalysisFixture, DiscoveredLinksAreRealInterconnects) {
  for (net::AsId neighbor : truth_->true_neighbors()) {
    for (std::uint32_t link_value :
         discovered_links_with(*result_, *truth_, neighbor)) {
      const auto& link = scenario_.net().link(topo::LinkId(link_value));
      EXPECT_NE(link.kind, topo::LinkKind::kInternal);
      // One side of the link belongs to the hosting organization.
      bool touches_vp = false;
      for (auto i : link.ifaces) {
        touches_vp |= truth_->same_org(
            scenario_.net().router(scenario_.net().iface(i).router).owner,
            vp_as_);
      }
      EXPECT_TRUE(touches_vp) << link_value;
    }
  }
}

TEST_F(AnalysisFixture, DiscoveredLinksEmptyForStrangers) {
  // An AS with no relationship to the VP network yields nothing.
  net::AsId stranger;
  for (const auto& info : scenario_.net().ases()) {
    if (info.kind == topo::AsKind::kEnterprise &&
        !scenario_.net().truth_relationships().are_neighbors(info.id,
                                                             vp_as_)) {
      stranger = info.id;
      break;
    }
  }
  ASSERT_TRUE(stranger.valid());
  EXPECT_TRUE(discovered_links_with(*result_, *truth_, stranger).empty());
}

}  // namespace
}  // namespace bdrmap::eval
