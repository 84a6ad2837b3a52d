#include "core/heuristic_engine.h"

namespace bdrmap::core {

namespace conf {

double relationship_prior(const asdata::RelationshipStore& rels, AsId a,
                          AsId b) {
  const asdata::Relationship ab = rels.rel(a, b);
  const asdata::Relationship ba = rels.rel(b, a);
  if (ab == asdata::Relationship::kNone &&
      ba == asdata::Relationship::kNone) {
    return 0.0;
  }
  if (ab != asdata::Relationship::kNone && ba == asdata::invert(ab)) {
    return kConsistentEdgePrior;
  }
  return kOneSidedEdgePrior;
}

double prior(Heuristic how) {
  switch (how) {
    case Heuristic::kNone: return 0.0;
    // §5.4.1: the VP's own space followed by more VP space — the most
    // constrained inference the ladder makes.
    case Heuristic::kVpNetwork: return 0.95;
    case Heuristic::kMultihomed: return 0.70;
    // §5.4.2: a terminal VP-addressed router in front of one silent org.
    case Heuristic::kFirewall: return 0.80;
    // §5.4.3: unrouted space — no BGP anchor at all.
    case Heuristic::kUnrouted: return 0.60;
    // §5.4.4: one external AS on the router and the same AS beyond it.
    case Heuristic::kOnenet: return 0.85;
    // §5.4.5: relationship-derived; the edge prior multiplies on top.
    case Heuristic::kThirdParty: return 0.75;
    case Heuristic::kRelationship: return 0.90;
    case Heuristic::kMissingCust: return 0.60;
    case Heuristic::kHiddenPeer: return 0.65;
    // §5.4.6: majority votes — the paper's weakest placements.
    case Heuristic::kCount: return 0.55;
    case Heuristic::kIpAs: return 0.50;
    // §5.4.8: synthetic placements for routers never observed.
    case Heuristic::kSilent: return 0.60;
    case Heuristic::kOtherIcmp: return 0.65;
  }
  return 0.0;
}

}  // namespace conf

const char* HeuristicRule::skip_reason(const Heuristics& h) const {
  const HeuristicsConfig& config = h.config();
  auto it = config.rule_overrides.find(slug_);
  if (it != config.rule_overrides.end() &&
      !it->second.enabled.value_or(true)) {
    return "disabled by config";
  }
  if (needs_relationships_ && !h.inputs().rels) return "missing inputs.rels";
  return nullptr;
}

void HeuristicEngine::fire_vp_network(
    Heuristics& h, std::vector<UncooperativeNeighbor>&) {
  h.phase1_vp_network();
}

void HeuristicEngine::fire_firewall(Heuristics& h,
                                    std::vector<UncooperativeNeighbor>&) {
  h.phase2_firewall();
}

void HeuristicEngine::fire_unrouted(Heuristics& h,
                                    std::vector<UncooperativeNeighbor>&) {
  h.phase3_unrouted();
}

void HeuristicEngine::fire_onenet(Heuristics& h,
                                  std::vector<UncooperativeNeighbor>&) {
  h.phase4_onenet();
}

void HeuristicEngine::fire_relationships(
    Heuristics& h, std::vector<UncooperativeNeighbor>&) {
  h.phase5_relationships();
}

void HeuristicEngine::fire_counting(Heuristics& h,
                                    std::vector<UncooperativeNeighbor>&) {
  h.phase6_counting();
}

void HeuristicEngine::fire_analytic_alias(
    Heuristics& h, std::vector<UncooperativeNeighbor>&) {
  h.phase7_analytic_alias();
}

void HeuristicEngine::fire_uncooperative(
    Heuristics& h, std::vector<UncooperativeNeighbor>& placements) {
  std::vector<UncooperativeNeighbor> out = h.phase8_uncooperative();
  placements.insert(placements.end(), out.begin(), out.end());
}

const std::vector<HeuristicRule>& HeuristicEngine::registry() {
  static const std::vector<HeuristicRule> rules = {
      {"vp_network", "5.4.1", /*needs_relationships=*/false,
       &HeuristicEngine::fire_vp_network},
      {"firewall", "5.4.2", /*needs_relationships=*/false,
       &HeuristicEngine::fire_firewall},
      {"unrouted", "5.4.3", /*needs_relationships=*/false,
       &HeuristicEngine::fire_unrouted},
      {"onenet", "5.4.4", /*needs_relationships=*/false,
       &HeuristicEngine::fire_onenet},
      {"relationships", "5.4.5", /*needs_relationships=*/true,
       &HeuristicEngine::fire_relationships},
      {"counting", "5.4.6", /*needs_relationships=*/false,
       &HeuristicEngine::fire_counting},
      {"analytic_alias", "5.4.7", /*needs_relationships=*/false,
       &HeuristicEngine::fire_analytic_alias},
      {"uncooperative", "5.4.8", /*needs_relationships=*/true,
       &HeuristicEngine::fire_uncooperative},
  };
  return rules;
}

const HeuristicRule* HeuristicEngine::find(std::string_view slug) {
  for (const HeuristicRule& rule : registry()) {
    if (slug == rule.slug()) return &rule;
  }
  return nullptr;
}

std::vector<std::size_t> HeuristicEngine::resolve_order(
    const HeuristicsConfig& config) {
  const std::vector<HeuristicRule>& rules = registry();
  std::vector<std::size_t> order;
  order.reserve(rules.size());
  std::vector<char> placed(rules.size(), 0);
  for (const std::string& slug : config.rule_order) {
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (!placed[i] && slug == rules[i].slug()) {
        placed[i] = 1;
        order.push_back(i);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!placed[i]) order.push_back(i);
  }
  return order;
}

std::vector<UncooperativeNeighbor> HeuristicEngine::run() {
  std::vector<UncooperativeNeighbor> placements;
  const std::vector<HeuristicRule>& rules = registry();
  for (std::size_t idx : resolve_order(h_.config_)) {
    const HeuristicRule& rule = rules[idx];
    if (rule.skip_reason(h_) != nullptr) {
      ++h_.rule_stats_[idx].skips;
      continue;
    }
    h_.current_rule_ = idx;
    h_.confidence_scale_ = 1.0;
    auto it = h_.config_.rule_overrides.find(rule.slug());
    if (it != h_.config_.rule_overrides.end() &&
        it->second.confidence_scale.has_value()) {
      h_.confidence_scale_ = conf::clamp01(*it->second.confidence_scale);
    }
    rule.fire(h_, placements);
    h_.current_rule_ = Heuristics::kNoRule;
    h_.confidence_scale_ = 1.0;
  }
  return placements;
}

}  // namespace bdrmap::core
