// The bdrmap ownership-inference heuristics (§5.4.1 – §5.4.8).
//
// Routers are visited in order of observed hop distance. Step 1 identifies
// the routers operated by the network hosting the VP (the near side of each
// interdomain link); steps 2-6 assign owners to far-side routers in
// decreasing order of available constraints; step 7 collapses analytic
// aliases on the near side; step 8 places neighbors whose routers never
// send time-exceeded messages.
//
// The phases run through the registry-driven HeuristicEngine
// (core/heuristic_engine.h, DESIGN.md §15).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "asdata/as_relationships.h"
#include "asdata/bgp_origins.h"
#include "asdata/ixp.h"
#include "asdata/rir.h"
#include "asdata/siblings.h"
#include "core/router_graph.h"

namespace bdrmap::core {

class HeuristicEngine;

// The §5.2 input datasets, as the deployed tool receives them: a public
// (collector-derived) origin table, *inferred* relationships, IXP and RIR
// records, the global AS-to-organization table, and the manually curated
// sibling list of the VP's own network.
struct InferenceInputs {
  const asdata::OriginTable* origins = nullptr;
  const asdata::RelationshipStore* rels = nullptr;
  const asdata::IxpDirectory* ixps = nullptr;
  const asdata::RirDelegations* rir = nullptr;
  const asdata::SiblingTable* siblings = nullptr;
  std::vector<AsId> vp_ases;  // VP AS first, then its siblings
};

// Per-rule config override, keyed by registry slug.
struct HeuristicRuleOverride {
  // false disables the rule (ablation); unset or true runs it.
  std::optional<bool> enabled;
  // Scales every confidence the rule emits (clamped to [0,1]).
  std::optional<double> confidence_scale;
};

// Fire/skip accounting for one registry rule, in registration order.
struct HeuristicRuleStats {
  std::string slug;
  std::uint64_t fires = 0;  // assignments/placements made by the rule
  std::uint64_t skips = 0;  // times the engine skipped it (precondition/config)
};

struct HeuristicsConfig {
  // Addresses confirmed as inbound interfaces by timestamp probing [26]:
  // routers whose external addresses are all confirmed are exempt from
  // third-party reclassification. Not owned; may be null.
  const std::unordered_set<Ipv4Addr>* confirmed_inbound = nullptr;
  // Slugs to run first, in the given order; unknown slugs are ignored and
  // every unnamed rule follows in registration order (the deterministic
  // tie-break). Empty means pure paper order.
  std::vector<std::string> rule_order;
  // Per-slug overrides (std::map keeps iteration — and therefore any
  // diagnostics — deterministic).
  std::map<std::string, HeuristicRuleOverride> rule_overrides;
};

// How an address maps through the public BGP view.
enum class AddrClass : std::uint8_t {
  kVp,        // originated by the VP network (or RIR-attributed to it)
  kExternal,  // originated by some other network
  kIxp,       // inside a known IXP peering LAN (IP-AS mapping meaningless)
  kUnrouted,  // no covering announcement
};

struct AddrInfo {
  AddrClass cls = AddrClass::kUnrouted;
  AsId origin;  // valid for kExternal (lowest origin of the longest match)
};

// A §5.4.8 inference: a neighbor with no visible router, attached to a
// specific VP border router.
struct UncooperativeNeighbor {
  std::size_t vp_router;  // index into the router graph
  AsId neighbor;
  Heuristic how;  // kSilent or kOtherIcmp
  // Inference strength in [0,1] (DESIGN.md §15); excluded from
  // eval::same_border_map.
  double confidence = 0.0;
};

class Heuristics {
 public:
  Heuristics(RouterGraph& graph, const InferenceInputs& in,
             HeuristicsConfig config = {});

  // Runs all phases through HeuristicEngine, mutating the graph's
  // ownership annotations, and returns the §5.4.8 placements.
  std::vector<UncooperativeNeighbor> run();

  // Classification of an observed address (valid after construction).
  AddrInfo classify(Ipv4Addr addr) const;

  // nextas(r): the most common provider among the destination ASes probed
  // through the router (§5.4 final paragraph).
  AsId nextas(std::size_t router) const;

  const HeuristicsConfig& config() const { return config_; }
  const InferenceInputs& inputs() const { return in_; }

  // Fire/skip counters per registry rule (registration order), valid after
  // run().
  const std::vector<HeuristicRuleStats>& rule_stats() const {
    return rule_stats_;
  }

 private:
  friend class HeuristicEngine;

  // Sentinel for current_rule_: no rule is firing.
  static constexpr std::size_t kNoRule = static_cast<std::size_t>(-1);

  bool is_vp_as(AsId as) const;
  // Representative AS for sibling-collapsing comparisons.
  AsId org_rep(AsId as) const;
  // The longest-match/IXP/RIR lookup behind classify(); classify() itself
  // memoizes it (the inputs are fixed after construction, so the mapping
  // never changes).
  AddrInfo classify_uncached(Ipv4Addr addr) const;
  // One pass over all traces filling first_external_table_ for every
  // router at once (DESIGN.md §14; valid until the first merge; built
  // lazily, and only consulted by the pre-merge phases 3 and 5).
  void build_first_external_table() const;
  bool all_vp(const GraphRouter& r) const;
  // Distinct external origins over the router's time-exceeded addresses.
  std::vector<AsId> external_origins(const GraphRouter& r) const;
  // External origins of the first routed hop after `router` in each trace.
  std::vector<AsId> first_external_after(std::size_t router) const;
  // External origins (with address counts) over adjacent next routers.
  std::unordered_map<AsId, int> adjacent_origin_counts(
      std::size_t router) const;

  // nextas() with the vote tallies behind it, so callers can turn the
  // majority share into a confidence (DESIGN.md §15).
  struct ScoredNextas {
    AsId as;        // kNoAs when no external destinations were seen
    int best = 0;   // votes for the winner
    int total = 0;  // all votes cast
  };
  ScoredNextas nextas_scored(std::size_t router) const;

  void extend_vp_space();            // §5.4.1 RIR delegation extension
  void phase1_vp_network();          // §5.4.1
  void phase2_firewall();            // §5.4.2
  void phase3_unrouted();            // §5.4.3
  void phase4_onenet();              // §5.4.4
  void phase5_relationships();       // §5.4.5
  void phase6_counting();            // §5.4.6
  void phase7_analytic_alias();      // §5.4.7
  std::vector<UncooperativeNeighbor> phase8_uncooperative();  // §5.4.8

  void assign(std::size_t router, AsId owner, Heuristic how, bool vp_side,
              double confidence);
  // Credits the currently-firing rule's fire counter (no-op between rules).
  void note_fire();

  RouterGraph& graph_;
  const InferenceInputs& in_;
  HeuristicsConfig config_;
  AsId vp_as_;  // primary VP AS
  // Unrouted blocks attributed to the VP network via RIR delegations.
  std::vector<net::Prefix> vp_extra_blocks_;
  // Compiled-scan caches (DESIGN.md §14). Mutable: they memoize const
  // lookups without changing observable results.
  mutable std::unordered_map<Ipv4Addr, AddrInfo> classify_cache_;
  mutable std::vector<std::vector<AsId>> first_external_table_;
  mutable bool first_external_built_ = false;
  // Per-rule accounting (registration order; see HeuristicEngine).
  std::vector<HeuristicRuleStats> rule_stats_;
  std::size_t current_rule_ = kNoRule;
  double confidence_scale_ = 1.0;
};

}  // namespace bdrmap::core
