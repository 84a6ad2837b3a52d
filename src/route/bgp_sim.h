// AS-level BGP route computation over the ground-truth relationship graph.
//
// Implements the standard Gao-Rexford model: an AS prefers routes learned
// from customers over peers over providers (economics), uses path length
// within a preference class, and exports customer-learned routes to
// everyone but peer/provider-learned routes only to customers (valley-free
// export). The router-level FIB (fib.h) consumes the per-destination
// candidate tiers to make hot-potato egress choices, and the collector view
// (collectors.h) extracts the deterministic best AS paths a route collector
// would record.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netbase/ids.h"
#include "netbase/sync.h"
#include "obs/metrics.h"
#include "topo/internet.h"

namespace bdrmap::route {

using net::AsId;

// Export-policy overrides for adversarial scenarios. The relationship graph
// stays Gao-Rexford-consistent; a policy only changes what an AS *exports*.
struct BgpPolicy {
  // ASes committing a classic type-1 route leak: each re-exports its best
  // route of ANY class to all of its providers and peers, which accept it
  // as a customer-/peer-learned route respectively. A neighbor whose own
  // best route is already at least as short rejects the leak (AS-path loop
  // detection: the circular announcement carries the neighbor's own ASN),
  // which keeps the leaked forwarding plane loop-free.
  std::vector<AsId> leakers;

  bool has_leaks() const { return !leakers.empty(); }
};

enum class RouteClass : std::uint8_t {
  kNone,      // unreachable
  kSelf,      // destination is the AS itself
  kCustomer,  // learned from a customer (most preferred)
  kPeer,      // learned from a settlement-free peer
  kProvider,  // learned from a provider (least preferred)
};

struct RouteInfo {
  RouteClass cls = RouteClass::kNone;
  std::uint16_t dist = 0;  // AS hops to the destination
};

class BgpSimulator {
 public:
  // `metrics` (optional) receives the route.bgp.* cache counters; nullptr
  // keeps every instrument a no-op.
  explicit BgpSimulator(const topo::Internet& net,
                        obs::MetricsRegistry* metrics = nullptr);

  // Same, with an adversarial export policy (route leaks). The default
  // policy is empty, making this constructor equivalent to the one above.
  BgpSimulator(const topo::Internet& net, BgpPolicy policy,
               obs::MetricsRegistry* metrics = nullptr);

  const BgpPolicy& policy() const { return policy_; }

  // Best route class/length from `src` toward `dst` (an AS).
  RouteInfo route(AsId src, AsId dst) const;

  // Next-hop AS candidates grouped into preference tiers: tier 0 is the
  // most preferred non-empty class (all neighbors tied at the best path
  // length within that class), followed by the remaining classes in
  // preference order. Routers fall back to a later tier only when
  // per-prefix announcement filtering empties an earlier one.
  //
  // Memoized per (src, dst) AS pair. Each tier is sorted ascending
  // (membership checks can binary-search). The returned reference is
  // stable for the simulator's lifetime; fills are pure
  // functions of the immutable relationship graph, so first-writer-wins
  // insertion under tiers_mu_ is value-deterministic at any thread count.
  struct TierSet {
    std::vector<std::vector<AsId>> tiers;
  };
  const TierSet& tiers(AsId src, AsId dst) const BDRMAP_EXCLUDES(tiers_mu_);

  // The deterministic best AS path from `src` to `dst` using lowest-AS
  // tie-breaking — what a route collector peering with `src` records.
  // Empty when unreachable; otherwise starts with `src`, ends with `dst`.
  std::vector<AsId> as_path(AsId src, AsId dst) const;

  bool reachable(AsId src, AsId dst) const {
    return route(src, dst).cls != RouteClass::kNone;
  }

  // -- Churn hooks (serve::ServeEngine) -------------------------------------
  //
  // A long-lived daemon replays relationship churn into the simulator
  // without rebuilding the topology. The first override copies the truth
  // graph into a private store (copy-on-write); later route/tier fills read
  // the overridden store. Overrides and invalidation REQUIRE external
  // quiescence: no concurrent route()/tiers()/as_path() callers (the serve
  // engine applies churn strictly between inference epochs, and the thread
  // pool's task hand-off provides the happens-before edge).

  // Rewrites the relationship between `a` and `b` in both directions
  // (kNone removes the edge) and invalidates every cached table/tier.
  void set_relationship(AsId a, AsId b, asdata::Relationship rel_of_b_from_a)
      BDRMAP_EXCLUDES(cache_mu_, tiers_mu_);

  // Drops all memoized per-destination tables and candidate-tier sets.
  // References previously returned by tiers() become dangling.
  void invalidate_all() BDRMAP_EXCLUDES(cache_mu_, tiers_mu_);

  // The relationship graph routes are currently computed over: the truth
  // graph until the first set_relationship, the private overlay after.
  const asdata::RelationshipStore& relationships() const { return rels(); }

 private:
  static constexpr std::uint16_t kInf = 0xffff;

  struct PerDst {
    // All indexed by dense AS index. cust[x]: length of the shortest
    // customer-chain from x down to dst (x's customer cone contains dst);
    // peer[x]: via one peer edge then a customer chain; prov[x]: via one or
    // more provider edges first (valley-free "up then down").
    std::vector<std::uint16_t> cust, peer, prov;
  };

  const PerDst& table(AsId dst) const BDRMAP_EXCLUDES(cache_mu_);
  TierSet compute_tiers(AsId src, AsId dst) const;
  std::size_t index(AsId as) const { return as_index_.at(as); }
  bool is_leaker(AsId as) const { return leaker_set_.count(as) > 0; }

  // Relax-only derivations shared by the base fill and the leak overlay:
  // peer[] from cust[] across peer edges, prov[] via Dijkstra down p2c
  // edges. Both only ever lower values, so re-running after a leak
  // relaxation is safe.
  void derive_peer(PerDst& t) const;
  void derive_prov(PerDst& t) const;
  // Applies the BgpPolicy route leaks to a freshly computed table, iterated
  // to a fixed point (all relaxations strictly decrease bounded values).
  void apply_leaks(PerDst& t) const;

  // Effective relationship graph: the overlay if churn installed one, the
  // topology's truth graph otherwise. Read from fill paths only; the
  // overlay pointer is written exclusively under the quiescence contract
  // of set_relationship above.
  const asdata::RelationshipStore& rels() const {
    return rels_override_ ? *rels_override_ : net_.truth_relationships();
  }

  const topo::Internet& net_;
  BgpPolicy policy_;
  std::unique_ptr<asdata::RelationshipStore> rels_override_;
  std::unordered_set<AsId> leaker_set_;
  std::unordered_map<AsId, std::size_t> as_index_;
  std::vector<AsId> as_ids_;
  // No-op handles unless a registry was supplied at construction.
  obs::Counter table_fills_;
  obs::Counter tier_hits_;
  obs::Counter tier_fills_;
  // Lazily computed per-destination tables (most workloads touch every
  // destination exactly once, so we cache forever). Guarded by cache_mu_:
  // concurrent multi-VP runs share one simulator, and the fill is
  // value-deterministic (a pure function of the immutable truth graph),
  // so first-writer-wins insertion keeps results independent of thread
  // interleaving.
  mutable net::SharedMutex cache_mu_;
  mutable std::unordered_map<AsId, std::unique_ptr<PerDst>> cache_
      BDRMAP_GUARDED_BY(cache_mu_);
  // Candidate-tier cache keyed by packed dense (src, dst) indices. Same
  // locking and purity discipline as cache_ above; referenced entries live
  // behind unique_ptr so they survive rehashes.
  mutable net::SharedMutex tiers_mu_;
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<TierSet>> tiers_
      BDRMAP_GUARDED_BY(tiers_mu_);
  static const TierSet kNoTiers;
};

}  // namespace bdrmap::route
