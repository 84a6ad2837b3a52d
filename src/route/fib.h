// Router-level forwarding over the synthetic Internet.
//
// Combines AS-level BGP decisions (bgp_sim.h) with intra-AS shortest-path
// routing and hot-potato egress selection: when several border sessions can
// carry traffic toward a destination, each router exits via the session
// closest to it in IGP distance (Teixeira et al.'s hot-potato routing [42]),
// which is what makes the Figures 14-16 phenomena appear — VPs in different
// PoPs of the access network leave via different border routers.
//
// Per-prefix selective announcement (AnnouncedPrefix::only_via_links) is
// honored at sessions adjacent to the origin AS, modelling the Akamai-style
// policy of announcing certain prefixes only at specific interconnects.
//
// Fast path (DESIGN.md §9): next_hop is the system's inner loop — every
// hop of every simulated probe goes through it. Three mechanisms keep it
// cheap:
//  * RouteQuery — the destination is resolved (interface lookup, announced
//    prefix match, delivery target) once per trace, not once per hop;
//  * memoized decision caches — per-(router, dst_as, pinned) egress
//    session sets and per-(src, dst) candidate tiers (bgp_sim.h), filled
//    lazily under shared_mutex with first-writer-wins discipline (fills
//    are pure functions of the immutable topology, so results are
//    independent of thread interleaving — the MultiVpExecutor contract);
//  * dense indexing — routers and ASes are addressed by flat arrays
//    instead of hash probes on the IGP path.
// The walks it produces are pinned by the committed golden corpus
// tests/golden/fib_walks.txt (tests/route_fastpath_test.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netbase/ids.h"
#include "netbase/sync.h"
#include "obs/metrics.h"
#include "route/bgp_sim.h"
#include "topo/internet.h"

namespace bdrmap::route {

using net::AsId;
using net::IfaceId;
using net::Ipv4Addr;
using net::RouterId;
using topo::LinkId;

// One usable interdomain attachment: a direction over an interdomain or
// IXP link from `near` (in near_as) to `far` (in far_as).
struct Session {
  LinkId link;
  RouterId near_router;
  RouterId far_router;
  IfaceId near_iface;
  IfaceId far_iface;
  AsId near_as;
  AsId far_as;
  bool via_ixp = false;
};

struct FibOptions {
  // When set, the FIB reports cache behaviour (route.fib.* counters and
  // the egress tie-width histogram) to this registry. nullptr (default)
  // leaves every handle a no-op — the zero-overhead path the hot-path
  // bench measures.
  obs::MetricsRegistry* metrics = nullptr;
};

class Fib {
 public:
  explicit Fib(const topo::Internet& net, const BgpSimulator& bgp,
               FibOptions options = {});

  struct Hop {
    RouterId router;  // the next router the packet arrives at
    IfaceId ingress;  // the interface it arrives on
    IfaceId egress;   // the interface the current router transmits from
    LinkId link;
    bool crossed_interdomain = false;
  };

  // A destination resolved once per trace. Obtain one from query() and
  // pass it to the per-hop calls below (a default-constructed query has
  // no route).
  class RouteQuery {
   public:
    RouteQuery() = default;
    Ipv4Addr dst() const { return dst_; }

   private:
    friend class Fib;
    struct Resolved {
      bool ok = false;
      bool is_iface_addr = false;  // dst is some router's interface address
      AsId dst_as;                 // AS-level routing target
      RouterId target;             // delivery router inside dst_as
      RouterId final_router;       // router that ultimately owns the address
      LinkId cross_link;           // link to cross from target to final_router
      IfaceId cross_egress;        // target's interface on cross_link
      const topo::AnnouncedPrefix* ap = nullptr;
      const std::vector<LinkId>* pinned = nullptr;
      // Dense index of dst_as (kNoIndex when the AS is outside the
      // construction snapshot): routes the hot walk onto the flat egress
      // rows instead of the keyed hash map.
      std::uint32_t dst_as_dense = 0xffffffffu;
    };
    Ipv4Addr dst_;
    Resolved res_;
  };

  // Resolves `dst` once for reuse across a trace.
  RouteQuery query(Ipv4Addr dst) const;

  // Where the packet at router `r` goes next on its way to `dst`.
  // nullopt means: either `r` is the delivery point for `dst` (use
  // `delivered_at` to distinguish) or there is no route.
  //
  // `flow_salt` selects among equal-cost internal paths (ECMP): real
  // routers hash the flow tuple, so Paris traceroute (constant tuple,
  // salt 0) sees one stable path while classic traceroute (varying probe
  // headers) flaps between them — the [2] artifact the paper's collection
  // avoids.
  std::optional<Hop> next_hop(RouterId r, const RouteQuery& q,
                              std::uint32_t flow_salt = 0) const;
  std::optional<Hop> next_hop(RouterId r, Ipv4Addr dst,
                              std::uint32_t flow_salt = 0) const;

  // True iff a packet for `dst` terminates at router `r`: `dst` is one of
  // r's interface addresses, or r hosts the announced prefix covering dst.
  bool delivered_at(RouterId r, const RouteQuery& q) const;
  bool delivered_at(RouterId r, Ipv4Addr dst) const;

  // True iff the query's destination is one of r's own interface addresses
  // (the firewall-exemption test the tracer and congestion model repeat).
  bool addr_owned_by(RouterId r, const RouteQuery& q) const;

  // The interface router `r` would transmit a packet to `dst` from
  // (drives the kEgressToSrc / kVirtualRouter reply-address policies).
  std::optional<IfaceId> egress_iface(RouterId r, const RouteQuery& q) const;
  std::optional<IfaceId> egress_iface(RouterId r, Ipv4Addr dst) const;

  // IGP distance between two routers of the same AS (infinity if
  // disconnected or in different ASes).
  double igp_distance(RouterId a, RouterId b) const;

  // All sessions whose near side is in `as`.
  const std::vector<Session>& sessions_of(AsId as) const;

  // -- Churn overlays (serve::ServeEngine) ----------------------------------
  //
  // Data-plane churn applied on top of the immutable topology: interdomain
  // links can be marked down (their sessions drop out of egress selection
  // and cross-link delivery) and announced prefixes can be withdrawn
  // (resolve() reports no route). Mutators REQUIRE external quiescence —
  // no concurrent forwarding calls — which the serve engine guarantees by
  // applying churn strictly between inference epochs; concurrent readers
  // of an unchanging overlay are safe (overlay_mu_). With no churn ever
  // applied the hot path pays one relaxed atomic load.

  // Marks an interdomain link down (up=false) or restores it. Invalidates
  // the egress-decision cache; references previously returned by
  // egress_entry become dangling.
  void set_link_state(LinkId link, bool up)
      BDRMAP_EXCLUDES(overlay_mu_, egress_mu_);

  // Withdraws (or re-announces) every announced prefix equal to `p`.
  void set_prefix_withdrawn(const net::Prefix& p, bool withdrawn)
      BDRMAP_EXCLUDES(overlay_mu_);

  // Drops all memoized egress decisions (e.g. after the BGP simulator's
  // relationship overlay changed candidate tiers).
  void invalidate_egress() BDRMAP_EXCLUDES(egress_mu_);

  bool link_is_down(LinkId link) const BDRMAP_EXCLUDES(overlay_mu_);

 private:
  struct AsRouting {
    std::vector<RouterId> routers;  // of this AS (== AsInfo::routers)
    // dist[i*n + j], next_iface[i*n + j]: first-hop interface from router i
    // on its shortest path to router j. alt_iface holds a second
    // equal-cost first hop where one exists (ECMP), invalid otherwise.
    // Local indices come from the Fib-wide router_local_ table.
    std::vector<double> dist;
    std::vector<IfaceId> next_iface;
    std::vector<IfaceId> alt_iface;
  };

  // Egress decision memo: the sessions of the first satisfiable preference
  // tier tied at minimal IGP distance from the router, in session order.
  // The per-destination flow rank (a pure hash) picks among them, so the
  // destination address itself need not be part of the key.
  struct EgressEntry {
    std::vector<const Session*> tied;
  };
  struct EgressKey {
    std::uint32_t router;
    std::uint32_t dst_as;
    const void* pinned;  // identity of AnnouncedPrefix::only_via_links
    bool operator==(const EgressKey&) const = default;
  };
  struct EgressKeyHash {
    std::size_t operator()(const EgressKey& k) const noexcept;
  };

  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  // Router ownership as of Fib construction. The dense tables snapshot the
  // topology when the Fib is built; reading ownership from the same
  // snapshot keeps every forwarding decision internally consistent even if
  // ground truth is mutated afterwards (the invariant checker's corruption
  // tests do exactly that — the FIB then consistently disagrees with the
  // mutated truth instead of crashing halfway between two views).
  AsId owner_of(RouterId r) const;
  RouteQuery::Resolved resolve(Ipv4Addr dst) const;
  std::optional<Hop> next_hop_resolved(RouterId r,
                                       const RouteQuery::Resolved& res,
                                       Ipv4Addr dst,
                                       std::uint32_t flow_salt) const;
  const AsRouting& routing_for(std::uint32_t as_dense) const
      BDRMAP_EXCLUDES(routing_mu_);
  // The shared fill: first satisfiable tier, sessions tied at minimal IGP
  // distance from r, in session order. Pure function of the immutable
  // topology (+ a quiescent churn overlay), so racing fills are identical.
  EgressEntry compute_egress_entry(RouterId r, AsId dst_as,
                                   const std::vector<LinkId>* pinned) const;
  const EgressEntry& egress_entry(RouterId r, AsId dst_as,
                                  const std::vector<LinkId>* pinned) const
      BDRMAP_EXCLUDES(egress_mu_);
  // Flat-row lookup for the unpinned common case (DESIGN.md §14): two
  // acquire-loads on the hot walk, no lock, no hashing.
  const EgressEntry* egress_entry_flat(RouterId r, std::uint32_t dst_as_dense,
                                       AsId dst_as) const
      BDRMAP_EXCLUDES(egress_mu_);
  const EgressEntry* egress_fill_flat(RouterId r, std::uint32_t dst_as_dense,
                                      AsId dst_as) const
      BDRMAP_EXCLUDES(egress_mu_);
  std::optional<Hop> internal_step(RouterId r, RouterId target, Ipv4Addr dst,
                                   std::uint32_t flow_salt) const;

  const topo::Internet& net_;
  const BgpSimulator& bgp_;
  FibOptions options_;

  // No-op handles unless FibOptions::metrics was set (get-or-create, so
  // several Fibs may share one registry's instruments).
  obs::Counter egress_hits_;
  obs::Counter egress_misses_;
  obs::Counter routing_fills_;
  obs::Histogram egress_tied_;

  // Dense layouts, built once at construction: AS ids to dense indices,
  // router id to its owner's dense AS index, router id to its position in
  // the owner's router list. The IGP hot path does array loads only.
  std::unordered_map<AsId, std::uint32_t> as_dense_;
  std::vector<std::uint32_t> router_as_dense_;
  std::vector<std::uint32_t> router_local_;

  std::vector<std::vector<Session>> sessions_;  // by dense AS index
  // Per-AS sessions grouped by far AS: turns the O(sessions × tier)
  // membership scan in the egress fill into direct lookups.
  std::vector<std::unordered_map<AsId, std::vector<std::uint32_t>>>
      sessions_by_far_;

  // Lazily computed per-AS IGP tables, guarded by routing_mu_: one Fib is
  // shared by every concurrent VP run, and the Dijkstra fill is a pure
  // function of the immutable topology, so first-writer-wins insertion is
  // value-deterministic regardless of thread interleaving.
  mutable net::SharedMutex routing_mu_;
  mutable std::vector<std::unique_ptr<AsRouting>> routing_
      BDRMAP_GUARDED_BY(routing_mu_);

  // Egress decision cache, same locking and purity discipline. Entries
  // live behind unique_ptr so references survive rehashes. Since the
  // flat rows below took over the unpinned case this map only ever holds
  // pinned (selective-announcement) decisions and snapshot-foreign ASes.
  mutable net::SharedMutex egress_mu_;
  mutable std::unordered_map<EgressKey, std::unique_ptr<EgressEntry>,
                             EgressKeyHash>
      egress_ BDRMAP_GUARDED_BY(egress_mu_);

  // Flat egress rows (DESIGN.md §14): per-router arrays of published
  // entry pointers indexed by the destination's dense AS index. Rows are
  // allocated lazily (only routers that actually make interdomain
  // decisions pay), published with release stores and read with acquire
  // loads; entries live in a deque so published pointers stay stable.
  mutable std::vector<std::atomic<std::atomic<const EgressEntry*>*>>
      egress_rows_;
  mutable std::vector<std::unique_ptr<std::atomic<const EgressEntry*>[]>>
      egress_row_storage_ BDRMAP_GUARDED_BY(egress_mu_);
  mutable std::deque<EgressEntry> egress_pool_ BDRMAP_GUARDED_BY(egress_mu_);

  // Churn overlay state (see the public churn section). overlay_active_
  // fast-gates the overlay_mu_ acquisitions out of the zero-churn hot path.
  bool prefix_withdrawn(const topo::AnnouncedPrefix* ap) const
      BDRMAP_EXCLUDES(overlay_mu_);
  std::atomic<bool> overlay_active_{false};
  mutable net::SharedMutex overlay_mu_;
  std::unordered_set<std::uint32_t> down_links_ BDRMAP_GUARDED_BY(overlay_mu_);
  std::unordered_set<const topo::AnnouncedPrefix*> withdrawn_
      BDRMAP_GUARDED_BY(overlay_mu_);

  static const std::vector<Session> kNoSessions;
};

}  // namespace bdrmap::route
