#include "route/fib.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "netbase/contract.h"

namespace bdrmap::route {

const std::vector<Session> Fib::kNoSessions;

namespace {

constexpr double kInfDist = std::numeric_limits<double>::infinity();

// Flow-stable tie break for equal-cost egresses (per-destination ECMP).
inline std::uint64_t flow_rank(Ipv4Addr dst, LinkId link) {
  std::uint64_t x = (std::uint64_t{dst.value()} << 32) | link.value;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return x;
}

}  // namespace

std::size_t Fib::EgressKeyHash::operator()(const EgressKey& k) const noexcept {
  std::uint64_t h = (std::uint64_t{k.router} << 32) ^ k.dst_as;
  h ^= reinterpret_cast<std::uintptr_t>(k.pinned) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 29;
  return static_cast<std::size_t>(h);
}

Fib::Fib(const topo::Internet& net, const BgpSimulator& bgp,
         FibOptions options)
    : net_(net), bgp_(bgp), options_(options) {
  if (options_.metrics) {
    egress_hits_ = options_.metrics->counter("route.fib.egress_cache_hits");
    egress_misses_ =
        options_.metrics->counter("route.fib.egress_cache_misses");
    routing_fills_ = options_.metrics->counter("route.fib.routing_fills");
    egress_tied_ = options_.metrics->histogram(
        "route.fib.egress_tied_sessions", {0, 1, 2, 4, 8});
  }
  const auto& ases = net.ases();
  as_dense_.reserve(ases.size());
  router_as_dense_.assign(net.routers().size(), kNoIndex);
  router_local_.assign(net.routers().size(), kNoIndex);
  for (std::uint32_t d = 0; d < ases.size(); ++d) {
    as_dense_.emplace(ases[d].id, d);
    const auto& routers = ases[d].routers;
    for (std::uint32_t i = 0; i < routers.size(); ++i) {
      router_as_dense_[routers[i].value] = d;
      router_local_[routers[i].value] = i;
    }
  }
  routing_.resize(ases.size());
  sessions_.resize(ases.size());
  sessions_by_far_.resize(ases.size());
  // Row pointers start null; rows are allocated on the first egress
  // decision a router makes (vector of atomics is fixed-size by design).
  egress_rows_ = std::vector<std::atomic<std::atomic<const EgressEntry*>*>>(
      net.routers().size());

  for (const auto& info : net.interdomain_links()) {
    const auto& link = net.link(info.link);
    auto iface_of = [&](RouterId r) {
      for (IfaceId i : link.ifaces) {
        if (net.iface(i).router == r) return i;
      }
      return IfaceId{};
    };
    IfaceId ia = iface_of(info.router_a);
    IfaceId ib = iface_of(info.router_b);
    BDRMAP_EXPECTS(ia.valid() && ib.valid(),
                   "interdomain link must terminate on both end routers");
    std::uint32_t da = as_dense_.at(info.as_a);
    std::uint32_t db = as_dense_.at(info.as_b);
    sessions_[da].push_back({info.link, info.router_a, info.router_b,
                             ia, ib, info.as_a, info.as_b, info.via_ixp});
    sessions_[db].push_back({info.link, info.router_b, info.router_a,
                             ib, ia, info.as_b, info.as_a, info.via_ixp});
  }
  for (std::uint32_t d = 0; d < sessions_.size(); ++d) {
    const auto& list = sessions_[d];
    for (std::uint32_t i = 0; i < list.size(); ++i) {
      sessions_by_far_[d][list[i].far_as].push_back(i);
    }
  }
}

void Fib::set_link_state(LinkId link, bool up) {
  {
    net::MutexLock lk(overlay_mu_);
    if (up) {
      down_links_.erase(link.value);
    } else {
      down_links_.insert(link.value);
    }
    overlay_active_.store(!down_links_.empty() || !withdrawn_.empty(),
                          std::memory_order_release);
  }
  // Cached egress decisions were computed against the previous down set.
  invalidate_egress();
}

void Fib::set_prefix_withdrawn(const net::Prefix& p, bool withdrawn) {
  net::MutexLock lk(overlay_mu_);
  for (const auto& ap : net_.announced()) {
    if (ap.prefix != p) continue;
    if (withdrawn) {
      withdrawn_.insert(&ap);
    } else {
      withdrawn_.erase(&ap);
    }
  }
  overlay_active_.store(!down_links_.empty() || !withdrawn_.empty(),
                        std::memory_order_release);
}

void Fib::invalidate_egress() {
  // Mutators run under the serve layer's quiescence contract (no
  // concurrent forwarding), so relaxed stores suffice to null the rows.
  net::MutexLock lk(egress_mu_);
  egress_.clear();
  const std::size_t n_ases = sessions_.size();
  for (auto& storage : egress_row_storage_) {
    for (std::size_t j = 0; j < n_ases; ++j) {
      storage[j].store(nullptr, std::memory_order_relaxed);
    }
  }
  egress_pool_.clear();
}

bool Fib::link_is_down(LinkId link) const {
  if (!overlay_active_.load(std::memory_order_acquire)) return false;
  net::SharedLock lk(overlay_mu_);
  return down_links_.count(link.value) > 0;
}

bool Fib::prefix_withdrawn(const topo::AnnouncedPrefix* ap) const {
  if (!overlay_active_.load(std::memory_order_acquire)) return false;
  net::SharedLock lk(overlay_mu_);
  return withdrawn_.count(ap) > 0;
}

const std::vector<Session>& Fib::sessions_of(AsId as) const {
  auto it = as_dense_.find(as);
  return it == as_dense_.end() ? kNoSessions : sessions_[it->second];
}

AsId Fib::owner_of(RouterId r) const {
  if (r.value < router_as_dense_.size() &&
      router_as_dense_[r.value] != kNoIndex) {
    return net_.ases()[router_as_dense_[r.value]].id;
  }
  return net_.router(r).owner;
}

Fib::RouteQuery::Resolved Fib::resolve(Ipv4Addr dst) const {
  // Dense index of the routing target AS, kNoIndex for ASes outside the
  // construction snapshot (corrupted-truth audits) — those fall back to
  // the keyed egress map instead of the flat rows.
  auto dense_as = [this](AsId as) {
    auto it = as_dense_.find(as);
    return it == as_dense_.end() ? kNoIndex : it->second;
  };
  RouteQuery::Resolved r;
  if (auto iface_id = net_.iface_at(dst)) {
    const auto& iface = net_.iface(*iface_id);
    const auto& link = net_.link(iface.link);
    RouterId t = iface.router;
    AsId owner = owner_of(t);
    r.ok = true;
    r.is_iface_addr = true;
    r.final_router = t;
    if (link.kind == topo::LinkKind::kInterdomain &&
        link.addr_space_owner != owner) {
      // Provider-assigned p2p address on the far side: packets route toward
      // the supplier's AS, whose router on the subnet delivers across the
      // link (this is why far-side link addresses are reachable at all).
      for (net::IfaceId other : link.ifaces) {
        const auto& oi = net_.iface(other);
        if (owner_of(oi.router) == link.addr_space_owner) {
          r.dst_as = link.addr_space_owner;
          r.dst_as_dense = dense_as(r.dst_as);
          r.target = oi.router;
          r.cross_link = link.id;
          r.cross_egress = other;
          return r;
        }
      }
    }
    r.dst_as = owner;
    r.dst_as_dense = dense_as(owner);
    r.target = t;
    return r;
  }
  if (const auto* ap = net_.announced_match(dst)) {
    // A withdrawn prefix has no route; there is deliberately no
    // less-specific fallback (matching announced_match's exact-trie
    // semantics — see docs/serving.md).
    if (prefix_withdrawn(ap)) return r;
    r.ok = true;
    r.dst_as = ap->origin;
    r.dst_as_dense = dense_as(ap->origin);
    r.target = ap->host_router;
    r.final_router = ap->host_router;
    r.ap = ap;
    if (!ap->only_via_links.empty()) r.pinned = &ap->only_via_links;
    return r;
  }
  return r;
}

Fib::RouteQuery Fib::query(Ipv4Addr dst) const {
  RouteQuery q;
  q.dst_ = dst;
  q.res_ = resolve(dst);
  return q;
}

const Fib::AsRouting& Fib::routing_for(std::uint32_t as_dense) const {
  {
    net::SharedLock lk(routing_mu_);
    if (routing_[as_dense]) return *routing_[as_dense];
  }
  routing_fills_.inc();

  const AsId as = net_.ases()[as_dense].id;
  auto r = std::make_unique<AsRouting>();
  r->routers = net_.as_info(as).routers;
  const std::size_t n = r->routers.size();
  r->dist.assign(n * n, kInfDist);
  r->next_iface.assign(n * n, IfaceId{});
  r->alt_iface.assign(n * n, IfaceId{});

  // Adjacency from internal links between two routers of this AS.
  struct Edge {
    std::size_t to;
    double cost;
    IfaceId from_iface;
    IfaceId to_iface;
  };
  std::vector<std::vector<Edge>> adj(n);
  for (const auto& link : net_.links()) {
    if (link.kind != topo::LinkKind::kInternal || link.ifaces.size() != 2) {
      continue;
    }
    const auto& i0 = net_.iface(link.ifaces[0]);
    const auto& i1 = net_.iface(link.ifaces[1]);
    if (router_as_dense_[i0.router.value] != as_dense ||
        router_as_dense_[i1.router.value] != as_dense) {
      continue;
    }
    std::uint32_t a = router_local_[i0.router.value];
    std::uint32_t b = router_local_[i1.router.value];
    adj[a].push_back({b, link.igp_cost, i0.id, i1.id});
    adj[b].push_back({a, link.igp_cost, i1.id, i0.id});
  }

  // Dijkstra from every router (intra-AS topologies are small).
  for (std::size_t s = 0; s < n; ++s) {
    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    r->dist[s * n + s] = 0.0;
    pq.emplace(0.0, s);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > r->dist[s * n + u]) continue;
      for (const Edge& e : adj[u]) {
        double nd = d + e.cost;
        IfaceId first_hop =
            (u == s) ? e.from_iface : r->next_iface[s * n + u];
        if (nd < r->dist[s * n + e.to]) {
          r->dist[s * n + e.to] = nd;
          // First hop out of s toward e.to: inherit s's first hop toward u,
          // unless u == s, in which case the edge itself is the first hop.
          r->next_iface[s * n + e.to] = first_hop;
          r->alt_iface[s * n + e.to] = IfaceId{};
          pq.emplace(nd, e.to);
        } else if (nd == r->dist[s * n + e.to] &&
                   first_hop != r->next_iface[s * n + e.to] &&
                   first_hop.valid()) {
          // Equal-cost alternative first hop (ECMP).
          r->alt_iface[s * n + e.to] = first_hop;
        }
      }
    }
  }

  // Pure computation: racing fills for the same AS produced identical
  // tables, so first writer wins and the duplicate is discarded. The
  // returned reference survives because the slot vector never resizes.
  net::MutexLock lk(routing_mu_);
  if (!routing_[as_dense]) routing_[as_dense] = std::move(r);
  return *routing_[as_dense];
}

double Fib::igp_distance(RouterId a, RouterId b) const {
  if (a == b) return 0.0;
  if (a.value >= router_as_dense_.size() ||
      b.value >= router_as_dense_.size()) {
    return kInfDist;
  }
  std::uint32_t da = router_as_dense_[a.value];
  if (da == kNoIndex || da != router_as_dense_[b.value]) return kInfDist;
  std::uint32_t ia = router_local_[a.value];
  std::uint32_t ib = router_local_[b.value];
  const AsRouting& rt = routing_for(da);
  return rt.dist[ia * rt.routers.size() + ib];
}

// BDRMAP_HOT_BEGIN(fib_internal_step) — BDR104: the intra-AS hop. Dense
// table loads and one flow hash; nothing may allocate here.
std::optional<Fib::Hop> Fib::internal_step(RouterId r, RouterId target,
                                           Ipv4Addr dst,
                                           std::uint32_t flow_salt) const {
  std::uint32_t as_dense = router_as_dense_[r.value];
  if (as_dense == kNoIndex ||
      router_as_dense_[target.value] != as_dense) {
    return std::nullopt;
  }
  const AsRouting& rt = routing_for(as_dense);
  std::uint32_t ir = router_local_[r.value];
  std::uint32_t it = router_local_[target.value];
  std::size_t n = rt.routers.size();
  IfaceId out = rt.next_iface[ir * n + it];
  IfaceId alt = rt.alt_iface[ir * n + it];
  if (alt.valid()) {
    // ECMP: hash the flow (destination + salt). Salt 0 == Paris (stable
    // per destination); per-probe salts flap between the two paths.
    std::uint64_t h = (std::uint64_t{dst.value()} << 32) |
                      (std::uint64_t{flow_salt} ^ r.value);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 29;
    if (h & 1) out = alt;
  }
  if (!out.valid()) return std::nullopt;  // disconnected
  const auto& iface = net_.iface(out);
  IfaceId in = net_.p2p_other_end(out);
  if (!in.valid()) return std::nullopt;
  return Hop{net_.iface(in).router, in, out, iface.link, false};
}
// BDRMAP_HOT_END(fib_internal_step)

Fib::EgressEntry Fib::compute_egress_entry(
    RouterId r, AsId dst_as, const std::vector<LinkId>* pinned) const {
  // Fill: first satisfiable tier, sessions tied at minimal IGP distance
  // from r, in session order; next_hop applies the per-destination rank
  // among them at lookup time.
  EgressEntry entry;
  const AsId as = owner_of(r);
  const std::uint32_t as_dense = as_dense_.at(as);
  const auto& sessions = sessions_[as_dense];
  const auto& by_far = sessions_by_far_[as_dense];
  if (!sessions.empty()) {
    std::vector<std::uint32_t> candidates;
    for (const auto& tier : bgp_.tiers(as, dst_as).tiers) {
      candidates.clear();
      for (AsId far : tier) {
        auto it = by_far.find(far);
        if (it == by_far.end()) continue;
        candidates.insert(candidates.end(), it->second.begin(),
                          it->second.end());
      }
      std::sort(candidates.begin(), candidates.end());
      double best_dist = kInfDist;
      for (std::uint32_t idx : candidates) {
        const Session& s = sessions[idx];
        if (pinned && s.far_as == dst_as &&
            std::find(pinned->begin(), pinned->end(), s.link) ==
                pinned->end()) {
          continue;
        }
        if (link_is_down(s.link)) continue;  // churn overlay
        double d = igp_distance(r, s.near_router);
        if (d == kInfDist) continue;
        if (d < best_dist) {
          best_dist = d;
          entry.tied.clear();
        }
        if (d == best_dist) entry.tied.push_back(&s);
      }
      if (!entry.tied.empty()) break;  // tier satisfied
    }
  }
  egress_tied_.observe(entry.tied.size());
  return entry;
}

const Fib::EgressEntry& Fib::egress_entry(
    RouterId r, AsId dst_as, const std::vector<LinkId>* pinned) const {
  const EgressKey key{r.value, dst_as.value,
                      static_cast<const void*>(pinned)};
  {
    net::SharedLock lk(egress_mu_);
    auto it = egress_.find(key);
    if (it != egress_.end()) {
      egress_hits_.inc();
      return *it->second;
    }
  }
  egress_misses_.inc();

  auto entry = std::make_unique<EgressEntry>(
      compute_egress_entry(r, dst_as, pinned));

  // Pure function of the immutable topology: first writer wins.
  net::MutexLock lk(egress_mu_);
  auto it = egress_.emplace(key, std::move(entry)).first;
  return *it->second;
}

const Fib::EgressEntry* Fib::egress_fill_flat(RouterId r,
                                              std::uint32_t dst_as_dense,
                                              AsId dst_as) const {
  egress_misses_.inc();
  EgressEntry filled = compute_egress_entry(r, dst_as, nullptr);

  net::MutexLock lk(egress_mu_);
  std::atomic<const EgressEntry*>* row =
      egress_rows_[r.value].load(std::memory_order_relaxed);
  if (!row) {
    auto storage = std::make_unique<std::atomic<const EgressEntry*>[]>(
        sessions_.size());  // value-initialized: every slot starts null
    row = storage.get();
    egress_row_storage_.push_back(std::move(storage));
    egress_rows_[r.value].store(row, std::memory_order_release);
  }
  // First writer wins; a racing fill computed the identical entry.
  if (const EgressEntry* e = row[dst_as_dense].load(std::memory_order_relaxed)) {
    return e;
  }
  egress_pool_.push_back(std::move(filled));
  const EgressEntry* e = &egress_pool_.back();
  row[dst_as_dense].store(e, std::memory_order_release);
  return e;
}

// BDRMAP_HOT_BEGIN(fib_walk) — BDR104: the per-hop forwarding decision.
// Array loads, published-pointer acquire loads and pure hashes only; no
// node containers, no heap allocation (cold fills live outside the region).

const Fib::EgressEntry* Fib::egress_entry_flat(RouterId r,
                                               std::uint32_t dst_as_dense,
                                               AsId dst_as) const {
  std::atomic<const EgressEntry*>* row =
      egress_rows_[r.value].load(std::memory_order_acquire);
  if (row) {
    if (const EgressEntry* e =
            row[dst_as_dense].load(std::memory_order_acquire)) {
      egress_hits_.inc();
      return e;
    }
  }
  return egress_fill_flat(r, dst_as_dense, dst_as);
}

std::optional<Fib::Hop> Fib::next_hop_resolved(
    RouterId r, const RouteQuery::Resolved& res, Ipv4Addr dst,
    std::uint32_t flow_salt) const {
  if (!res.ok) return std::nullopt;
  AsId x = owner_of(r);

  // Already inside the AS that ultimately owns the address.
  if (res.final_router.valid() && owner_of(res.final_router) == x) {
    if (r == res.final_router) return std::nullopt;  // delivered
    return internal_step(r, res.final_router, dst, flow_salt);
  }

  if (x == res.dst_as) {
    if (r == res.target) {
      if (res.cross_link.valid()) {
        // Deliver across the p2p subnet to the far-side router — unless
        // churn took the link down, which strands the far-side address.
        if (link_is_down(res.cross_link)) return std::nullopt;
        const auto& link = net_.link(res.cross_link);
        for (IfaceId i : link.ifaces) {
          const auto& iface = net_.iface(i);
          if (iface.router == res.final_router) {
            return Hop{iface.router, i, res.cross_egress, link.id, true};
          }
        }
        return std::nullopt;
      }
      return std::nullopt;  // delivered (host prefix attachment point)
    }
    return internal_step(r, res.target, dst, flow_salt);
  }

  // Interdomain: pick an egress session by preference tier + hot potato.
  const Session* egress = nullptr;
  const EgressEntry* e =
      (!res.pinned && res.dst_as_dense != kNoIndex)
          ? egress_entry_flat(r, res.dst_as_dense, res.dst_as)
          : &egress_entry(r, res.dst_as, res.pinned);
  if (!e->tied.empty()) {
    egress = e->tied.front();
    if (e->tied.size() > 1) {
      std::uint64_t best_rank = flow_rank(dst, egress->link);
      for (std::size_t i = 1; i < e->tied.size(); ++i) {
        std::uint64_t rank = flow_rank(dst, e->tied[i]->link);
        if (rank < best_rank) {
          egress = e->tied[i];
          best_rank = rank;
        }
      }
    }
  }
  if (!egress) return std::nullopt;
  BDRMAP_ASSERT(egress->near_as == x,
                "chosen egress session must belong to the forwarding AS");
  if (egress->near_router == r) {
    return Hop{egress->far_router, egress->far_iface, egress->near_iface,
               egress->link, true};
  }
  return internal_step(r, egress->near_router, dst, flow_salt);
}

std::optional<Fib::Hop> Fib::next_hop(RouterId r, const RouteQuery& q,
                                      std::uint32_t flow_salt) const {
  return next_hop_resolved(r, q.res_, q.dst_, flow_salt);
}

std::optional<Fib::Hop> Fib::next_hop(RouterId r, Ipv4Addr dst,
                                      std::uint32_t flow_salt) const {
  return next_hop_resolved(r, resolve(dst), dst, flow_salt);
}

bool Fib::delivered_at(RouterId r, const RouteQuery& q) const {
  const RouteQuery::Resolved& res = q.res_;
  if (!res.ok) return false;
  if (res.is_iface_addr) return r == res.final_router;
  return r == res.target && res.ap && res.ap->prefix.contains(q.dst_);
}

// BDRMAP_HOT_END(fib_walk)

bool Fib::delivered_at(RouterId r, Ipv4Addr dst) const {
  RouteQuery::Resolved res = resolve(dst);
  if (!res.ok) return false;
  if (res.is_iface_addr) return r == res.final_router;
  return r == res.target && res.ap && res.ap->prefix.contains(dst);
}

bool Fib::addr_owned_by(RouterId r, const RouteQuery& q) const {
  return q.res_.is_iface_addr && q.res_.final_router == r;
}

std::optional<IfaceId> Fib::egress_iface(RouterId r,
                                         const RouteQuery& q) const {
  auto hop = next_hop(r, q);
  if (!hop || !hop->egress.valid()) return std::nullopt;
  return hop->egress;
}

std::optional<IfaceId> Fib::egress_iface(RouterId r, Ipv4Addr dst) const {
  return egress_iface(r, query(dst));
}

}  // namespace bdrmap::route
