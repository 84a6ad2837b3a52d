#include "route/bgp_sim.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "netbase/contract.h"

namespace bdrmap::route {

const BgpSimulator::TierSet BgpSimulator::kNoTiers;

BgpSimulator::BgpSimulator(const topo::Internet& net,
                           obs::MetricsRegistry* metrics)
    : BgpSimulator(net, BgpPolicy{}, metrics) {}

BgpSimulator::BgpSimulator(const topo::Internet& net, BgpPolicy policy,
                           obs::MetricsRegistry* metrics)
    : net_(net), policy_(std::move(policy)) {
  if (metrics) {
    table_fills_ = metrics->counter("route.bgp.table_fills");
    tier_hits_ = metrics->counter("route.bgp.tier_cache_hits");
    tier_fills_ = metrics->counter("route.bgp.tier_cache_fills");
  }
  leaker_set_.insert(policy_.leakers.begin(), policy_.leakers.end());
  for (const auto& info : net.ases()) {
    as_index_.emplace(info.id, as_ids_.size());
    as_ids_.push_back(info.id);
  }
}

const BgpSimulator::PerDst& BgpSimulator::table(AsId dst) const {
  {
    net::SharedLock lk(cache_mu_);
    auto it = cache_.find(dst);
    if (it != cache_.end()) return *it->second;
  }
  table_fills_.inc();

  const auto& rels = this->rels();
  auto t = std::make_unique<PerDst>();
  const std::size_t n = as_ids_.size();
  t->cust.assign(n, kInf);
  t->peer.assign(n, kInf);
  t->prov.assign(n, kInf);

  // 1. Customer-cone distances: BFS from dst upward along customer->provider
  //    edges. cust[x] = hops of the p2c chain from x down to dst.
  std::deque<AsId> queue;
  t->cust[index(dst)] = 0;
  queue.push_back(dst);
  while (!queue.empty()) {
    AsId cur = queue.front();
    queue.pop_front();
    std::uint16_t d = t->cust[index(cur)];
    for (AsId provider : rels.providers(cur)) {
      auto& slot = t->cust[index(provider)];
      if (slot == kInf) {
        slot = static_cast<std::uint16_t>(d + 1);
        queue.push_back(provider);
      }
    }
  }

  // 2. Peer routes: one peer edge into a customer cone.
  derive_peer(*t);

  // 3. Provider routes: propagate down provider->customer edges; a provider
  //    exports its best route (of any class) to customers.
  derive_prov(*t);

  // 4. Adversarial export overrides (route leaks).
  if (policy_.has_leaks()) apply_leaks(*t);

  BDRMAP_ENSURES(t->cust[index(dst)] == 0,
                 "destination must sit at distance zero in its own cone");
  // The computation above is pure, so two threads racing to fill the same
  // destination produced identical tables: first writer wins, the loser's
  // copy is discarded. References stay valid across rehashes because the
  // table lives behind a unique_ptr.
  net::MutexLock lk(cache_mu_);
  auto it = cache_.emplace(dst, std::move(t)).first;
  return *it->second;
}

void BgpSimulator::derive_peer(PerDst& t) const {
  const auto& rels = this->rels();
  const std::size_t n = as_ids_.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (AsId p : rels.peers(as_ids_[i])) {
      std::uint16_t via = t.cust[index(p)];
      if (via != kInf && via + 1 < t.peer[i]) {
        t.peer[i] = static_cast<std::uint16_t>(via + 1);
      }
    }
  }
}

void BgpSimulator::derive_prov(PerDst& t) const {
  // Dijkstra with unit weights over base values; relax-only, so it can be
  // re-run after leak relaxations lowered cust/peer entries.
  const auto& rels = this->rels();
  const std::size_t n = as_ids_.size();
  using Entry = std::pair<std::uint16_t, std::uint32_t>;  // (dist, index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  auto base = [&](std::size_t i) {
    return std::min(t.cust[i], t.peer[i]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (base(i) != kInf) {
      pq.emplace(base(i), static_cast<std::uint32_t>(i));
    }
  }
  while (!pq.empty()) {
    auto [d, i] = pq.top();
    pq.pop();
    std::uint16_t best_i = std::min(base(i), t.prov[i]);
    if (d > best_i) continue;  // stale entry
    for (AsId customer : rels.customers(as_ids_[i])) {
      std::size_t c = index(customer);
      std::uint16_t nd = static_cast<std::uint16_t>(d + 1);
      if (nd < t.prov[c] && nd < base(c)) {
        t.prov[c] = nd;
        pq.emplace(nd, static_cast<std::uint32_t>(c));
      }
    }
  }
}

void BgpSimulator::apply_leaks(PerDst& t) const {
  const auto& rels = this->rels();
  auto min3 = [&](std::size_t i) {
    return std::min({t.cust[i], t.peer[i], t.prov[i]});
  };
  // Iterate to a fixed point: one leaker's leaked route can shorten another
  // leaker's best route. Every relaxation strictly decreases a bounded
  // value, so the loop terminates; the computation is a pure function of
  // (graph, policy), preserving the cache's value-determinism.
  bool changed = true;
  while (changed) {
    changed = false;
    std::deque<std::size_t> up;  // cone re-propagation frontier
    for (AsId leaker : policy_.leakers) {
      auto it = as_index_.find(leaker);
      if (it == as_index_.end()) continue;
      const std::size_t li = it->second;
      const std::uint16_t d = min3(li);
      if (d >= kInf) continue;
      const std::uint16_t nd = static_cast<std::uint16_t>(d + 1);
      // Providers accept the leak as a customer route, peers as a peer
      // route — unless their own best route is already at least as short
      // (loop detection rejects the circular announcement).
      for (AsId p : rels.providers(leaker)) {
        const std::size_t pi = index(p);
        if (nd < min3(pi) && nd < t.cust[pi]) {
          t.cust[pi] = nd;
          up.push_back(pi);
          changed = true;
        }
      }
      for (AsId q : rels.peers(leaker)) {
        const std::size_t qi = index(q);
        if (nd < min3(qi) && nd < t.peer[qi]) {
          t.peer[qi] = nd;
          changed = true;
        }
      }
    }
    // A leaked customer route propagates up the cone like a real one, with
    // the same loop-detection guard.
    while (!up.empty()) {
      const std::size_t ci = up.front();
      up.pop_front();
      const std::uint16_t nd = static_cast<std::uint16_t>(t.cust[ci] + 1);
      for (AsId p : rels.providers(as_ids_[ci])) {
        const std::size_t pi = index(p);
        if (nd < min3(pi) && nd < t.cust[pi]) {
          t.cust[pi] = nd;
          up.push_back(pi);
        }
      }
    }
    if (!changed) break;
    // Re-derive peer and provider routes from the relaxed customer table.
    derive_peer(t);
    derive_prov(t);
  }
}

void BgpSimulator::set_relationship(AsId a, AsId b,
                                    asdata::Relationship rel_of_b_from_a) {
  if (!rels_override_) {
    rels_override_ = std::make_unique<asdata::RelationshipStore>(
        net_.truth_relationships());
  }
  rels_override_->set_rel(a, b, rel_of_b_from_a);
  invalidate_all();
}

void BgpSimulator::invalidate_all() {
  {
    net::MutexLock lk(cache_mu_);
    cache_.clear();
  }
  net::MutexLock lk(tiers_mu_);
  tiers_.clear();
}

RouteInfo BgpSimulator::route(AsId src, AsId dst) const {
  if (!as_index_.count(src) || !as_index_.count(dst)) return {};
  if (src == dst) return {RouteClass::kSelf, 0};
  const PerDst& t = table(dst);
  std::size_t i = index(src);
  if (t.cust[i] != kInf) return {RouteClass::kCustomer, t.cust[i]};
  if (t.peer[i] != kInf) return {RouteClass::kPeer, t.peer[i]};
  if (t.prov[i] != kInf) return {RouteClass::kProvider, t.prov[i]};
  return {};
}

const BgpSimulator::TierSet& BgpSimulator::tiers(AsId src, AsId dst) const {
  if (!as_index_.count(src) || !as_index_.count(dst)) return kNoTiers;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(index(src)) << 32) |
      static_cast<std::uint64_t>(index(dst));
  {
    net::SharedLock lk(tiers_mu_);
    auto it = tiers_.find(key);
    if (it != tiers_.end()) {
      tier_hits_.inc();
      return *it->second;
    }
  }
  tier_fills_.inc();
  auto t = std::make_unique<TierSet>(compute_tiers(src, dst));
  net::MutexLock lk(tiers_mu_);
  auto it = tiers_.emplace(key, std::move(t)).first;
  return *it->second;
}

BgpSimulator::TierSet BgpSimulator::compute_tiers(AsId src, AsId dst) const {
  TierSet set;
  auto& tiers = set.tiers;
  if (!as_index_.count(src) || !as_index_.count(dst) || src == dst) {
    return set;
  }
  const auto& rels = this->rels();
  const PerDst& t = table(dst);
  std::size_t i = index(src);
  // The distance a neighbor advertises toward us: its customer-cone
  // distance normally, or — when it leaks — its best route of any class.
  auto advertised = [&](AsId n) {
    std::size_t ni = index(n);
    std::uint16_t via = t.cust[ni];
    if (is_leaker(n)) {
      via = std::min({via, t.peer[ni], t.prov[ni]});
    }
    return via;
  };

  if (t.cust[i] != kInf) {
    std::vector<AsId> tier;
    for (AsId c : rels.customers(src)) {
      std::uint16_t via = advertised(c);
      if (via != kInf && via + 1 == t.cust[i]) tier.push_back(c);
    }
    std::sort(tier.begin(), tier.end());
    if (!tier.empty()) tiers.push_back(std::move(tier));
  }
  if (t.peer[i] != kInf) {
    std::vector<AsId> tier;
    for (AsId p : rels.peers(src)) {
      std::uint16_t via = advertised(p);
      if (via != kInf && via + 1 == t.peer[i]) tier.push_back(p);
    }
    std::sort(tier.begin(), tier.end());
    if (!tier.empty()) tiers.push_back(std::move(tier));
  }
  if (t.prov[i] != kInf || t.cust[i] != kInf || t.peer[i] != kInf) {
    // Provider fallback tier: providers that have any route, best first.
    std::vector<AsId> tier;
    std::uint16_t best = kInf;
    for (AsId y : rels.providers(src)) {
      std::size_t yi = index(y);
      std::uint16_t via =
          std::min({t.cust[yi], t.peer[yi], t.prov[yi]});
      if (via != kInf) best = std::min<std::uint16_t>(best, via);
    }
    for (AsId y : rels.providers(src)) {
      std::size_t yi = index(y);
      std::uint16_t via =
          std::min({t.cust[yi], t.peer[yi], t.prov[yi]});
      if (via == best && via != kInf) tier.push_back(y);
    }
    std::sort(tier.begin(), tier.end());
    if (!tier.empty()) tiers.push_back(std::move(tier));
  }
  return set;
}

std::vector<AsId> BgpSimulator::as_path(AsId src, AsId dst) const {
  std::vector<AsId> path;
  if (!as_index_.count(src) || !as_index_.count(dst)) return path;
  path.push_back(src);
  if (src == dst) return path;
  const auto& rels = this->rels();
  const PerDst& t = table(dst);

  auto min3 = [&](std::size_t i) {
    return std::min({t.cust[i], t.peer[i], t.prov[i]});
  };
  AsId cur = src;
  bool downhill = false;  // after crossing a peer or p2c edge, only descend
  // Leaked routes can revisit an AS in pathological policies; treat a
  // revisit as BGP loop detection dropping the path.
  std::unordered_set<std::uint32_t> seen;
  seen.insert(cur.value);
  for (int guard = 0; guard < 48 && cur != dst; ++guard) {
    AsId next;
    if (downhill && is_leaker(cur) && min3(index(cur)) < t.cust[index(cur)]) {
      // A leaked announcement brought the path here: the leaker forwards
      // along its own best (possibly uphill) route — the valley.
      downhill = false;
      continue;
    }
    if (downhill) {
      // Follow the customer chain toward dst, lowest-AS tie break. A
      // leaking customer advertises its best route of any class.
      std::uint16_t want = static_cast<std::uint16_t>(t.cust[index(cur)] - 1);
      bool found = false;
      for (AsId c : rels.customers(cur)) {
        std::uint16_t via = t.cust[index(c)];
        if (is_leaker(c)) via = std::min(via, min3(index(c)));
        if (via == want && (!found || c < next)) {
          next = c;
          found = true;
        }
      }
      if (!found && rels.rel(cur, dst) != asdata::Relationship::kNone &&
          want == 0) {
        next = dst;
        found = true;
      }
      if (!found) return {};
    } else {
      const auto& cand = tiers(cur, dst).tiers;
      if (cand.empty()) return {};
      next = cand.front().front();
      // Crossing into a peer or customer flips us to descend-only mode.
      auto rel = rels.rel(cur, next);
      if (rel != asdata::Relationship::kProvider) downhill = true;
    }
    if (!seen.insert(next.value).second) return {};
    path.push_back(next);
    cur = next;
  }
  if (cur != dst) return {};
  BDRMAP_ENSURES(path.front() == src && path.back() == dst,
                 "as_path endpoints must match the query");
  return path;
}

}  // namespace bdrmap::route
