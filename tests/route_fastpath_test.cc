// Golden suite for the forwarding fast path (DESIGN.md §9).
//
// The walk trails of fixed workloads — randomized destinations, interface
// addresses, selectively-announced (pinned) prefixes, nonzero ECMP salts —
// are pinned by the committed corpus tests/golden/fib_walks.txt, captured
// while a cache-free Fib (per-hop recomputation) and a keyed-egress Fib
// still ran beside the flat-row one and all three agreed. Cold fills,
// warm cache reads and concurrent fills from many threads (the
// MultiVpExecutor determinism contract) must all reproduce it. Suite
// names carry "FastPath" so check.sh's tsan pass picks these tests up.
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/scenario.h"
#include "golden_corpus.h"
#include "netbase/rng.h"
#include "obs/metrics.h"
#include "route/bgp_sim.h"
#include "route/fib.h"
#include "topo/generator.h"

namespace bdrmap::route {
namespace {

using net::Ipv4Addr;
using net::RouterId;

constexpr std::size_t kMaxWalkHops = 256;

struct Probe {
  RouterId start;
  Ipv4Addr dst;
  std::uint32_t salt = 0;
};

// Encodes a full FIB walk (every hop's router, link, interfaces, crossing
// flag, and the terminal delivery state) for exact comparison.
std::vector<std::uint64_t> walk(const Fib& fib, const Probe& p) {
  std::vector<std::uint64_t> trail;
  const Fib::RouteQuery q = fib.query(p.dst);
  RouterId r = p.start;
  for (std::size_t hop = 0; hop < kMaxWalkHops; ++hop) {
    auto next = fib.next_hop(r, q, p.salt);
    if (!next.has_value()) {
      trail.push_back(fib.delivered_at(r, q) ? 0xD0D0D0D0ull : 0xDEADull);
      auto eg = fib.egress_iface(r, q);
      trail.push_back(eg ? eg->value : 0xFFFFFFFFull);
      return trail;
    }
    trail.push_back((std::uint64_t{next->router.value} << 32) |
                    next->link.value);
    trail.push_back((std::uint64_t{next->ingress.value} << 33) |
                    (std::uint64_t{next->egress.value} << 1) |
                    (next->crossed_interdomain ? 1 : 0));
    r = next->router;
  }
  return trail;
}

// Deterministic mixed workload over a generated topology: announced-prefix
// interiors (random offsets), interface addresses, ECMP salts 0-3.
std::vector<Probe> build_workload(const topo::Internet& net,
                                  std::uint64_t seed) {
  std::vector<Probe> work;
  net::Rng rng(seed);
  const auto& routers = net.routers();
  auto any_router = [&] {
    return routers[rng.uniform(0, static_cast<std::uint32_t>(routers.size() -
                                                             1))]
        .id;
  };
  for (const auto& ap : net.announced()) {
    for (std::uint32_t salt = 0; salt < 4; ++salt) {
      std::uint32_t span = ~std::uint32_t{0} >> ap.prefix.length();
      Ipv4Addr dst(ap.prefix.network().value() +
                   (span > 0 ? rng.uniform(1, span) : 0));
      if (!ap.prefix.contains(dst)) dst = ap.prefix.network();
      work.push_back({any_router(), dst, salt});
    }
  }
  const auto& ifaces = net.ifaces();
  for (std::size_t i = 0; i < ifaces.size(); i += 5) {
    work.push_back({any_router(), ifaces[i].addr, 0});
    work.push_back({any_router(), ifaces[i].addr, 1});
  }
  return work;
}

// Selectively-announced (pinned) prefixes from random starts, ECMP salts
// 0-3 per prefix.
std::vector<Probe> build_pinned_workload(const topo::Internet& net) {
  std::vector<Probe> work;
  net::Rng rng(0x9111);
  const auto& routers = net.routers();
  for (const auto& ap : net.announced()) {
    if (ap.only_via_links.empty()) continue;
    for (std::uint32_t salt = 0; salt < 4; ++salt) {
      RouterId start =
          routers[rng.uniform(0,
                              static_cast<std::uint32_t>(routers.size() - 1))]
              .id;
      work.push_back({start, Ipv4Addr(ap.prefix.network().value() + 1), salt});
    }
  }
  return work;
}

// One hash over every walk's trail, in workload order.
std::uint64_t walks_digest(const Fib& fib, const std::vector<Probe>& work) {
  golden::Fnv1a h;
  h.add(work.size());
  for (const Probe& probe : work) h.add(walk(fib, probe));
  return h.value();
}

// One topology, one BGP simulator, one forwarding plane.
struct Plane {
  explicit Plane(const topo::GeneratorConfig& config)
      : gen(topo::generate(config)), bgp(gen.net), fib(gen.net, bgp) {}
  topo::GeneratedInternet gen;
  BgpSimulator bgp;
  Fib fib;
};

const golden::Corpus& walk_corpus() {
  static const golden::Corpus c("tests/golden/fib_walks.txt");
  return c;
}

// Pinned-workload slice for one ECMP salt.
std::vector<Probe> pinned_slice(const topo::Internet& net,
                                std::uint32_t salt) {
  std::vector<Probe> slice;
  for (const Probe& probe : build_pinned_workload(net)) {
    if (probe.salt == salt) slice.push_back(probe);
  }
  return slice;
}

// Walks `work` on a warm plane: the first pass fills the decision caches,
// the second reads them back; both must equal the recorded cache-free
// walks.
void expect_warm_walks_match(const Plane& p, const std::string& k,
                             const std::vector<Probe>& work) {
  ASSERT_FALSE(work.empty()) << k;
  EXPECT_TRUE(walk_corpus().check(k, walks_digest(p.fib, work))) << "cold";
  EXPECT_TRUE(walk_corpus().check(k, walks_digest(p.fib, work))) << "warm";
}

TEST(RouteFastPath, CachedMatchesUncachedSmallAccess) {
  Plane p(eval::small_access_config(7));
  expect_warm_walks_match(p, golden::key("small_access", 7, "all"),
                          build_workload(p.gen.net, 0xA11CE));
}

TEST(RouteFastPath, CachedMatchesUncachedResearchEducation) {
  Plane p(eval::research_education_config(11));
  expect_warm_walks_match(p, golden::key("research_education", 11, "all"),
                          build_workload(p.gen.net, 0xB0B));
}

TEST(RouteFastPath, PinnedPrefixWalksMatch) {
  // Selective announcement decouples forwarding from plain tier order;
  // the pinned-filter path through the keyed egress map must hold.
  Plane p(eval::small_access_config(7));
  for (std::uint32_t salt = 0; salt < 4; ++salt) {
    expect_warm_walks_match(p, golden::key("pinned", 7, salt),
                            pinned_slice(p.gen.net, salt));
  }
}

TEST(RouteFastPath, QueryAgreesWithAddressForms) {
  // The RouteQuery overloads and the plain-address overloads must agree.
  Plane p(eval::small_access_config(7));
  std::vector<Probe> work = build_workload(p.gen.net, 0xF00);
  for (const Probe& probe : work) {
    const Fib::RouteQuery q = p.fib.query(probe.dst);
    auto via_query = p.fib.next_hop(probe.start, q, probe.salt);
    auto via_addr = p.fib.next_hop(probe.start, probe.dst, probe.salt);
    ASSERT_EQ(via_query.has_value(), via_addr.has_value());
    if (via_query) {
      EXPECT_EQ(via_query->router, via_addr->router);
      EXPECT_EQ(via_query->ingress, via_addr->ingress);
      EXPECT_EQ(via_query->egress, via_addr->egress);
      EXPECT_EQ(via_query->link, via_addr->link);
      EXPECT_EQ(via_query->crossed_interdomain,
                via_addr->crossed_interdomain);
    }
    EXPECT_EQ(p.fib.delivered_at(probe.start, q),
              p.fib.delivered_at(probe.start, probe.dst));
  }
}

TEST(RouteFastPath, ConcurrentFillIsDeterministic) {
  // Eight threads hammer a cold Fib concurrently; every thread's walks
  // must equal a single-threaded cold plane's. Cache fills are pure and
  // first-writer-wins, so interleaving must not be observable.
  topo::GeneratedInternet gen = topo::generate(eval::small_access_config(7));
  BgpSimulator bgp(gen.net);
  Fib reference(gen.net, bgp);
  std::vector<Probe> work = build_workload(gen.net, 0xC0C0A);
  std::vector<std::vector<std::uint64_t>> expected;
  expected.reserve(work.size());
  for (const Probe& probe : work) expected.push_back(walk(reference, probe));

  BgpSimulator cold_bgp(gen.net);
  Fib cold(gen.net, cold_bgp);
  constexpr unsigned kThreads = 8;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different offset so fills race on
      // different entries first.
      for (std::size_t i = 0; i < work.size(); ++i) {
        std::size_t j = (i + t * 13) % work.size();
        if (walk(cold, work[j]) != expected[j]) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

TEST(RouteFastPath, CacheMetricsCountHitsAndMisses) {
  topo::GeneratedInternet gen = topo::generate(eval::small_access_config(7));
  std::vector<Probe> work = build_workload(gen.net, 0xFEED);
  ASSERT_FALSE(work.empty());

  // The cold pass only misses and fills; re-walking the same workload must
  // hit without adding a single new miss.
  obs::MetricsRegistry metrics;
  BgpSimulator bgp(gen.net, &metrics);
  FibOptions on;
  on.metrics = &metrics;
  Fib fib(gen.net, bgp, on);
  for (const Probe& probe : work) walk(fib, probe);
  obs::MetricsSnapshot cold = metrics.snapshot();
  EXPECT_GT(cold.counter("route.fib.egress_cache_misses"), 0u);
  EXPECT_GT(cold.counter("route.fib.routing_fills"), 0u);
  for (const Probe& probe : work) walk(fib, probe);
  obs::MetricsSnapshot warm = metrics.snapshot();
  EXPECT_GT(warm.counter("route.fib.egress_cache_hits"), 0u);
  EXPECT_EQ(warm.counter("route.fib.egress_cache_misses"),
            cold.counter("route.fib.egress_cache_misses"));
  EXPECT_EQ(warm.counter("route.fib.routing_fills"),
            cold.counter("route.fib.routing_fills"));
  const obs::HistogramSample* tied =
      warm.histogram("route.fib.egress_tied_sessions");
  ASSERT_NE(tied, nullptr);
  EXPECT_GT(tied->count, 0u);
}

// -- Golden walk corpus (tests/golden/fib_walks.txt) ------------------------
//
// Each line is `workload topology_seed salt digest`: the walks_digest of
// one workload above ("all" when the workload mixes salts 0-3), walked on
// a cold plane.

TEST(RouteFastPathGolden, SmallAccessWalksMatchCorpus) {
  Plane p(eval::small_access_config(7));
  EXPECT_TRUE(walk_corpus().check(
      golden::key("small_access", 7, "all"),
      walks_digest(p.fib, build_workload(p.gen.net, 0xA11CE))));
}

TEST(RouteFastPathGolden, ResearchEducationWalksMatchCorpus) {
  Plane p(eval::research_education_config(11));
  EXPECT_TRUE(walk_corpus().check(
      golden::key("research_education", 11, "all"),
      walks_digest(p.fib, build_workload(p.gen.net, 0xB0B))));
}

TEST(RouteFastPathGolden, PinnedPrefixWalksMatchCorpus) {
  Plane p(eval::small_access_config(7));
  ASSERT_FALSE(build_pinned_workload(p.gen.net).empty())
      << "generator produced no selectively-announced prefixes";
  for (std::uint32_t salt = 0; salt < 4; ++salt) {
    EXPECT_TRUE(walk_corpus().check(
        golden::key("pinned", 7, salt),
        walks_digest(p.fib, pinned_slice(p.gen.net, salt))));
  }
}

TEST(RouteFastPathGolden, CorpusHoldsExactlyTheCoveredCases) {
  std::set<std::string> expected = {golden::key("small_access", 7, "all"),
                                    golden::key("research_education", 11,
                                                "all")};
  for (std::uint32_t salt = 0; salt < 4; ++salt) {
    expected.insert(golden::key("pinned", 7, salt));
  }
  std::set<std::string> recorded;
  for (const auto& [k, digest] : walk_corpus().cases()) recorded.insert(k);
  EXPECT_EQ(recorded, expected);
}

}  // namespace
}  // namespace bdrmap::route
