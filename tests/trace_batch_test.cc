// Golden bit-identity suite for batched probe-wave tracing (DESIGN.md §14).
//
// TraceBatch pre-walks many flows in lockstep over the shared FIB; every
// path it produces must be byte-identical to the one a solo (single-flow)
// walk computes, across ECMP salts, selectively-announced (pinned)
// prefixes, shared-query flows, and arena reuse across wave epochs. At
// the pipeline level, probe-wave batching and (VP × target-AS) sharding
// must leave the border map untouched: waves of any size agree with
// unbatched tracing, and a sharded plan is byte-identical at 1, 2 and 8
// pool workers filling cold caches concurrently. Suite name carries
// "TraceBatch" so check.sh's tsan pass picks these tests up.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "eval/degradation.h"
#include "eval/scenario.h"
#include "golden_corpus.h"
#include "netbase/arena.h"
#include "probe/trace_batch.h"
#include "route/fib.h"
#include "runtime/thread_pool.h"
#include "topo/generator.h"

namespace bdrmap::probe {
namespace {

using net::Ipv4Addr;

// Flattens a prewalked path for exact comparison.
std::vector<std::uint64_t> encode(const PrewalkedPath& p) {
  std::vector<std::uint64_t> out;
  out.reserve(p.count * 2);
  for (std::uint32_t i = 0; i < p.count; ++i) {
    const PathHop& h = p.hops[i];
    out.push_back((std::uint64_t{h.router.value} << 32) | h.ingress.value);
    out.push_back((h.is_delivery ? 4u : 0u) | (h.dst_is_own_addr ? 2u : 0u) |
                  (h.firewalled ? 1u : 0u));
  }
  return out;
}

// Every announced prefix interior (including the selectively-announced /
// pinned ones) under ECMP salts 0-3: the address classes the tracer
// actually probes, each exercising a distinct FIB resolution path.
std::vector<FlowSpec> salted_workload(const eval::Scenario& s) {
  std::vector<FlowSpec> flows;
  for (const auto& ap : s.net().announced()) {
    Ipv4Addr inside(ap.prefix.network().value() + 1);
    if (!ap.prefix.contains(inside)) inside = ap.prefix.network();
    for (std::uint32_t salt = 0; salt < 4; ++salt) {
      flows.push_back({inside, salt, 48, nullptr});
    }
  }
  return flows;
}

TEST(TraceBatchTest, LockstepMatchesSoloWalks) {
  eval::Scenario s(eval::small_access_config(42));
  std::vector<FlowSpec> flows = salted_workload(s);
  const net::RouterId start = s.vps().front().attach_router;
  bool saw_pinned = false;
  for (const auto& ap : s.net().announced()) {
    saw_pinned |= !ap.only_via_links.empty();
  }
  EXPECT_TRUE(saw_pinned) << "workload must cover pinned prefixes";

  TraceBatch batched(s.net(), s.fib());
  net::Arena wave_arena;
  std::vector<PrewalkedPath> wave(flows.size());
  batched.prewalk(start, flows.data(), flows.size(), wave_arena,
                  wave.data());

  TraceBatch solo(s.net(), s.fib());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::Arena solo_arena;
    PrewalkedPath alone;
    solo.prewalk(start, &flows[i], 1, solo_arena, &alone);
    EXPECT_EQ(encode(wave[i]), encode(alone))
        << "flow " << i << " (salt " << flows[i].flow_salt << ")";
  }
}

TEST(TraceBatchTest, SharedQueryMatchesOwnResolution) {
  eval::Scenario s(eval::small_access_config(42));
  const net::RouterId start = s.vps().front().attach_router;
  const auto& ap = s.net().announced().front();
  Ipv4Addr dst(ap.prefix.network().value() + 1);
  if (!ap.prefix.contains(dst)) dst = ap.prefix.network();

  // Classic traceroute's shape: per-TTL salts, one destination. The
  // shared resolution must not perturb any flow's path.
  const route::Fib::RouteQuery q = s.fib().query(dst);
  std::vector<FlowSpec> shared, owned;
  for (std::uint32_t salt = 0; salt < 4; ++salt) {
    shared.push_back({dst, salt, 48, &q});
    owned.push_back({dst, salt, 48, nullptr});
  }
  TraceBatch batch(s.net(), s.fib());
  net::Arena arena_a, arena_b;
  std::vector<PrewalkedPath> a(shared.size()), b(owned.size());
  batch.prewalk(start, shared.data(), shared.size(), arena_a, a.data());
  batch.prewalk(start, owned.data(), owned.size(), arena_b, b.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(encode(a[i]), encode(b[i])) << "salt " << i;
  }
}

TEST(TraceBatchTest, ArenaReuseAcrossEpochs) {
  eval::Scenario s(eval::small_access_config(42));
  std::vector<FlowSpec> flows = salted_workload(s);
  const net::RouterId start = s.vps().front().attach_router;

  TraceBatch batch(s.net(), s.fib());
  net::Arena arena;
  std::vector<PrewalkedPath> first(flows.size());
  batch.prewalk(start, flows.data(), flows.size(), arena, first.data());
  std::vector<std::vector<std::uint64_t>> golden;
  golden.reserve(first.size());
  for (const auto& p : first) golden.push_back(encode(p));
  const net::Arena::Stats warm = arena.stats();

  // Epoch 2: reset rewinds the arena; the identical wave must replay into
  // the retained capacity — same paths, no new reservation.
  arena.reset();
  std::vector<PrewalkedPath> second(flows.size());
  batch.prewalk(start, flows.data(), flows.size(), arena, second.data());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(golden[i], encode(second[i])) << "flow " << i;
  }
  EXPECT_EQ(arena.stats().bytes_reserved, warm.bytes_reserved)
      << "reset must retain capacity, not grow it";
  EXPECT_EQ(arena.stats().bytes_used, warm.bytes_used);
}

TEST(TraceBatchTest, WaveInvarianceEndToEnd) {
  eval::Scenario s(eval::small_access_config(42));
  const topo::Vp vp = s.vps_in(s.featured_access()).front();

  core::BdrmapConfig unbatched;
  unbatched.probe_wave = 0;
  core::BdrmapConfig small_wave;
  small_wave.probe_wave = 7;  // odd size: blocks straddle wave boundaries
  core::BdrmapConfig default_wave;  // probe_wave = 64

  core::BdrmapResult r0 = s.run_bdrmap(vp, unbatched, 0x515);
  core::BdrmapResult r7 = s.run_bdrmap(vp, small_wave, 0x515);
  core::BdrmapResult r64 = s.run_bdrmap(vp, default_wave, 0x515);
  EXPECT_TRUE(eval::same_border_map(r0, r7));
  EXPECT_TRUE(eval::same_border_map(r0, r64));
  EXPECT_GT(r64.links.size(), 0u);
}

TEST(TraceBatchTest, ShardedColdFillIdenticalAcrossWorkers) {
  // A fresh scenario per worker count: every run fills the shared FIB
  // caches from cold, concurrently at 2 and 8 workers — the sharded
  // executor's determinism contract (byte-identical at any worker count).
  auto run = [](unsigned workers) {
    eval::Scenario s(eval::small_access_config(42));
    std::vector<topo::Vp> vps = s.vps_in(s.featured_access());
    if (vps.size() > 2) vps.resize(2);
    runtime::ThreadPool pool(workers);
    return s.run_bdrmap_sharded(vps, {}, 0x1517, &pool,
                                /*ases_per_shard=*/4);
  };
  runtime::MultiVpResult one = run(1);
  runtime::MultiVpResult two = run(2);
  runtime::MultiVpResult eight = run(8);
  ASSERT_EQ(one.per_vp.size(), two.per_vp.size());
  ASSERT_EQ(one.per_vp.size(), eight.per_vp.size());
  for (std::size_t i = 0; i < one.per_vp.size(); ++i) {
    EXPECT_TRUE(eval::same_border_map(one.per_vp[i], two.per_vp[i]))
        << "vp " << i << " diverges at 2 workers";
    EXPECT_TRUE(eval::same_border_map(one.per_vp[i], eight.per_vp[i]))
        << "vp " << i << " diverges at 8 workers";
  }
  EXPECT_GT(one.total.traces, 0u);
}

TEST(TraceBatchTest, CompiledScanParityEndToEnd) {
  // The §14 heuristics compilation (memoized classify, single-pass
  // first-external table, per-organization trace index) is pure caching:
  // the map must equal the one recorded while the per-call scans still
  // ran beside it (tests/golden/border_maps.txt).
  core::BdrmapResult result = golden::run_family_case("small", 42, 0, 64);
  EXPECT_TRUE(golden::border_map_corpus().check(
      golden::key("small", 42, 0, 64), golden::border_map_digest(result)));
  EXPECT_GT(result.links.size(), 0u);
}

}  // namespace
}  // namespace bdrmap::probe
