// Serving-path benchmark: what the snapshot + RCU handle actually buy.
//
// Three measurements, written to BENCH_serve.json (and stdout):
//
//  1. lookup throughput — single-threaded longest-prefix owner/border
//     queries against the live BorderMapSnapshot while a second thread
//     concurrently republishes the handle (the RCU swap path). Reported
//     both with one handle acquire per lookup (the worst-case "every
//     query re-reads the handle" discipline) and amortized over 64-query
//     batches (the realistic request-batch discipline), each as the
//     median and interquartile range of --repeat runs.
//  2. incremental vs full — average wall-clock of one churn epoch through
//     ServeEngine::apply() (dirty-slice re-collection + re-inference +
//     snapshot compile + publish) against a from-scratch recompute of the
//     same epoch via recompute_reference().
//  3. identity — hard gate: after the churn burst, the incremental map
//     must be bit-identical to the from-scratch recompute (per-VP
//     eval::same_border_map and snapshot fingerprint), else exit 1.
//
// The JSON records hardware_concurrency and the engine's pool worker
// count next to the numbers. The throughput floor (>=1M lookups/s median,
// single-threaded under concurrent swap) and the speedup floor (>=1.5x
// incremental vs full) only warn unless --strict is given, so CI smoke
// runs survive noisy shared hosts.
//
// Usage: bench_serve [--out FILE] [--repeat N] [--queries M] [--churn K]
//                    [--threads N] [--scenario NAME] [--strict]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/degradation.h"
#include "eval/scenario_registry.h"
#include "runtime/thread_pool.h"
#include "serve/churn.h"
#include "serve/engine.h"
#include "serve/handle.h"
#include "serve/snapshot.h"

using namespace bdrmap;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Median and interquartile range of a sample (nearest-rank quartiles).
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

Spread spread_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  auto at = [&](double q) {
    return xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) +
                                       0.5)];
  };
  return {at(0.5), at(0.75) - at(0.25)};
}

// Deterministic query workload: mostly announced space, some misses.
std::vector<net::Ipv4Addr> build_queries(const topo::Internet& net,
                                         std::size_t count,
                                         std::uint64_t seed) {
  std::vector<net::Ipv4Addr> out;
  out.reserve(count);
  const auto& announced = net.announced();
  std::uint64_t state = seed ^ 0xdab;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t r = splitmix64(state);
    net::Ipv4Addr addr(static_cast<std::uint32_t>(r));
    if (!announced.empty() && (r & 7u) != 0) {
      const auto& ap = announced[(r >> 32) % announced.size()];
      addr = net::Ipv4Addr(
          ap.prefix.network().value() +
          static_cast<std::uint32_t>(r % ap.prefix.size()));
    }
    out.push_back(addr);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  std::string scenario_name = "ren";
  int repeat = 5;
  std::size_t queries = 2'000'000;
  std::size_t churn = 6;
  unsigned threads = 8;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) repeat = 1;
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--churn") == 0 && i + 1 < argc) {
      churn = std::strtoull(argv[++i], nullptr, 10);
      if (churn < 1) churn = 1;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
      if (threads < 1) threads = 1;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--scenario NAME] [--repeat N] "
                   "[--queries M] [--churn K] [--threads N] [--strict]\n",
                   argv[0]);
      return 2;
    }
  }

  auto spec = eval::scenario_spec(scenario_name, 42);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown scenario: %s\n", scenario_name.c_str());
    return 2;
  }
  eval::Scenario scenario(*spec);
  const net::AsId vp_as = scenario.first_of(spec->vp_kind);
  const auto vps = scenario.vps_in(vp_as);
  auto pool = runtime::make_pool(threads, nullptr);

  serve::EngineOptions options;
  options.base_seed = 42 ^ 0x515;
  options.pool = pool.get();
  std::vector<serve::VpContext> contexts;
  for (const topo::Vp& vp : vps) {
    serve::VpContext ctx;
    ctx.make_services = [&scenario, vp](std::uint64_t s) {
      return std::unique_ptr<probe::ProbeServices>(
          scenario.services_for(vp, s));
    };
    ctx.inputs = scenario.inputs_for(vp_as);
    contexts.push_back(std::move(ctx));
  }
  serve::ServeEngine engine(scenario.net(), scenario.bgp_mutable(),
                            scenario.fib_mutable(), std::move(contexts),
                            options);
  engine.rebuild_full();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned pool_workers = pool ? pool->size() : 1;
  std::printf("bench_serve: scenario=%s, %zu VPs, %zu target ASes, "
              "median of %d, hardware_concurrency=%u, pool_workers=%u\n\n",
              scenario_name.c_str(), vps.size(), engine.targets().size(),
              repeat, hw, pool_workers);

  // --- 1. lookup throughput under concurrent swap ---
  serve::SnapshotHandle& handle = engine.handle();
  auto base = handle.current();
  // A second, distinct snapshot object for the swapper to alternate with
  // (same tables recompiled, so readers can't tell generations apart by
  // content — exactly the RCU steady state).
  auto alternate = engine.recompute_reference().snapshot;
  const std::vector<net::Ipv4Addr> workload =
      build_queries(scenario.net(), 65536, 42);

  std::uint64_t sink = 0;
  std::vector<double> per_lookup_runs, batched_runs;
  std::uint64_t swaps = 0;
  for (int r = 0; r < repeat; ++r) {
    std::atomic<bool> stop{false};
    std::uint64_t local_swaps = 0;
    std::thread swapper([&] {
      bool flip = false;
      while (!stop.load(std::memory_order_acquire)) {
        handle.publish(flip ? alternate : base);
        flip = !flip;
        ++local_swaps;
      }
    });
    // Acquire-per-lookup discipline.
    double t0 = now_seconds();
    for (std::size_t i = 0; i < queries; ++i) {
      serve::SnapshotHandle::SnapshotPtr snap = handle.current();
      const auto q = snap->lookup(workload[i & 65535]);
      sink += q.routed ? q.owner.value + q.border_count : 1;
    }
    double per_lookup = static_cast<double>(queries) / (now_seconds() - t0);
    // Batched discipline: one acquire per 64 queries.
    t0 = now_seconds();
    for (std::size_t i = 0; i < queries; i += 64) {
      serve::SnapshotHandle::SnapshotPtr snap = handle.current();
      for (std::size_t j = 0; j < 64; ++j) {
        const auto q = snap->lookup(workload[(i + j) & 65535]);
        sink += q.routed ? q.owner.value + q.border_count : 1;
      }
    }
    double batched = static_cast<double>(queries) / (now_seconds() - t0);
    stop.store(true, std::memory_order_release);
    swapper.join();
    swaps += local_swaps;
    per_lookup_runs.push_back(per_lookup);
    batched_runs.push_back(batched);
  }
  handle.publish(base);  // leave the engine's own snapshot live
  const Spread per_lookup = spread_of(per_lookup_runs);
  const Spread batched = spread_of(batched_runs);
  std::printf("lookup (concurrent swap, %zu queries x%d, %llu swaps):\n",
              queries, repeat, static_cast<unsigned long long>(swaps));
  std::printf("  acquire-per-lookup %.2fM lookups/s (IQR %.2fM)\n",
              per_lookup.median / 1e6, per_lookup.iqr / 1e6);
  std::printf("  64-query batches   %.2fM lookups/s (IQR %.2fM, sink %llx)\n\n",
              batched.median / 1e6, batched.iqr / 1e6,
              static_cast<unsigned long long>(sink));

  // --- 2. incremental vs full epochs ---
  serve::ChurnStream stream(scenario.net(), 42);
  double incr_total = 0.0, full_total = 0.0;
  std::size_t dirty_total = 0, clean_total = 0;
  for (std::size_t i = 0; i < churn; ++i) {
    const serve::ChurnEvent event = stream.next();
    double t0 = now_seconds();
    const serve::ChurnApplyStats stats = engine.apply(event);
    incr_total += now_seconds() - t0;
    dirty_total += stats.dirty_slices;
    clean_total += stats.clean_slices;
    t0 = now_seconds();
    serve::ServeEngine::Reference ref = engine.recompute_reference();
    full_total += now_seconds() - t0;
    (void)ref;
  }
  const double incr_avg = incr_total / static_cast<double>(churn);
  const double full_avg = full_total / static_cast<double>(churn);
  const double speedup = full_avg / (incr_avg > 0 ? incr_avg : 1e-9);
  std::printf("incremental vs full (%zu churn epochs):\n", churn);
  std::printf("  incremental %.4fs/epoch (%zu dirty, %zu clean slices)\n",
              incr_avg, dirty_total, clean_total);
  std::printf("  full        %.4fs/epoch\n", full_avg);
  std::printf("  speedup %.2fx\n\n", speedup);

  // --- 3. identity hard gate ---
  serve::ServeEngine::Reference ref = engine.recompute_reference();
  const auto live = engine.handle().current();
  bool identical = ref.snapshot->fingerprint() == live->fingerprint() &&
                   ref.per_vp.size() == engine.last_results().size();
  for (std::size_t i = 0; identical && i < ref.per_vp.size(); ++i) {
    identical =
        eval::same_border_map(ref.per_vp[i], engine.last_results()[i]);
  }
  std::printf("identity: incremental %s from-scratch recompute\n",
              identical ? "IDENTICAL to" : "DIVERGES from");

  std::ofstream json(out_path);
  if (json.is_open()) {
    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"serve\",\n"
        "  \"scenario\": \"%s\",\n"
        "  \"seed\": 42,\n"
        "  \"vps\": %zu,\n"
        "  \"repeat\": %d,\n"
        "  \"statistic\": \"median\",\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"pool_workers\": %u,\n"
        "  \"lookup\": {\n"
        "    \"queries\": %zu,\n"
        "    \"concurrent_swaps\": %llu,\n"
        "    \"per_lookup_acquire_per_sec\": %.0f,\n"
        "    \"per_lookup_acquire_per_sec_iqr\": %.0f,\n"
        "    \"batched64_per_sec\": %.0f,\n"
        "    \"batched64_per_sec_iqr\": %.0f\n"
        "  },\n"
        "  \"incremental\": {\n"
        "    \"churn_epochs\": %zu,\n"
        "    \"dirty_slices\": %zu,\n"
        "    \"clean_slices\": %zu,\n"
        "    \"incremental_seconds_per_epoch\": %.6f,\n"
        "    \"full_seconds_per_epoch\": %.6f,\n"
        "    \"speedup\": %.6f\n"
        "  },\n"
        "  \"identical\": %s\n"
        "}\n",
        scenario_name.c_str(), vps.size(), repeat, hw, pool_workers, queries,
        static_cast<unsigned long long>(swaps), per_lookup.median,
        per_lookup.iqr, batched.median, batched.iqr, churn, dirty_total,
        clean_total, incr_avg, full_avg, speedup, identical ? "true" : "false");
    json << buf;
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }

  if (!identical) {
    std::fprintf(stderr, "FAIL: incremental result diverged\n");
    return 1;
  }
  bool floors_ok = true;
  if (per_lookup.median < 1e6) {
    std::fprintf(stderr,
                 "%s: lookup throughput %.2fM/s below the 1M/s floor\n",
                 strict ? "FAIL" : "warning", per_lookup.median / 1e6);
    floors_ok = false;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "%s: incremental speedup %.2fx below the 1.5x floor\n",
                 strict ? "FAIL" : "warning", speedup);
    floors_ok = false;
  }
  return (strict && !floors_ok) ? 1 : 0;
}
