// Forwarding fast-path benchmark: absolute next_hop throughput.
//
// Full FIB walks (resolve-once RouteQuery, memoized egress/tier caches,
// dense IGP indexing; DESIGN.md §9) over a deterministic mixed workload
// on the small access network, reported in million next_hop calls per
// second as the median of --repeat runs after one warmup, with the
// host's hardware_concurrency. BENCH_hotpath.json and stdout. The walks
// themselves are pinned by the golden corpus tests/golden/fib_walks.txt;
// end-to-end pipeline numbers live in perfbench/.
//
// Usage: bench_hotpath [--out FILE] [--repeat N] [--threads N]
//                      [--obs-json FILE]
//
// --obs-json runs ONE extra instrumented multi-VP pass (--threads pool
// workers) after the measured section finishes, on its own scenario and
// pool, and exports its metrics + spans. The measured number is always
// from an obs-off run; the flag cannot perturb it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/scenario.h"
#include "netbase/rng.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "route/fib.h"
#include "runtime/thread_pool.h"

using namespace bdrmap;

namespace {

constexpr std::size_t kMaxWalkHops = 256;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One warmup run (untimed), then the median of `repeat` timed runs —
// the honest middle of the distribution, not the flattering best case.
template <typename Fn>
double median_of(int repeat, Fn&& fn) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    double t0 = now_seconds();
    fn();
    times.push_back(now_seconds() - t0);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

struct Probe {
  net::RouterId start;
  net::Ipv4Addr dst;
  std::uint32_t salt = 0;
};

// A deterministic mixed workload: every router origin paired with
// announced-prefix interiors (including the selectively-announced ones),
// interface addresses, and a few ECMP salts — the address classes the
// tracer actually probes.
std::vector<Probe> build_workload(const topo::Internet& net,
                                  std::uint64_t seed) {
  std::vector<Probe> work;
  net::Rng rng(seed);
  const auto& routers = net.routers();
  const auto& announced = net.announced();
  const auto& ifaces = net.ifaces();
  auto any_router = [&] {
    return routers[rng.uniform(0, static_cast<std::uint32_t>(routers.size() -
                                                             1))]
        .id;
  };
  for (const auto& ap : announced) {
    net::Ipv4Addr in_block(ap.prefix.network().value() + 1);
    if (!ap.prefix.contains(in_block)) in_block = ap.prefix.network();
    work.push_back({any_router(), in_block, 0});
    work.push_back({any_router(), in_block, rng.uniform(1, 3)});
  }
  for (std::size_t i = 0; i < ifaces.size(); i += 7) {
    work.push_back({any_router(), ifaces[i].addr, 0});
  }
  return work;
}

// One full FIB walk; returns the number of next_hop calls made.
std::size_t walk(const route::Fib& fib, const Probe& p) {
  const route::Fib::RouteQuery q = fib.query(p.dst);
  net::RouterId r = p.start;
  std::size_t calls = 0;
  for (std::size_t hop = 0; hop < kMaxWalkHops; ++hop) {
    auto next = fib.next_hop(r, q, p.salt);
    ++calls;
    if (!next.has_value()) return calls;
    r = next->router;
  }
  return calls;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  std::string obs_json_path;
  int repeat = 5;
  unsigned threads = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--obs-json") == 0 && i + 1 < argc) {
      obs_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) repeat = 1;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
      if (threads < 1) threads = 1;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--repeat N] [--threads N] "
                   "[--obs-json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  eval::Scenario scenario(eval::small_access_config(42));
  std::printf(
      "bench_hotpath: hardware_concurrency=%u, median of %d (1 warmup)\n\n",
      hw, repeat);

  // --- 1. next_hop throughput over full walks ---
  std::vector<Probe> work = build_workload(scenario.net(), 0xb0d);
  std::size_t calls = 0;
  for (const Probe& p : work) calls += walk(scenario.fib(), p);
  double seconds = median_of(repeat, [&] {
    for (const Probe& p : work) walk(scenario.fib(), p);
  });
  double mcalls = static_cast<double>(calls) / seconds / 1e6;
  std::printf("next_hop: %zu walks, %zu calls\n", work.size(), calls);
  std::printf("  %.3f Mcalls/s (%.4fs)\n\n", mcalls, seconds);

  // --- 2. emit JSON ---
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"hotpath\",\n";
  out << "  \"scenario\": \"small_access\",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"repeat\": " << repeat << ",\n";
  out << "  \"warmup\": true,\n";
  out << "  \"next_hop\": {\n";
  out << "    \"walks\": " << work.size() << ",\n";
  out << "    \"calls\": " << calls << ",\n";
  out << "    \"seconds\": " << json_double(seconds) << ",\n";
  out << "    \"mcalls_per_sec\": " << json_double(mcalls) << "\n";
  out << "  }\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  // --- 3. optional instrumented pass (unmeasured) ---
  if (!obs_json_path.empty()) {
    obs::ObsOptions obs_options;
    obs_options.enabled = true;
    obs_options.run_label = "hotpath";
    obs::Observability obs(obs_options);
    route::FibOptions instrumented_fib;
    instrumented_fib.metrics = obs.registry();
    eval::Scenario instrumented(eval::small_access_config(42), {},
                                instrumented_fib);
    std::vector<topo::Vp> vps =
        instrumented.vps_in(instrumented.featured_access());
    runtime::ThreadPool obs_pool(threads, obs.registry());
    core::BdrmapConfig obs_config;
    obs_config.obs = &obs;
    auto obs_run =
        instrumented.run_bdrmap_parallel(vps, obs_config, 0x515, &obs_pool);
    (void)obs_run;
    obs::ExportInfo info;
    info.tool = "bench_hotpath";
    info.scenario = "small_access";
    info.seed = 42;
    info.vps = vps.size();
    info.threads = threads;
    if (!obs::write_json_file(obs_json_path, obs, info)) {
      std::fprintf(stderr, "cannot write %s\n", obs_json_path.c_str());
      return 1;
    }
    std::printf("wrote observability export to %s\n", obs_json_path.c_str());
  }

  return 0;
}
