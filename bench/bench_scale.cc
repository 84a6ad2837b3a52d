// Scale benchmark: sharded multi-VP scaling at thousands of ASes.
//
// run_sharded repartitions the VPs' collection stages into (VP ×
// target-AS-batch) slice tasks (DESIGN.md §14); the same plan runs on 1,
// 2 and N pool workers over eval::scale_config, and every per-VP border
// map must be byte-identical across worker counts (a hard gate). Results
// go to BENCH_scale.json and stdout. Absolute single-thread end-to-end
// numbers for the same scenario live in perfbench/ (scale_map).
//
// Honesty rules: every timing is a median of --repeat runs after one
// warmup; the JSON records the actual pool worker count and the
// hardware concurrency next to every speedup, plus effective
// parallelism = speedup / min(workers, hardware threads). Identity
// failures always exit 1; the speedup target (>=3x at 8 workers) only
// gates under --strict and with at least that many hardware threads, so
// smoke runs on small or loaded hosts cannot flake.
//
// Usage: bench_scale [--out FILE] [--repeat N] [--workers N] [--vps N]
//                    [--ases-per-shard N] [--smoke] [--strict]
//
// --smoke swaps in the small_access scenario with one repeat: same code
// path and identity gate, CI-friendly wall clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/blocks.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "runtime/thread_pool.h"

using namespace bdrmap;

namespace {

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

bool same_per_vp(const runtime::MultiVpResult& a,
                 const runtime::MultiVpResult& b) {
  if (a.per_vp.size() != b.per_vp.size()) return false;
  for (std::size_t i = 0; i < a.per_vp.size(); ++i) {
    if (!eval::same_border_map(a.per_vp[i], b.per_vp[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scale.json";
  int repeat = 3;
  unsigned workers = 8;
  std::size_t max_vps = 3;
  std::size_t ases_per_shard = 8;
  bool smoke = false;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) repeat = 1;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<unsigned>(std::atoi(argv[++i]));
      if (workers < 1) workers = 1;
    } else if (std::strcmp(argv[i], "--vps") == 0 && i + 1 < argc) {
      max_vps = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (max_vps < 1) max_vps = 1;
    } else if (std::strcmp(argv[i], "--ases-per-shard") == 0 && i + 1 < argc) {
      ases_per_shard = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (ases_per_shard < 1) ases_per_shard = 1;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--repeat N] [--workers N] "
                   "[--vps N] [--ases-per-shard N] [--smoke] [--strict]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) repeat = 1;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const char* scenario_name = smoke ? "small_access" : "scale";
  topo::GeneratorConfig gen_config =
      smoke ? eval::small_access_config(42) : eval::scale_config(42);

  double t0 = now_seconds();
  eval::Scenario scenario(gen_config);
  double build_seconds = now_seconds() - t0;

  std::vector<topo::Vp> vps = scenario.vps_in(scenario.featured_access());
  if (vps.size() > max_vps) vps.resize(max_vps);
  std::printf("bench_scale: scenario=%s ases=%zu vps=%zu "
              "hardware_concurrency=%u median of %d (1 warmup), "
              "built in %.2fs\n\n",
              scenario_name, scenario.net().ases().size(), vps.size(), hw,
              repeat, build_seconds);

  // --- 1. sharded multi-VP scaling: same plan, 1 / 2 / N workers ---
  runtime::ThreadPool pool1(1);
  runtime::ThreadPool pool2(2);
  runtime::ThreadPool poolN(workers);
  auto sharded = [&](runtime::ThreadPool* pool) {
    return scenario.run_bdrmap_sharded(vps, {}, 0x1517, pool,
                                       ases_per_shard);
  };
  runtime::MultiVpResult s1 = sharded(&pool1);
  runtime::MultiVpResult s2 = sharded(&pool2);
  runtime::MultiVpResult sN = sharded(&poolN);
  const bool shard_identical =
      same_per_vp(s1, s2) && same_per_vp(s1, sN);
  // Shard count: distinct §5.3 target ASes per VP, batched — the same
  // decomposition run_sharded derives internally.
  std::size_t shard_count = 0;
  {
    core::InferenceInputs inputs = scenario.inputs_for(vps[0].as);
    auto blocks = core::build_probe_blocks(*inputs.origins, inputs.vp_ases);
    std::unordered_set<net::AsId> targets;
    for (const core::ProbeBlock& b : blocks) targets.insert(b.target_as);
    shard_count =
        vps.size() * ((targets.size() + ases_per_shard - 1) / ases_per_shard);
  }

  auto time_on = [&](runtime::ThreadPool* pool) {
    return median_of(repeat, [&] { auto r = sharded(pool); (void)r; });
  };
  double t_shard1 = time_on(&pool1);
  double t_shard2 = time_on(&pool2);
  double t_shardN = time_on(&poolN);
  double mv_speedup = t_shard1 / t_shardN;
  double effective =
      mv_speedup / static_cast<double>(std::min(workers, hw));
  std::printf("sharded multi-VP (%zu VPs x %zu-AS batches, ~%zu tasks):\n",
              vps.size(), ases_per_shard, shard_count);
  std::printf("  1 worker   %.3fs\n", t_shard1);
  std::printf("  2 workers  %.3fs\n", t_shard2);
  std::printf("  %u workers %.3fs\n", workers, t_shardN);
  std::printf("  speedup %.2fx (hw=%u, effective parallelism %.2f), "
              "identical: %s\n\n",
              mv_speedup, hw, effective, shard_identical ? "yes" : "NO");

  // --- 2. emit JSON ---
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"scale\",\n";
  out << "  \"scenario\": \"" << scenario_name << "\",\n";
  out << "  \"ases\": " << scenario.net().ases().size() << ",\n";
  out << "  \"vps\": " << vps.size() << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"repeat\": " << repeat << ",\n";
  out << "  \"warmup\": true,\n";
  out << "  \"build_seconds\": " << json_double(build_seconds) << ",\n";
  out << "  \"multi_vp\": {\n";
  out << "    \"ases_per_shard\": " << ases_per_shard << ",\n";
  out << "    \"shards\": " << shard_count << ",\n";
  out << "    \"pool_workers\": " << poolN.size() << ",\n";
  out << "    \"one_worker_seconds\": " << json_double(t_shard1) << ",\n";
  out << "    \"two_worker_seconds\": " << json_double(t_shard2) << ",\n";
  out << "    \"n_worker_seconds\": " << json_double(t_shardN) << ",\n";
  out << "    \"speedup\": " << json_double(mv_speedup) << ",\n";
  out << "    \"effective_parallelism\": " << json_double(effective) << ",\n";
  out << "    \"identical\": " << (shard_identical ? "true" : "false")
      << "\n  }\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  // Identity is non-negotiable; the throughput target gates only under
  // --strict (and needs as many hardware threads as workers to be
  // meaningful at all).
  if (!shard_identical) {
    std::printf("FAIL: sharded plan differs across worker counts\n");
    return 1;
  }
  if (hw >= workers && mv_speedup < 3.0) {
    std::printf("%s: multi-VP speedup %.2fx < 3.0x at %u workers\n",
                strict ? "FAIL" : "WARN", mv_speedup, workers);
    if (strict) return 1;
  }
  return 0;
}
