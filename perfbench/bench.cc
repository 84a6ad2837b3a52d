// perfbench: the end-to-end benchmark of bdrmap's two user paths.
//
//   scenario -> per-VP border maps   (workloads scale_map, scale_sharded)
//   churn event -> published snapshot (workload access_churn)
//
// Every workload reports the same five end-to-end metrics (setup_s, map_s,
// epoch_s, lookups_per_s, peak_rss_mb); README.md defines each one per
// workload. The program is reached only through its public functions.
// Inputs derive from --seed: the probe RNG streams and the lookup query
// set. The topologies (generator seed 42, the seed the accuracy floors are
// stated for) and the churn sequence are fixed, so that every run does the
// same work and runs of different seeds can be compared.
//
// Times are reported at the host's reference speed: a fixed kernel of the
// benchmark's own runs between timed operations, and each sample is scaled
// by kRefSeconds over the kernel's median time around it (README.md
// "Steadiness").
//
// --trace 1 runs the same workload with an obs::Observability bundle
// threaded through the program and prints per-layer metrics instead; the
// spans stay in memory until the end and are then written to --trace-out.
// --selftest shows that every output check rejects a corrupted result.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//        perfbench --selftest
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bdrmap.h"
#include "core/merge.h"
#include "eval/degradation.h"
#include "eval/ground_truth.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "serve/churn.h"
#include "serve/engine.h"
#include "serve/handle.h"
#include "serve/snapshot.h"

using namespace bdrmap;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double since_start() { return seconds_since(kProcessStart); }

// Fixed workload shape (README.md "Workloads").
constexpr std::uint64_t kTopologySeed = 42;
constexpr std::size_t kScaleVps = 3;
constexpr unsigned kShardWorkers = 2;
constexpr std::size_t kAsesPerShard = 8;
constexpr std::uint64_t kChurnSeed = 8;
constexpr std::size_t kChurnEvents = 6;
// A from-scratch reference pass (map_s, and the reference check) after
// every this many epochs of a round: four per round, since one 3 s pass
// varies by a fifth on its own.
constexpr std::size_t kEpochsPerReference = 3;
constexpr std::size_t kQueries = 16384;        // distinct query addresses
constexpr std::size_t kBatch = 64;             // queries per handle acquire
constexpr std::size_t kBatchesPerBlock = 4096;  // one timed lookup block
// The host reference kernel's time at the speed the metrics are stated at.
constexpr double kRefSeconds = 0.030;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Host speed reference. The shared host slows the whole vCPU in phases of
// seconds to minutes, by up to half; a sample's wall time divided by this
// kernel's time around it moves far less with those phases (README.md
// "Steadiness"). The kernel mixes the kinds of work the program does -- a
// dependent ALU chain, open-addressing hash inserts and probes, a sort and
// a pointer chase past the L2 cache -- over buffers allocated once, so it
// shares neither code nor allocator state with the program.

class HostRef {
 public:
  HostRef()
      : table_(1u << 17), chase_(1u << 20), keys_(1u << 15), sorted_(1u << 15) {
    std::uint64_t state = 0x4e5f;
    for (std::uint64_t& k : keys_) k = splitmix64(state);
    // Sattolo's shuffle: one cycle through every slot.
    for (std::size_t i = 0; i < chase_.size(); ++i) {
      chase_[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = chase_.size() - 1; i > 0; --i) {
      std::swap(chase_[i], chase_[splitmix64(state) % i]);
    }
  }

  double seconds() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t state = 1, acc = 0;
    for (int i = 0; i < 10'000'000; ++i) acc += splitmix64(state) >> 60;

    std::fill(table_.begin(), table_.end(), 0u);
    const auto mask = static_cast<std::uint32_t>(table_.size() - 1);
    auto slot = [&](std::uint32_t key) {
      std::uint32_t h = (key * 2654435761u) & mask;
      while (table_[h] != 0 && table_[h] != key) h = (h + 1) & mask;
      return h;
    };
    for (std::size_t i = 0; i < keys_.size() * 3 / 4; ++i) {
      const std::uint32_t key = static_cast<std::uint32_t>(keys_[i]) | 1u;
      table_[slot(key)] = key;
    }
    for (std::uint64_t k : keys_) {
      const std::uint32_t key = static_cast<std::uint32_t>(k >> 32) | 1u;
      acc += table_[slot(key)] == key;
    }

    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    std::uint32_t x = static_cast<std::uint32_t>(sorted_[acc % sorted_.size()]) &
                      static_cast<std::uint32_t>(chase_.size() - 1);
    for (int i = 0; i < 50'000; ++i) x = chase_[x];
    sink_ += acc + x;
    return seconds_since(t0);
  }

  std::uint64_t sink() const { return sink_; }

 private:
  std::vector<std::uint32_t> table_, chase_;
  std::vector<std::uint64_t> keys_, sorted_;
  std::uint64_t sink_ = 0;
};

// One end-to-end series: seconds as measured, and for each sample the
// number of host checkpoints taken before it.
struct Series {
  std::vector<double> seconds;
  std::vector<std::size_t> segment;
};

// ---------------------------------------------------------------------------
// Inputs made apart from the inference.

// Query addresses: seven in eight inside announced space, the rest uniform
// over the whole address space (mostly unrouted).
std::vector<net::Ipv4Addr> make_queries(const topo::Internet& net,
                                        std::uint64_t seed) {
  std::vector<net::Ipv4Addr> out;
  out.reserve(kQueries);
  const auto& announced = net.announced();
  std::uint64_t state = seed ^ 0x9e11;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const std::uint64_t r = splitmix64(state);
    net::Ipv4Addr addr(static_cast<std::uint32_t>(r));
    if (!announced.empty() && (r & 7u) != 0) {
      const auto& ap = announced[(r >> 32) % announced.size()];
      addr = net::Ipv4Addr(ap.prefix.network().value() +
                           static_cast<std::uint32_t>(r % ap.prefix.size()));
    }
    out.push_back(addr);
  }
  return out;
}

// The routed view a snapshot must answer for: every public prefix not
// withdrawn by an applied churn event, owned by its lowest origin.
std::vector<serve::OwnedPrefix> routed_prefixes(
    const asdata::OriginTable& origins,
    const std::set<net::Prefix>& withdrawn) {
  std::vector<serve::OwnedPrefix> out;
  for (const auto& [prefix, set] : origins.all_prefixes()) {
    if (set.empty() || withdrawn.count(prefix)) continue;
    out.push_back({prefix, *std::min_element(set.begin(), set.end())});
  }
  return out;
}

// The event that undoes `e` (ChurnStream toggles each relationship edge
// between its ground-truth c2p value and p2p).
serve::ChurnEvent inverse_of(const serve::ChurnEvent& e) {
  serve::ChurnEvent r = e;
  switch (e.kind) {
    case serve::ChurnKind::kWithdraw:
      r.kind = serve::ChurnKind::kAnnounce;
      break;
    case serve::ChurnKind::kAnnounce:
      r.kind = serve::ChurnKind::kWithdraw;
      break;
    case serve::ChurnKind::kLinkDown:
      r.kind = serve::ChurnKind::kLinkUp;
      break;
    case serve::ChurnKind::kLinkUp:
      r.kind = serve::ChurnKind::kLinkDown;
      break;
    case serve::ChurnKind::kRelChange:
      r.new_rel = e.new_rel == asdata::Relationship::kPeer
                      ? asdata::Relationship::kCustomer
                      : asdata::Relationship::kPeer;
      break;
  }
  return r;
}

void track_withdrawn(const serve::ChurnEvent& e,
                     std::set<net::Prefix>& withdrawn) {
  if (e.kind == serve::ChurnKind::kWithdraw) withdrawn.insert(e.prefix);
  if (e.kind == serve::ChurnKind::kAnnounce) withdrawn.erase(e.prefix);
}

// ---------------------------------------------------------------------------
// Output checks. Each returns an empty string when the output is right and
// a description of the first difference otherwise.

std::string check_accuracy(const topo::Internet& net,
                           const std::vector<topo::Vp>& vps,
                           const std::vector<core::BdrmapResult>& per_vp,
                           double floor) {
  if (per_vp.size() != vps.size()) return "accuracy: VP count differs";
  for (std::size_t i = 0; i < vps.size(); ++i) {
    const double acc =
        eval::GroundTruth(net, vps[i].as).validate(per_vp[i]).link_accuracy();
    if (!(acc >= floor)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "accuracy: VP %zu links %.3f < %.3f", i,
                    acc, floor);
      return buf;
    }
  }
  return {};
}

std::string check_same_maps(const std::vector<core::BdrmapResult>& got,
                            const std::vector<core::BdrmapResult>& want,
                            const char* what) {
  if (got.size() != want.size()) return std::string(what) + ": VP count";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!eval::same_border_map(got[i], want[i])) {
      return std::string(what) + ": VP " + std::to_string(i) + " differs";
    }
  }
  return {};
}

std::string check_reference(const serve::BorderMapSnapshot& live,
                            const std::vector<core::BdrmapResult>& live_maps,
                            const serve::ServeEngine::Reference& ref) {
  if (live.fingerprint() != ref.snapshot->fingerprint()) {
    return "reference: snapshot fingerprint differs";
  }
  return check_same_maps(live_maps, ref.per_vp, "reference");
}

// Longest-prefix match by plain scan; `by_length` is sorted longest first.
const serve::OwnedPrefix* scan_lpm(
    const std::vector<serve::OwnedPrefix>& by_length, net::Ipv4Addr addr) {
  for (const serve::OwnedPrefix& p : by_length) {
    if (p.prefix.contains(addr)) return &p;
  }
  return nullptr;
}

std::string check_lookups(const serve::BorderMapSnapshot& snap,
                          std::vector<serve::OwnedPrefix> routed,
                          const std::vector<net::Ipv4Addr>& queries) {
  std::stable_sort(routed.begin(), routed.end(),
                   [](const serve::OwnedPrefix& a, const serve::OwnedPrefix& b) {
                     return a.prefix.length() > b.prefix.length();
                   });
  for (net::Ipv4Addr q : queries) {
    const serve::BorderMapSnapshot::Lookup got = snap.lookup(q);
    const serve::OwnedPrefix* want = scan_lpm(routed, q);
    if (got.routed != (want != nullptr)) {
      return "lookup: " + q.str() + " routed flag differs";
    }
    if (!want) continue;
    if (got.owner != want->owner) {
      return "lookup: " + q.str() + " owner " + got.owner.str() + " != " +
             want->owner.str();
    }
    std::vector<std::uint32_t> borders(got.borders,
                                       got.borders + got.border_count);
    std::vector<std::uint32_t> expect = snap.borders_toward(want->owner);
    std::sort(borders.begin(), borders.end());
    std::sort(expect.begin(), expect.end());
    if (borders != expect) return "lookup: " + q.str() + " border set differs";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Measurement state shared by the workloads.

struct Run {
  bool trace = false;
  std::unique_ptr<obs::Observability> obs;  // non-null iff trace
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;

  // Seconds per warm pass, per epoch, per lookup block.
  Series map, epoch, lookup;
  double setup_s = 0.0;  // as measured
  std::unique_ptr<HostRef> host;
  std::vector<double> host_seconds;  // kernel time at every checkpoint

  // Per-layer accumulators (traced runs only).
  std::size_t ops = 0;  // timed operations the per-op figures divide by
  std::size_t split_ops = 0;  // scale_map passes run as collect + run_with
  std::map<std::string, double> counters;  // summed deltas inside ops
  std::map<std::string, double> layer;     // benchmark-measured figures
  std::vector<double> batch_us;
  std::vector<double> acquire_rates;
  double runtime_run_s = 0.0, runtime_reduce_s = 0.0;
  std::size_t runtime_samples = 0;
  unsigned threads = 1;
  std::size_t dirty = 0, clean = 0;
  double arena_bytes = 0.0;  // BdrmapStats::arena_bytes_reserved, summed
  std::size_t snapshot_nodes = 0;

  obs::Tracer* tracer() const { return obs ? obs->tracer() : nullptr; }
  obs::MetricsRegistry* registry() const {
    return obs ? obs->registry() : nullptr;
  }

  void add_arena(const std::vector<core::BdrmapResult>& maps) {
    for (const core::BdrmapResult& r : maps) {
      arena_bytes += static_cast<double>(r.stats.arena_bytes_reserved);
    }
  }

  void expect(const std::string& error) {
    if (!error.empty()) errors.push_back(error);
  }

  // Ends set-up: its time from process start, then the first checkpoint
  // (after one untimed kernel run that touches the kernel's buffers).
  void end_setup() {
    setup_s = since_start();
    host = std::make_unique<HostRef>();
    host->seconds();
    checkpoint();
  }

  void checkpoint() { host_seconds.push_back(host->seconds()); }

  void add(Series& series, double seconds) const {
    series.seconds.push_back(seconds);
    series.segment.push_back(host_seconds.size());
  }

  // Reference speed over host speed for a sample taken after `segment`
  // checkpoints: the median kernel time of the two checkpoints around it
  // and two more on each side, since one kernel run can catch a hiccup of
  // its own while the host's phases last seconds to minutes.
  double scale(std::size_t segment) const {
    const std::size_t lo = segment >= 3 ? segment - 3 : 0;
    const std::size_t hi = std::min(host_seconds.size(), segment + 3);
    const auto first = host_seconds.begin();
    return kRefSeconds / median({first + static_cast<std::ptrdiff_t>(lo),
                                 first + static_cast<std::ptrdiff_t>(hi)});
  }

  // Seconds summed over a series, as measured or at the reference speed.
  double total(const Series& series, bool scaled) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < series.seconds.size(); ++i) {
      sum += series.seconds[i] * (scaled ? scale(series.segment[i]) : 1.0);
    }
    return sum;
  }

  // Times one operation. Traced runs wrap it in a "bench.op" span (the
  // window per-layer spans are attributed to) and sum the counter deltas
  // it caused.
  template <typename Fn>
  double timed_op(Fn&& fn) {
    obs::MetricsSnapshot before;
    if (trace) before = registry()->snapshot();
    obs::Span span(tracer(), "bench.op");
    const Clock::time_point t0 = Clock::now();
    fn();
    const double dt = seconds_since(t0);
    span.close();
    if (trace) {
      ++ops;
      const obs::MetricsSnapshot after = registry()->snapshot();
      for (const obs::CounterSample& c : after.counters) {
        counters[c.name] += static_cast<double>(c.value - before.counter(c.name));
      }
    }
    return dt;
  }
};

// Lookup phase on the live snapshot: one timed block of kBatchesPerBlock
// batches, one handle acquire per kBatch queries, no concurrent swapper.
// Traced runs also time every batch and an acquire-per-query block.
void lookup_block(Run& run, const serve::SnapshotHandle& handle,
                  const std::vector<net::Ipv4Addr>& queries,
                  std::size_t& cursor) {
  std::uint64_t sink = 0;
  const std::size_t mask = kQueries - 1;
  auto batch = [&] {
    const serve::SnapshotHandle::SnapshotPtr snap = handle.current();
    for (std::size_t j = 0; j < kBatch; ++j) {
      const auto q = snap->lookup(queries[(cursor + j) & mask]);
      sink += q.routed ? q.owner.value + q.border_count : 1;
    }
    cursor += kBatch;
  };
  const Clock::time_point t0 = Clock::now();
  for (std::size_t b = 0; b < kBatchesPerBlock; ++b) batch();
  run.add(run.lookup, seconds_since(t0));
  run.attempted += kBatchesPerBlock;
  if (run.trace) {
    for (std::size_t b = 0; b < kBatchesPerBlock; ++b) {
      const Clock::time_point tb = Clock::now();
      batch();
      run.batch_us.push_back(seconds_since(tb) * 1e6);
    }
    const Clock::time_point ta = Clock::now();
    for (std::size_t i = 0; i < kBatchesPerBlock * kBatch; ++i) {
      const auto q = handle.current()->lookup(queries[(cursor + i) & mask]);
      sink += q.routed ? q.owner.value + q.border_count : 1;
    }
    cursor += kBatchesPerBlock * kBatch;
    run.acquire_rates.push_back(static_cast<double>(kBatchesPerBlock * kBatch) /
                                seconds_since(ta));
  }
  if (sink == 0) std::fprintf(stderr, "perfbench: empty lookup sink\n");
}

// Whole iterations only: start another one while it is expected to end
// within the run's measuring time (the first always runs).
bool another_iteration(Clock::time_point loop_start,
                       Clock::time_point iteration_start, double seconds) {
  const double last = seconds_since(iteration_start);
  return seconds_since(loop_start) + last <= seconds;
}

std::vector<const core::BdrmapResult*> pointers(
    const std::vector<core::BdrmapResult>& v) {
  std::vector<const core::BdrmapResult*> out;
  for (const core::BdrmapResult& r : v) out.push_back(&r);
  return out;
}

std::uint64_t probe_seed(std::uint64_t seed) {
  std::uint64_t s = seed;
  return splitmix64(s);
}

// ---------------------------------------------------------------------------
// scale_map / scale_sharded

void run_scale(Run& run, bool sharded, std::uint64_t seed, double seconds) {
  route::FibOptions fib_options;
  fib_options.metrics = run.registry();
  Clock::time_point t0 = Clock::now();
  eval::Scenario scenario(eval::scale_config(kTopologySeed), {}, fib_options);
  run.layer["setup.scenario_s"] = seconds_since(t0);

  std::vector<topo::Vp> vps = scenario.vps_in(scenario.featured_access());
  if (vps.size() > kScaleVps) vps.resize(kScaleVps);
  const std::uint64_t base = probe_seed(seed);
  core::BdrmapConfig config;
  config.obs = run.obs.get();
  std::unique_ptr<runtime::ThreadPool> pool;
  if (sharded) {
    pool = std::make_unique<runtime::ThreadPool>(kShardWorkers,
                                                 run.registry());
    run.threads = pool->size() + 1;  // the calling thread helps
  }
  auto pass = [&](runtime::ThreadPool* p) {
    return sharded ? scenario.run_bdrmap_sharded(vps, config, base, p,
                                                 kAsesPerShard)
                   : scenario.run_bdrmap_parallel(vps, config, base, p);
  };

  // Cold pass: fills the substrate's route caches.
  t0 = Clock::now();
  const runtime::MultiVpResult cold = pass(pool.get());
  run.layer["setup.warmup_s"] = seconds_since(t0);
  run.end_setup();

  const net::AsId vp_as = scenario.featured_access();
  const std::vector<serve::OwnedPrefix> routed =
      routed_prefixes(*scenario.inputs_for(vp_as).origins, {});
  const std::vector<net::Ipv4Addr> queries =
      make_queries(scenario.net(), seed);
  run.expect(check_accuracy(scenario.net(), vps, cold.per_vp,
                            scenario.spec().link_accuracy_floor));

  // scale_map's traced run splits every other pass into Bdrmap::collect()
  // and Bdrmap::run_with() per VP, seeded as run_bdrmap_parallel seeds
  // them; run() == run_with(collect()) keeps it the same work.
  const core::InferenceInputs inputs = scenario.inputs_for(vp_as);
  auto split_pass = [&] {
    std::vector<core::BdrmapResult> out;
    for (std::size_t i = 0; i < vps.size(); ++i) {
      auto services = scenario.services_for(
          vps[i], base + i, probe::TracerConfig{.metrics = run.registry()});
      core::Bdrmap pipeline(*services, inputs, config);
      core::CollectedTraces collected;
      {
        obs::Span span(run.tracer(), "core.collect");
        collected = pipeline.collect();
      }
      obs::Span span(run.tracer(), "core.infer");
      out.push_back(pipeline.run_with(std::move(collected)));
    }
    return out;
  };

  serve::SnapshotHandle handle;
  std::uint64_t epoch = 0;
  std::size_t cursor = 0;
  bool lookups_checked = false;
  const Clock::time_point loop_start = Clock::now();
  std::size_t passes = 0;
  Clock::time_point iteration_start;
  do {
    iteration_start = Clock::now();
    std::vector<core::BdrmapResult> maps;
    const bool split = run.trace && !sharded && passes % 2 == 1;
    run.add(run.map, run.timed_op([&] {
      if (split) {
        maps = split_pass();
        ++run.split_ops;
        return;
      }
      runtime::MultiVpResult r = pass(pool.get());
      if (run.trace) {
        run.runtime_run_s += r.times.run_seconds;
        run.runtime_reduce_s += r.times.reduce_seconds;
        ++run.runtime_samples;
      }
      maps = std::move(r.per_vp);
    }));
    ++passes;
    run.attempted += 1;
    run.add_arena(maps);
    run.expect(check_same_maps(maps, cold.per_vp, "warm pass"));

    // Publish the pass's maps as a snapshot, then answer lookups on it.
    t0 = Clock::now();
    handle.publish(serve::BorderMapSnapshot::compile(
        routed, core::merge_results(pointers(maps)), ++epoch));
    run.add(run.epoch, seconds_since(t0));
    run.attempted += 1;
    if (!lookups_checked) {
      run.expect(check_lookups(*handle.current(), routed, queries));
      lookups_checked = true;
    }
    lookup_block(run, handle, queries, cursor);
    run.checkpoint();
  } while (another_iteration(loop_start, iteration_start, seconds));
  run.snapshot_nodes = handle.current()->node_count();

  if (sharded) {
    // The same plan on a null pool, once per run, outside timing.
    run.expect(check_same_maps(cold.per_vp, pass(nullptr).per_vp,
                               "2-worker vs null pool"));
  }
}

// ---------------------------------------------------------------------------
// access_churn

void run_churn(Run& run, std::uint64_t seed, double seconds) {
  auto spec = eval::scenario_spec("access", kTopologySeed);
  if (!spec) {
    run.errors.push_back("scenario family 'access' is not registered");
    return;
  }
  route::FibOptions fib_options;
  fib_options.metrics = run.registry();
  Clock::time_point t0 = Clock::now();
  eval::Scenario scenario(*spec, fib_options);
  run.layer["setup.scenario_s"] = seconds_since(t0);

  const net::AsId vp_as = scenario.first_of(spec->vp_kind);
  const std::vector<topo::Vp> vps = scenario.vps_in(vp_as);
  serve::EngineOptions options;
  options.base_seed = probe_seed(seed);
  options.obs = run.obs.get();
  options.config.obs = run.obs.get();
  std::vector<serve::VpContext> contexts;
  const probe::TracerConfig tracer_config{.metrics = run.registry()};
  for (const topo::Vp& vp : vps) {
    serve::VpContext ctx;
    ctx.make_services = [&scenario, vp, tracer_config](std::uint64_t s) {
      return std::unique_ptr<probe::ProbeServices>(
          scenario.services_for(vp, s, tracer_config));
    };
    ctx.inputs = scenario.inputs_for(vp_as);
    contexts.push_back(std::move(ctx));
  }
  serve::ServeEngine engine(scenario.net(), scenario.bgp_mutable(),
                            scenario.fib_mutable(), std::move(contexts),
                            options);
  t0 = Clock::now();
  engine.rebuild_full();
  run.layer["serve.rebuild_s"] = seconds_since(t0);
  run.end_setup();

  const std::vector<core::BdrmapResult> epoch0 = engine.last_results();
  run.expect(check_accuracy(scenario.net(), vps, epoch0,
                            spec->link_accuracy_floor));
  const asdata::OriginTable& origins = *scenario.inputs_for(vp_as).origins;
  const std::vector<net::Ipv4Addr> queries =
      make_queries(scenario.net(), seed);

  // The fixed churn sequence, then its undo in reverse order: every round
  // starts from the epoch-0 routing state.
  serve::ChurnStream stream(scenario.net(), kChurnSeed);
  std::vector<serve::ChurnEvent> round;
  for (std::size_t i = 0; i < kChurnEvents; ++i) round.push_back(stream.next());
  for (std::size_t i = kChurnEvents; i-- > 0;) {
    round.push_back(inverse_of(round[i]));
  }

  std::set<net::Prefix> withdrawn;
  std::size_t cursor = 0;
  bool lookups_checked = false;
  const Clock::time_point loop_start = Clock::now();
  Clock::time_point iteration_start;
  do {
    iteration_start = Clock::now();
    for (std::size_t i = 0; i < round.size(); ++i) {
      serve::ChurnApplyStats stats;
      run.add(run.epoch,
              run.timed_op([&] { stats = engine.apply(round[i]); }));
      run.attempted += 1;
      run.add_arena(engine.last_results());
      run.dirty += stats.dirty_slices;
      run.clean += stats.clean_slices;
      track_withdrawn(round[i], withdrawn);
      // Reads between writes, spread over the whole run.
      for (int b = 0; b < 2; ++b) {
        lookup_block(run, engine.handle(), queries, cursor);
      }
      run.checkpoint();
      const auto live = engine.handle().current();
      // Once per run, on the first snapshot with a prefix withdrawn.
      if (!lookups_checked && (!withdrawn.empty() || i + 1 == round.size())) {
        run.expect(check_lookups(*live, routed_prefixes(origins, withdrawn),
                                 queries));
        lookups_checked = true;
      }
      if ((i + 1) % kEpochsPerReference != 0) continue;

      // Midway, with the churn applied, midway through its undo, and after
      // it: a from-scratch recompute of every VP's map (map_s), checked
      // against the live snapshot.
      t0 = Clock::now();
      const serve::ServeEngine::Reference ref = engine.recompute_reference();
      run.add(run.map, seconds_since(t0));
      run.checkpoint();
      run.attempted += 1;
      run.expect(check_reference(*live, engine.last_results(), ref));
      run.snapshot_nodes = live->node_count();
    }
    run.expect(check_same_maps(engine.last_results(), epoch0,
                               "after undo vs epoch 0"));
  } while (another_iteration(loop_start, iteration_start, seconds));
}

// ---------------------------------------------------------------------------
// Traced-run reduction: span sums inside the bench.op windows.

struct SpanTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, std::size_t> count;
};

SpanTotals span_totals(const std::vector<obs::SpanRecord>& spans) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "bench.op" && s.closed) windows.emplace_back(s.start_us, s.end_us);
  }
  std::sort(windows.begin(), windows.end());
  SpanTotals out;
  for (const obs::SpanRecord& s : spans) {
    if (!s.closed || s.name == "bench.op") continue;
    auto it = std::upper_bound(
        windows.begin(), windows.end(),
        std::make_pair(s.start_us, ~std::uint64_t{0}));
    if (it == windows.begin() || s.start_us > std::prev(it)->second) continue;
    out.seconds[s.name] += static_cast<double>(s.duration_us()) * 1e-6;
    out.count[s.name] += 1;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> per_layer_metrics(const Run& run,
                                      const std::vector<obs::SpanRecord>& spans,
                                      bool split_core) {
  const SpanTotals st = span_totals(spans);
  const double ops = run.ops ? static_cast<double>(run.ops) : 1.0;
  auto span_s = [&](const char* name) {
    auto it = st.seconds.find(name);
    return it == st.seconds.end() ? 0.0 : it->second / ops;
  };
  auto counter = [&](const char* name) {
    auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : it->second;
  };
  auto layer = [&](const char* name) {
    auto it = run.layer.find(name);
    return it == run.layer.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // On scale_map only the split passes carry core.collect / core.infer.
  auto split_s = [&](const char* name) {
    auto it = st.seconds.find(name);
    return it == st.seconds.end() || run.split_ops == 0
               ? 0.0
               : it->second / static_cast<double>(run.split_ops);
  };
  const double collect_s =
      split_core ? split_s("core.collect") : span_s("bdrmap.collect");
  const double infer_s =
      split_core ? split_s("core.infer") : span_s("bdrmap.run");
  const double run_s =
      run.runtime_samples ? run.runtime_run_s / static_cast<double>(run.runtime_samples) : 0.0;
  const double reduce_s =
      run.runtime_samples ? run.runtime_reduce_s / static_cast<double>(run.runtime_samples) : 0.0;
  // Pool task bodies: sharded collection slices plus per-VP runs.
  double busy = 0.0;
  if (run.runtime_samples) {
    auto secs = [&](const char* n) {
      auto it = st.seconds.find(n);
      return it == st.seconds.end() ? 0.0 : it->second;
    };
    busy = secs("vp.run") + (run.threads > 1 ? secs("bdrmap.collect") : 0.0);
  }
  const double hits = counter("route.fib.egress_cache_hits");
  const double misses = counter("route.fib.egress_cache_misses");
  std::vector<double> batch = run.batch_us;

  return {
      {"setup.scenario_s", layer("setup.scenario_s"), "s"},
      {"setup.warmup_s", layer("setup.warmup_s"), "s"},
      {"serve.rebuild_s", layer("serve.rebuild_s"), "s"},
      {"core.collect_s", collect_s, "s"},
      {"core.infer_s", infer_s, "s"},
      {"core.schedule_s", span_s("stage.schedule"), "s"},
      {"core.trace_s", span_s("stage.trace"), "s"},
      {"core.alias_s", span_s("stage.alias"), "s"},
      {"core.merge_s", span_s("stage.merge"), "s"},
      {"core.heuristics_s", span_s("stage.heuristics"), "s"},
      {"core.schedule_calls",
       st.count.count("stage.schedule")
           ? static_cast<double>(st.count.at("stage.schedule")) / ops
           : 0.0,
       "count"},
      {"core.traces", counter("core.traces") / ops, "count"},
      {"core.blocks", counter("core.blocks") / ops, "count"},
      {"core.alias_pair_tests", counter("core.alias_pair_tests") / ops,
       "count"},
      {"core.stopset_hits", counter("core.stopset_hits") / ops, "count"},
      {"core.arena_bytes_reserved", run.arena_bytes / ops, "bytes"},
      {"probe.trace_packets", counter("probe.trace_packets") / ops, "count"},
      {"probe.flows_per_batch",
       ratio(counter("probe.batch.flows"), counter("probe.batch.batches")),
       "count"},
      {"route.egress_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"route.tier_cache_fills", counter("route.bgp.tier_cache_fills") / ops,
       "count"},
      {"runtime.run_s", run_s, "s"},
      {"runtime.reduce_s", reduce_s, "s"},
      {"runtime.tasks", counter("runtime.tasks_executed") / ops, "count"},
      {"runtime.steals", counter("runtime.steals") / ops, "count"},
      {"runtime.parks", counter("runtime.parks") / ops, "count"},
      {"runtime.parallel_efficiency",
       ratio(busy, static_cast<double>(run.threads) * run.runtime_run_s), "ratio"},
      {"serve.dirty_slices", static_cast<double>(run.dirty) / ops, "count"},
      {"serve.clean_slices", static_cast<double>(run.clean) / ops, "count"},
      {"serve.collect_s", span_s("serve.collect"), "s"},
      {"serve.infer_s", span_s("serve.infer"), "s"},
      {"serve.compile_s", span_s("serve.compile"), "s"},
      {"serve.lookup_batch_us", median(batch), "us"},
      {"serve.acquire_lookups_per_s", median(run.acquire_rates), "1/s"},
      {"serve.snapshot_nodes", static_cast<double>(run.snapshot_nodes),
       "count"},
  };
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_metrics(std::FILE* f, const std::vector<Metric>& metrics) {
  std::fprintf(f, "{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                 i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit);
  }
  std::fprintf(f, "}");
}

bool write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<Metric>& metrics,
                 const std::vector<obs::SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"per_layer\": ",
               json_escape(workload).c_str(),
               static_cast<unsigned long long>(seed));
  print_metrics(f, metrics);
  std::fprintf(f, ",\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    std::fprintf(f, "%s{\"name\": \"%s\", \"parent\": %lld, \"start_us\": %llu, "
                 "\"end_us\": %llu}",
                 i ? ",\n" : "", json_escape(s.name).c_str(),
                 s.parent == obs::SpanRecord::kNoParent
                     ? -1LL
                     : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_us),
                 static_cast<unsigned long long>(s.end_us));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// --selftest: every check accepts the real output and rejects a corrupted
// copy of it. Uses the small registry family to stay quick.

int selftest() {
  int failures = 0;
  auto expect = [&](const char* what, const std::string& good,
                    const std::string& bad) {
    const bool ok = good.empty() && !bad.empty();
    std::printf("%-34s %s%s%s\n", what, ok ? "ok" : "FAIL",
                good.empty() ? "" : "  good output rejected: ",
                good.empty() ? (bad.empty() ? "  corrupted output accepted"
                                            : "")
                             : good.c_str());
    if (!ok) ++failures;
  };

  auto spec = eval::scenario_spec("small", kTopologySeed);
  if (!spec) {
    std::printf("scenario family 'small' is not registered\n");
    return 1;
  }
  eval::Scenario scenario(*spec);
  const net::AsId vp_as = scenario.first_of(spec->vp_kind);
  std::vector<topo::Vp> vps = scenario.vps_in(vp_as);
  if (vps.size() > 2) vps.resize(2);

  // Accuracy: every link of one VP pointed at the VP's own network.
  const runtime::MultiVpResult base = scenario.run_bdrmap_parallel(vps);
  std::vector<core::BdrmapResult> wrong_owner = base.per_vp;
  for (core::InferredLink& l : wrong_owner[0].links) l.neighbor_as = vp_as;
  expect("accuracy floor",
         check_accuracy(scenario.net(), vps, base.per_vp,
                        spec->link_accuracy_floor),
         check_accuracy(scenario.net(), vps, wrong_owner,
                        spec->link_accuracy_floor));

  // Warm pass / null-pool equality: one link dropped from one VP.
  runtime::ThreadPool pool(2);
  const runtime::MultiVpResult sharded =
      scenario.run_bdrmap_sharded(vps, {}, 0x515, &pool);
  std::vector<core::BdrmapResult> dropped =
      scenario.run_bdrmap_sharded(vps, {}, 0x515, nullptr).per_vp;
  const std::string same_good =
      check_same_maps(sharded.per_vp, dropped, "null pool");
  dropped.back().links.pop_back();
  expect("same border map", same_good,
         check_same_maps(sharded.per_vp, dropped, "null pool"));

  // Serve engine after one churn event.
  serve::EngineOptions options;
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
  const std::vector<core::BdrmapResult> epoch0 = engine.last_results();
  serve::ChurnStream stream(scenario.net(), kChurnSeed);
  std::set<net::Prefix> withdrawn;
  std::vector<serve::ChurnEvent> applied;
  serve::ChurnEvent event;
  do {  // up to a withdrawal, so the lookup check sees a withdrawn prefix
    event = stream.next();
    engine.apply(event);
    applied.push_back(event);
    track_withdrawn(event, withdrawn);
  } while (event.kind != serve::ChurnKind::kWithdraw);
  const serve::ServeEngine::Reference ref = engine.recompute_reference();
  const auto live = engine.handle().current();
  std::vector<core::BdrmapResult> live_dropped = engine.last_results();
  live_dropped.front().links.pop_back();
  expect("reference: per-VP maps",
         check_reference(*live, engine.last_results(), ref),
         check_reference(*live, live_dropped, ref));
  const std::vector<serve::OwnedPrefix> routed =
      routed_prefixes(*scenario.inputs_for(vp_as).origins, withdrawn);
  const auto recompiled = serve::BorderMapSnapshot::compile(
      routed_prefixes(*scenario.inputs_for(vp_as).origins, {}),
      core::merge_results(pointers(engine.last_results())), live->epoch());
  expect("reference: fingerprint",
         check_reference(*live, engine.last_results(), ref),
         check_reference(*recompiled, engine.last_results(), ref));

  // Lookups: a snapshot missing every prefix that covers one routed query,
  // and one whose owners are all wrong.
  std::vector<net::Ipv4Addr> queries = make_queries(scenario.net(), 1);
  queries.front() = routed.front().prefix.network();
  std::vector<serve::OwnedPrefix> uncovered = routed;
  std::erase_if(uncovered, [&](const serve::OwnedPrefix& p) {
    return p.prefix.contains(queries.front());
  });
  const auto uncovered_snap = serve::BorderMapSnapshot::compile(
      uncovered, core::merge_results(pointers(engine.last_results())), 1);
  expect("lookup: missing prefix", check_lookups(*live, routed, queries),
         check_lookups(*uncovered_snap, routed, queries));
  std::vector<serve::OwnedPrefix> misowned = routed;
  for (serve::OwnedPrefix& p : misowned) p.owner = net::AsId(p.owner.value + 1);
  const auto misowned_snap = serve::BorderMapSnapshot::compile(
      misowned, core::merge_results(pointers(engine.last_results())), 1);
  expect("lookup: owner", check_lookups(*live, routed, queries),
         check_lookups(*misowned_snap, routed, queries));

  // Undo: the inverse events, in reverse order, restore the epoch-0 maps.
  for (std::size_t i = applied.size(); i-- > 0;) {
    engine.apply(inverse_of(applied[i]));
  }
  std::vector<core::BdrmapResult> undone_dropped = engine.last_results();
  undone_dropped.front().links.pop_back();
  expect("undo restores epoch 0",
         check_same_maps(engine.last_results(), epoch0, "epoch 0"),
         check_same_maps(undone_dropped, epoch0, "epoch 0"));

  std::printf("%s\n", failures ? "selftest FAILED" : "selftest passed");
  return failures ? 1 : 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload scale_map|scale_sharded|access_churn "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       %s --selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if ((workload != "scale_map" && workload != "scale_sharded" &&
       workload != "access_churn") ||
      !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }

  Run run;
  run.trace = trace == 1;
  if (run.trace) {
    obs::ObsOptions options;
    options.enabled = true;
    options.run_label = "perfbench " + workload;
    run.obs = std::make_unique<obs::Observability>(options);
  }
  if (workload == "access_churn") {
    run_churn(run, seed, seconds);
  } else {
    run_scale(run, workload == "scale_sharded", seed, seconds);
  }

  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  if (!run.host) return 1;  // set-up did not finish
  auto per_sample = [&run](const Series& series, bool scaled) {
    return run.total(series, scaled) /
           static_cast<double>(series.seconds.size());
  };
  auto rate = [&run](bool scaled) {
    return static_cast<double>(run.lookup.seconds.size() * kBatchesPerBlock *
                               kBatch) /
           run.total(run.lookup, scaled);
  };
  const std::vector<Metric> end_to_end = {
      {"setup_s", run.setup_s * run.scale(0), "s"},
      {"map_s", per_sample(run.map, true), "s"},
      {"epoch_s", per_sample(run.epoch, true), "s"},
      {"lookups_per_s", rate(true), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu map, %zu epoch, %zu lookup "
               "samples\n"
               "perfbench: as measured: setup_s %.4g map_s %.4g epoch_s %.4g "
               "lookups_per_s %.4g; host kernel median %.4g s over %zu "
               "checkpoints (reference %.4g s)\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               run.map.seconds.size(), run.epoch.seconds.size(),
               run.lookup.seconds.size(), run.setup_s,
               per_sample(run.map, false), per_sample(run.epoch, false),
               rate(false), median(run.host_seconds), run.host_seconds.size(),
               kRefSeconds);
  if (run.host->sink() == 0) std::fprintf(stderr, "perfbench: empty sink\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": ",
              run.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(run.attempted));
  if (run.trace) {
    const std::vector<obs::SpanRecord> spans = run.obs->tracer()->snapshot();
    const std::vector<Metric> layers =
        per_layer_metrics(run, spans, workload == "scale_map");
    print_metrics(stdout, layers);
    std::printf(", \"end_to_end\": ");
    print_metrics(stdout, end_to_end);
    if (!trace_out.empty() &&
        !write_trace(trace_out, workload, seed, layers, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  } else {
    print_metrics(stdout, end_to_end);
  }
  std::printf("}\n");
  return 0;
}
