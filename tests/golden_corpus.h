// Committed golden corpora (tests/golden/): recorded digests that pin the
// inference and the forwarding walk to the values they had when the
// corpus was captured (DESIGN.md §15).
//
// A corpus file holds one case per line: whitespace-separated key fields
// followed by a 16-hex-digit FNV-1a digest; '#' lines are comments. A
// mismatching or missing case fails with the actual line in file format,
// so a deliberate behaviour change is re-captured by pasting the printed
// lines over the old ones in a commit of its own. There is no regenerate
// switch.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bdrmap.h"
#include "core/merge.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "runtime/multi_vp.h"
#include "runtime/thread_pool.h"
#include "serve/snapshot.h"

namespace bdrmap::golden {

// 64-bit FNV-1a over little-endian words.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::vector<std::uint64_t>& words) {
    add(words.size());
    for (std::uint64_t w : words) add(w);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// One border map: the compiled serving snapshot's fingerprint, every
// field eval::same_border_map compares, and each link's confidence as
// its bit pattern.
inline std::uint64_t border_map_digest(const core::BdrmapResult& result) {
  Fnv1a h;
  core::MergedMap merged = core::merge_results({&result});
  h.add(serve::BorderMapSnapshot::compile({}, merged, /*epoch=*/0)
            ->fingerprint());
  h.add(result.links.size());
  for (const core::InferredLink& link : result.links) {
    h.add(link.vp_router);
    h.add(link.neighbor_router);
    h.add(link.neighbor_as.value);
    h.add(static_cast<std::uint64_t>(link.how));
    h.add(std::bit_cast<std::uint64_t>(link.confidence));
  }
  h.add(result.links_by_as.size());
  for (const auto& [as, indices] : result.links_by_as) {
    h.add(as.value);
    h.add(indices.size());
    for (std::size_t i : indices) h.add(i);
  }
  const core::BdrmapStats& s = result.stats;
  for (std::size_t v : {s.traces, s.routers, s.stopset_hits,
                        s.alias_pair_tests, s.probe_failures}) {
    h.add(v);
  }
  return h.value();
}

// Every VP's border map, in VP order.
inline std::uint64_t border_maps_digest(const runtime::MultiVpResult& result) {
  Fnv1a h;
  h.add(result.per_vp.size());
  for (const core::BdrmapResult& vp : result.per_vp) {
    h.add(border_map_digest(vp));
  }
  return h.value();
}

// The corpus's per-VP recipe: the spec's first VP network, its first VP,
// probe seed 0x515 + salt, probe_wave `wave`.
inline core::BdrmapResult run_spec_case(const eval::ScenarioSpec& spec,
                                        std::uint32_t salt, std::size_t wave,
                                        core::BdrmapConfig config = {}) {
  eval::Scenario scenario(spec);
  const net::AsId vp_as = scenario.first_of(scenario.spec().vp_kind);
  config.probe_wave = wave;
  return scenario.run_bdrmap(scenario.vps_in(vp_as).front(), config,
                             0x515 + salt);
}

// run_spec_case over a registered family (scenario_names()); an unknown
// family throws std::bad_optional_access.
inline core::BdrmapResult run_family_case(const std::string& family,
                                          std::uint64_t seed,
                                          std::uint32_t salt, std::size_t wave,
                                          core::BdrmapConfig config = {}) {
  return run_spec_case(eval::scenario_spec(family, seed).value(), salt, wave,
                       std::move(config));
}

// The corpus's sharded recipe: small_access at seed 42, its first two VPs,
// 4 target ASes per shard, base probe seed 0x515, on a `workers` pool.
inline runtime::MultiVpResult run_sharded_case(unsigned workers) {
  eval::Scenario scenario(eval::small_access_config(42));
  std::vector<topo::Vp> vps = scenario.vps_in(scenario.featured_access());
  if (vps.size() > 2) vps.resize(2);
  runtime::ThreadPool pool(workers);
  return scenario.run_bdrmap_sharded(vps, {}, 0x515, &pool,
                                     /*ases_per_shard=*/4);
}

class Corpus {
 public:
  // Reads `relpath` under the source tree; a missing file is an empty
  // corpus (every case then fails and prints its line).
  explicit Corpus(const std::string& relpath)
      : path_(std::string(BDRMAP_SOURCE_DIR) + "/" + relpath) {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t cut = line.find_last_of(' ');
      if (cut == std::string::npos) continue;
      digests_[line.substr(0, cut)] = line.substr(cut + 1);
    }
  }

  const std::map<std::string, std::string>& cases() const {
    return digests_;
  }

  ::testing::AssertionResult check(const std::string& key,
                                   std::uint64_t digest) const {
    const std::string actual = hex(digest);
    auto it = digests_.find(key);
    if (it != digests_.end() && it->second == actual) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << (it == digests_.end() ? "no recorded line in "
                                    : "digest differs from ")
           << path_ << (it == digests_.end() ? "" : " (recorded " +
                                                        it->second + ")")
           << "\nactual line: " << key << ' ' << actual << '\n';
  }

 private:
  std::string path_;
  std::map<std::string, std::string> digests_;
};

// Space-joined corpus key.
template <typename... Fields>
std::string key(const Fields&... fields) {
  std::ostringstream out;
  bool first = true;
  ((out << (first ? "" : " ") << fields, first = false), ...);
  return out.str();
}

// tests/golden/border_maps.txt, shared by the suites that check its
// cases, with the keys of the cases outside the family grid.
inline const Corpus& border_map_corpus() {
  static const Corpus c("tests/golden/border_maps.txt");
  return c;
}

inline constexpr std::uint64_t kFuzzSeeds[] = {11, 12};
inline constexpr unsigned kShardWorkers[] = {1, 2, 8};

// run_spec_case(eval::fuzzed_spec(family, seed), 0, 64).
inline std::string fuzz_key(const std::string& family, std::uint64_t seed) {
  return key("fuzz." + family, seed, 0, 64);
}

// run_sharded_case(workers).
inline std::string sharded_key(unsigned workers) {
  return key("small_access.sharded.w" + std::to_string(workers), 42, 0, 64);
}

}  // namespace bdrmap::golden
