// Pluggable §5.4 heuristic engine (DESIGN.md §15).
//
// The paper's ownership ladder is a fixed sequence of eight rule families
// (§5.4.1 – §5.4.8). This header turns that sequence into data: every rule
// is a registry entry with a stable slug, a precondition (which §5.2
// inputs it needs), per-rule config overrides, and a fire() that runs the
// corresponding phase body. The engine executes the registry in a
// configurable order with a deterministic tie-break (registration order),
// counts fires and skips per rule, and — through the confidence algebra
// below — annotates every assignment with a probability-style confidence
// in [0,1] (PARI-style propagation: relationship-derived evidence carries
// a prior from asdata::RelationshipStore).
//
// The border maps it produces — confidences included — are pinned by the
// committed golden corpus tests/golden/border_maps.txt
// (tests/heuristic_golden_test.cc). Confidence never feeds placement
// decisions and is excluded from eval::same_border_map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/heuristics.h"

namespace bdrmap::core {

// ---------------------------------------------------------------------------
// Confidence algebra (unit-tested in tests/heuristic_confidence_test.cc).
//
// Documented properties:
//   * every combinator maps into [0,1];
//   * both() and either() are commutative bitwise-exactly in IEEE double
//     (operand symmetry), and associative up to floating-point rounding;
//   * either(c, e) >= c and support(p, n) is non-decreasing in n — adding
//     supporting evidence never lowers a confidence;
//   * everything is pure rational arithmetic on already-deterministic
//     inputs, so results are identical at any thread count.
// ---------------------------------------------------------------------------
namespace conf {

inline double clamp01(double x) {
  return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x);
}

// AND-combination: the conclusion needs both pieces of evidence.
inline double both(double a, double b) { return clamp01(a) * clamp01(b); }

// noisy-OR: either observation alone supports the conclusion. The naive
// a + b - a*b can round below max(a, b) (e.g. a=0.9, b=1.0), so the result
// is floored at the larger operand — "adding evidence never lowers a
// confidence" holds exactly, not just up to rounding.
inline double either(double a, double b) {
  a = clamp01(a);
  b = clamp01(b);
  const double noisy_or = clamp01(a + b - a * b);
  const double strongest = a > b ? a : b;
  return noisy_or > strongest ? noisy_or : strongest;
}

// n independent supporting observations of strength p each:
// 1 - (1-p)^n, computed by repeated multiplication (no libm pow, so the
// value is bit-stable across platforms and monotone in n by construction).
inline double support(double p, int n) {
  p = clamp01(p);
  if (n <= 0) return 0.0;
  double miss = 1.0;
  for (int i = 0; i < n && miss > 0.0; ++i) miss *= 1.0 - p;
  return 1.0 - miss;
}

// k-of-n majority share.
inline double vote(std::size_t k, std::size_t n) {
  if (n == 0) return 0.0;
  if (k > n) k = n;
  return static_cast<double>(k) / static_cast<double>(n);
}

// Priors on relationship-store edges (the store holds *inferred*
// relationships, so an edge is evidence, not truth — PARI's premise).
inline constexpr double kConsistentEdgePrior = 0.95;  // both directions agree
inline constexpr double kOneSidedEdgePrior = 0.70;    // asymmetric dump row
// Fallback strength for weakly-constrained steps (single destination org,
// nothing routed beyond).
inline constexpr double kWeakEvidence = 0.4;
// Discount for conclusions propagated one hop from their evidence (the
// §5.4.4 step-4.2 / §5.4.5 step-5.1 "preceding router" inferences).
inline constexpr double kIndirectEvidence = 0.9;

// Prior that the relationship edge between a and b is real:
// kConsistentEdgePrior when rel(a,b) and rel(b,a) are mutually inverse,
// kOneSidedEdgePrior when only one direction (or an inconsistent pair) is
// recorded, 0 when the store has no edge at all.
double relationship_prior(const asdata::RelationshipStore& rels, AsId a,
                          AsId b);

// Base prior of each §5.4 rule tag (Table 1 row), reflecting how
// constrained the paper argues the inference is. prior(kNone) == 0.
double prior(Heuristic how);

}  // namespace conf

// One registry entry: a §5.4 rule family with a stable slug. fire() runs
// the shared phase body through a HeuristicEngine trampoline (the engine
// is a friend of Heuristics; the phase bodies stay private so nothing
// outside the engine can call the ladder directly — lint rule BDR105).
class HeuristicRule {
 public:
  using FireFn = void (*)(Heuristics&, std::vector<UncooperativeNeighbor>&);

  constexpr HeuristicRule(const char* slug, const char* paper_step,
                          bool needs_relationships, FireFn fire_fn)
      : slug_(slug),
        paper_step_(paper_step),
        needs_relationships_(needs_relationships),
        fire_(fire_fn) {}

  const char* slug() const { return slug_; }
  const char* paper_step() const { return paper_step_; }

  // nullptr when the rule can run; otherwise a stable human-readable skip
  // reason: HeuristicsConfig::rule_overrides disabled it, or an
  // InferenceInputs dataset it needs is missing.
  const char* skip_reason(const Heuristics& h) const;

  void fire(Heuristics& h,
            std::vector<UncooperativeNeighbor>& placements) const {
    fire_(h, placements);
  }

 private:
  const char* slug_;
  const char* paper_step_;
  bool needs_relationships_;  // precondition: InferenceInputs::rels
  FireFn fire_;
};

// Runs the rule registry over one Heuristics instance. Constructed and
// driven by Heuristics::run().
class HeuristicEngine {
 public:
  explicit HeuristicEngine(Heuristics& h) : h_(h) {}

  // Executes every registered rule in resolve_order(config) — skipped
  // rules are counted in the owning Heuristics' rule_stats() — and
  // returns the §5.4.8 placements.
  std::vector<UncooperativeNeighbor> run();

  // All rules in paper order (§5.4.1 … §5.4.8) — the registration order
  // that doubles as the deterministic tie-break.
  static const std::vector<HeuristicRule>& registry();

  // Registry entry for `slug`; nullptr for unknown slugs.
  static const HeuristicRule* find(std::string_view slug);

  // config.rule_order resolved to registry indices: named slugs first, in
  // the given order (unknown names ignored, duplicates collapsed), then
  // every remaining rule appended in registration order.
  static std::vector<std::size_t> resolve_order(
      const HeuristicsConfig& config);

 private:
  // Phase trampolines: members of this class so the friendship Heuristics
  // grants HeuristicEngine covers them.
  static void fire_vp_network(Heuristics&,
                              std::vector<UncooperativeNeighbor>&);
  static void fire_firewall(Heuristics&, std::vector<UncooperativeNeighbor>&);
  static void fire_unrouted(Heuristics&, std::vector<UncooperativeNeighbor>&);
  static void fire_onenet(Heuristics&, std::vector<UncooperativeNeighbor>&);
  static void fire_relationships(Heuristics&,
                                 std::vector<UncooperativeNeighbor>&);
  static void fire_counting(Heuristics&, std::vector<UncooperativeNeighbor>&);
  static void fire_analytic_alias(Heuristics&,
                                  std::vector<UncooperativeNeighbor>&);
  static void fire_uncooperative(Heuristics&,
                                 std::vector<UncooperativeNeighbor>&);

  Heuristics& h_;
};

}  // namespace bdrmap::core
