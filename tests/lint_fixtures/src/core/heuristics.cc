// Fixture for BDR105: core/heuristics.cc may define the §5.4 phase bodies
// but not call them — a second dispatcher beside HeuristicEngine.
#include "core/heuristics.h"

namespace bdrmap::core {

void Heuristics::phase7_analytic_alias() {}  // definition: allowed

std::vector<UncooperativeNeighbor> Heuristics::run() {
  phase7_analytic_alias();  // BDR105: bypasses the registry engine
  return {};
}

}  // namespace bdrmap::core
