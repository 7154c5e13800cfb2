#pragma once
// MCLB: "maximum channel load bottleneck" routing (paper SIII-D, Table III).
//
// Given the flat list P of all shortest paths per flow, select exactly one
// path per flow such that the maximum channel load is minimized. Backends:
//   - mclb_local_search: the default engine — a deterministic min-max local
//     search over the flat path set (routing/paths.hpp) with incremental
//     LoadObjective maintenance: candidate evaluation costs
//     O(path length) instead of O(links), which makes the search cheap
//     enough to run inside the annealer's move loop
//     (core::Objective::kChannelLoad).
//   - mclb_local_search_scan: the retained scan-based engine — identical
//     decision sequence, but every candidate objective is recomputed by a
//     full O(links) scan. It is the test oracle for the incremental engine
//     (tests/test_mclb_incremental.cpp) and the baseline the perf-report
//     speedup gate measures against.
//   - mclb_exact: the Table III MILP (binary path_used variables, channel
//     load rows, minmax objective) solved with the in-tree MILP engine.
//     Because paths are pre-enumerated, the link_used/path_used AND-chains
//     of Table III collapse into plain column membership, exactly as the
//     paper notes ("the set of all valid paths is provided as input and the
//     formulation simply selects"). Accepts the local-search incumbent as
//     an upper bound so callers never pay for the same search twice.

#include <vector>

#include "lp/milp.hpp"
#include "routing/channel_load.hpp"
#include "routing/paths.hpp"
#include "routing/table.hpp"

namespace netsmith::routing {

// Sorted-load-profile objective: (max, #links exactly at max, sum of
// squares), compared lexicographically. at_max counts *exact* double
// equality — load values are sums of flow weights evolved by the same ±w
// sequence in every engine, so equality is well-defined and engine-
// independent; with integer or dyadic-rational weights (uniform traffic is
// weight 1.0) every quantity below is exact in double arithmetic and the
// incremental maintenance is bit-identical to a fresh scan.
struct LoadObjective {
  double max = 0.0;
  int at_max = 0;
  double sumsq = 0.0;

  // Full-scan evaluation (the oracle the incremental engine is tested
  // against).
  static LoadObjective of(const std::vector<double>& loads);

  // Comparison tolerance for a search whose largest flow weight is wmax.
  // Absolute 1e-12 misbehaves when weights span orders of magnitude (at
  // wmax = 1e6 a one-ulp summation difference is ~1e-10, which an absolute
  // 1e-12 test treats as a real improvement and the improvement loop churns
  // on float noise); scaling by wmax keeps the tolerance meaningful across
  // weight scales.
  static double tolerance(double wmax) {
    return 1e-12 * (wmax > 1.0 ? wmax : 1.0);
  }

  // Lexicographic strictly-better with tolerance eps on max; the sumsq
  // tie-break uses eps scaled by the load magnitude (sumsq is quadratic in
  // the loads, so its float noise is too).
  bool better_than(const LoadObjective& o, double eps = 1e-12) const {
    if (max < o.max - eps) return true;
    if (max > o.max + eps) return false;
    if (at_max != o.at_max) return at_max < o.at_max;
    return sumsq < o.sumsq - eps * (1.0 + max + o.max);
  }

  bool identical(const LoadObjective& o) const {
    return max == o.max && at_max == o.at_max && sumsq == o.sumsq;
  }
};

struct MclbResult {
  std::vector<int> choice;  // per pair s*n + d, index among its flow's paths
  double max_load = 0.0;    // normalized (per unit packets/node/cycle)
  int max_flows_on_link = 0;
  LoadObjective objective;  // final load profile objective (weight units)
  long iterations = 0;
  bool proven_optimal = false;
  RoutingTable table(const PathSet& ps) const {
    return RoutingTable::from_choice(ps, choice);
  }
};

// Optional per-flow demand weights, indexed s*n + d (uniform all-to-all
// when empty). Default engine: flat incremental (see header comment).
MclbResult mclb_local_search(const PathSet& ps,
                             const std::vector<double>& flow_weight = {},
                             int max_rounds = 64);

// Retained scan-based oracle: same decisions, O(links) per candidate.
MclbResult mclb_local_search_scan(const PathSet& ps,
                                  const std::vector<double>& flow_weight = {},
                                  int max_rounds = 64);

// incumbent, when given, seeds the MILP's upper bound (and the fallback
// answer) instead of re-running the local search internally.
MclbResult mclb_exact(const PathSet& ps, const lp::MilpOptions& opts = {},
                      const MclbResult* incumbent = nullptr);

// Fractional (multi-path) MCLB: the Table III formulation with the
// integrality of path_used relaxed, exactly the generalization the paper
// names in SIII-D-d. Solved as a pure LP; its optimum lower-bounds every
// single-path routing's max channel load and is the throughput-optimal
// traffic split when the network supports per-flow multipath.
struct FractionalMclbResult {
  // Per path p of the path set: its share of its flow (a flow's sum to 1;
  // empty unless solved).
  std::vector<double> weights;
  double max_load = 0.0;  // normalized, same units as MclbResult::max_load
  bool solved = false;
  long iterations = 0;
};

FractionalMclbResult mclb_fractional(const PathSet& ps,
                                     const lp::SimplexOptions& opts = {});

// Expected channel loads induced by a fractional routing.
LoadAnalysis analyze_fractional_choice(const PathSet& ps,
                                       const FractionalMclbResult& frac);

}  // namespace netsmith::routing
