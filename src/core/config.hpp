#pragma once
// NetSmith synthesis configuration and result types (paper SIII, Table I).

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"
#include "topo/layout.hpp"
#include "util/matrix.hpp"

namespace netsmith::core {

// Which objective/constraint subset of Table I drives the search.
enum class Objective {
  kLatOp,    // O1: minimize total (average) hop count
  kSCOp,     // O2: maximize sparsest-cut bandwidth (ties broken on hops)
  kPattern,  // weighted hops for an explicit traffic matrix (e.g. shuffle)
  // Route-aware objectives: every move is scored by running the flat
  // shortest-path-enumeration -> MCLB pipeline (flat incremental engine,
  // routing/mclb.hpp) on the candidate graph, reusing the move's APSP.
  kChannelLoad,  // minimize MCLB max normalized channel load (ties: hops)
  kLatLoad,      // combined: avg hops + load_weight * max channel load
};

struct SynthesisConfig {
  topo::Layout layout = topo::Layout::noi_4x5();
  topo::LinkClass link_class = topo::LinkClass::kMedium;
  int radix = 4;                  // C2: per-direction port budget
  bool symmetric_links = false;   // C9 (optional); paper defaults to asymmetric
  Objective objective = Objective::kLatOp;
  util::Matrix<double> pattern;   // used when objective == kPattern
  int diameter_bound = 0;         // C8 (optional), 0 = unbounded
  // C7 (optional): minimum sparsest-cut bandwidth the topology must keep
  // while optimizing the primary objective ("combined measures", SI).
  // 0 = unconstrained.
  double min_cut_bandwidth = 0.0;
  // kLatLoad only: weight on the MCLB max normalized channel load relative
  // to average hops in the combined score.
  double load_weight = 1.0;

  double time_limit_s = 10.0;
  std::uint64_t seed = 1;
  int restarts = 3;
  // Per-restart move budget; 0 = wall-clock budget (time_limit_s /
  // restarts per restart, not bit-reproducible across runs).
  long max_moves = 0;
};

struct ProgressPoint {
  double seconds = 0.0;
  double incumbent = 0.0;  // objective of the best topology found so far
  double bound = 0.0;      // analytic bound on any achievable objective
  // Objective-bounds gap as MIP solvers report it (paper Fig. 5).
  double gap() const {
    if (incumbent == 0.0) return 0.0;
    return std::abs(incumbent - bound) / std::abs(incumbent);
  }
};

struct SynthesisResult {
  topo::DiGraph graph;
  // For kLatOp/kPattern: average hops (lower is better).
  // For kSCOp: exact sparsest-cut bandwidth (higher is better).
  // For kChannelLoad: MCLB max normalized channel load (lower is better).
  // For kLatLoad: avg hops + load_weight * max channel load (lower).
  double objective_value = 0.0;
  double bound = 0.0;
  std::vector<ProgressPoint> trace;
  long moves = 0;
  long accepted = 0;
  // Delta-APSP accounting: distance-matrix rows re-swept by the incremental
  // engine across all scored moves. The full re-sweep equivalent is
  // n x (scored moves); the ratio is the per-move APSP saving
  // (bench/fig_scale.cpp reports it per n).
  long apsp_resweeps = 0;
};

}  // namespace netsmith::core
