#pragma once
// DFSSSP-style path-to-VC-layer partitioning (paper SIV-A, following Domke
// et al.): partition the chosen shortest paths into layers such that each
// layer's channel dependency graph is acyclic; each layer maps to (a group
// of) virtual channels. The paper found random back-edge selection gives
// sufficiently few layers; we take randomized path orders over several
// restarts and keep the best, which is the same mechanism.

#include <vector>

#include "routing/table.hpp"
#include "util/rng.hpp"
#include "vc/cdg.hpp"

namespace netsmith::vc {

struct VcAssignment {
  int num_layers = 0;
  // Per flow f = s*n + d: layer id, or -1 for absent flows (s == d).
  std::vector<int> layer;
};

// Restarts per call, and the most layers an assignment may use.
inline constexpr int kLayerRestarts = 8, kMaxLayers = 16;

// Greedy layered assignment with rollback on cycle creation. Restart 0 takes
// the flows in (s, d) order; restart r > 0 takes rng.shuffle of them, and the
// fewest-layer result wins (the earliest on ties). RNG contract: the call
// draws exactly one shuffle of the routed-flow list per restart r in
// [1, kLayerRestarts), stopping after the first restart that needs one
// layer, and nothing else. Restarts that cannot win (one layer is known to
// be impossible once some restart needed two) are not run, but their
// shuffles are still drawn, so rng leaves in the same state either way.
VcAssignment assign_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, util::Rng& rng);

// Verifies that every layer's CDG is acyclic (the deadlock-freedom
// condition); used by tests and asserted before simulation.
bool verify_acyclic(const VcAssignment& a, const routing::RoutingTable& rt,
                    const topo::DiGraph& g);

}  // namespace netsmith::vc
