#pragma once
// Anytime topology search: simulated annealing over the space of link sets
// that satisfy the layout / link-class / radix / (optional) symmetry
// constraints of Table I.
//
// This is the Gurobi-substitute backend at the paper's scales (20/30/48
// routers). Like a MIP solver it maintains an incumbent and reports a trace
// of (time, incumbent, analytic bound) pairs whose gap narrows over time
// (Fig. 5). The SCOp objective is evaluated through a lazily grown cache of
// worst cuts (cutting-plane style): cheap surrogate evaluations against the
// cached partitions, with periodic exact sparsest-cut refreshes that insert
// newly violated partitions. The route-aware objectives (kChannelLoad,
// kLatLoad) score every move by running the flat shortest-path-enum ->
// flat MCLB pipeline on the candidate graph, reusing the move's APSP for
// the shortest-path DAG (see DESIGN.md "Channel-load-aware annealing").
//
// Restarts are independent searches: each owns its RNG (seeded from
// cfg.seed and the restart index), objective engine, cut cache and
// incumbent. They run serially in index order, and the best-of reduction
// walks them in that order with a strictly-better comparison; callers that
// want parallelism run whole syntheses concurrently (api::Study's pool).
// With `cfg.max_moves > 0` the temperature schedule and termination are
// driven by the move counter instead of the wall clock, so a fixed seed
// reproduces the exact same topology on every run.

#include "core/config.hpp"

namespace netsmith::core {

// kChannelLoad / kLatLoad: budget of the per-move routing pipeline. Path
// enumeration is capped per flow and the MCLB improvement loop gets a fixed
// round budget; both trade move-evaluation fidelity for throughput.
inline constexpr int kAnnealPathsPerFlow = 8;
inline constexpr int kAnnealMclbRounds = 8;

SynthesisResult anneal_synthesize(const SynthesisConfig& cfg);

}  // namespace netsmith::core
