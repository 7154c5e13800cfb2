// Pattern-aware synthesis: NetSmith accepts any traffic matrix. This example
// optimizes a topology for the gem5 "shuffle" permutation (paper SV-E) and
// shows that it beats a uniform-optimized topology on shuffle traffic while
// losing a little on uniform traffic — the specialization trade-off.
//
// Build & run:  ./build/examples/custom_pattern [seconds=8]

#include <cstdio>
#include <cstdlib>

#include "core/anneal.hpp"
#include "core/objective.hpp"
#include "topo/metrics.hpp"

using namespace netsmith;

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 8.0;
  const auto lay = topo::Layout::noi_4x5();
  const int n = lay.n();
  const auto shuffle = core::shuffle_pattern(n);

  core::SynthesisConfig base;
  base.layout = lay;
  base.link_class = topo::LinkClass::kMedium;
  base.time_limit_s = seconds;
  base.seed = 99;

  // Uniform-optimized topology.
  auto uni_cfg = base;
  uni_cfg.objective = core::Objective::kLatOp;
  const auto uni = core::anneal_synthesize(uni_cfg);

  // Shuffle-optimized topology.
  auto shuf_cfg = base;
  shuf_cfg.objective = core::Objective::kPattern;
  shuf_cfg.pattern = shuffle;
  const auto shuf = core::anneal_synthesize(shuf_cfg);

  auto report = [&](const char* name, const topo::DiGraph& g) {
    const auto dist = topo::apsp_bfs(g);
    std::printf("  %-18s avg hops (uniform) = %.3f   avg hops (shuffle) = %.3f\n",
                name, topo::average_hops(dist),
                topo::weighted_hops(dist, shuffle));
  };

  std::printf("Topology specialization on the 4x5 NoI (%.0fs each):\n\n",
              seconds);
  report("uniform-optimized", uni.graph);
  report("shuffle-optimized", shuf.graph);

  std::printf(
      "\nThe shuffle-optimized network dedicates its link budget to the\n"
      "permutation's source/destination pairs — the same effect as the\n"
      "paper's NS ShufOpt topologies in Fig. 10.\n");
  return 0;
}
