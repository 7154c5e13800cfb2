// Regenerates paper Fig. 10: the shuffle traffic pattern on the 20-router
// NoIs, including the pattern-optimized NS-ShufOpt topologies, which should
// outperform everything else under shuffle.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "api/study.hpp"
#include "core/objective.hpp"
#include "core/plan.hpp"
#include "obs/clock.hpp"
#include "routing/channel_load.hpp"
#include "sim/sweep.hpp"
#include "topologies/expert.hpp"
#include "topologies/registry.hpp"
#include "util/table.hpp"

using namespace netsmith;

int main() {
  std::printf(
      "NetSmith reproduction — Fig. 10 (shuffle traffic, 20-router NoIs)\n\n");
  obs::WallTimer timer;

  util::TablePrinter table({"class", "topology", "lat@0 (ns)",
                            "saturation (pkt/node/ns)"});

  const sim::SimConfig sim_cfg = api::make_sim_config(api::ExperimentSpec{});
  auto run = [&](const topologies::NamedTopology& t) {
    const auto plan =
        core::plan_network(t.graph, t.layout, api::paper_policy(t), 6);
    sim::TrafficConfig traffic;
    traffic.kind = sim::TrafficKind::kShuffle;
    // Shuffle-specific offered-rate ceiling: the uniform channel-load bound
    // is meaningless for a permutation pattern.
    const auto load = routing::analyze_pattern(
        plan.table, core::shuffle_pattern(t.layout.n()));
    const double avg_flits = 5.0;
    const double ceiling =
        load.max_load > 0 ? 1.6 / (load.max_load * avg_flits) : 0.0;
    const auto sweep =
        sim::sweep_to_saturation(plan, traffic, sim_cfg,
                                 topo::clock_ghz(t.link_class), 10,
                                 std::min(0.9, ceiling));
    table.add_row({topo::to_string(t.link_class), t.name,
                   util::TablePrinter::fmt(sweep.zero_load_latency_ns, 2),
                   util::TablePrinter::fmt(sweep.saturation_pkt_node_ns, 4)});
  };

  const auto cat = topologies::catalog(20);
  for (const auto& t : cat) run(t);

  // The pattern-optimized topologies (solved against the shuffle matrix).
  for (const auto cls : {topo::LinkClass::kSmall, topo::LinkClass::kMedium,
                         topo::LinkClass::kLarge}) {
    topologies::NamedTopology t;
    t.name = "NS-ShufOpt-" + topo::to_string(cls) + "-20";
    t.layout = topo::Layout::noi_4x5();
    t.link_class = cls;
    t.graph = topologies::frozen(t.name);
    t.machine_generated = t.is_netsmith = true;
    run(t);
  }

  table.print(std::cout);
  std::fprintf(stderr, "[%.1f s of adaptive sweeps]\n", timer.seconds());
  std::printf(
      "\nExpected shape (paper Fig. 10): topologies optimized for uniform\n"
      "random vary in shuffle performance; the NS-ShufOpt rows beat every\n"
      "other topology in their class under this pattern.\n");
  return 0;
}
