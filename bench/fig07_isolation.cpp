// Regenerates paper Fig. 7: isolating NetSmith's topology benefit from its
// routing benefit. Every *large* 20-router topology is simulated under both
// NDBT (the expert heuristic) and MCLB routing, alongside the analytic
// cut-based and occupancy-based saturation bounds.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "api/spec.hpp"
#include "core/plan.hpp"
#include "routing/channel_load.hpp"
#include "sim/sweep.hpp"
#include "topologies/registry.hpp"
#include "util/table.hpp"

using namespace netsmith;

int main() {
  std::printf(
      "NetSmith reproduction — Fig. 7 (topology vs routing isolation, "
      "large 20-router NoIs)\nThroughput in pkt/node/cycle; bounds are "
      "flit-normalized (avg 5 flits/packet).\n\n");

  constexpr double kAvgFlits = 5.0;
  util::TablePrinter table({"topology", "NDBT sat", "MCLB sat", "cut bound",
                            "occupancy bound", "binding"});

  const sim::SimConfig sim_cfg = api::make_sim_config(api::ExperimentSpec{});
  for (const auto& t : topologies::catalog(20)) {
    if (t.link_class != topo::LinkClass::kLarge) continue;

    sim::TrafficConfig traffic;
    traffic.kind = sim::TrafficKind::kCoherence;

    double sat[2] = {0, 0};
    const core::RoutingPolicy pols[2] = {core::RoutingPolicy::kNdbt,
                                         core::RoutingPolicy::kMclb};
    for (int p = 0; p < 2; ++p) {
      const auto plan = core::plan_network(t.graph, t.layout, pols[p], 6);
      const auto sweep = sim::sweep_to_saturation(
          plan, traffic, sim_cfg, topo::clock_ghz(t.link_class), 10);
      sat[p] = sweep.saturation_pkt_node_cycle;
    }

    const double cut = routing::cut_bound(t.graph) / kAvgFlits;
    const double occ = routing::occupancy_bound(t.graph) / kAvgFlits;
    table.add_row({t.name, util::TablePrinter::fmt(sat[0], 4),
                   util::TablePrinter::fmt(sat[1], 4),
                   util::TablePrinter::fmt(cut, 4),
                   util::TablePrinter::fmt(occ, 4),
                   cut < occ ? "cut" : "occupancy"});
  }
  table.print(std::cout);
  std::printf(
      "\nExpected shape (paper Fig. 7): MCLB >= NDBT on every topology, and\n"
      "the measured saturation approaches the tighter bound — cut-limited\n"
      "for expert designs, occupancy-limited for NetSmith topologies. The\n"
      "NS rows still win even when legacy topologies get MCLB routing.\n");
  return 0;
}
