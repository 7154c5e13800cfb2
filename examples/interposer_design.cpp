// Interposer design study: compare a NetSmith-generated topology against the
// expert-designed Folded Torus on the same 4x5 interposer, end to end —
// routing, deadlock-free VC allocation, and flit-level simulation.
//
// Build & run:  ./build/examples/interposer_design

#include <cstdio>
#include <iostream>

#include "core/plan.hpp"
#include "sim/sweep.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"
#include "topologies/registry.hpp"
#include "util/table.hpp"

using namespace netsmith;

namespace {

void study(const std::string& name, const topo::DiGraph& g,
           const topo::Layout& lay, double clock, util::TablePrinter* table) {
  const auto plan = core::plan_network(g, lay, core::RoutingPolicy::kMclb, 6);

  sim::TrafficConfig traffic;
  traffic.kind = sim::TrafficKind::kCoherence;
  sim::SimConfig cfg;
  cfg.warmup = 2000;
  cfg.measure = 6000;
  cfg.drain = 20000;

  const auto sweep = sim::sweep_to_saturation(plan, traffic, cfg, clock, 10);
  table->add_row({name, util::TablePrinter::fmt(topo::average_hops(g), 3),
                  std::to_string(topo::bisection_bandwidth(g)),
                  util::TablePrinter::fmt(plan.max_channel_load, 3),
                  std::to_string(plan.vc_layers),
                  util::TablePrinter::fmt(sweep.zero_load_latency_ns, 2),
                  util::TablePrinter::fmt(sweep.saturation_pkt_node_ns, 4)});
}

}  // namespace

int main() {
  const auto lay = topo::Layout::noi_4x5();
  const double clock = topo::clock_ghz(topo::LinkClass::kMedium);

  std::printf("Interposer design study: medium-class 4x5 NoI at %.1f GHz\n\n",
              clock);

  util::TablePrinter table({"topology", "avg hops", "bisBW", "max load",
                            "VC layers", "latency@0 (ns)", "sat (pkt/node/ns)"});

  study("FoldedTorus", topo::build_folded_torus(lay), lay, clock, &table);

  const auto cat = topologies::catalog(20);
  study("NS-LatOp", topologies::find(cat, "NS-LatOp-medium-20").graph, lay,
        clock, &table);
  study("NS-SCOp", topologies::find(cat, "NS-SCOp-medium-20").graph, lay,
        clock, &table);

  table.print(std::cout);
  std::printf(
      "\nNS topologies trade regularity for measurably lower latency and a\n"
      "higher saturation point; deadlock freedom is preserved by layered VC\n"
      "allocation (see the VC-layers column).\n");
  return 0;
}
