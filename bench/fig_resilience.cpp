// Resilience figure: graceful degradation under adversarial link failures.
//
// Sweeps k in {0, 1, 2, 4, 8} failed duplex links (targeted mode: the k
// most-loaded links go down permanently, route repair on) over the 48-router
// synthesized NoI and the scalable parametric baselines
// (Dragonfly/CMesh/HammingMesh), and reports the saturation throughput
// retained relative to each topology's fault-free (k = 0) arm plus the worst
// delivered fraction across the sweep.
//
// The declarative route: one ExperimentSpec with five fault scenarios; the
// Study runner shares the topology/plan artifacts across all arms, and
// resilience sweeps run with adaptive truncation off, so the emitted numbers
// are byte-reproducible across thread counts and OpenMP widths.

#include <cstdio>
#include <iostream>
#include <map>

#include "api/study.hpp"
#include "obs/clock.hpp"
#include "util/table.hpp"

using namespace netsmith;

int main() {
  std::printf(
      "NetSmith reproduction — resilience under targeted link failures\n"
      "48-router medium class: NS-LatOp vs Dragonfly/CMesh/HammingMesh,\n"
      "k most-loaded duplex links failed permanently, MCLB route repair on.\n\n");

  api::ExperimentSpec spec;
  spec.name = "fig_resilience";
  api::TopologySpec ns;
  ns.source = api::TopologySource::kCatalog;
  ns.catalog_routers = 48;
  ns.name = "NS-LatOp-medium-48";
  api::TopologySpec df, cm, hm;
  df.source = api::TopologySource::kBaseline;
  df.baseline = "dragonfly:routers=48";
  cm.source = api::TopologySource::kBaseline;
  cm.baseline = "cmesh:routers=48";
  hm.source = api::TopologySource::kBaseline;
  hm.baseline = "hammingmesh:routers=48";
  spec.topologies = {ns, df, cm, hm};
  spec.analytic = false;
  spec.max_paths_per_flow = 24;
  spec.traffic = {api::TrafficSpec{"coherence", "coherence"}};
  spec.sweep.points = 6;
  spec.sweep.adaptive = false;  // resilience arms force this anyway

  // k = 0 is the fault-free control (an empty schedule: the simulator takes
  // the untouched hot path); the others fail the top-k loaded duplex links
  // at cycle 0, so every arm measures steady degraded state.
  for (const int k : {0, 1, 2, 4, 8}) {
    fault::FaultScenarioSpec sc;
    sc.name = "k" + std::to_string(k);
    sc.mode = "targeted";
    sc.k = k;
    sc.fail_at = 0;
    sc.repair = true;
    spec.faults.push_back(sc);
  }

  util::TablePrinter table({"topology", "k", "links down", "rerouted",
                            "unroutable", "sat (pkt/node/ns)", "retained",
                            "min delivered"});
  obs::WallTimer timer;
  const api::Report report = api::run_experiment(spec);

  // Fault-free saturation per plan row (the k=0 arm) for the retained ratio.
  std::map<int, double> k0_sat;
  for (const auto& r : report.resilience)
    if (r.scenario == "k0") k0_sat[r.plan] = r.saturation_pkt_node_ns;

  for (const auto& r : report.resilience) {
    const auto& t = report.topologies[report.plans[r.plan].topology];
    double min_delivered = 1.0;
    for (const auto& pt : r.points)
      if (pt.delivered_fraction < min_delivered)
        min_delivered = pt.delivered_fraction;
    const double base = k0_sat[r.plan];
    table.add_row(
        {t.name, r.scenario.substr(1), std::to_string(r.links_down / 2),
         std::to_string(r.flows_rerouted), std::to_string(r.flows_unroutable),
         util::TablePrinter::fmt(r.saturation_pkt_node_ns, 4),
         base > 0.0 ? util::TablePrinter::fmt(r.saturation_pkt_node_ns / base,
                                              3)
                    : "-",
         util::TablePrinter::fmt(min_delivered, 4)});
  }
  table.print(std::cout);
  std::fprintf(stderr, "[%.1f s of fixed-window sweeps via the Study API]\n",
               timer.seconds());
  std::printf(
      "\nExpected shape: saturation degrades gracefully with k on the\n"
      "path-diverse NS topology (repair absorbs single cuts almost fully),\n"
      "while low-diversity baselines shed proportionally more throughput;\n"
      "delivered fraction stays 1.0 everywhere because failures here are\n"
      "lossless and repaired.\n");
  return 0;
}
