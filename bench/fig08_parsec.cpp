// Regenerates paper Fig. 8: PARSEC execution-time speedup and packet-latency
// reduction relative to the mesh NoI, for the small/medium/large topology
// groups over the 64-core, 4-chiplet full system (see DESIGN.md for the
// PARSEC-substitute workload model).

#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "api/study.hpp"
#include "core/plan.hpp"
#include "system/workload.hpp"
#include "topo/builders.hpp"
#include "topologies/registry.hpp"
#include "util/table.hpp"

using namespace netsmith;

int main() {
  const auto lay = topo::Layout::noi_4x5();
  const auto cat = topologies::catalog(20);

  // One representative per class group, as the paper plots grouped bars.
  const std::vector<std::pair<std::string, std::string>> entries = {
      {"Kite-small", "small"},        {"NS-LatOp-small-20", "small"},
      {"FoldedTorus", "medium"},      {"Kite-medium", "medium"},
      {"NS-LatOp-medium-20", "medium"}, {"NS-SCOp-medium-20", "medium"},
      {"Kite-large", "large"},        {"NS-LatOp-large-20", "large"},
  };

  sim::SimConfig sc;
  sc.num_vcs = 8;
  sc.warmup = 1500;
  sc.measure = 4000;
  sc.drain = 16000;

  const system::PerfModel model;

  // Baseline: mesh NoI.
  const auto mesh_sys = system::build_chiplet_system(topo::build_mesh(lay), lay);
  const auto mesh_plan = core::plan_network(mesh_sys.graph, lay,
                                            core::RoutingPolicy::kMclb, 8, 7, 8);

  std::printf(
      "NetSmith reproduction — Fig. 8 (PARSEC speedup + packet-latency "
      "reduction vs mesh)\nBenchmarks ascend in L2 MPKI, as on the paper's "
      "X-axis.\n\n");

  std::map<std::string, std::vector<double>> mesh_lat, mesh_cpi;
  for (const auto& bench : system::parsec_benchmarks()) {
    const auto r = system::run_workload(mesh_sys, mesh_plan, bench, model, sc);
    mesh_lat[bench.name] = {r.avg_packet_latency_cycles};
    mesh_cpi[bench.name] = {r.cpi};
  }

  for (const auto& [name, group] : entries) {
    const auto t = topologies::find(cat, name);
    const auto sys = system::build_chiplet_system(t.graph, lay);
    const auto plan = core::plan_network(sys.graph, lay,
                                         api::paper_policy(t), 8, 7, 8);
    util::TablePrinter table(
        {"benchmark", "MPKI", "speedup vs mesh", "pkt-latency reduction %"});
    double geo = 1.0;
    int count = 0;
    for (const auto& bench : system::parsec_benchmarks()) {
      const auto r = system::run_workload(sys, plan, bench, model, sc);
      const double speedup = mesh_cpi[bench.name][0] / r.cpi;
      const double red = (1.0 - r.avg_packet_latency_cycles /
                                    mesh_lat[bench.name][0]) *
                         100.0;
      geo *= speedup;
      ++count;
      table.add_row({bench.name, util::TablePrinter::fmt(bench.mpki, 2),
                     util::TablePrinter::fmt(speedup, 4),
                     util::TablePrinter::fmt(red, 1)});
    }
    std::printf("-- %s (%s group) --\n", name.c_str(), group.c_str());
    table.print(std::cout);
    std::printf("geomean speedup: %.4f\n\n",
                count ? std::pow(geo, 1.0 / count) : 1.0);
  }

  std::printf(
      "Expected shape: latency reductions are universal; speedups grow with\n"
      "MPKI; NS rows post the largest reductions in every group.\n");
  return 0;
}
