// End-to-end pipeline tests: synthesize -> enumerate paths -> route (MCLB /
// NDBT) -> VC-allocate -> verify deadlock freedom -> simulate.

#include <gtest/gtest.h>

#include "core/anneal.hpp"
#include "core/plan.hpp"
#include "sim/sweep.hpp"
#include "system/workload.hpp"
#include "topo/builders.hpp"
#include "topo/metrics.hpp"
#include "topologies/registry.hpp"
#include "vc/layers.hpp"

namespace netsmith {
namespace {

TEST(Pipeline, SynthesizeRoutePlanSimulate) {
  core::SynthesisConfig cfg;
  cfg.layout = topo::Layout::noi_4x5();
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.objective = core::Objective::kLatOp;
  cfg.max_moves = 50000;  // deterministic and load-insensitive
  cfg.restarts = 1;
  cfg.seed = 31;
  const auto synth = core::anneal_synthesize(cfg);
  ASSERT_TRUE(topo::strongly_connected(synth.graph));

  const auto plan = core::plan_network(synth.graph, cfg.layout,
                                       core::RoutingPolicy::kMclb, 6);
  EXPECT_TRUE(plan.table.consistent_with(synth.graph));
  EXPECT_TRUE(plan.table.is_minimal(synth.graph));
  EXPECT_LE(plan.vc_layers, 6);

  sim::TrafficConfig t;
  t.kind = sim::TrafficKind::kCoherence;
  t.injection_rate = 0.02;
  sim::SimConfig sc;
  sc.warmup = 1500;
  sc.measure = 4000;
  sc.drain = 15000;
  const auto stats = sim::simulate(plan, t, sc);
  EXPECT_EQ(stats.tagged_completed, stats.tagged_injected);
  EXPECT_GT(stats.avg_latency_cycles, 4.0);
  EXPECT_LT(stats.avg_latency_cycles, 60.0);
}

TEST(Pipeline, CatalogTopologiesAreAllSimulatable) {
  // Every catalogued 20-router topology must pass the full deadlock-free
  // planning pipeline under both routing policies.
  for (const auto& t : topologies::catalog(20)) {
    for (const auto pol :
         {core::RoutingPolicy::kMclb, core::RoutingPolicy::kNdbt}) {
      const auto plan = core::plan_network(t.graph, t.layout, pol, 6);
      EXPECT_TRUE(plan.table.consistent_with(t.graph)) << t.name;
      EXPECT_LE(plan.vc_layers, 6) << t.name;
    }
  }
}

TEST(Pipeline, MclbLoadNeverAboveNdbt) {
  // The point of MCLB: lower max channel load than the heuristic policy on
  // the same topology (equal at worst).
  const auto t = topologies::find(topologies::catalog(20), "Kite-large");
  const auto mclb =
      core::plan_network(t.graph, t.layout, core::RoutingPolicy::kMclb, 6);
  const auto ndbt =
      core::plan_network(t.graph, t.layout, core::RoutingPolicy::kNdbt, 6);
  EXPECT_LE(mclb.max_channel_load, ndbt.max_channel_load + 1e-9);
}

TEST(Pipeline, FullSystemWorkloadRuns) {
  const auto lay = topo::Layout::noi_4x5();
  const auto noi = topo::build_folded_torus(lay);
  const auto sys = system::build_chiplet_system(noi, lay);
  const auto plan = core::plan_network(sys.graph, lay /*unused by MCLB*/,
                                       core::RoutingPolicy::kMclb, 8);
  sim::SimConfig sc;
  sc.num_vcs = 8;
  sc.warmup = 1000;
  sc.measure = 3000;
  sc.drain = 12000;
  const auto r = system::run_workload(sys, plan, {"canneal", 9.0},
                                      system::PerfModel{}, sc);
  EXPECT_GT(r.avg_packet_latency_cycles, 5.0);
  EXPECT_GT(r.cpi, 1.0);
}

TEST(Pipeline, HigherMpkiMeansHigherCpi) {
  const auto lay = topo::Layout::noi_4x5();
  const auto sys = system::build_chiplet_system(topo::build_folded_torus(lay), lay);
  const auto plan =
      core::plan_network(sys.graph, lay, core::RoutingPolicy::kMclb, 8);
  sim::SimConfig sc;
  sc.num_vcs = 8;
  sc.warmup = 1000;
  sc.measure = 3000;
  sc.drain = 12000;
  const auto light = system::run_workload(sys, plan, {"blackscholes", 0.08},
                                          system::PerfModel{}, sc);
  const auto heavy = system::run_workload(sys, plan, {"canneal", 9.0},
                                          system::PerfModel{}, sc);
  EXPECT_GT(heavy.cpi, light.cpi);
}

TEST(Pipeline, NsTopologyOutperformsMeshLatency) {
  // The Fig. 8 mechanism in miniature: NS topology yields lower packet
  // latency than mesh on the same traffic.
  const auto lay = topo::Layout::noi_4x5();
  const auto cat = topologies::catalog(20);
  const auto ns = topologies::find(cat, "NS-LatOp-medium-20");

  sim::TrafficConfig t;
  t.kind = sim::TrafficKind::kCoherence;
  t.injection_rate = 0.03;
  sim::SimConfig sc;
  sc.warmup = 1500;
  sc.measure = 5000;
  sc.drain = 15000;

  const auto mesh_plan = core::plan_network(topo::build_mesh(lay), lay,
                                            core::RoutingPolicy::kMclb, 6);
  const auto ns_plan =
      core::plan_network(ns.graph, lay, core::RoutingPolicy::kMclb, 6);
  const auto mesh_stats = sim::simulate(mesh_plan, t, sc);
  const auto ns_stats = sim::simulate(ns_plan, t, sc);
  EXPECT_LT(ns_stats.avg_latency_cycles, mesh_stats.avg_latency_cycles);
}

}  // namespace
}  // namespace netsmith
