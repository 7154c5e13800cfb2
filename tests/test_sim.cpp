#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "topo/builders.hpp"
#include "topo/metrics.hpp"
#include "vc/layers.hpp"

namespace netsmith::sim {
namespace {

core::NetworkPlan plan_for(const topo::DiGraph& g, const topo::Layout& lay,
                           core::RoutingPolicy pol = core::RoutingPolicy::kMclb) {
  return core::plan_network(g, lay, pol, /*num_vcs=*/6);
}

SimConfig quick_cfg() {
  SimConfig cfg;
  cfg.warmup = 2000;
  cfg.measure = 6000;
  cfg.drain = 20000;
  cfg.seed = 3;
  return cfg;
}

TEST(Sim, ConservationAtLowLoad) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.01;
  const auto s = simulate(plan, t, quick_cfg());
  EXPECT_GT(s.total_injected, 0);
  // All tagged packets must drain at this trivial load.
  EXPECT_EQ(s.tagged_completed, s.tagged_injected);
  EXPECT_FALSE(s.saturated);
}

TEST(Sim, ZeroLoadLatencyNearHopModel) {
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_folded_torus(lay);
  const auto plan = plan_for(g, lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.001;
  t.data_fraction = 0.0;  // 1-flit packets only: no serialization term
  const auto s = simulate(plan, t, quick_cfg());
  // Per hop: 2-cycle router + 1-cycle link; ~avg 2.32 hops + eject cycle.
  const double hop_model = topo::average_hops(g) * 3.0;
  EXPECT_GT(s.avg_latency_cycles, hop_model * 0.8);
  EXPECT_LT(s.avg_latency_cycles, hop_model + 6.0);
}

TEST(Sim, LatencyIncreasesWithLoad) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  double last = 0.0;
  for (const double rate : {0.005, 0.03, 0.06}) {
    t.injection_rate = rate;
    const auto s = simulate(plan, t, quick_cfg());
    EXPECT_GE(s.avg_latency_cycles, last - 1.0) << "rate " << rate;
    last = s.avg_latency_cycles;
  }
}

TEST(Sim, SaturatesAtAbsurdRate) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_mesh(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.9;  // way past any bound
  auto cfg = quick_cfg();
  cfg.drain = 4000;
  const auto s = simulate(plan, t, cfg);
  EXPECT_TRUE(s.saturated);
  // Accepted throughput is bounded well below offered.
  EXPECT_LT(s.accepted, 0.5);
}

TEST(Sim, AcceptedTracksOfferedBelowSaturation) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.02;
  const auto s = simulate(plan, t, quick_cfg());
  EXPECT_NEAR(s.accepted, 0.02, 0.004);
}

TEST(Sim, MemoryTrafficGeneratesReplies) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kMemory;
  t.mc_nodes = mc_nodes(lay);
  t.injection_rate = 0.005;
  const auto s = simulate(plan, t, quick_cfg());
  // Replies double the packet count relative to requests.
  EXPECT_GT(s.total_ejected, 0);
  EXPECT_EQ(s.tagged_completed, s.tagged_injected);
  EXPECT_GT(s.tagged_injected, 0);
}

TEST(Sim, DeterministicForSeed) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.03;
  const auto a = simulate(plan, t, quick_cfg());
  const auto b = simulate(plan, t, quick_cfg());
  EXPECT_EQ(a.total_injected, b.total_injected);
  EXPECT_EQ(a.tagged_completed, b.tagged_completed);
  EXPECT_DOUBLE_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
}

TEST(Sim, ShuffleTrafficRuns) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kShuffle;
  t.injection_rate = 0.02;
  const auto s = simulate(plan, t, quick_cfg());
  EXPECT_GT(s.total_injected, 0);
  EXPECT_EQ(s.tagged_completed, s.tagged_injected);
}

TEST(Sim, NdbtPlanAlsoRuns) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan =
      plan_for(topo::build_folded_torus(lay), lay, core::RoutingPolicy::kNdbt);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.02;
  const auto s = simulate(plan, t, quick_cfg());
  EXPECT_EQ(s.tagged_completed, s.tagged_injected);
}

TEST(Sim, ExtraEdgeDelayIncreasesLatency) {
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_folded_torus(lay);
  const auto plan = plan_for(g, lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.005;
  auto cfg = quick_cfg();
  const auto base = simulate(plan, t, cfg);
  cfg.extra_edge_delay = util::Matrix<int>(20, 20, 3);
  const auto slowed = simulate(plan, t, cfg);
  EXPECT_GT(slowed.avg_latency_cycles, base.avg_latency_cycles + 2.0);
}

TEST(Sim, VcLayeringVerifiedDeadlockFree) {
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_folded_torus(lay);
  const auto plan = plan_for(g, lay);
  // The plan the simulator trusts must indeed be acyclic per layer.
  vc::VcAssignment a;
  a.num_layers = plan.vc_layers;
  a.layer.assign(20 * 20, -1);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      if (s == d) continue;
      const int vcid = plan.vc_map.vc[s * 20 + d];
      a.layer[s * 20 + d] = plan.vc_map.layer_of_vc[vcid];
    }
  EXPECT_TRUE(vc::verify_acyclic(a, plan.table, g));
}

// A route the simulator cannot follow is rejected on its flow's first packet
// instead of head-of-line blocking its source for the rest of the run.
// 0 and 6 are diagonal neighbours on the 4x5 mesh (no link); 0-1, 0-5, 1-6
// and 5-6 are links.
TEST(Sim, MalformedRoutesThrowNamingFlowAndHop) {
  const auto lay = topo::Layout::noi_4x5();
  const auto base = plan_for(topo::build_mesh(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.05;
  const struct {
    std::vector<int> route;
    const char* what;
  } cases[] = {
      {{0, 6}, "invalid at hop 0: no link 0 -> 6"},
      {{}, "invalid at hop 0: the route is empty"},
      {{1, 6}, "invalid at hop 0: starts at router 1"},
      {{0, 1}, "invalid at hop 1: ends at router 1"},
      {{0, 1, 0, 5, 6}, "invalid at hop 2: revisits router 0"},
  };
  for (const auto& c : cases)
    for (const bool reference : {false, true}) {
      auto plan = base;
      plan.table.set_path(0, 6, c.route);
      SimConfig cfg = quick_cfg();
      cfg.reference_mode = reference;
      try {
        simulate(plan, t, cfg);
        ADD_FAILURE() << c.what << ": no throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(
                      std::string("route of flow 0 -> 6 is ") + c.what),
                  std::string::npos)
            << e.what();
      }
    }
  // Through a sweep, whose points run inside an OpenMP region.
  auto plan = base;
  plan.table.set_path(0, 6, std::vector<int>{0, 6});
  SweepOptions fixed;
  fixed.adaptive = false;
  for (const SweepOptions& opt : {SweepOptions{}, fixed})
    EXPECT_THROW(sweep_to_saturation(plan, t, quick_cfg(), 3.0, 4, 0.0, opt),
                 std::invalid_argument);
}

}  // namespace
}  // namespace netsmith::sim
