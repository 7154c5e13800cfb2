// Reference-vs-optimized simulator equivalence: the activity-driven event
// loop (active router set, route-position flits, heap-scheduled injection)
// must produce bit-identical SimStats to the full per-cycle scan for the same
// seed — across every TrafficKind, several topologies and seeds, and on both
// sides of the saturation knee.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/objective.hpp"
#include "fault/model.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "topo/builders.hpp"
#include "topologies/registry.hpp"
#include "sim_digest.hpp"

namespace netsmith::sim {
namespace {

void expect_identical(const SimStats& ref, const SimStats& opt) {
  EXPECT_EQ(ref.total_injected, opt.total_injected);
  EXPECT_EQ(ref.total_ejected, opt.total_ejected);
  EXPECT_EQ(ref.tagged_injected, opt.tagged_injected);
  EXPECT_EQ(ref.tagged_completed, opt.tagged_completed);
  EXPECT_EQ(ref.cycles_run, opt.cycles_run);
  EXPECT_EQ(ref.saturated, opt.saturated);
  EXPECT_EQ(ref.flits_injected, opt.flits_injected);
  EXPECT_EQ(ref.flits_ejected, opt.flits_ejected);
  EXPECT_EQ(ref.flits_buffered_end, opt.flits_buffered_end);
  EXPECT_EQ(ref.flits_inflight_end, opt.flits_inflight_end);
  EXPECT_EQ(ref.source_flits_end, opt.source_flits_end);
  EXPECT_EQ(ref.credits_consistent, opt.credits_consistent);
  EXPECT_EQ(ref.owners_clear, opt.owners_clear);
  // Activity counters: the reference pre-scan and the optimized active-set
  // popcount must count exactly the same routers every cycle, and arrival
  // deliveries share one heap-driven code path.
  EXPECT_EQ(ref.active_router_cycles, opt.active_router_cycles);
  EXPECT_EQ(ref.arrival_heap_pops, opt.arrival_heap_pops);
  // Fault accounting: zero/identity on these fault-free runs, and identical
  // between modes either way.
  EXPECT_EQ(ref.flits_dropped, opt.flits_dropped);
  EXPECT_EQ(ref.packets_dropped, opt.packets_dropped);
  EXPECT_EQ(ref.tagged_dropped, opt.tagged_dropped);
  EXPECT_EQ(ref.packets_unroutable, opt.packets_unroutable);
  EXPECT_DOUBLE_EQ(ref.delivered_fraction, opt.delivered_fraction);
  EXPECT_DOUBLE_EQ(ref.latency_p50_cycles, opt.latency_p50_cycles);
  EXPECT_DOUBLE_EQ(ref.latency_p99_cycles, opt.latency_p99_cycles);
  // Same integer event history implies the exact same arithmetic.
  EXPECT_DOUBLE_EQ(ref.accepted, opt.accepted);
  EXPECT_DOUBLE_EQ(ref.avg_latency_cycles, opt.avg_latency_cycles);
  EXPECT_DOUBLE_EQ(ref.mean_source_backlog, opt.mean_source_backlog);
}

void run_both(const core::NetworkPlan& plan, const TrafficConfig& traffic,
              SimConfig cfg) {
  cfg.reference_mode = true;
  const auto ref = simulate(plan, traffic, cfg);
  cfg.reference_mode = false;
  const auto opt = simulate(plan, traffic, cfg);
  expect_identical(ref, opt);
  // Guard against vacuous equivalence (both empty).
  EXPECT_GT(ref.total_injected, 0);
  EXPECT_GT(ref.active_router_cycles, 0);
  EXPECT_GT(ref.arrival_heap_pops, 0);
}

core::NetworkPlan plan_for(const topo::DiGraph& g, const topo::Layout& lay) {
  return core::plan_network(g, lay, core::RoutingPolicy::kMclb, /*num_vcs=*/6);
}

// Per-edge extra delays from 0 to 5 cycles, spread unevenly over the links,
// so channel latencies differ and arrival times interleave across channels.
util::Matrix<int> hetero_delays(int n) {
  util::Matrix<int> d(n, n, 0);
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v) d(u, v) = (3 * u + 5 * v) % 6;
  return d;
}

SimConfig quick_cfg(std::uint64_t seed) {
  SimConfig cfg;
  cfg.warmup = 1000;
  cfg.measure = 3000;
  cfg.drain = 12000;
  cfg.seed = seed;
  return cfg;
}

TEST(SimEquivalence, CoherenceAcrossTopologiesAndSeeds) {
  const auto lay = topo::Layout::noi_4x5();
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.03;
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    run_both(plan_for(topo::build_folded_torus(lay), lay), t, quick_cfg(seed));
    run_both(plan_for(topo::build_mesh(lay), lay), t, quick_cfg(seed));
  }
}

TEST(SimEquivalence, MemoryRequestReply) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kMemory;
  t.mc_nodes = mc_nodes(lay);
  t.injection_rate = 0.01;
  run_both(plan, t, quick_cfg(5));
}

TEST(SimEquivalence, ShuffleTraffic) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kShuffle;
  t.injection_rate = 0.02;
  run_both(plan, t, quick_cfg(11));
}

TEST(SimEquivalence, CustomPatternTraffic) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  const auto traffic =
      traffic_from_pattern(core::tornado_pattern(20), /*injection_rate=*/0.02);
  run_both(plan, traffic, quick_cfg(13));
}

TEST(SimEquivalence, SaturatedPoint) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_mesh(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.6;  // far past the knee
  auto cfg = quick_cfg(3);
  cfg.drain = 3000;
  cfg.reference_mode = true;
  const auto ref = simulate(plan, t, cfg);
  cfg.reference_mode = false;
  const auto opt = simulate(plan, t, cfg);
  EXPECT_TRUE(ref.saturated);
  expect_identical(ref, opt);
}

TEST(SimEquivalence, NdbtRoutingAndNarrowIo) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = core::plan_network(topo::build_folded_torus(lay), lay,
                                       core::RoutingPolicy::kNdbt, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.03;
  auto cfg = quick_cfg(29);
  cfg.io_flits_per_cycle = 1;
  run_both(plan, t, cfg);
}

TEST(SimEquivalence, TinyBuffersAndExtraDelay) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.04;
  auto cfg = quick_cfg(17);
  cfg.buf_flits = 2;
  cfg.extra_edge_delay = util::Matrix<int>(20, 20, 2);
  run_both(plan, t, cfg);
}

TEST(SimEquivalence, HeterogeneousLinkDelays) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.05;
  auto cfg = quick_cfg(19);
  cfg.extra_edge_delay = hetero_delays(20);
  run_both(plan, t, cfg);
}

// (in_degree + 1) * num_vcs > 64 at the mesh's interior routers, so they take
// the plain-scan arbitration path while the 3-input corners keep the masks.
TEST(SimEquivalence, WideSlotSpaceFallsBackToPlainScan) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_mesh(lay), lay);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = 0.05;
  auto cfg = quick_cfg(23);
  cfg.num_vcs = 16;
  run_both(plan, t, cfg);
}

// Golden digests of every SimStats field, recorded on the heap-scheduled,
// single-occupancy-mask simulator. The reference mode shares the arrival
// path with the optimized one, so only recorded values can catch a change
// in delivery order.
TEST(SimGolden, DigestsMatchRecordedRuns) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = plan_for(topo::build_folded_torus(lay), lay);
  TrafficConfig coherence;
  coherence.kind = TrafficKind::kCoherence;
  coherence.injection_rate = 0.04;
  TrafficConfig memory;
  memory.kind = TrafficKind::kMemory;
  memory.mc_nodes = mc_nodes(lay);
  memory.injection_rate = 0.01;
  auto hetero = quick_cfg(19);
  hetero.extra_edge_delay = hetero_delays(20);
  const struct {
    const char* name;
    TrafficConfig traffic;
    SimConfig cfg;
    std::uint64_t digest;
  } cases[] = {
      {"coherence", coherence, quick_cfg(7), 0xc4c1ceaa7fbb4cefull},
      {"memory", memory, quick_cfg(5), 0xce8948935a0252aeull},
      {"hetero-delay", coherence, hetero, 0x812172c7d98439efull},
  };
  for (const auto& c : cases)
    for (const bool reference : {false, true}) {
      SimConfig cfg = c.cfg;
      cfg.reference_mode = reference;
      EXPECT_EQ(testing::stats_digest(simulate(plan, c.traffic, cfg)), c.digest)
          << c.name << (reference ? " (reference)" : "");
    }
}

// The same digests at 48 routers, on a catalog MCLB plan: a coherence point
// past the knee, memory request/reply traffic, and a lossless targeted cut
// with repair and recovery, so packets route by a repaired epoch table.
// Recorded on the simulator that routed each grant with
// RoutingTable::next_hop, before flits carried their route position.
TEST(SimGolden, FortyEightRouterDigestsMatchRecordedRuns) {
  const auto t =
      topologies::find(topologies::catalog(48), "Kite-like-medium-48");
  const auto plan = plan_for(t.graph, t.layout);
  TrafficConfig coherence;
  coherence.kind = TrafficKind::kCoherence;
  coherence.injection_rate = 0.2;
  TrafficConfig memory;
  memory.kind = TrafficKind::kMemory;
  memory.mc_nodes = mc_nodes(t.layout);
  memory.injection_rate = 0.02;
  SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 1500;
  cfg.drain = 4000;
  cfg.seed = 31;
  fault::FaultScenarioSpec cut;
  cut.mode = "targeted";
  cut.k = 2;
  cut.fail_at = 600;
  cut.recover_at = 1800;
  cut.lossy = false;
  cut.repair = true;
  const auto fp = fault::prepare_fault_plan(
      plan, cut, cfg.warmup + cfg.measure + cfg.drain);
  ASSERT_EQ(fp.epochs.size(), 3u);
  ASSERT_TRUE(fp.epochs[1].repaired);
  SimConfig faulted = cfg;
  faulted.faults = &fp;
  TrafficConfig light = coherence;
  light.injection_rate = 0.03;
  const struct {
    const char* name;
    TrafficConfig traffic;
    SimConfig cfg;
    std::uint64_t digest;
  } cases[] = {
      {"coherence-saturated", coherence, cfg, 0xb96b04682ddfd451ull},
      {"memory", memory, cfg, 0x0bde834e87984649ull},
      {"repaired-cut", light, faulted, 0x2ba3d69bd2b5f065ull},
  };
  for (const auto& c : cases)
    for (const bool reference : {false, true}) {
      SimConfig run = c.cfg;
      run.reference_mode = reference;
      const SimStats s = simulate(plan, c.traffic, run);
      EXPECT_EQ(testing::stats_digest(s), c.digest)
          << c.name << (reference ? " (reference)" : "") << std::hex
          << " got 0x" << testing::stats_digest(s);
      EXPECT_GT(s.total_ejected, 0) << c.name;
      if (c.traffic.injection_rate == coherence.injection_rate)
        EXPECT_TRUE(s.saturated) << c.name;
    }
}

}  // namespace
}  // namespace netsmith::sim
