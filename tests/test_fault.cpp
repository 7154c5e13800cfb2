// Fault injection & graceful degradation (fault/model.hpp, routing/repair.hpp,
// the simulator's fault semantics, and the Study resilience pipeline):
//  - the fault-free hot path is bit-identical with and without an (empty)
//    fault plan attached,
//  - schedules are deterministic functions of the scenario,
//  - repair reroutes every severable flow and counts the unroutable rest,
//  - conservation holds under both degradation contracts: lossless strands
//    (injected == ejected after recovery + drain) and lossy drops
//    (injected == ejected + dropped), in reference and optimized modes,
//  - resilience reports are byte-identical across Study thread widths, and
//    failed jobs degrade the report instead of aborting the study.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/report.hpp"
#include "api/study.hpp"
#include "fault/model.hpp"
#include "routing/repair.hpp"
#include "sim/network.hpp"
#include "topo/builders.hpp"
#include "sim_digest.hpp"

namespace netsmith {
namespace {

using fault::FaultEvent;
using fault::FaultEventKind;
using fault::FaultScenarioSpec;
using sim::SimConfig;
using sim::SimStats;
using sim::TrafficConfig;
using sim::TrafficKind;

core::NetworkPlan mesh_plan(int rows = 3, int cols = 4) {
  const topo::Layout lay{rows, cols, 2.0};
  return core::plan_network(topo::build_mesh(lay), lay,
                            core::RoutingPolicy::kMclb, /*num_vcs=*/6);
}

TrafficConfig coherence(double rate) {
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = rate;
  return t;
}

SimConfig base_cfg(std::uint64_t seed = 21) {
  SimConfig cfg;
  cfg.warmup = 1000;
  cfg.measure = 3000;
  cfg.drain = 30000;
  cfg.seed = seed;
  return cfg;
}

long horizon(const SimConfig& cfg) {
  return cfg.warmup + cfg.measure + cfg.drain;
}

// Every SimStats field. Doubles compare exactly: identical integer event
// histories imply the exact same arithmetic.
void expect_stats_equal(const SimStats& a, const SimStats& b) {
  EXPECT_DOUBLE_EQ(a.offered, b.offered);
  EXPECT_DOUBLE_EQ(a.accepted, b.accepted);
  EXPECT_DOUBLE_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
  EXPECT_EQ(a.tagged_injected, b.tagged_injected);
  EXPECT_EQ(a.tagged_completed, b.tagged_completed);
  EXPECT_EQ(a.total_injected, b.total_injected);
  EXPECT_EQ(a.total_ejected, b.total_ejected);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_DOUBLE_EQ(a.mean_source_backlog, b.mean_source_backlog);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.flits_buffered_end, b.flits_buffered_end);
  EXPECT_EQ(a.flits_inflight_end, b.flits_inflight_end);
  EXPECT_EQ(a.source_flits_end, b.source_flits_end);
  EXPECT_EQ(a.credits_consistent, b.credits_consistent);
  EXPECT_EQ(a.owners_clear, b.owners_clear);
  EXPECT_EQ(a.active_router_cycles, b.active_router_cycles);
  EXPECT_EQ(a.arrival_heap_pops, b.arrival_heap_pops);
  EXPECT_EQ(a.flits_dropped, b.flits_dropped);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.tagged_dropped, b.tagged_dropped);
  EXPECT_EQ(a.packets_unroutable, b.packets_unroutable);
  EXPECT_DOUBLE_EQ(a.latency_p50_cycles, b.latency_p50_cycles);
  EXPECT_DOUBLE_EQ(a.latency_p99_cycles, b.latency_p99_cycles);
  EXPECT_DOUBLE_EQ(a.delivered_fraction, b.delivered_fraction);
}

// Conservation with the fault term; quiesced additionally demands a fully
// drained network.
void expect_fault_conservation(const SimStats& s) {
  EXPECT_EQ(s.flits_injected, s.flits_ejected + s.flits_dropped +
                                  s.flits_buffered_end + s.flits_inflight_end);
  EXPECT_TRUE(s.credits_consistent);
}

void expect_quiesced(const SimStats& s) {
  expect_fault_conservation(s);
  EXPECT_EQ(s.flits_buffered_end, 0);
  EXPECT_EQ(s.flits_inflight_end, 0);
  EXPECT_EQ(s.source_flits_end, 0);
  EXPECT_TRUE(s.owners_clear);
  EXPECT_GT(s.flits_injected, 0);
}

// Runs the same faulted simulation in reference and optimized modes and
// checks both produce the exact same stats (the fault machinery must not
// break the active-set equivalence).
SimStats run_both_modes(const core::NetworkPlan& plan,
                        const TrafficConfig& traffic, SimConfig cfg,
                        const fault::FaultPlan& fp) {
  cfg.faults = &fp;
  cfg.reference_mode = true;
  const auto ref = sim::simulate(plan, traffic, cfg);
  cfg.reference_mode = false;
  const auto opt = sim::simulate(plan, traffic, cfg);
  expect_stats_equal(ref, opt);
  return opt;
}

// ------------------------------------------------- fault-free bit-identity --

TEST(FaultFree, EmptyPlanPreservesStatsBitForBit) {
  const auto plan = mesh_plan();
  const auto traffic = coherence(0.05);
  for (const bool reference : {false, true}) {
    SimConfig cfg = base_cfg();
    cfg.reference_mode = reference;
    const auto bare = sim::simulate(plan, traffic, cfg);

    // Null plan pointer and a prepared-but-empty plan must both leave the
    // hot path untouched.
    const fault::FaultPlan empty;
    cfg.faults = &empty;
    expect_stats_equal(bare, sim::simulate(plan, traffic, cfg));

    FaultScenarioSpec none;
    none.mode = "targeted";
    none.k = 0;
    const auto prepared = fault::prepare_fault_plan(plan, none, horizon(cfg));
    EXPECT_TRUE(prepared.empty());
    cfg.faults = &prepared;
    expect_stats_equal(bare, sim::simulate(plan, traffic, cfg));

    EXPECT_EQ(bare.flits_dropped, 0);
    EXPECT_EQ(bare.packets_unroutable, 0);
    EXPECT_DOUBLE_EQ(bare.delivered_fraction, 1.0);
  }
}

// ------------------------------------------------------ schedule building --

TEST(FaultSchedule, TargetedFailsKDuplexLinks) {
  const auto plan = mesh_plan();
  FaultScenarioSpec sc;
  sc.mode = "targeted";
  sc.k = 2;
  sc.fail_at = 100;
  sc.recover_at = 900;
  const auto sched = fault::build_fault_schedule(sc, plan, /*horizon=*/5000);
  int down = 0, up = 0;
  for (const auto& e : sched.events) {
    if (e.kind == FaultEventKind::kLinkDown) {
      EXPECT_EQ(e.cycle, 100);
      ++down;
    } else if (e.kind == FaultEventKind::kLinkUp) {
      EXPECT_EQ(e.cycle, 900);
      ++up;
    }
  }
  EXPECT_EQ(down, 4);  // 2 duplex links = 4 directed edges
  EXPECT_EQ(up, 4);
}

TEST(FaultSchedule, DeterministicAcrossCalls) {
  const auto plan = mesh_plan();
  FaultScenarioSpec sc;
  sc.mode = "random";
  sc.link_mtbf = 4000;
  sc.link_mttr = 800;
  sc.router_mtbf = 20000;
  sc.router_mttr = 1000;
  sc.seed = 99;
  const auto a = fault::build_fault_schedule(sc, plan, 30000);
  const auto b = fault::build_fault_schedule(sc, plan, 30000);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.events, b.events);
  // A different fault seed yields a different outage draw.
  sc.seed = 100;
  EXPECT_NE(fault::build_fault_schedule(sc, plan, 30000).events, a.events);
}

TEST(FaultSchedule, ExplicitEventsValidated) {
  const auto plan = mesh_plan();
  FaultScenarioSpec sc;
  sc.mode = "explicit";
  sc.events = {{10, FaultEventKind::kLinkDown, 0, 11}};  // absent edge
  EXPECT_THROW(fault::build_fault_schedule(sc, plan, 5000),
               std::invalid_argument);
  sc.events = {{10, FaultEventKind::kRouterDown, 99, -1}};  // absent router
  EXPECT_THROW(fault::build_fault_schedule(sc, plan, 5000),
               std::invalid_argument);
}

// --------------------------------------------------------------- repair ---

TEST(Repair, ReroutesEveryFlowAroundACut) {
  const auto plan = mesh_plan();
  // A 3x4 mesh stays connected after losing any single duplex link, so a
  // repair must reroute every affected flow.
  const std::vector<std::pair<int, int>> down = {{0, 1}, {1, 0}};
  const auto rr = routing::repair_routes(plan.graph, plan.table, down);
  EXPECT_GT(rr.flows_affected, 0);
  EXPECT_EQ(rr.flows_unroutable, 0);
  EXPECT_EQ(rr.flows_rerouted, rr.flows_affected);
  // No repaired route may cross the failed edge, in either direction.
  const int n = plan.graph.num_nodes();
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      int cur = s, hops = 0;
      while (cur != d) {
        const int nxt = rr.table.next_hop(cur, s, d);
        ASSERT_GE(nxt, 0);
        EXPECT_FALSE((cur == 0 && nxt == 1) || (cur == 1 && nxt == 0))
            << "flow " << s << "->" << d << " crosses the failed link";
        cur = nxt;
        ASSERT_LT(++hops, n);
      }
    }
  }
}

TEST(Repair, CountsUnroutableFlowsAcrossABridge) {
  // Line 0 - 1 - 2: cutting the (1,2) duplex link strands router 2 entirely.
  const auto g = topo::DiGraph::from_string("3:0>1,1>0,1>2,2>1");
  const topo::Layout lay{1, 3, 2.0};
  const auto plan =
      core::plan_network(g, lay, core::RoutingPolicy::kMclb, /*num_vcs=*/6);
  const std::vector<std::pair<int, int>> down = {{1, 2}, {2, 1}};
  const auto rr = routing::repair_routes(plan.graph, plan.table, down);
  EXPECT_EQ(rr.flows_affected, 4);  // 0->2, 1->2, 2->0, 2->1
  EXPECT_EQ(rr.flows_unroutable, 4);
  EXPECT_EQ(rr.flows_rerouted, 0);
}

TEST(Repair, UntouchedFlowsKeepTheirIncumbentPaths) {
  const auto plan = mesh_plan();
  const std::vector<std::pair<int, int>> down = {{0, 1}, {1, 0}};
  const auto rr = routing::repair_routes(plan.graph, plan.table, down);
  const int n = plan.graph.num_nodes();
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      // A flow whose base route avoids the cut keeps it hop for hop.
      int cur = s;
      bool crosses = false;
      while (cur != d) {
        const int nxt = plan.table.next_hop(cur, s, d);
        if ((cur == 0 && nxt == 1) || (cur == 1 && nxt == 0)) crosses = true;
        cur = nxt;
      }
      if (crosses) continue;
      cur = s;
      while (cur != d) {
        EXPECT_EQ(rr.table.next_hop(cur, s, d), plan.table.next_hop(cur, s, d));
        cur = plan.table.next_hop(cur, s, d);
      }
    }
  }
}

// --------------------------------------------------- simulator semantics ---

TEST(FaultSim, LosslessLinkFlapRecoversAndDrains) {
  const auto plan = mesh_plan();
  SimConfig cfg = base_cfg();
  FaultScenarioSpec sc;
  sc.mode = "targeted";
  sc.k = 1;
  sc.fail_at = 500;
  sc.recover_at = 2500;
  sc.lossy = false;
  sc.repair = false;  // strand flits on the wire until the link recovers
  const auto fp = fault::prepare_fault_plan(plan, sc, horizon(cfg));
  const auto s = run_both_modes(plan, coherence(0.02), cfg, fp);
  expect_quiesced(s);
  // Recorded on the heap-scheduled simulator (see sim_digest.hpp).
  EXPECT_EQ(sim::testing::stats_digest(s), 0x36615aa02dc65703ull);
  EXPECT_EQ(s.flits_dropped, 0);
  EXPECT_EQ(s.packets_dropped, 0);
  EXPECT_EQ(s.flits_injected, s.flits_ejected);
  EXPECT_DOUBLE_EQ(s.delivered_fraction, 1.0);
}

TEST(FaultSim, LossyPermanentFailureDropsAndConserves) {
  const auto plan = mesh_plan();
  SimConfig cfg = base_cfg();
  // Long wires (think CDC-retimed interposer crossings) so the failing links
  // are guaranteed to be carrying worms when they go down.
  const auto n = static_cast<std::size_t>(plan.graph.num_nodes());
  cfg.extra_edge_delay = util::Matrix<int>(n, n, 8);
  FaultScenarioSpec sc;
  sc.mode = "targeted";
  sc.k = 4;
  sc.fail_at = 1500;  // mid-measurement: worms are on the wire
  // Recovery lets pre-fault packets whose pinned route crosses the failed
  // links (stalled, not dropped — only wire-caught worms are purged) finish,
  // so the network fully drains.
  sc.recover_at = 2600;
  sc.lossy = true;
  sc.repair = true;
  const auto fp = fault::prepare_fault_plan(plan, sc, horizon(cfg));
  const auto s = run_both_modes(plan, coherence(0.05), cfg, fp);
  expect_quiesced(s);
  EXPECT_GT(s.packets_dropped, 0);
  EXPECT_GT(s.flits_dropped, 0);
  EXPECT_EQ(s.flits_injected, s.flits_ejected + s.flits_dropped);
  EXPECT_LT(s.delivered_fraction, 1.0);
  EXPECT_LE(s.latency_p50_cycles, s.latency_p99_cycles);
}

// A permanent lossy cut on long, uneven wires: purges leave stale arrival
// entries behind, and the network never gets the links back.
TEST(FaultSim, LossyPermanentCutMatchesRecordedDigest) {
  const auto plan = mesh_plan();
  SimConfig cfg = base_cfg(9);
  const int n = plan.graph.num_nodes();
  cfg.extra_edge_delay = util::Matrix<int>(n, n, 0);
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v) cfg.extra_edge_delay(u, v) = (u + 2 * v) % 6;
  FaultScenarioSpec sc;
  sc.mode = "targeted";
  sc.k = 2;
  sc.fail_at = 1500;
  sc.recover_at = -1;
  sc.lossy = true;
  sc.repair = true;
  const auto fp = fault::prepare_fault_plan(plan, sc, horizon(cfg));
  const auto s = run_both_modes(plan, coherence(0.05), cfg, fp);
  expect_fault_conservation(s);
  EXPECT_GT(s.packets_dropped, 0);
  // Recorded in reference mode on the heap-scheduled simulator (see
  // sim_digest.hpp), whose optimized mode counted one active router-cycle
  // too many here: a purge emptied a router without retiring it.
  EXPECT_EQ(sim::testing::stats_digest(s), 0xbfd6a837279d239bull);
}

TEST(FaultSim, RouterDownQuiescesAndRecovers) {
  const auto plan = mesh_plan();
  SimConfig cfg = base_cfg();
  FaultScenarioSpec sc;
  sc.mode = "explicit";
  sc.events = {{500, FaultEventKind::kRouterDown, 5, -1},
               {2500, FaultEventKind::kRouterUp, 5, -1}};
  const auto fp = fault::prepare_fault_plan(plan, sc, horizon(cfg));
  EXPECT_EQ(fp.max_routers_down, 1);
  // A down router refuses injection and ejection but still forwards, so
  // after recovery everything drains.
  const auto s = run_both_modes(plan, coherence(0.02), cfg, fp);
  expect_quiesced(s);
  EXPECT_EQ(s.flits_injected, s.flits_ejected);
}

TEST(FaultSim, RepairThenRecoverRoundTrip) {
  const auto plan = mesh_plan();
  SimConfig cfg = base_cfg();
  FaultScenarioSpec sc;
  sc.mode = "targeted";
  sc.k = 1;
  sc.fail_at = 500;
  sc.recover_at = 2500;
  sc.lossy = false;
  sc.repair = true;
  const auto fp = fault::prepare_fault_plan(plan, sc, horizon(cfg));
  // Three epochs: pre-fault, degraded (repaired), recovered.
  ASSERT_EQ(fp.epochs.size(), 3u);
  EXPECT_EQ(fp.epochs[0].cycle, 0);
  EXPECT_EQ(fp.epochs[1].cycle, 500);
  EXPECT_EQ(fp.epochs[2].cycle, 2500);
  EXPECT_TRUE(fp.epochs[1].repaired);
  EXPECT_GT(fp.flows_rerouted, 0);
  EXPECT_EQ(fp.flows_unroutable, 0);
  const auto s = run_both_modes(plan, coherence(0.02), cfg, fp);
  expect_quiesced(s);
  EXPECT_EQ(s.flits_dropped, 0);
  EXPECT_EQ(s.flits_injected, s.flits_ejected);
}

TEST(FaultSim, RandomScheduleConservesInBothContracts) {
  const auto plan = mesh_plan();
  SimConfig cfg = base_cfg(33);
  FaultScenarioSpec sc;
  sc.mode = "random";
  sc.link_mtbf = 6000;
  sc.link_mttr = 600;
  sc.seed = 5;
  for (const bool lossy : {false, true}) {
    sc.lossy = lossy;
    const auto fp = fault::prepare_fault_plan(plan, sc, horizon(cfg));
    ASSERT_FALSE(fp.empty());
    const auto s = run_both_modes(plan, coherence(0.03), cfg, fp);
    expect_fault_conservation(s);
    if (!lossy) EXPECT_EQ(s.flits_dropped, 0);
  }
}

// ------------------------------------------------------- Study / Report ---

api::ExperimentSpec resilience_spec() {
  api::ExperimentSpec spec;
  spec.name = "resilience-test";
  api::TopologySpec mesh;
  mesh.source = api::TopologySource::kBaseline;
  mesh.baseline = "mesh:rows=3,cols=4";
  spec.topologies = {mesh};
  spec.routing = "mclb";
  spec.traffic = {api::TrafficSpec{}};
  spec.sweep.points = 2;
  spec.sweep.warmup = 300;
  spec.sweep.measure = 600;
  spec.sweep.drain = 3000;
  spec.sweep.adaptive = false;
  FaultScenarioSpec cut;
  cut.name = "cut-1";
  cut.mode = "targeted";
  cut.k = 1;
  FaultScenarioSpec flap;
  flap.name = "flap-lossy";
  flap.mode = "targeted";
  flap.k = 2;
  flap.fail_at = 400;
  flap.recover_at = 1200;
  flap.lossy = true;
  flap.repair = false;
  spec.faults = {cut, flap};
  return spec;
}

TEST(Resilience, ReportByteIdenticalAcrossThreadWidths) {
  const auto spec = resilience_spec();
  const auto r1 = api::run_experiment(spec, api::StudyOptions{1});
  const auto r4 = api::run_experiment(spec, api::StudyOptions{4});
  EXPECT_EQ(api::report_to_json(r1), api::report_to_json(r4));
  ASSERT_EQ(r1.resilience.size(), 2u);
  EXPECT_EQ(r1.failed_jobs.size(), 0u);
}

TEST(Resilience, RowsCarryDegradationMetrics) {
  const auto rep = api::run_experiment(resilience_spec(), api::StudyOptions{2});
  ASSERT_EQ(rep.resilience.size(), 2u);
  const auto& cut = rep.resilience[0];
  EXPECT_EQ(cut.scenario, "cut-1");
  EXPECT_EQ(cut.links_down, 2);  // one duplex link = 2 directed edges
  EXPECT_TRUE(cut.repair);
  EXPECT_GT(cut.flows_rerouted, 0);
  EXPECT_GT(cut.baseline_saturation_pkt_node_cycle, 0.0);
  // A repaired single-link cut cannot beat the fault-free plan.
  EXPECT_LE(cut.saturation_pkt_node_cycle,
            cut.baseline_saturation_pkt_node_cycle);
  const auto& flap = rep.resilience[1];
  EXPECT_EQ(flap.scenario, "flap-lossy");
  EXPECT_TRUE(flap.lossy);
  EXPECT_FALSE(flap.repair);
  ASSERT_FALSE(flap.points.empty());
  for (const auto& pt : flap.points) {
    EXPECT_GE(pt.delivered_fraction, 0.0);
    EXPECT_LE(pt.delivered_fraction, 1.0);
    EXPECT_LE(pt.latency_p50_cycles, pt.latency_p99_cycles);
  }
  // The schema only advances when the resilience block is present.
  EXPECT_EQ(api::report_schema_version(rep), 3);
  EXPECT_NE(api::report_to_json(rep).find("\"resilience\""), std::string::npos);
}

TEST(Resilience, FaultFreeReportKeepsLegacySchema) {
  auto spec = resilience_spec();
  spec.faults.clear();
  const auto rep = api::run_experiment(spec, api::StudyOptions{2});
  EXPECT_EQ(api::report_schema_version(rep), 2);
  EXPECT_EQ(api::spec_schema_version(spec), 1);
  const auto json = api::report_to_json(rep);
  EXPECT_EQ(json.find("\"resilience\""), std::string::npos);
  EXPECT_EQ(json.find("\"failed_jobs\""), std::string::npos);
  EXPECT_EQ(json.find("\"faults\""), std::string::npos);
}

TEST(Resilience, SpecWithFaultsRoundTrips) {
  const auto spec = resilience_spec();
  EXPECT_EQ(api::spec_schema_version(spec), 2);
  const auto round = api::parse_spec(api::serialize(spec));
  EXPECT_EQ(round, spec);
}

TEST(Resilience, FailedJobDegradesReportInsteadOfAborting) {
  auto spec = resilience_spec();
  spec.num_vcs = 1;  // balance_vcs cannot honor 1 VC for a layered mesh plan
  const auto rep = api::run_experiment(spec, api::StudyOptions{2});
  // One failed plan job, three skipped dependents (sweep + 2 resilience).
  ASSERT_EQ(rep.failed_jobs.size(), 4u);
  EXPECT_FALSE(rep.failed_jobs[0].skipped);
  EXPECT_NE(rep.failed_jobs[0].job.find("plan:"), std::string::npos);
  EXPECT_FALSE(rep.failed_jobs[0].reason.empty());
  for (std::size_t i = 1; i < rep.failed_jobs.size(); ++i) {
    EXPECT_TRUE(rep.failed_jobs[i].skipped);
    EXPECT_NE(rep.failed_jobs[i].reason.find("dependency"), std::string::npos);
  }
  EXPECT_EQ(rep.stats.failed_jobs, 4);
  EXPECT_EQ(api::report_schema_version(rep), 3);
  // Rows for the failed jobs exist with default values (partial report).
  EXPECT_EQ(rep.resilience.size(), 2u);
  EXPECT_NE(api::report_to_json(rep).find("\"failed_jobs\""),
            std::string::npos);
}

}  // namespace
}  // namespace netsmith
