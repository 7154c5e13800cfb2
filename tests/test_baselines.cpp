#include "topologies/baselines/cmesh.hpp"
#include "topologies/baselines/dragonfly.hpp"
#include "topologies/baselines/hammingmesh.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/objective.hpp"
#include "core/plan.hpp"
#include "sim/sweep.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"
#include "topologies/baselines/physical.hpp"
#include "topologies/registry.hpp"
#include "vc/balance.hpp"
#include "vc/layers.hpp"

namespace netsmith::topologies {
namespace {

constexpr int kSizes[] = {20, 30, 48};

// ----------------------------------------------------------- generators ---

TEST(Dragonfly, PresetParamsAndLinkCount) {
  const struct { int routers, a, g; } presets[] = {
      {20, 4, 5}, {30, 5, 6}, {48, 6, 8}};
  for (const auto& pr : presets) {
    const auto p = baselines::dragonfly_for_routers(pr.routers);
    EXPECT_EQ(p.group_size, pr.a) << pr.routers;
    EXPECT_EQ(p.groups, pr.g) << pr.routers;
    const auto g = baselines::build_dragonfly(p);
    EXPECT_EQ(g.num_nodes(), pr.routers);
    // Clique per group + one global link per group pair.
    const double expect_links =
        pr.g * (pr.a * (pr.a - 1) / 2.0) + pr.g * (pr.g - 1) / 2.0;
    EXPECT_NEAR(g.duplex_links(), expect_links, 1e-9) << pr.routers;
    // 1 local + 1 global + 1 local hop reaches any router.
    EXPECT_LE(topo::diameter(g), 3) << pr.routers;
  }
  EXPECT_THROW(baselines::dragonfly_for_routers(13), std::invalid_argument);
  EXPECT_THROW(baselines::build_dragonfly({4, 1}), std::invalid_argument);
}

TEST(CMesh, ExpressChannelsShortenMesh) {
  for (int routers : kSizes) {
    const auto p = baselines::cmesh_for_routers(routers);
    EXPECT_EQ(p.rows * p.cols, routers);
    const auto g = baselines::build_cmesh(p);
    const auto lay = baselines::cmesh_layout(p);
    const auto mesh = topo::build_mesh(lay);
    EXPECT_GT(g.duplex_links(), mesh.duplex_links()) << routers;
    EXPECT_LT(topo::diameter(g), topo::diameter(mesh)) << routers;
    // Express channels keep the class at medium (span 2, no longer wires).
    const auto phys = baselines::classify_links(g, lay);
    EXPECT_EQ(phys.link_class, topo::LinkClass::kMedium) << routers;
    EXPECT_EQ(phys.extra_edge_delay.rows(), 0u) << routers;
  }
  baselines::CMeshParams plain;
  plain.express_stride = 0;
  const auto g = baselines::build_cmesh(plain);
  EXPECT_EQ(g, topo::build_mesh(baselines::cmesh_layout(plain)));
}

TEST(HammingMesh, BoardGridStructure) {
  const struct { int routers, a, b, x, y; } presets[] = {
      {20, 2, 2, 5, 1}, {30, 2, 5, 3, 1}, {48, 2, 2, 4, 3}};
  for (const auto& pr : presets) {
    const auto p = baselines::hammingmesh_for_routers(pr.routers);
    EXPECT_EQ(p.board_rows, pr.a);
    EXPECT_EQ(p.board_cols, pr.b);
    EXPECT_EQ(p.grid_rows, pr.x);
    EXPECT_EQ(p.grid_cols, pr.y);
    const auto g = baselines::build_hammingmesh(p);
    EXPECT_EQ(g.num_nodes(), pr.routers);
    // Board-level cliques: any two boards sharing a row/column of boards are
    // directly linked, so the flattening never exceeds mesh diameter.
    const auto lay = baselines::hammingmesh_layout(p);
    EXPECT_LE(topo::diameter(g), topo::diameter(topo::build_mesh(lay)));
  }
  EXPECT_THROW(baselines::build_hammingmesh({2, 2, 1, 1}),
               std::invalid_argument);
}

// ------------------------------------------------------- metric sanity ----

TEST(BaselineCatalog, ConnectivityRadixDiameterBisection) {
  for (int routers : kSizes) {
    for (const auto& t : baseline_catalog(routers)) {
      SCOPED_TRACE(t.name + " @ " + std::to_string(routers));
      EXPECT_EQ(t.graph.num_nodes(), routers);
      EXPECT_TRUE(t.graph.is_symmetric());
      EXPECT_TRUE(topo::strongly_connected(t.graph));
      // Full-duplex degree stays within a plausible NoI router budget.
      EXPECT_TRUE(topo::respects_radix(t.graph, 8));
      EXPECT_GE(topo::diameter(t.graph), 2);
      EXPECT_LE(topo::diameter(t.graph), 8);
      EXPECT_GT(topo::average_hops(t.graph), 1.0);
      EXPECT_GE(topo::bisection_bandwidth(t.graph), 2);
      EXPECT_TRUE(t.parametric);
      EXPECT_FALSE(t.spec.empty());
    }
  }
}

TEST(BaselineCatalog, PhysicalClassificationConsistent) {
  for (int routers : kSizes) {
    for (const auto& t : baseline_catalog(routers)) {
      SCOPED_TRACE(t.name);
      EXPECT_EQ(t.layout.n(), routers);
      const auto phys = baselines::classify_links(t.graph, t.layout);
      EXPECT_EQ(phys.link_class, t.link_class);
      EXPECT_EQ(phys.extra_edge_delay.rows(), t.extra_edge_delay.rows());
      // Any link within the Kite taxonomy must carry no extra stages; any
      // beyond must carry at least one.
      if (t.extra_edge_delay.rows() > 0) {
        for (const auto& [i, j] : t.graph.edges()) {
          const bool in_class =
              topo::link_allowed(t.layout, i, j, topo::LinkClass::kLarge);
          EXPECT_EQ(t.extra_edge_delay(i, j) > 0, !in_class)
              << i << ">" << j;
        }
      }
      EXPECT_GT(phys.max_length_mm, 0.0);
    }
  }
}

TEST(Physical, DragonflyHasPipelinedWiresCMeshDoesNot) {
  const auto cat = baseline_catalog(20);
  const auto df = find(cat, "Dragonfly-20");
  EXPECT_EQ(df.link_class, topo::LinkClass::kLarge);
  EXPECT_GT(df.extra_edge_delay.rows(), 0u);  // span-3 intra-group wires
  const auto cm = find(cat, "CMesh-20");
  EXPECT_EQ(cm.extra_edge_delay.rows(), 0u);
}

// ----------------------------------------------------- factory registry ---

TEST(Factory, BuiltinFamiliesRegistered) {
  const auto names = factory_names();
  const auto has = [&names](const std::string& fam) {
    return std::find(names.begin(), names.end(), fam) != names.end();
  };
  for (const char* fam : {"dragonfly", "cmesh", "hammingmesh", "mesh",
                          "folded_torus", "kite", "frozen"})
    EXPECT_TRUE(has(fam)) << fam;
  EXPECT_FALSE(has("hypercube"));
  EXPECT_THROW(make("hypercube"), std::invalid_argument);
  EXPECT_GE(names.size(), 7u);
}

TEST(Factory, SpecRoundTrip) {
  for (int routers : kSizes)
    for (const auto& t : baseline_catalog(routers)) {
      const auto again = make_spec(t.spec);
      EXPECT_EQ(again.graph, t.graph) << t.spec;
      EXPECT_EQ(again.name, t.name) << t.spec;
      EXPECT_EQ(again.link_class, t.link_class) << t.spec;
    }
}

TEST(Factory, ExplicitParamsAndErrors) {
  const auto df = make("dragonfly", {{"group_size", "3"}, {"groups", "4"}});
  EXPECT_EQ(df.graph.num_nodes(), 12);
  const auto cm = make_spec("cmesh:rows=3,cols=4,express_stride=0");
  EXPECT_EQ(cm.graph.num_nodes(), 12);
  EXPECT_EQ(cm.link_class, topo::LinkClass::kSmall);  // plain mesh
  EXPECT_THROW(make("dragonfly", {{"groups", "x"}}), std::invalid_argument);
  EXPECT_THROW(make_spec("cmesh:rows"), std::invalid_argument);
  EXPECT_THROW(make("frozen"), std::invalid_argument);
  // routers= is a shortcut, not a constraint: combining it with explicit
  // structural params (or passing a non-positive count) is an error, never a
  // silent fallback.
  EXPECT_THROW(make_spec("dragonfly:routers=48,group_size=4"),
               std::invalid_argument);
  EXPECT_THROW(make_spec("cmesh:routers=0"), std::invalid_argument);
  EXPECT_THROW(make_spec("hammingmesh:routers=-4"), std::invalid_argument);
  const auto frozen_ns = make_spec("frozen:name=NS-LatOp-small-20");
  EXPECT_TRUE(frozen_ns.is_netsmith);
  EXPECT_EQ(frozen_ns.graph.num_nodes(), 20);
}

TEST(Factory, EveryBuiltinFamilySpecRoundTrips) {
  const Params none;
  for (const auto& family : factory_names()) {
    if (family == "frozen") continue;  // needs a name param
    SCOPED_TRACE(family);
    const auto t = make(family, none);
    ASSERT_FALSE(t.spec.empty());
    const auto again = make_spec(t.spec);
    EXPECT_EQ(again.graph, t.graph);
  }
  const auto fz = make_spec("frozen:name=Kite-small-20");
  EXPECT_EQ(fz.spec, "frozen:name=Kite-small-20");
  EXPECT_EQ(make_spec(fz.spec).graph, fz.graph);
}

// ------------------------------------------------- deadlock freedom -------

TEST(BaselineCatalog, VcLayeringVerifiedAcyclic) {
  for (int routers : kSizes) {
    for (const auto& t : baseline_catalog(routers)) {
      SCOPED_TRACE(t.name + " @ " + std::to_string(routers));
      const auto plan = core::plan_network(
          t.graph, t.layout, core::RoutingPolicy::kMclb, 6, 7,
          /*max_paths_per_flow=*/24);
      EXPECT_TRUE(plan.table.consistent_with(t.graph));
      EXPECT_TRUE(plan.table.is_minimal(t.graph));
      EXPECT_GE(plan.vc_layers, 1);
      EXPECT_LE(plan.vc_layers, 6);
      const auto layers = vc::layer_assignment(plan.vc_map);
      EXPECT_TRUE(vc::verify_acyclic(layers, plan.table, t.graph));
    }
  }
}

// ------------------------------------------- sweeps: uniform + tornado ----

class BaselineSweep : public ::testing::Test {
 protected:
  static sim::SimConfig cfg(const NamedTopology& t) {
    sim::SimConfig c;
    c.warmup = 800;
    c.measure = 2500;
    c.drain = 9000;
    c.extra_edge_delay = t.extra_edge_delay;
    return c;
  }

  static void expect_sane(const sim::SweepResult& r, const std::string& who) {
    EXPECT_GT(r.zero_load_latency_cycles, 3.0) << who;
    EXPECT_GT(r.saturation_pkt_node_cycle, 0.0) << who;
    for (const auto& pt : r.points) {
      // Deadlock would strand packets: every point must keep ejecting.
      EXPECT_GT(pt.stats.total_ejected, 0) << who;
    }
  }
};

TEST_F(BaselineSweep, UniformAndTornadoCompleteAtAllSizes) {
  for (int routers : kSizes) {
    for (const auto& t : baseline_catalog(routers)) {
      const std::string who = t.name + " @ " + std::to_string(routers);
      const auto plan = core::plan_network(
          t.graph, t.layout, core::RoutingPolicy::kMclb, 6, 7, 24);

      sim::TrafficConfig uniform;
      uniform.kind = sim::TrafficKind::kCoherence;
      expect_sane(sim::injection_sweep(plan, uniform, cfg(t),
                                       topo::clock_ghz(t.link_class),
                                       {0.005, 0.02, 0.06}),
                  who + " uniform");

      const auto tornado = sim::traffic_from_pattern(
          core::tornado_pattern(routers), /*injection_rate=*/0.01);
      expect_sane(sim::injection_sweep(plan, tornado, cfg(t),
                                       topo::clock_ghz(t.link_class),
                                       {0.005, 0.02, 0.06}),
                  who + " tornado");
    }
  }
}

}  // namespace
}  // namespace netsmith::topologies
