#include "vc/balance.hpp"
#include "vc/cdg.hpp"
#include "vc/layers.hpp"

#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "routing/mclb.hpp"
#include "topo/builders.hpp"
#include "topologies/registry.hpp"

namespace netsmith::vc {
namespace {

TEST(LinkIds, DenseAndInvertible) {
  topo::DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const LinkIds ids(g);
  EXPECT_EQ(ids.count(), 3);
  for (const auto& [u, v] : g.edges()) {
    const int e = ids.id(u, v);
    ASSERT_GE(e, 0);
    EXPECT_EQ(ids.link(e), std::make_pair(u, v));
  }
  EXPECT_EQ(ids.id(0, 2), -1);
}

TEST(Cdg, DetectsSimpleCycle) {
  Cdg cdg(3);
  EXPECT_TRUE(cdg.add_dep(0, 1));
  EXPECT_TRUE(cdg.add_dep(1, 2));
  EXPECT_FALSE(cdg.has_cycle());
  EXPECT_TRUE(cdg.add_dep(2, 0));
  EXPECT_TRUE(cdg.has_cycle());
}

TEST(Cdg, DuplicateDepsIgnored) {
  Cdg cdg(2);
  EXPECT_TRUE(cdg.add_dep(0, 1));
  EXPECT_FALSE(cdg.add_dep(0, 1));
  EXPECT_EQ(cdg.num_deps(), 1);
}

TEST(Cdg, RemoveDepsRollsBack) {
  Cdg cdg(3);
  cdg.add_dep(0, 1);
  const std::vector<std::pair<int, int>> added{{1, 2}, {2, 0}};
  for (const auto& [a, b] : added) cdg.add_dep(a, b);
  EXPECT_TRUE(cdg.has_cycle());
  cdg.remove_deps(added);
  EXPECT_FALSE(cdg.has_cycle());
  EXPECT_EQ(cdg.num_deps(), 1);
}

TEST(Cdg, AddPathCreatesConsecutiveDeps) {
  topo::DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const LinkIds ids(g);
  Cdg cdg(ids.count());
  const auto ins = cdg.add_path(std::vector<int>{0, 1, 2, 3}, ids);
  EXPECT_EQ(ins.size(), 2u);  // (0-1)->(1-2), (1-2)->(2-3)
  EXPECT_FALSE(cdg.has_cycle());
}

// Property: on a CDG that was acyclic before the insertion, the incremental
// check agrees with a full rescan after every add_path — including paths
// that only re-insert existing dependencies, and rollbacks on a cycle.
TEST(Cdg, ClosesCycleMatchesFullRescan) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const int n = static_cast<int>(rng.uniform_int(4, 12));
    topo::DiGraph g(n);
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v)
        if (u != v && rng.uniform() < 0.35) g.add_edge(u, v);
    const LinkIds ids(g);
    Cdg cdg(ids.count());
    int closed = 0;
    for (int step = 0; step < 300; ++step) {
      // Random walk along the graph's links.
      routing::Path p{static_cast<int>(rng.uniform_int(0, n - 1))};
      const int len = static_cast<int>(rng.uniform_int(2, 6));
      while (static_cast<int>(p.size()) < len) {
        const auto& succ = g.out_neighbors(p.back());
        if (succ.empty()) break;
        p.push_back(succ[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(succ.size()) - 1))]);
      }
      const auto inserted = cdg.add_path(p, ids);
      const bool full = cdg.has_cycle();
      ASSERT_EQ(cdg.closes_cycle(inserted), full)
          << "seed " << seed << " step " << step;
      if (full) {
        cdg.remove_deps(inserted);
        ++closed;
      }
    }
    EXPECT_FALSE(cdg.has_cycle());
    if (ids.count() > 8) EXPECT_GT(closed, 0) << "seed " << seed;
  }
}

// Full-rescan reference for assign_layers, written against the public Cdg
// API: the same randomized restarts and greedy layering, but every insertion
// is judged by has_cycle() over the whole layer CDG.
VcAssignment rescan_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, util::Rng& rng,
                           int restarts = 8, int max_layers = 16) {
  struct Flow {
    int s, d;
  };
  const int n = rt.num_nodes();
  std::vector<Flow> flows;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d && rt.path(s, d).size() >= 2) flows.push_back({s, d});
  const LinkIds ids(g);
  VcAssignment best;
  best.num_layers = -1;
  for (int r = 0; r < restarts; ++r) {
    std::vector<Flow> pending = flows;
    if (r > 0) rng.shuffle(pending);
    VcAssignment a;
    a.layer.assign(static_cast<std::size_t>(n) * n, -1);
    int layer = 0;
    for (; !pending.empty() && layer < max_layers; ++layer) {
      Cdg cdg(ids.count());
      std::vector<Flow> deferred;
      for (const Flow& f : pending) {
        const auto inserted = cdg.add_path(rt.path(f.s, f.d), ids);
        if (cdg.has_cycle()) {
          cdg.remove_deps(inserted);
          deferred.push_back(f);
        } else {
          a.layer[static_cast<std::size_t>(f.s) * n + f.d] = layer;
        }
      }
      pending = std::move(deferred);
    }
    if (!pending.empty()) continue;
    a.num_layers = layer;
    if (best.num_layers < 0 || a.num_layers < best.num_layers) best = a;
    if (best.num_layers == 1) break;
  }
  return best;
}

// Oracle: the incremental check reproduces the full-rescan layering exactly
// on every 48-router catalog and baseline plan.
TEST(Layers, MatchFullRescanOn48RouterPlans) {
  std::vector<topologies::NamedTopology> rows = topologies::catalog(48);
  for (const auto& t : topologies::baseline_catalog(48)) rows.push_back(t);
  for (const auto& t : rows) {
    const auto policy = t.is_netsmith || t.parametric
                            ? core::RoutingPolicy::kMclb
                            : core::RoutingPolicy::kNdbt;
    const auto plan = core::plan_network(t.graph, t.layout, policy, 6);
    util::Rng fast_rng(11), ref_rng(11);
    const auto fast = assign_layers(plan.table, t.graph, fast_rng);
    const auto ref = rescan_layers(plan.table, t.graph, ref_rng);
    EXPECT_EQ(fast.num_layers, ref.num_layers) << t.name;
    EXPECT_EQ(fast.layer, ref.layer) << t.name;
    EXPECT_EQ(fast_rng.next(), ref_rng.next()) << t.name;
  }
}

TEST(Layers, SingleLayerForMeshXy) {
  // Mesh with deterministic first-path (row-then-column or similar DFS
  // order) routing typically fits few layers; whatever the count, the
  // result must be verified acyclic.
  const auto g = topo::build_mesh(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(3);
  const auto a = assign_layers(rt, g, rng);
  EXPECT_GE(a.num_layers, 1);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
}

TEST(Layers, TorusNeedsMultipleLayers) {
  // Rings force cyclic dependencies: one layer cannot be enough when flows
  // wrap around. (With shortest paths on C4/C5 rings cycles arise.)
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(4);
  const auto a = assign_layers(rt, g, rng);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
  EXPECT_GE(a.num_layers, 2);
}

TEST(Layers, AllFlowsAssigned) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(5);
  const auto a = assign_layers(rt, g, rng);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      if (s == d) continue;
      const int l = a.layer[s * 20 + d];
      EXPECT_GE(l, 0);
      EXPECT_LT(l, a.num_layers);
    }
}

// Property: any random connected topology with MCLB routing gets a verified
// deadlock-free assignment within the paper's VC budget.
class LayerProperty : public ::testing::TestWithParam<int> {};

TEST_P(LayerProperty, AlwaysAcyclicWithinBudget) {
  util::Rng rng(700 + GetParam());
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  const auto ps = routing::enumerate_shortest_paths(g);
  if (!ps.all_flows_covered()) GTEST_SKIP() << "disconnected sample";
  const auto rt = routing::mclb_local_search(ps).table(ps);
  util::Rng lr(GetParam());
  const auto a = assign_layers(rt, g, lr);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
  // Paper SIV-A: 4 VCs suffice for all 20-router configurations.
  EXPECT_LE(a.num_layers, 4);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, LayerProperty,
                         ::testing::Range(0, 12));

TEST(Balance, RespectsLayerMembership) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(6);
  const auto a = assign_layers(rt, g, rng);
  const auto map = balance_vcs(a, rt, 6);
  EXPECT_EQ(map.num_vcs, 6);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      if (s == d) continue;
      const int vc = map.vc[s * 20 + d];
      ASSERT_GE(vc, 0);
      ASSERT_LT(vc, 6);
      EXPECT_EQ(map.layer_of_vc[vc], a.layer[s * 20 + d]);
    }
}

TEST(Balance, ThrowsWhenTooFewVcs) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(7);
  const auto a = assign_layers(rt, g, rng);
  if (a.num_layers < 2) GTEST_SKIP();
  EXPECT_THROW(balance_vcs(a, rt, a.num_layers - 1), std::invalid_argument);
}

TEST(Balance, WeightsSpreadWithinLayers) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(8);
  const auto a = assign_layers(rt, g, rng);
  const auto map = balance_vcs(a, rt, 6);
  // Any layer that received >= 2 VCs should not put all weight on one VC.
  for (int layer = 0; layer < a.num_layers; ++layer) {
    std::vector<double> w;
    for (int vc = 0; vc < map.num_vcs; ++vc)
      if (map.layer_of_vc[vc] == layer) w.push_back(map.weight_of_vc[vc]);
    if (w.size() < 2) continue;
    double total = 0, mx = 0;
    for (double x : w) {
      total += x;
      mx = std::max(mx, x);
    }
    if (total > 0) EXPECT_LT(mx, total * 0.95);
  }
}

}  // namespace
}  // namespace netsmith::vc
