#include "routing/mclb.hpp"

#include <gtest/gtest.h>

#include "topo/builders.hpp"

namespace netsmith::routing {
namespace {

TEST(FractionalMclb, SolvesAndNormalizes) {
  const auto g = topo::build_mesh(topo::Layout{2, 3, 2.0});
  const auto ps = enumerate_shortest_paths(g);
  const auto frac = mclb_fractional(ps);
  ASSERT_TRUE(frac.solved);
  ASSERT_EQ(static_cast<int>(frac.weights.size()), ps.num_paths());
  for (int f = 0; f < ps.num_flows(); ++f) {
    double sum = 0.0;
    for (int p = ps.path_begin[f]; p < ps.path_begin[f + 1]; ++p) {
      EXPECT_GE(frac.weights[p], -1e-9);
      EXPECT_LE(frac.weights[p], 1.0 + 1e-9);
      sum += frac.weights[p];
    }
    EXPECT_NEAR(sum, 1.0, 1e-7) << ps.flow_s[f] << "->" << ps.flow_d[f];
  }
}

TEST(FractionalMclb, LowerBoundsSinglePath) {
  // The LP relaxation optimum can never exceed the best integral routing.
  for (const auto lay : {topo::Layout{2, 3, 2.0}, topo::Layout{3, 3, 2.0}}) {
    const auto g = topo::build_mesh(lay);
    const auto ps = enumerate_shortest_paths(g);
    const auto frac = mclb_fractional(ps);
    const auto single = mclb_local_search(ps);
    ASSERT_TRUE(frac.solved);
    EXPECT_LE(frac.max_load, single.max_load + 1e-9);
  }
}

TEST(FractionalMclb, DiamondOptimumIsTwoFlows) {
  // Diamond: every directed link carries its own 1-hop flow (1.0), and the
  // four 2-hop flows add 8 link-units spread over 8 links, so no routing —
  // fractional or not — can get the max below 2 flows; the LP must achieve
  // exactly that.
  topo::DiGraph g(4);
  g.add_duplex(0, 1);
  g.add_duplex(0, 2);
  g.add_duplex(1, 3);
  g.add_duplex(2, 3);
  const auto ps = enumerate_shortest_paths(g);
  const auto frac = mclb_fractional(ps);
  ASSERT_TRUE(frac.solved);
  EXPECT_NEAR(frac.max_load * 3.0, 2.0, 1e-6);  // n-1 = 3
  // And single-path routing can also achieve 2 here, so they tie.
  const auto single = mclb_local_search(ps);
  EXPECT_EQ(single.max_flows_on_link, 2);
}

TEST(FractionalMclb, LoadAnalysisConsistent) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto ps = enumerate_shortest_paths(g, 16);
  const auto frac = mclb_fractional(ps);
  ASSERT_TRUE(frac.solved);
  const auto load = analyze_fractional_choice(ps, frac);
  // The recomputed max load matches the LP's objective.
  EXPECT_NEAR(load.max_load, frac.max_load, 1e-6);
  EXPECT_EQ(load.flows, 380);
}

TEST(FractionalMclb, TorusBeatsSinglePathOrTies) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto ps = enumerate_shortest_paths(g, 16);
  const auto frac = mclb_fractional(ps);
  const auto single = mclb_local_search(ps);
  ASSERT_TRUE(frac.solved);
  EXPECT_LE(frac.max_load, single.max_load + 1e-9);
  EXPECT_GT(frac.max_load, 0.0);
}

}  // namespace
}  // namespace netsmith::routing
