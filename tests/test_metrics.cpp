#include "topo/metrics.hpp"

#include <gtest/gtest.h>

#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace netsmith::topo {
namespace {

DiGraph line3() {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  return g;
}

TEST(Bfs, SimpleLine) {
  const auto d = bfs_distances(line3(), 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], 2);
}

TEST(Bfs, UnreachableMarked) {
  const auto d = bfs_distances(line3(), 2);  // directed: 2 reaches nothing
  EXPECT_EQ(d[2], 0);
  EXPECT_EQ(d[0], kUnreachable);
  EXPECT_EQ(d[1], kUnreachable);
}

TEST(Apsp, MeshAverageHops) {
  // 4x5 mesh average hops = 3.0 (sum of Manhattan distances / 380).
  const auto g = build_mesh(Layout::noi_4x5());
  EXPECT_NEAR(average_hops(g), 3.0, 1e-12);
  EXPECT_EQ(diameter(g), 7);  // (4,3) corner-to-corner
}

TEST(Apsp, FoldedTorusMatchesTable2) {
  const auto g = build_folded_torus(Layout::noi_4x5());
  EXPECT_NEAR(average_hops(g), 880.0 / 380.0, 1e-12);  // 2.3158 -> "2.32"
  EXPECT_EQ(diameter(g), 4);
}

TEST(Apsp, DirectedAsymmetry) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // directed ring
  const auto d = apsp_bfs(g);
  EXPECT_EQ(d(0, 2), 2);
  EXPECT_EQ(d(2, 0), 1);
  EXPECT_TRUE(strongly_connected(g));
}

TEST(Apsp, DisconnectedDetected) {
  DiGraph g(4);
  g.add_duplex(0, 1);
  g.add_duplex(2, 3);
  EXPECT_FALSE(strongly_connected(g));
  EXPECT_EQ(diameter(g), kUnreachable);
}

TEST(TotalHops, CountsOrderedPairs) {
  const auto d = apsp_bfs(build_mesh(Layout{1, 3, 2.0}));
  // Line of 3: distances 1+2+1+1+2+1 = 8.
  EXPECT_EQ(total_hops(d), 8);
  EXPECT_NEAR(average_hops(d), 8.0 / 6.0, 1e-12);
}

TEST(WeightedHops, UniformEqualsAverage) {
  const auto g = build_folded_torus(Layout::noi_4x5());
  const auto d = apsp_bfs(g);
  util::Matrix<double> w(20, 20, 1.0);
  for (int i = 0; i < 20; ++i) w(i, i) = 0.0;
  EXPECT_NEAR(weighted_hops(d, w), average_hops(d), 1e-12);
}

TEST(WeightedHops, SingleFlow) {
  const auto g = build_mesh(Layout{1, 4, 2.0});
  const auto d = apsp_bfs(g);
  util::Matrix<double> w(4, 4, 0.0);
  w(0, 3) = 5.0;
  EXPECT_NEAR(weighted_hops(d, w), 3.0, 1e-12);
}

// Property: Floyd-Warshall must agree with per-source BFS on random graphs.
class ApspAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ApspAgreement, BfsEqualsFloydWarshall) {
  util::Rng rng(1000 + GetParam());
  const Layout lay{4, 4, 2.0};
  const auto g = build_random(lay, LinkClass::kMedium, 3, rng);
  const auto a = apsp_bfs(g);
  const auto b = apsp_floyd_warshall(g);
  for (int i = 0; i < g.num_nodes(); ++i)
    for (int j = 0; j < g.num_nodes(); ++j) {
      const bool a_inf = a(i, j) >= kUnreachable;
      const bool b_inf = b(i, j) >= kUnreachable;
      ASSERT_EQ(a_inf, b_inf) << i << "->" << j;
      if (!a_inf) ASSERT_EQ(a(i, j), b(i, j)) << i << "->" << j;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ApspAgreement, ::testing::Range(0, 20));

}  // namespace
}  // namespace netsmith::topo
