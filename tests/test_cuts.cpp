#include "topo/cuts.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "topo/builders.hpp"
#include "topologies/registry.hpp"

namespace netsmith::topo {
namespace {

// Brute-force reference: evaluate every partition explicitly.
Cut brute_sparsest(const DiGraph& g) {
  const int n = g.num_nodes();
  Cut best;
  best.bandwidth = std::numeric_limits<double>::infinity();
  for (std::uint64_t mask = 1; mask < (1ULL << n) - 1; ++mask) {
    const auto c = evaluate_cut(g, mask);
    if (c.bandwidth < best.bandwidth) best = c;
  }
  return best;
}

TEST(EvaluateCut, CountsDirections) {
  DiGraph g(4);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(2, 1);
  const auto c = evaluate_cut(g, 0b0011);  // U = {0,1}
  EXPECT_EQ(c.u_size, 2);
  EXPECT_EQ(c.cross_uv, 2);  // 0->2, 0->3
  EXPECT_EQ(c.cross_vu, 1);  // 2->1
  EXPECT_NEAR(c.bandwidth, 1.0 / 4.0, 1e-12);  // min(2,1)/(2*2)
}

TEST(SparsestCut, FoldedTorus4x5) {
  const auto g = build_folded_torus(Layout::noi_4x5());
  const auto c = sparsest_cut_exact(g);
  // An 8/12 split with 8 crossings is the sparsest: 8/(8*12) = 1/12.
  EXPECT_NEAR(c.bandwidth, 1.0 / 12.0, 1e-9);
}

TEST(SparsestCut, MatchesBruteForceOnSmallGraphs) {
  util::Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const Layout lay{2, 4, 2.0};
    const auto g = build_random(lay, LinkClass::kMedium, 3, rng);
    const auto fast = sparsest_cut_exact(g);
    const auto ref = brute_sparsest(g);
    EXPECT_NEAR(fast.bandwidth, ref.bandwidth, 1e-12) << "trial " << trial;
  }
}

TEST(SparsestCut, DisconnectedIsZero) {
  DiGraph g(6);
  g.add_duplex(0, 1);
  g.add_duplex(1, 2);
  g.add_duplex(3, 4);
  g.add_duplex(4, 5);
  EXPECT_DOUBLE_EQ(sparsest_cut_exact(g).bandwidth, 0.0);
}

TEST(SparsestCut, RejectsOversizedExact) {
  DiGraph g(27);
  EXPECT_THROW(sparsest_cut_exact(g), std::invalid_argument);
}

// Property: the heuristic can never report a sparser cut than the exact
// minimum, and should usually find it on small instances.
class HeuristicVsExact : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicVsExact, HeuristicNeverBelowExact) {
  util::Rng rng(500 + GetParam());
  const Layout lay{3, 4, 2.0};
  const auto g = build_random(lay, LinkClass::kMedium, 3, rng);
  const auto exact = sparsest_cut_exact(g);
  util::Rng hr(GetParam());
  const auto heur = sparsest_cut_heuristic(g, hr, 32);
  EXPECT_GE(heur.bandwidth, exact.bandwidth - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, HeuristicVsExact,
                         ::testing::Range(0, 16));

TEST(Bisection, FoldedTorus4x5Is10) {
  EXPECT_EQ(bisection_bandwidth(build_folded_torus(Layout::noi_4x5())), 10);
}

TEST(Bisection, Mesh4x5Is5) {
  // Horizontal cut between rows 1 and 2 crosses 5 duplex links.
  EXPECT_EQ(bisection_bandwidth(build_mesh(Layout::noi_4x5())), 5);
}

TEST(Bisection, FoldedTorus6x5Is10) {
  EXPECT_EQ(bisection_bandwidth(build_folded_torus(Layout::noi_6x5())), 10);
}

TEST(Bisection, AsymmetricUsesWeakerDirection) {
  // Ring 0->1->2->3->0 plus reverse only between 0 and 1.
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(1, 0);
  // Any balanced cut crosses the one-directional ring once each way at
  // best; min direction = 1.
  EXPECT_EQ(bisection_bandwidth(g), 1);
}

// Recorded values of bisection_bandwidth beyond one 64-bit mask word
// (65-130 routers): the parametric baselines at arbitrary scale plus random
// directed and symmetric graphs. Any change to the heuristic's partitions,
// random draws or swap order moves it.
TEST(Bisection, WideGraphDigest) {
  std::vector<DiGraph> graphs;
  for (const char* spec : {"dragonfly:routers=72", "cmesh:routers=96",
                           "hammingmesh:routers=128"})
    graphs.push_back(topologies::make_spec(spec).graph);
  util::Rng rng(65);
  for (const Layout lay : {Layout{13, 5, 2.0}, Layout{10, 8, 2.0},
                           Layout{11, 9, 2.0}, Layout{13, 10, 2.0}}) {
    graphs.push_back(build_random(lay, LinkClass::kMedium, 4, rng));
    graphs.push_back(build_random_symmetric(lay, LinkClass::kLarge, 4, rng));
  }
  std::string values;
  for (const auto& g : graphs) {
    ASSERT_GT(g.num_nodes(), 64);
    ASSERT_LE(g.num_nodes(), 130);
    values += std::to_string(g.num_nodes()) + ":" +
              std::to_string(bisection_bandwidth(g)) + " ";
  }
  EXPECT_EQ(values,
            "72:32 96:16 128:62 65:8 65:7 80:12 80:12 99:13 99:14 "
            "130:12 130:12 ");
}

}  // namespace
}  // namespace netsmith::topo
