#include "routing/mclb.hpp"

#include <gtest/gtest.h>

#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace netsmith::routing {
namespace {

TEST(MclbLocalSearch, ProducesValidChoice) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto ps = enumerate_shortest_paths(g);
  const auto r = mclb_local_search(ps);
  const auto rt = r.table(ps);
  EXPECT_TRUE(rt.consistent_with(g));
  EXPECT_TRUE(rt.is_minimal(g));
  EXPECT_GT(r.max_load, 0.0);
}

TEST(MclbLocalSearch, NoWorseThanFirstChoice) {
  const auto g = topo::build_mesh(topo::Layout::noi_4x5());
  const auto ps = enumerate_shortest_paths(g);
  const auto naive = analyze_uniform(RoutingTable::select_first(ps));
  const auto r = mclb_local_search(ps);
  EXPECT_LE(r.max_load, naive.max_load + 1e-12);
}

TEST(MclbLocalSearch, BeatsRandomSelectionOnIrregularTopology) {
  util::Rng rng(23);
  const auto g =
      topo::build_random(topo::Layout::noi_4x5(), topo::LinkClass::kMedium, 4, rng);
  const auto ps = enumerate_shortest_paths(g);
  if (!ps.all_flows_covered()) GTEST_SKIP() << "random graph disconnected";
  util::Rng sel(1);
  const auto rnd = analyze_uniform(RoutingTable::select_random(ps, sel));
  const auto r = mclb_local_search(ps);
  EXPECT_LE(r.max_load, rnd.max_load + 1e-12);
}

TEST(MclbExact, OptimalOnSmallDiamond) {
  // Diamond: 0 -> {1,2} -> 3 plus direct competition; two shortest paths
  // for 0->3 must split away from congested links.
  topo::DiGraph g(4);
  g.add_duplex(0, 1);
  g.add_duplex(0, 2);
  g.add_duplex(1, 3);
  g.add_duplex(2, 3);
  const auto ps = enumerate_shortest_paths(g);
  lp::MilpOptions opts;
  opts.time_limit_s = 10.0;
  const auto r = mclb_exact(ps, opts);
  EXPECT_TRUE(r.proven_optimal);
  // By symmetry the optimum puts at most 2 flows on any directed link:
  // each link carries its adjacent 1-hop flow plus at most one 2-hop flow.
  EXPECT_LE(r.max_flows_on_link, 2);
  EXPECT_TRUE(r.table(ps).consistent_with(g));
}

TEST(MclbExact, NeverWorseThanLocalSearch) {
  const topo::Layout lay{2, 3, 2.0};
  const auto g = topo::build_mesh(lay);
  const auto ps = enumerate_shortest_paths(g);
  const auto ls = mclb_local_search(ps);
  lp::MilpOptions opts;
  opts.time_limit_s = 15.0;
  const auto ex = mclb_exact(ps, opts);
  EXPECT_LE(ex.max_flows_on_link, ls.max_flows_on_link);
}

TEST(MclbExact, AcceptsCallerIncumbent) {
  // Passing the local-search incumbent must not change the optimum — it
  // only spares mclb_exact from repeating the search internally.
  const topo::Layout lay{2, 3, 2.0};
  const auto g = topo::build_mesh(lay);
  const auto ps = enumerate_shortest_paths(g);
  const auto ls = mclb_local_search(ps);
  lp::MilpOptions opts;
  opts.time_limit_s = 15.0;
  const auto with = mclb_exact(ps, opts, &ls);
  const auto without = mclb_exact(ps, opts);
  EXPECT_EQ(with.max_flows_on_link, without.max_flows_on_link);
  EXPECT_EQ(with.proven_optimal, without.proven_optimal);
  EXPECT_LE(with.max_flows_on_link, ls.max_flows_on_link);
}

TEST(MclbLocalSearch, FlatAndScanEnginesAgree) {
  // Spot check of the oracle contract on a paper-scale instance (the full
  // randomized suite lives in test_mclb_incremental.cpp).
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto ps = enumerate_shortest_paths(g);
  const auto flat = mclb_local_search(ps);
  const auto scan = mclb_local_search_scan(ps);
  EXPECT_EQ(flat.choice, scan.choice);
  EXPECT_TRUE(flat.objective.identical(scan.objective));
}

TEST(MclbWeighted, HeavyFlowAvoidsSharedLink) {
  // Two parallel routes; weighted flow should grab the dedicated one.
  topo::DiGraph g(4);
  g.add_duplex(0, 1);
  g.add_duplex(0, 2);
  g.add_duplex(1, 3);
  g.add_duplex(2, 3);
  const auto ps = enumerate_shortest_paths(g);
  std::vector<double> w(16, 1.0);
  w[0 * 4 + 3] = 10.0;  // heavy 0->3
  const auto r = mclb_local_search(ps, w);
  const auto rt = r.table(ps);
  EXPECT_TRUE(rt.consistent_with(g));
  EXPECT_GT(r.max_load, 0.0);
}

TEST(MclbResult, MaxLoadNormalization) {
  const auto g = topo::build_mesh(topo::Layout{1, 3, 2.0});
  const auto ps = enumerate_shortest_paths(g);
  const auto r = mclb_local_search(ps);
  // Line 0-1-2: link (0,1) carries flows 0->1, 0->2; (1,2) carries 0->2,
  // 1->2 => max 2 flows, n-1 = 2 -> normalized 1.0.
  EXPECT_EQ(r.max_flows_on_link, 2);
  EXPECT_NEAR(r.max_load, 1.0, 1e-12);
}

}  // namespace
}  // namespace netsmith::routing
