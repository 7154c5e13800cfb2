#include "routing/paths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "topo/builders.hpp"
#include "topo/metrics.hpp"
#include "util/rng.hpp"

namespace netsmith::routing {
namespace {

// Paths of the pair (s, d); 0 when it has none.
int count(const PathSet& ps, int s, int d) {
  const int f = ps.flow(s, d);
  return f < 0 ? 0 : ps.paths_of(f);
}

// Path k of the pair (s, d) as a router sequence.
std::vector<int> route(const PathSet& ps, int s, int d, int k) {
  const auto p = ps.nodes_of(ps.path_begin[ps.flow(s, d)] + k);
  return {p.begin(), p.end()};
}

TEST(PathEnum, LineGraphSinglePaths) {
  topo::DiGraph g(3);
  g.add_duplex(0, 1);
  g.add_duplex(1, 2);
  const auto ps = enumerate_shortest_paths(g);
  EXPECT_TRUE(ps.all_flows_covered());
  ASSERT_EQ(count(ps, 0, 2), 1);
  EXPECT_EQ(route(ps, 0, 2, 0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(route(ps, 2, 0, 0), (std::vector<int>{2, 1, 0}));
}

TEST(PathEnum, CountsAllShortestPathsInGrid) {
  // 2x2 mesh: two shortest paths between opposite corners.
  const topo::Layout lay{2, 2, 2.0};
  const auto g = topo::build_mesh(lay);
  const auto ps = enumerate_shortest_paths(g);
  EXPECT_EQ(count(ps, lay.id(0, 0), lay.id(1, 1)), 2);
}

TEST(PathEnum, MeshCornerToCornerCounts) {
  // 3x3 mesh corner to corner: C(4,2) = 6 shortest paths.
  const topo::Layout lay{3, 3, 2.0};
  const auto g = topo::build_mesh(lay);
  const auto ps = enumerate_shortest_paths(g);
  EXPECT_EQ(count(ps, lay.id(0, 0), lay.id(2, 2)), 6);
}

TEST(PathEnum, CapLimitsEnumeration) {
  const topo::Layout lay{3, 3, 2.0};
  const auto g = topo::build_mesh(lay);
  const auto ps = enumerate_shortest_paths(g, 3);
  EXPECT_EQ(count(ps, lay.id(0, 0), lay.id(2, 2)), 3);
}

TEST(PathEnum, PathsAreUniqueAndShortest) {
  util::Rng rng(17);
  const topo::Layout lay = topo::Layout::noi_4x5();
  const auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  const auto dist = topo::apsp_bfs(g);
  const auto ps = enumerate_shortest_paths(g);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      if (s == d) continue;
      std::set<std::vector<int>> seen;
      for (int k = 0; k < count(ps, s, d); ++k) {
        const auto p = route(ps, s, d, k);
        EXPECT_TRUE(is_shortest_path(g, dist, p));
        EXPECT_EQ(p.front(), s);
        EXPECT_EQ(p.back(), d);
        EXPECT_TRUE(seen.insert(p).second) << "duplicate path";
      }
    }
}

TEST(PathEnum, DisconnectedFlowHasNoPaths) {
  topo::DiGraph g(4);
  g.add_duplex(0, 1);
  g.add_duplex(2, 3);
  const auto ps = enumerate_shortest_paths(g);
  EXPECT_FALSE(ps.all_flows_covered());
  EXPECT_EQ(count(ps, 0, 3), 0);
  EXPECT_GT(count(ps, 0, 1), 0);
}

TEST(PathEnum, DeterministicOrder) {
  const auto g = topo::build_mesh(topo::Layout{3, 3, 2.0});
  const auto a = enumerate_shortest_paths(g);
  const auto b = enumerate_shortest_paths(g);
  EXPECT_EQ(a.path_begin, b.path_begin);
  EXPECT_EQ(a.path_nodes, b.path_nodes);
  EXPECT_EQ(a.path_edges, b.path_edges);
}

TEST(IsShortestPath, RejectsNonPathsAndNonMinimal) {
  const auto g = topo::build_mesh(topo::Layout{1, 4, 2.0});
  const auto dist = topo::apsp_bfs(g);
  using R = std::vector<int>;
  EXPECT_TRUE(is_shortest_path(g, dist, R{0, 1, 2}));
  EXPECT_FALSE(is_shortest_path(g, dist, R{0, 2}));        // no such edge
  EXPECT_FALSE(is_shortest_path(g, dist, R{0, 1, 0, 1}));  // not minimal
  EXPECT_FALSE(is_shortest_path(g, dist, R{0}));           // too short
}

TEST(PathEnum, NodesAndEdgesDescribeTheSamePaths) {
  // Each path's router sequence walks exactly its interned edges, and the
  // paths of a flow are in lexicographic router order.
  util::Rng rng(29);
  const auto g = topo::build_random(topo::Layout::noi_4x5(),
                                    topo::LinkClass::kMedium, 4, rng);
  const auto ps = enumerate_shortest_paths(g, 16);
  ASSERT_EQ(ps.path_nodes.size(), ps.path_edges.size() + ps.num_paths());
  for (int f = 0; f < ps.num_flows(); ++f)
    for (int p = ps.path_begin[f]; p < ps.path_begin[f + 1]; ++p) {
      const auto nodes = ps.nodes_of(p);
      EXPECT_EQ(nodes.front(), ps.flow_s[f]);
      EXPECT_EQ(nodes.back(), ps.flow_d[f]);
      for (int i = 0; i < ps.path_length(p); ++i) {
        const int e = ps.edges_of(p)[i];
        EXPECT_EQ(ps.edge_src[e], nodes[i]);
        EXPECT_EQ(ps.edge_dst[e], nodes[i + 1]);
        EXPECT_EQ(ps.lookup_edge(nodes[i], nodes[i + 1]), e);
      }
      if (p > ps.path_begin[f]) {
        const auto prev = ps.nodes_of(p - 1);
        EXPECT_TRUE(std::ranges::lexicographical_compare(prev, nodes));
      }
    }
}

TEST(PathEnum, PerFlowEntryMatchesFullEnumeration) {
  // Route repair's per-flow DFS appends exactly the paths the full
  // enumeration gives the same flow.
  util::Rng rng(31);
  const auto g = topo::build_random(topo::Layout::noi_4x5(),
                                    topo::LinkClass::kMedium, 3, rng);
  const auto dist = topo::apsp_bfs(g);
  const auto full = enumerate_shortest_paths(g, 5);
  PathCompiler dfs;
  dfs.set_graph(g);
  PathSet one;
  one.clear(20);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      EXPECT_EQ(dfs.add_flow(dist, s, d, 5, one), count(full, s, d));
      one.close_flow(s, d);
    }
  EXPECT_EQ(one.path_begin, full.path_begin);
  EXPECT_EQ(one.path_nodes, full.path_nodes);
  EXPECT_EQ(one.path_edges, full.path_edges);
  EXPECT_EQ(one.edge_src, full.edge_src);
}

TEST(PathSet, TotalPathsAggregates) {
  topo::DiGraph g(3);
  g.add_duplex(0, 1);
  g.add_duplex(1, 2);
  const auto ps = enumerate_shortest_paths(g);
  EXPECT_EQ(ps.num_paths(), 6);  // 6 ordered pairs, 1 path each
}

}  // namespace
}  // namespace netsmith::routing
