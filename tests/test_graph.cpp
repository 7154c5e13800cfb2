#include "topo/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace netsmith::topo {
namespace {

TEST(DiGraph, StartsEmpty) {
  DiGraph g(5);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_directed_edges(), 0);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) EXPECT_FALSE(g.has_edge(i, j));
}

TEST(DiGraph, AddEdgeBasics) {
  DiGraph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_directed_edges(), 1);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(1), 1);
}

TEST(DiGraph, AddDuplicateRejected) {
  DiGraph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));
  EXPECT_EQ(g.num_directed_edges(), 1);
}

TEST(DiGraph, SelfLoopRejected) {
  DiGraph g(3);
  EXPECT_FALSE(g.add_edge(1, 1));
  EXPECT_EQ(g.num_directed_edges(), 0);
}

TEST(DiGraph, RemoveEdge) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_directed_edges(), 1);
  EXPECT_EQ(g.out_degree(0), 0);
  EXPECT_EQ(g.in_degree(1), 0);
}

TEST(DiGraph, AddDuplexAddsBoth) {
  DiGraph g(3);
  EXPECT_EQ(g.add_duplex(0, 2), 2);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.add_duplex(0, 2), 0);
  EXPECT_DOUBLE_EQ(g.duplex_links(), 1.0);
}

TEST(DiGraph, NeighborListsTrackEdges) {
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(3, 0);
  auto out = g.out_neighbors(0);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(g.in_neighbors(0), (std::vector<int>{3}));
}

TEST(DiGraph, EdgesDeterministicOrder) {
  DiGraph g(3);
  g.add_edge(2, 0);
  g.add_edge(0, 1);
  const auto e = g.edges();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], std::make_pair(0, 1));
  EXPECT_EQ(e[1], std::make_pair(2, 0));
}

TEST(DiGraph, SymmetryDetection) {
  DiGraph g(3);
  g.add_duplex(0, 1);
  EXPECT_TRUE(g.is_symmetric());
  g.add_edge(1, 2);
  EXPECT_FALSE(g.is_symmetric());
}

TEST(DiGraph, ReversedFlipsEdges) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto r = g.reversed();
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_EQ(r.num_directed_edges(), 2);
  EXPECT_FALSE(r.has_edge(0, 1));
}

TEST(DiGraph, SerializationRoundTrip) {
  DiGraph g(6);
  g.add_edge(0, 5);
  g.add_edge(5, 0);
  g.add_edge(2, 3);
  const auto s = g.to_string();
  const auto h = DiGraph::from_string(s);
  EXPECT_EQ(g, h);
  EXPECT_EQ(h.to_string(), s);
}

TEST(DiGraph, SerializationEmptyGraph) {
  DiGraph g(4);
  const auto h = DiGraph::from_string(g.to_string());
  EXPECT_EQ(g, h);
}

TEST(DiGraph, FromStringRejectsGarbage) {
  EXPECT_THROW(DiGraph::from_string("nope"), std::invalid_argument);
  EXPECT_THROW(DiGraph::from_string("3:12"), std::invalid_argument);
}

// from_string parses untrusted bytes (artifact payloads, explicit specs):
// every malformed input must throw, never reach add_edge out of range.
TEST(DiGraph, FromStringRejectsBadNodeCount) {
  EXPECT_THROW(DiGraph::from_string("-1:"), std::invalid_argument);
  EXPECT_THROW(DiGraph::from_string("99999999999:"), std::invalid_argument);
  EXPECT_THROW(
      DiGraph::from_string(std::to_string(DiGraph::kMaxNodes + 1) + ":"),
      std::invalid_argument);
  EXPECT_THROW(DiGraph::from_string(":0>1"), std::invalid_argument);
  EXPECT_EQ(DiGraph::from_string("0:").num_nodes(), 0);
}

TEST(DiGraph, FromStringRejectsOutOfRangeEndpoints) {
  EXPECT_THROW(DiGraph::from_string("3:0>7"), std::invalid_argument);
  EXPECT_THROW(DiGraph::from_string("3:7>0"), std::invalid_argument);
  EXPECT_THROW(DiGraph::from_string("3:0>3"), std::invalid_argument);
  EXPECT_THROW(DiGraph::from_string("3:-1>0"), std::invalid_argument);
  EXPECT_THROW(DiGraph::from_string("3:0>-2"), std::invalid_argument);
  EXPECT_THROW(DiGraph::from_string("3:0>99999999999"), std::invalid_argument);
}

TEST(DiGraph, FromStringRejectsStrayCharacters) {
  for (const char* bad :
       {"3:0>1,", "3:0>1,,1>2", "3:0>1;1>2", "3:0>1 ", " 3:0>1", "3: 0>1",
        "3:0>>1", "3:0>1x", "3:+0>1", "3x:0>1", "3", "3:0", "3:0>", "3:>1"}) {
    EXPECT_THROW(DiGraph::from_string(bad), std::invalid_argument) << bad;
  }
  // The strict grammar still accepts everything to_string emits.
  const auto g = DiGraph::from_string("3:0>1,1>2,2>0");
  EXPECT_EQ(g.num_directed_edges(), 3);
  EXPECT_EQ(g.to_string(), "3:0>1,1>2,2>0");
}

TEST(DiGraph, EqualityIsStructural) {
  DiGraph a(3), b(3);
  a.add_edge(0, 1);
  b.add_edge(0, 1);
  EXPECT_EQ(a, b);
  b.add_edge(1, 2);
  EXPECT_FALSE(a == b);
}

// edges(), is_symmetric() and == read the packed bit rows; check them
// against plain has_edge scans on graphs wider than one 64-bit word, built
// in scrambled insertion order and thinned by removals.
TEST(DiGraph, BitRowQueriesMatchEdgeScans) {
  for (const int n : {5, 64, 65, 130}) {
    DiGraph g(n), h(n);
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(n);
    const auto next = [&x](int m) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return static_cast<int>(x % static_cast<std::uint64_t>(m));
    };
    for (int k = 0; k < 4 * n; ++k) g.add_duplex(next(n), next(n));
    for (int k = 0; k < n; ++k) g.remove_edge(next(n), next(n));
    std::vector<std::pair<int, int>> scan;
    bool symmetric = true;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (g.has_edge(i, j)) scan.emplace_back(i, j);
        symmetric &= g.has_edge(i, j) == g.has_edge(j, i);
      }
    EXPECT_EQ(g.edges(), scan) << n;
    EXPECT_EQ(g.is_symmetric(), symmetric) << n;
    for (auto it = scan.rbegin(); it != scan.rend(); ++it)
      h.add_edge(it->first, it->second);
    EXPECT_EQ(g, h) << n;
    h.remove_edge(scan.back().first, scan.back().second);
    EXPECT_FALSE(g == h) << n;
    EXPECT_FALSE(g == DiGraph(n + 1)) << n;
  }
}

}  // namespace
}  // namespace netsmith::topo
