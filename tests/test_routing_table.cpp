#include "routing/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/artifact_io.hpp"
#include "topo/builders.hpp"

namespace netsmith::routing {
namespace {

TEST(RoutingTable, SelectFirstIsConsistentAndMinimal) {
  const auto g = topo::build_mesh(topo::Layout::noi_4x5());
  const auto ps = enumerate_shortest_paths(g);
  const auto rt = RoutingTable::select_first(ps);
  EXPECT_TRUE(rt.consistent_with(g));
  EXPECT_TRUE(rt.is_minimal(g));
}

TEST(RoutingTable, SelectRandomIsConsistentAndMinimal) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto ps = enumerate_shortest_paths(g);
  util::Rng rng(9);
  const auto rt = RoutingTable::select_random(ps, rng);
  EXPECT_TRUE(rt.consistent_with(g));
  EXPECT_TRUE(rt.is_minimal(g));
}

TEST(RoutingTable, NextHopFollowsPath) {
  topo::DiGraph g(4);
  g.add_duplex(0, 1);
  g.add_duplex(1, 2);
  g.add_duplex(2, 3);
  const auto rt = RoutingTable::select_first(enumerate_shortest_paths(g));
  EXPECT_EQ(rt.next_hop(0, 0, 3), 1);
  EXPECT_EQ(rt.next_hop(1, 0, 3), 2);
  EXPECT_EQ(rt.next_hop(2, 0, 3), 3);
  EXPECT_EQ(rt.next_hop(3, 0, 3), -1);  // arrived
  EXPECT_EQ(rt.next_hop(2, 0, 1), -1);  // not on route
}

TEST(RoutingTable, FromChoicePicksRequestedPath) {
  const topo::Layout lay{2, 2, 2.0};
  const auto g = topo::build_mesh(lay);
  const auto ps = enumerate_shortest_paths(g);
  const int s = lay.id(0, 0), d = lay.id(1, 1);
  const int f = ps.flow(s, d);
  ASSERT_EQ(ps.paths_of(f), 2);
  std::vector<int> choice(16, 0);
  choice[s * 4 + d] = 1;
  const auto rt = RoutingTable::from_choice(ps, choice);
  EXPECT_TRUE(
      std::ranges::equal(rt.path(s, d), ps.nodes_of(ps.path_begin[f] + 1)));
}

TEST(RoutingTable, InconsistentWhenEdgeMissing) {
  topo::DiGraph g(3);
  g.add_duplex(0, 1);
  g.add_duplex(1, 2);
  auto rt = RoutingTable(3);
  rt.set_path(0, 2, std::vector<int>{0, 2});  // no such edge
  rt.set_path(2, 0, std::vector<int>{2, 1, 0});
  rt.set_path(0, 1, std::vector<int>{0, 1});
  rt.set_path(1, 0, std::vector<int>{1, 0});
  rt.set_path(1, 2, std::vector<int>{1, 2});
  rt.set_path(2, 1, std::vector<int>{2, 1});
  EXPECT_FALSE(rt.consistent_with(g));
}

TEST(RoutingTable, NonMinimalDetected) {
  topo::DiGraph g(3);
  g.add_duplex(0, 1);
  g.add_duplex(1, 2);
  g.add_duplex(0, 2);
  auto rt = RoutingTable(3);
  for (int s = 0; s < 3; ++s)
    for (int d = 0; d < 3; ++d)
      if (s != d) rt.set_path(s, d, std::vector<int>{s, d});
  rt.set_path(0, 2, std::vector<int>{0, 1, 2});  // valid but detour
  EXPECT_TRUE(rt.consistent_with(g));
  EXPECT_FALSE(rt.is_minimal(g));
}

// Flat-arena oracles on seeded random graphs: a strongly connected ring plus
// random chords, so flows have several shortest paths of mixed lengths.
topo::DiGraph random_graph(int n, util::Rng& rng) {
  topo::DiGraph g(n);
  for (int i = 0; i < n; ++i) g.add_duplex(i, (i + 1) % n);
  for (int k = 0; k < n; ++k) {
    const int u = static_cast<int>(rng.uniform_int(0, n - 1));
    const int v = static_cast<int>(rng.uniform_int(0, n - 1));
    if (u != v) g.add_edge(u, v);
  }
  return g;
}

// Both table builders over one random path set per (n, seed).
std::vector<RoutingTable> random_tables(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto g = random_graph(n, rng);
  const auto ps = enumerate_shortest_paths(g, 8);
  std::vector<int> choice(static_cast<std::size_t>(n) * n, 0);
  for (int f = 0; f < ps.num_flows(); ++f)
    choice[static_cast<std::size_t>(ps.flow_s[f]) * n + ps.flow_d[f]] =
        static_cast<int>(rng.uniform_int(0, ps.paths_of(f) - 1));
  std::vector<RoutingTable> out{RoutingTable::from_choice(ps, choice),
                                RoutingTable::select_random(ps, rng)};
  for (const auto& rt : out) EXPECT_TRUE(rt.consistent_with(g));
  return out;
}

void expect_same_routes(const RoutingTable& a, const RoutingTable& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (int s = 0; s < a.num_nodes(); ++s)
    for (int d = 0; d < a.num_nodes(); ++d)
      ASSERT_TRUE(std::ranges::equal(a.path(s, d), b.path(s, d)))
          << s << "->" << d;
}

TEST(RoutingTable, PackedTablesRoundTripFlowByFlow) {
  for (int n : {5, 17, 48})
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      for (const auto& rt : random_tables(n, seed)) {
        const std::string text = api::pack_table(rt);
        RoutingTable back;
        ASSERT_TRUE(api::unpack_table(text, n, back));
        expect_same_routes(rt, back);
        EXPECT_EQ(api::pack_table(back), text);
      }
    }
}

TEST(RoutingTable, CopyEqualsSource) {
  for (int n : {5, 17, 48}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto tables = random_tables(n, 11);
    const RoutingTable copy = tables[0];
    expect_same_routes(copy, tables[0]);
    RoutingTable assigned = tables[0];
    assigned = tables[1];
    expect_same_routes(assigned, tables[1]);
  }
}

TEST(RoutingTable, NextHopMatchesScanOverVectorCopy) {
  for (int n : {5, 17, 48})
    for (const auto& rt : random_tables(n, 21)) {
      SCOPED_TRACE("n=" + std::to_string(n));
      for (int s = 0; s < n; ++s)
        for (int d = 0; d < n; ++d) {
          const auto span = rt.path(s, d);
          const std::vector<int> route(span.begin(), span.end());
          auto scan = [&](int cur) {
            for (std::size_t i = 0; i + 1 < route.size(); ++i)
              if (route[i] == cur) return route[i + 1];
            return -1;
          };
          for (int cur : route) ASSERT_EQ(rt.next_hop(cur, s, d), scan(cur));
          ASSERT_EQ(rt.next_hop(-1, s, d), -1);
        }
    }
}

// set_path in any flow order, and over a flow already set: a longer route
// moves to the arena's end, a shorter one is written in place, and no
// other flow's route changes.
TEST(RoutingTable, SetPathOutOfFlowOrder) {
  topo::DiGraph g(4);
  for (int i = 0; i < 4; ++i) g.add_duplex(i, (i + 1) % 4);
  auto clockwise = [](int s, int d) {
    std::vector<int> r{s};
    while (r.back() != d) r.push_back((r.back() + 1) % 4);
    return r;
  };
  RoutingTable rt(4);
  std::vector<std::vector<int>> want(16);
  for (int f : {9, 2, 14, 7, 1, 11, 4, 13, 6, 3, 12, 8}) {
    want[f] = clockwise(f / 4, f % 4);
    rt.set_path(f / 4, f % 4, want[f]);
  }
  EXPECT_TRUE(rt.consistent_with(g));
  want[1] = {0, 3, 2, 1};  // longer: relocated
  rt.set_path(0, 1, want[1]);
  want[4] = {1, 0};  // shorter: in place
  rt.set_path(1, 0, want[4]);
  EXPECT_TRUE(rt.consistent_with(g));
  for (int f = 0; f < 16; ++f)
    EXPECT_TRUE(std::ranges::equal(rt.path(f / 4, f % 4), want[f])) << f;
  rt.set_path(3, 1, std::vector<int>{});
  EXPECT_TRUE(rt.path(3, 1).empty());
  EXPECT_FALSE(rt.consistent_with(g));
}

}  // namespace
}  // namespace netsmith::routing
