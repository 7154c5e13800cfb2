// Randomized equivalence suite for the flat incremental MCLB engine
// (routing/mclb.cpp, FlatEvaluator) against the retained scan-based oracle:
// identical decision sequences must produce bit-identical path choices and
// bit-identical LoadObjective values, and the incrementally maintained
// objective must equal a fresh LoadObjective::of scan of the final loads.
//
// Weights in the weighted configs are dyadic rationals (multiples of 0.5),
// so every load, delta and sum-of-squares is exactly representable and the
// bit-identity contract holds (see the LoadObjective header comment).

#include "routing/mclb.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/anneal.hpp"
#include "routing/paths.hpp"
#include "topo/builders.hpp"
#include "topo/layout.hpp"
#include "topologies/registry.hpp"
#include "topo/metrics.hpp"
#include "util/rng.hpp"

namespace netsmith::routing {
namespace {

// Loads recomputed from scratch (sum over chosen paths in flow order) —
// independent of the add/remove history either engine went through.
std::vector<double> loads_of_choice(const PathSet& ps,
                                    const std::vector<int>& choice,
                                    const std::vector<double>& flow_weight) {
  std::vector<double> loads(ps.num_edges, 0.0);
  for (int f = 0; f < ps.num_flows(); ++f) {
    const int s = ps.flow_s[f], d = ps.flow_d[f];
    const double w =
        flow_weight.empty()
            ? 1.0
            : flow_weight[static_cast<std::size_t>(s) * ps.n + d];
    const int p = ps.path_begin[f] + choice[static_cast<std::size_t>(s) * ps.n + d];
    const std::int32_t* e = ps.edges_of(p);
    for (int i = 0; i < ps.path_length(p); ++i) loads[e[i]] += w;
  }
  return loads;
}

void expect_equivalent(const topo::DiGraph& g, int max_paths_per_flow,
                       const std::vector<double>& flow_weight,
                       const std::string& tag) {
  const auto ps = enumerate_shortest_paths(g, max_paths_per_flow);

  const auto flat = mclb_local_search(ps, flow_weight);
  const auto scan = mclb_local_search_scan(ps, flow_weight);

  // Bit-identical decisions and iteration trajectory.
  EXPECT_EQ(flat.choice, scan.choice) << tag;
  EXPECT_EQ(flat.iterations, scan.iterations) << tag;

  // Bit-identical objectives (max, at_max, sumsq all exact).
  EXPECT_TRUE(flat.objective.identical(scan.objective))
      << tag << ": flat(" << flat.objective.max << "," << flat.objective.at_max
      << "," << flat.objective.sumsq << ") scan(" << scan.objective.max << ","
      << scan.objective.at_max << "," << scan.objective.sumsq << ")";
  EXPECT_EQ(flat.max_load, scan.max_load) << tag;
  EXPECT_EQ(flat.max_flows_on_link, scan.max_flows_on_link) << tag;

  // The incremental state equals a from-scratch scan of the final loads.
  const auto fresh = LoadObjective::of(loads_of_choice(ps, flat.choice,
                                                       flow_weight));
  EXPECT_TRUE(flat.objective.identical(fresh)) << tag << " (vs fresh scan)";
}

TEST(MclbIncrementalEquivalence, RandomGraphsAllConfigs) {
  // >= 100 random graphs x {uniform, weighted, capped-path}. Mixed layouts
  // and radixes so path multiplicity, load levels and histogram churn vary;
  // includes disconnected graphs (flows without candidates are skipped by
  // both engines identically).
  const topo::Layout layouts[] = {{3, 4, 2.0}, {4, 4, 2.0}, {4, 5, 2.0}};
  util::Rng wrng(0xBADBEEF);
  int graphs = 0;
  for (int iter = 0; iter < 102; ++iter) {
    const auto& lay = layouts[iter % 3];
    const int radix = 3 + iter % 2;
    util::Rng rng(1000 + iter);
    const auto g = topo::build_random(lay, topo::LinkClass::kMedium, radix, rng);
    ++graphs;
    const std::string tag = "graph " + std::to_string(iter);

    // Uniform all-to-all (unit weights -> dense integer histogram path).
    expect_equivalent(g, 64, {}, tag + " uniform");

    // Weighted: dyadic weights (k * 0.5, k in 1..6) -> ordered-bucket path.
    const int n = lay.n();
    std::vector<double> w(static_cast<std::size_t>(n) * n, 0.0);
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d)
        if (s != d) w[static_cast<std::size_t>(s) * n + d] =
            0.5 * static_cast<double>(wrng.uniform_int(1, 6));
    expect_equivalent(g, 64, w, tag + " weighted");

    // Capped path set (4 per flow): different candidate geometry, more
    // contention per kept path.
    expect_equivalent(g, 4, {}, tag + " capped");
  }
  EXPECT_GE(graphs, 100);
}

TEST(MclbIncrementalEquivalence, HistogramCrossesBucketBoundaries) {
  // A 2xN mesh funnels many flows through few vertical links: the greedy
  // construction stacks loads level by level and the improvement rounds
  // drain maximal channels back down, so the histogram's running max both
  // grows past freshly allocated buckets and steps down across emptied
  // ones. The dense integer path (uniform) and the ordered-bucket path
  // (weighted) must both track it exactly.
  const auto g = topo::build_mesh(topo::Layout{2, 6, 2.0});
  expect_equivalent(g, 64, {}, "2x6 mesh uniform");

  const int n = 12;
  std::vector<double> w(static_cast<std::size_t>(n) * n, 1.0);
  // One very heavy corner-to-corner flow plus a few half-weight flows.
  w[0 * n + (n - 1)] = 8.0;
  w[(n - 1) * n + 0] = 8.0;
  for (int d = 1; d < n; d += 3) w[0 * n + d] = 0.5;
  expect_equivalent(g, 64, w, "2x6 mesh weighted");
}

void expect_same(const PathSet& got, const PathSet& ref,
                 const std::string& tag) {
  EXPECT_EQ(got.n, ref.n) << tag;
  EXPECT_EQ(got.num_edges, ref.num_edges) << tag;
  EXPECT_EQ(got.edge_src, ref.edge_src) << tag;
  EXPECT_EQ(got.edge_dst, ref.edge_dst) << tag;
  EXPECT_EQ(got.edge_id, ref.edge_id) << tag;
  EXPECT_EQ(got.flow_s, ref.flow_s) << tag;
  EXPECT_EQ(got.flow_d, ref.flow_d) << tag;
  EXPECT_EQ(got.flow_of_pair, ref.flow_of_pair) << tag;
  EXPECT_EQ(got.path_begin, ref.path_begin) << tag;
  EXPECT_EQ(got.edge_begin, ref.edge_begin) << tag;
  EXPECT_EQ(got.path_edges, ref.path_edges) << tag;
  EXPECT_EQ(got.path_nodes, ref.path_nodes) << tag;
}

// Runs the long-lived compiler on g and checks it against a fresh compiler
// (the full-pass DFS).
void check_step(PathCompiler& pc, PathSet& out, const topo::DiGraph& g,
                int cap, const std::string& tag) {
  const auto dist = topo::apsp_bfs(g);
  pc.enumerate(g, dist, cap, out);
  PathCompiler fresh_pc;
  PathSet fresh;
  fresh_pc.enumerate(g, dist, cap, fresh);
  expect_same(out, fresh, tag + " vs fresh compiler");
  EXPECT_LE(pc.last_recompiled_flows(), fresh_pc.last_recompiled_flows()) << tag;
}

TEST(PathCompiler, MatchesFreshCompilerAndReusesScratch) {
  // The annealer's per-move enumerator must produce a path set identical to
  // a fresh full pass, including across reused calls on unrelated graphs
  // and caps (stale state from a previous move must not leak).
  PathCompiler pc;
  PathSet reused;
  const int caps[] = {4, 64, 8};
  for (int iter = 0; iter < 12; ++iter) {
    util::Rng rng(7000 + iter);
    const auto g = topo::build_random(topo::Layout{4, 5, 2.0},
                                      topo::LinkClass::kMedium, 4, rng);
    check_step(pc, reused, g, caps[iter % 3], "graph " + std::to_string(iter));
  }
}

// One random related-graph move, the kinds the annealer makes and worse:
// one-way or duplex removals and additions, and duplex swaps. Removals are
// unconstrained, so walks disconnect the graph and leave unreachable pairs.
topo::DiGraph random_move(const topo::DiGraph& g, util::Rng& rng) {
  topo::DiGraph h = g;
  const int n = g.num_nodes();
  const auto pick_edge = [&] {
    const auto e = g.edges();
    return e[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(e.size()) - 1))];
  };
  const auto pick_non_edge = [&] {
    for (;;) {
      const int u = static_cast<int>(rng.uniform_int(0, n - 1));
      const int v = static_cast<int>(rng.uniform_int(0, n - 1));
      if (u != v && !g.has_edge(u, v) && !g.has_edge(v, u))
        return std::pair<int, int>{u, v};
    }
  };
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // one-way removal
      if (g.num_directed_edges() == 0) break;
      const auto [u, v] = pick_edge();
      h.remove_edge(u, v);
      break;
    }
    case 1: {  // one-way addition
      const auto [u, v] = pick_non_edge();
      h.add_edge(u, v);
      break;
    }
    case 2: {  // duplex removal
      if (g.num_directed_edges() == 0) break;
      const auto [u, v] = pick_edge();
      h.remove_edge(u, v);
      h.remove_edge(v, u);
      break;
    }
    case 3: {  // duplex addition
      const auto [u, v] = pick_non_edge();
      h.add_duplex(u, v);
      break;
    }
    default: {  // duplex swap
      if (g.num_directed_edges() == 0) break;
      const auto [a, b] = pick_edge();
      const auto [u, v] = pick_non_edge();
      h.remove_edge(a, b);
      h.remove_edge(b, a);
      h.add_duplex(u, v);
      break;
    }
  }
  return h;
}

// Walks `steps` related graphs from g with one long-lived compiler, as the
// annealer drives it: every candidate is enumerated, and commit() runs only
// when it is accepted; a third are rejected, and the walk re-scores the
// graph before the move (the committed base, every flow copied, as when the
// annealer re-scores its incumbent) and goes on from it. Halfway through,
// the cap changes (a full pass).
// Each candidate re-runs the DFS for no more flows than a fresh compiler
// diffing it against the committed graph, so a rejected candidate leaves
// nothing for the next one to redo. Returns the number of steps whose
// graph had an unreachable pair.
int walk(topo::DiGraph g, std::uint64_t seed, int steps,
         const std::string& tag) {
  util::Rng rng(seed);
  PathCompiler pc;
  PathSet out;
  int cap = 8;
  int disconnected = 0;
  check_step(pc, out, g, cap, tag + " start");
  for (int step = 0; step < steps; ++step) {
    const std::string at = tag + " step " + std::to_string(step);
    if (step == steps / 2) {
      cap = 3;
      check_step(pc, out, g, cap, at + " cap change");
    }
    const auto h = random_move(g, rng);
    check_step(pc, out, h, cap, at);
    PathCompiler diff;
    PathSet scratch;
    diff.enumerate(g, topo::apsp_bfs(g), cap, scratch);
    diff.enumerate(h, topo::apsp_bfs(h), cap, scratch);
    EXPECT_LE(pc.last_recompiled_flows(), diff.last_recompiled_flows()) << at;
    if (!topo::strongly_connected(h)) ++disconnected;
    if (rng.uniform_int(0, 2) == 0) {
      check_step(pc, out, g, cap, at + " rejected");
      EXPECT_EQ(pc.last_recompiled_flows(), 0) << at;  // g is the base
    } else {
      pc.commit(out);
      g = h;
    }
  }
  return disconnected;
}

TEST(PathCompiler, IncrementalWalksMatchFreshCompiles) {
  int disconnected = 0;
  std::uint64_t seed = 0x5EED;
  for (const auto& row : topologies::catalog(48))
    disconnected += walk(row.graph, seed++, 16, row.name);
  for (int iter = 0; iter < 16; ++iter) {
    util::Rng rng(9100 + iter);
    const auto g = topo::build_random(topo::Layout{4, 5, 2.0},
                                      topo::LinkClass::kMedium, 3 + iter % 2,
                                      rng);
    disconnected += walk(g, 500 + iter, 40, "random 4x5 #" + std::to_string(iter));
  }
  EXPECT_GT(disconnected, 0);  // the walks did reach unreachable pairs
}

TEST(PathCompiler, OutputDoesNotDependOnWhenCommitRuns) {
  // The annealer commits every accepted move, including one whose candidate
  // never reached enumerate() (a disconnected graph scores without
  // routing); commit() then adopts whatever set the last call wrote, even a
  // rejected candidate's. Any base is some graph's exact set, so every
  // later call still equals a fresh compile.
  util::Rng rng(77);
  const auto g0 = topo::build_random(topo::Layout{4, 5, 2.0},
                                     topo::LinkClass::kMedium, 4, rng);
  PathCompiler pc;
  PathSet out;
  check_step(pc, out, g0, 8, "start");

  topo::DiGraph g1 = g0;  // scored and rejected: no commit
  const auto [a, b] = g0.edges().front();
  g1.remove_edge(a, b);
  check_step(pc, out, g1, 8, "rejected candidate");

  topo::DiGraph g2 = g0;  // cut off router 0, never enumerated, accepted
  for (const int v : g0.out_neighbors(0)) g2.remove_edge(0, v);
  ASSERT_FALSE(topo::strongly_connected(g2));
  pc.commit(out);  // adopts g1's set, the last one written

  topo::DiGraph g3 = g2;  // reconnected, scored and accepted
  g3.add_edge(0, g0.out_neighbors(0).front());
  check_step(pc, out, g3, 8, "after a commit of a stale candidate");
  pc.commit(out);
  pc.commit(out);  // nothing enumerated since the last commit: a no-op
  check_step(pc, out, g0, 8, "back to the start graph");
  check_step(pc, out, g2, 8, "disconnected, now scored");
}

TEST(PathCompiler, DuplexSwapRedoesFewFlows) {
  // The annealer's typical move on the 48-router NetSmith design: one duplex
  // link out, one valid duplex link in. Most flows keep their paths.
  const topologies::NamedTopology* row = nullptr;
  for (const auto& r : topologies::catalog(48))
    if (r.name == "NS-LatOp-medium-48") row = &r;
  ASSERT_NE(row, nullptr);
  const auto& g = row->graph;
  std::vector<std::pair<int, int>> duplex, candidates;
  for (const auto& [u, v] : g.edges())
    if (u < v && g.has_edge(v, u)) duplex.emplace_back(u, v);
  for (const auto& [u, v] : topo::valid_links(row->layout, row->link_class))
    if (u < v && !g.has_edge(u, v) && !g.has_edge(v, u))
      candidates.emplace_back(u, v);
  ASSERT_FALSE(duplex.empty());
  ASSERT_FALSE(candidates.empty());

  PathCompiler pc;
  PathSet out;
  pc.enumerate(g, topo::apsp_bfs(g), 8, out);
  const int flows = pc.last_recompiled_flows();
  ASSERT_EQ(flows, 48 * 47);
  util::Rng rng(48);
  for (int trial = 0; trial < 16; ++trial) {
    const auto [a, b] = rng.pick(duplex);
    const auto [u, v] = rng.pick(candidates);
    topo::DiGraph h = g;
    h.remove_edge(a, b);
    h.remove_edge(b, a);
    h.add_duplex(u, v);
    check_step(pc, out, h, 8, "swap " + std::to_string(trial));
    EXPECT_LT(pc.last_recompiled_flows(), flows * 3 / 10)
        << "swap (" << a << "," << b << ") -> (" << u << "," << v << ")";
    pc.enumerate(g, topo::apsp_bfs(g), 8, out);  // rejected: back to g
  }
}

// FNV-1a 64 over everything the shared local-search driver decides for one
// path set, from both engines: the per-pair choice vector, the objective
// triple (bit patterns), the improvement-round evaluation count and the
// bottleneck flow count. The flat-vs-scan checks above cannot see a change
// to the driver both engines share; these digests, recorded from the driver
// before its single-path and multi-path-list shortcuts, can.
class DriverDigest {
 public:
  void add(const PathSet& ps, const std::vector<double>& w, int rounds) {
    for (const auto& r : {mclb_local_search(ps, w, rounds),
                          mclb_local_search_scan(ps, w, rounds)}) {
      for (const int c : r.choice) mix(c);
      mix(r.objective.max);
      mix(r.objective.at_max);
      mix(r.objective.sumsq);
      mix(r.iterations);
      mix(r.max_flows_on_link);
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  template <class T>
  void mix(T v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

// Survivors pinned to their routed path, severed flows re-enumerated on the
// degraded graph: the path set routing::repair_routes hands the driver.
PathSet repair_shaped(const topo::DiGraph& g, const PathSet& base,
                      const MclbResult& routed,
                      const std::vector<std::pair<int, int>>& down) {
  const int n = g.num_nodes();
  topo::DiGraph degraded = g;
  for (const auto& [u, v] : down) degraded.remove_edge(u, v);
  const auto table = routed.table(base);
  const auto dist = topo::apsp_bfs(degraded);
  PathCompiler dfs;
  dfs.set_graph(degraded);
  PathSet ps;
  ps.clear(n);
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const auto p = table.path(s, d);
      bool severed = false;
      for (std::size_t i = 0; i + 1 < p.size(); ++i)
        for (const auto& [u, v] : down)
          if (p[i] == u && p[i + 1] == v) severed = true;
      if (!severed) {
        if (!p.empty()) ps.add_path(p);
      } else {
        dfs.add_flow(dist, s, d, 8, ps);
      }
      ps.close_flow(s, d);
    }
  return ps;
}

TEST(MclbGolden, DriverDigests) {
  const int caps[] = {8, 24, 64};
  const auto rounds_of = [](int variant) { return variant == 0 ? 64 : 8; };

  // Catalog and baseline topologies at every cap, default and 8 rounds.
  const auto catalog_digest = [&](const std::vector<topologies::NamedTopology>&
                                      rows) {
    DriverDigest h;
    for (const auto& row : rows)
      for (const int cap : caps) {
        const auto ps = enumerate_shortest_paths(row.graph, cap);
        for (int variant = 0; variant < 2; ++variant)
          h.add(ps, {}, rounds_of(variant));
      }
    return h.hex();
  };
  EXPECT_EQ(catalog_digest(topologies::catalog(20)), "7cfaf374df19562d") << "catalog 20";
  EXPECT_EQ(catalog_digest(topologies::catalog(30)), "c7a1171d7989f12d") << "catalog 30";
  EXPECT_EQ(catalog_digest(topologies::catalog(48)), "8fa72c7c1378b2dd") << "catalog 48";
  {
    std::vector<topologies::NamedTopology> rows;
    for (const int routers : {20, 30, 48})
      for (const auto& row : topologies::baseline_catalog(routers))
        rows.push_back(row);
    EXPECT_EQ(catalog_digest(rows), "fa7a5b259d2543dd") << "baselines";
  }

  // The synth48 kLatLoad instance (8x6 NoI, medium links, radix 4, seed 2):
  // the incumbent after several move budgets, routed as the annealer
  // scores a move (8 paths per flow, 8 rounds) and with default rounds.
  {
    DriverDigest h;
    for (const long moves : {25L, 100L, 300L}) {
      core::SynthesisConfig cfg;
      cfg.layout = topo::Layout{8, 6, 2.0};
      cfg.link_class = topo::LinkClass::kMedium;
      cfg.radix = 4;
      cfg.objective = core::Objective::kLatLoad;
      cfg.time_limit_s = 600.0;
      cfg.restarts = 1;
      cfg.seed = 2;
      cfg.max_moves = moves;
      const auto g = core::anneal_synthesize(cfg).graph;
      const auto ps = enumerate_shortest_paths(g, core::kAnnealPathsPerFlow);
      h.add(ps, {}, core::kAnnealMclbRounds);
      h.add(ps, {}, 64);
    }
    EXPECT_EQ(h.hex(), "4fc5f481c5b64981") << "synth48 latload";
  }

  // Repair-shaped sets: each 48-router catalog design routed at cap 8, then
  // the duplex link under its first bottleneck channel cut.
  {
    DriverDigest h;
    for (const auto& row : topologies::catalog(48)) {
      const auto base = enumerate_shortest_paths(row.graph, 8);
      const auto routed = mclb_local_search(base);
      const auto loads = loads_of_choice(base, routed.choice, {});
      int e = 0;
      while (loads[e] != routed.objective.max) ++e;
      const int u = base.edge_src[e], v = base.edge_dst[e];
      std::vector<std::pair<int, int>> down = {{u, v}};
      if (row.graph.has_edge(v, u)) down.emplace_back(v, u);
      h.add(repair_shaped(row.graph, base, routed, down), {}, 64);
    }
    EXPECT_EQ(h.hex(), "d596d7b969376471") << "repair";
  }

  // Weighted searches (ordered-bucket evaluator): dyadic random weights on
  // random graphs, the 2x6 mesh funnel and the extreme-span diamond.
  {
    DriverDigest h;
    util::Rng wrng(0xBADBEEF);
    for (int iter = 0; iter < 12; ++iter) {
      util::Rng rng(1000 + iter);
      const topo::Layout lay{4, 5, 2.0};
      const auto g = topo::build_random(lay, topo::LinkClass::kMedium,
                                        3 + iter % 2, rng);
      const int n = lay.n();
      std::vector<double> w(static_cast<std::size_t>(n) * n, 0.0);
      for (int s = 0; s < n; ++s)
        for (int d = 0; d < n; ++d)
          if (s != d)
            w[static_cast<std::size_t>(s) * n + d] =
                0.5 * static_cast<double>(wrng.uniform_int(1, 6));
      const auto ps = enumerate_shortest_paths(g, 64);
      h.add(ps, w, 64);
      h.add(ps, w, 8);
    }
    {
      const auto g = topo::build_mesh(topo::Layout{2, 6, 2.0});
      const int n = 12;
      std::vector<double> w(static_cast<std::size_t>(n) * n, 1.0);
      w[0 * n + (n - 1)] = 8.0;
      w[(n - 1) * n + 0] = 8.0;
      for (int d = 1; d < n; d += 3) w[0 * n + d] = 0.5;
      h.add(enumerate_shortest_paths(g), w, 64);
    }
    {
      topo::DiGraph g(4);
      g.add_duplex(0, 1);
      g.add_duplex(0, 2);
      g.add_duplex(1, 3);
      g.add_duplex(2, 3);
      std::vector<double> w(16, 1.0);
      w[0 * 4 + 3] = 1e6;
      w[3 * 4 + 0] = 1e6;
      w[1 * 4 + 2] = 1e-6;
      w[2 * 4 + 1] = 1e-6;
      h.add(enumerate_shortest_paths(g), w, 64);
    }
    EXPECT_EQ(h.hex(), "8a871aeeb74a6c41") << "weighted";
  }
}

TEST(LoadObjectiveTolerance, RelativeToleranceAbsorbsLargeWeightNoise) {
  // Regression (satellite): with flow weights spanning {1e-6, 1, 1e6} the
  // loads sit at ~1e6 where one ulp is ~1.2e-10. An absolute 1e-12 epsilon
  // treats that summation noise as a genuine improvement; the
  // weight-relative tolerance must not.
  LoadObjective a{1e6, 3, 5e12};
  LoadObjective b{1e6 + 1e-9, 3, 5e12};
  // Old absolute-epsilon behavior: float noise looks like an improvement.
  EXPECT_TRUE(a.better_than(b, 1e-12));
  // Relative tolerance: neither dominates.
  const double eps = LoadObjective::tolerance(1e6);
  EXPECT_FALSE(a.better_than(b, eps));
  EXPECT_FALSE(b.better_than(a, eps));
  // Same guard on the sumsq tie-break, whose noise is quadratic in load.
  LoadObjective c{1e6, 3, 5e12 + 1e-3};
  EXPECT_FALSE(a.better_than(c, eps));
  EXPECT_FALSE(c.better_than(a, eps));
  // Genuine improvements still register.
  LoadObjective better{1e6 - 10.0, 1, 4e12};
  EXPECT_TRUE(better.better_than(a, eps));
  EXPECT_FALSE(a.better_than(better, eps));
}

TEST(LoadObjectiveTolerance, ExtremeWeightSpanSearchStaysStable) {
  // End-to-end regression: weights {1e-6, 1.0, 1e6} on a diamond with two
  // route choices per long flow. Both engines must terminate with the same
  // choices (the relative tolerance keeps them from churning on noise) and
  // the heavy flows must not share a channel when parallel routes exist.
  topo::DiGraph g(4);
  g.add_duplex(0, 1);
  g.add_duplex(0, 2);
  g.add_duplex(1, 3);
  g.add_duplex(2, 3);
  const int n = 4;
  std::vector<double> w(16, 1.0);
  w[0 * n + 3] = 1e6;   // heavy forward
  w[3 * n + 0] = 1e6;   // heavy reverse
  w[1 * n + 2] = 1e-6;  // featherweight cross flows
  w[2 * n + 1] = 1e-6;

  const auto ps = enumerate_shortest_paths(g);
  const auto flat = mclb_local_search(ps, w);
  const auto scan = mclb_local_search_scan(ps, w);
  EXPECT_EQ(flat.choice, scan.choice);
  EXPECT_EQ(flat.iterations, scan.iterations);
  EXPECT_TRUE(flat.table(ps).consistent_with(g));
  // The two heavy 2-hop flows take opposite parallel routes, so the
  // bottleneck carries exactly one heavy flow (plus sub-1.0 extras).
  EXPECT_LT(flat.objective.max, 1e6 + 2.0);
  EXPECT_GE(flat.objective.max, 1e6);
}

}  // namespace
}  // namespace netsmith::routing
