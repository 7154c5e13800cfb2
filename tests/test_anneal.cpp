#include "core/anneal.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/objective.hpp"
#include "routing/mclb.hpp"
#include "routing/paths.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {
namespace {

// Move-budgeted, so every test below is deterministic and load-insensitive.
SynthesisConfig small_cfg(Objective obj) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 3, 2.0};
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 3;
  cfg.objective = obj;
  cfg.max_moves = 20000;
  cfg.restarts = 2;
  cfg.seed = 11;
  return cfg;
}

// The one wall-clock-budgeted run covers the time-driven schedule. Its
// assertions are structural only, so CPU contention cannot fail it.
TEST(Anneal, ProducesValidTopology) {
  auto cfg = small_cfg(Objective::kLatOp);
  cfg.max_moves = 0;
  cfg.time_limit_s = 0.2;
  const auto r = anneal_synthesize(cfg);
  EXPECT_TRUE(topo::strongly_connected(r.graph));
  EXPECT_TRUE(topo::respects_radix(r.graph, cfg.radix));
  EXPECT_TRUE(topo::respects_link_class(r.graph, cfg.layout, cfg.link_class));
}

TEST(Anneal, ObjectiveMatchesGraph) {
  const auto r = anneal_synthesize(small_cfg(Objective::kLatOp));
  EXPECT_NEAR(r.objective_value, topo::average_hops(r.graph), 1e-9);
}

TEST(Anneal, RespectsSymmetryConstraint) {
  auto cfg = small_cfg(Objective::kLatOp);
  cfg.symmetric_links = true;
  const auto r = anneal_synthesize(cfg);
  EXPECT_TRUE(r.graph.is_symmetric());
  EXPECT_TRUE(topo::respects_radix(r.graph, cfg.radix));
}

TEST(Anneal, TraceIncumbentMonotone) {
  const auto r = anneal_synthesize(small_cfg(Objective::kLatOp));
  ASSERT_FALSE(r.trace.empty());
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_LE(r.trace[i].incumbent, r.trace[i - 1].incumbent + 1e-12);
  // Gap closes (or at least never goes negative nonsense).
  for (const auto& pt : r.trace) EXPECT_GE(pt.incumbent + 1e-9, pt.bound);
}

TEST(Anneal, BoundIsValidLowerBound) {
  const auto r = anneal_synthesize(small_cfg(Objective::kLatOp));
  EXPECT_GE(r.objective_value + 1e-9, r.bound);
}

TEST(Anneal, ScopMaximizesCut) {
  const auto r = anneal_synthesize(small_cfg(Objective::kSCOp));
  EXPECT_TRUE(topo::strongly_connected(r.graph));
  const auto cut = topo::sparsest_cut_exact(r.graph);
  EXPECT_NEAR(r.objective_value, cut.bandwidth, 1e-9);
  EXPECT_LE(r.objective_value, r.bound + 1e-9);  // bound is an upper bound
  EXPECT_GT(r.objective_value, 0.0);
}

TEST(Anneal, ScopBeatsOrMatchesLatOpOnBandwidth) {
  const auto lat = anneal_synthesize(small_cfg(Objective::kLatOp));
  const auto scp = anneal_synthesize(small_cfg(Objective::kSCOp));
  const auto bw_lat = topo::sparsest_cut_exact(lat.graph).bandwidth;
  const auto bw_scp = topo::sparsest_cut_exact(scp.graph).bandwidth;
  EXPECT_GE(bw_scp + 1e-9, bw_lat);
}

TEST(Anneal, PatternObjectiveSpecializes) {
  auto cfg = small_cfg(Objective::kPattern);
  const int n = cfg.layout.n();
  // Traffic only between the two far corners.
  cfg.pattern = util::Matrix<double>(n, n, 0.0);
  cfg.pattern(0, n - 1) = 1.0;
  cfg.pattern(n - 1, 0) = 1.0;
  const auto r = anneal_synthesize(cfg);
  const auto dist = topo::apsp_bfs(r.graph);
  // A medium link (2,0) exists, so corner-to-corner should be <= 2 hops on a
  // 2x3 layout once the optimizer dedicates links to the pattern.
  EXPECT_LE(dist(0, n - 1), 2);
  EXPECT_LE(dist(n - 1, 0), 2);
}

TEST(Anneal, DiameterBoundHonored) {
  auto cfg = small_cfg(Objective::kLatOp);
  cfg.diameter_bound = 3;
  const auto r = anneal_synthesize(cfg);
  EXPECT_LE(topo::diameter(r.graph), 3);
}

TEST(Anneal, DeterministicForSeed) {
  // The *result quality* for a fixed seed and ample budget must be stable:
  // both runs reach the small-instance optimum.
  const auto a = anneal_synthesize(small_cfg(Objective::kLatOp));
  const auto b = anneal_synthesize(small_cfg(Objective::kLatOp));
  EXPECT_NEAR(a.objective_value, b.objective_value, 0.15);
}

// Move-budgeted runs are reproducible run-to-run: same seed, same graph.
TEST(Anneal, MoveBudgetDeterministicAcrossRuns) {
  auto cfg = small_cfg(Objective::kLatOp);
  cfg.restarts = 2;
  cfg.max_moves = 2000;
  const auto a = anneal_synthesize(cfg);
  const auto b = anneal_synthesize(cfg);
  EXPECT_TRUE(a.graph == b.graph);
  EXPECT_EQ(a.objective_value, b.objective_value);
}

// MCLB max normalized channel load under full shortest-path enumeration —
// the deployment-quality routing the synthesized topology would ship with.
double routed_max_load(const topo::DiGraph& g) {
  return routing::mclb_local_search(routing::enumerate_shortest_paths(g))
      .max_load;
}

// Route-aware synthesis (paper-scale n = 20): optimizing max channel load
// directly — running the flat path-enum -> MCLB pipeline inside every
// move — must match or beat the hop-count proxy on the load metric.
TEST(Anneal, ChannelLoadObjectiveBeatsHopProxyOnLoad) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout::noi_4x5();
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 4;
  cfg.restarts = 2;
  cfg.seed = 9;
  cfg.max_moves = 2500;  // move-budgeted: deterministic and load-insensitive

  cfg.objective = Objective::kLatOp;
  const auto lat = anneal_synthesize(cfg);
  cfg.objective = Objective::kChannelLoad;
  const auto cl = anneal_synthesize(cfg);

  EXPECT_TRUE(topo::strongly_connected(cl.graph));
  EXPECT_TRUE(topo::respects_radix(cl.graph, cfg.radix));
  EXPECT_TRUE(topo::respects_link_class(cl.graph, cfg.layout, cfg.link_class));

  EXPECT_LE(routed_max_load(cl.graph), routed_max_load(lat.graph) + 1e-12);

  // objective_value is exactly what the move evaluator saw: the capped
  // pipeline re-run on the returned graph reproduces it.
  const auto capped = routing::enumerate_shortest_paths(
      cl.graph, kAnnealPathsPerFlow);
  EXPECT_NEAR(cl.objective_value,
              routing::mclb_local_search(capped, {}, kAnnealMclbRounds)
                  .max_load,
              1e-12);
  EXPECT_GE(cl.objective_value + 1e-9, cl.bound);  // analytic load bound
}

TEST(Anneal, LatLoadCombinedObjectiveBalancesBoth) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout::noi_4x5();
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 4;
  cfg.restarts = 2;
  cfg.seed = 9;
  cfg.max_moves = 2500;

  cfg.objective = Objective::kLatOp;
  const auto lat = anneal_synthesize(cfg);
  cfg.objective = Objective::kLatLoad;
  const auto ll = anneal_synthesize(cfg);

  EXPECT_TRUE(topo::strongly_connected(ll.graph));
  // The combined mode may trade a little latency for load, but not much...
  EXPECT_LE(topo::average_hops(ll.graph), topo::average_hops(lat.graph) + 0.2);
  // ...and must not ship a worse bottleneck than the hop-only proxy.
  EXPECT_LE(routed_max_load(ll.graph), routed_max_load(lat.graph) + 1e-12);
}

// FNV-1a over everything a move-budgeted route-aware synthesis decides: the
// edge list, the primary objective, the secondary (average hops), the move
// counters and the incumbent trajectory. Trace seconds are wall-clock and
// stay out.
std::uint64_t synthesis_digest(const SynthesisResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_d = [&mix](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  for (const auto& [i, j] : r.graph.edges()) {
    mix(static_cast<std::uint64_t>(i));
    mix(static_cast<std::uint64_t>(j));
  }
  mix_d(r.objective_value);
  mix_d(topo::average_hops(r.graph));
  mix(static_cast<std::uint64_t>(r.moves));
  mix(static_cast<std::uint64_t>(r.accepted));
  for (const auto& pt : r.trace) mix_d(pt.incumbent);
  return h;
}

// Recorded goldens for the route-aware objectives: every scored move runs
// path enumeration + MCLB, so any drift in either (or in the order the
// annealer consumes them) changes the search trajectory and the digest.
TEST(AnnealGolden, RouteAwareSynthesisDigests) {
  const struct {
    const char* name;
    topo::Layout layout;
    Objective objective;
    long max_moves;
    int restarts;
    std::uint64_t digest;
  } cases[] = {
      {"4x5 latload", topo::Layout::noi_4x5(), Objective::kLatLoad, 600, 2,
       0x296576b2c39ae132ull},
      {"4x5 channel-load", topo::Layout::noi_4x5(), Objective::kChannelLoad,
       600, 2, 0x90544a8d4ff37e12ull},
      {"8x6 latload", topo::Layout::noi_8x6(), Objective::kLatLoad, 200, 1,
       0xf32f086a2aa1efc6ull},
      {"8x6 channel-load", topo::Layout::noi_8x6(), Objective::kChannelLoad,
       200, 1, 0x3853d00ccb93d411ull},
  };
  for (const auto& c : cases) {
    SynthesisConfig cfg;
    cfg.layout = c.layout;
    cfg.link_class = topo::LinkClass::kMedium;
    cfg.radix = 4;
    cfg.objective = c.objective;
    cfg.restarts = c.restarts;
    cfg.seed = 23;
    cfg.max_moves = c.max_moves;
    const auto r = anneal_synthesize(cfg);
    EXPECT_EQ(synthesis_digest(r), c.digest)
        << c.name << ": 0x" << std::hex << synthesis_digest(r);
  }
}

// synthesis_digest continued over the delta-APSP row re-sweeps, then a zero
// word in the place of a retired counter, so every recorded digest holds.
std::uint64_t restart_digest(const SynthesisResult& r) {
  std::uint64_t h = synthesis_digest(r);
  for (const long v : {r.apsp_resweeps, 0L})
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

// Recorded goldens for multi-restart searches: restarts run serially in
// index order and the best-of reduction keeps the first strictly-better
// outcome, so the winner, the summed counters and the merged trace are all
// pinned here.
TEST(AnnealGolden, MultiRestartDigests) {
  const auto with = [](SynthesisConfig cfg, int restarts, long moves) {
    cfg.restarts = restarts;
    cfg.max_moves = moves;
    return cfg;
  };
  SynthesisConfig grid86 = small_cfg(Objective::kLatOp);
  grid86.layout = topo::Layout{8, 6, 2.0};
  grid86.radix = 4;
  grid86.seed = 23;
  SynthesisConfig grid108 = grid86;
  grid108.layout = topo::Layout{10, 8, 2.0};
  SynthesisConfig grid86_sym = grid86;
  grid86_sym.symmetric_links = true;
  SynthesisConfig grid86_c7 = grid86;
  grid86_c7.min_cut_bandwidth = 0.013;  // binds (0.01 runs as if unset)
  SynthesisConfig grid168 = grid86;
  grid168.layout = topo::Layout{16, 8, 2.0};
  SynthesisConfig grid1616 = grid86;
  grid1616.layout = topo::Layout{16, 16, 2.0};
  const struct {
    const char* name;
    SynthesisConfig cfg;
    std::uint64_t digest;
  } cases[] = {
      {"2x3 latop 4x3000", with(small_cfg(Objective::kLatOp), 4, 3000),
       0x5fa91a7208835e12ull},
      {"2x3 scop 3x1500", with(small_cfg(Objective::kSCOp), 3, 1500),
       0x6ea1dfb48d37ad58ull},
      {"2x3 channel-load 3x1200",
       with(small_cfg(Objective::kChannelLoad), 3, 1200),
       0xb464b360c94eb66eull},
      // Delta-APSP rows: n = 48 fits one 64-bit word per row set,
      // n = 80 needs two (and the multi-word BFS), and the symmetric row
      // removes twin pairs.
      {"8x6 latop 1x20000", with(grid86, 1, 20000),
       0x01021264a9a579beull},
      {"10x8 latop 1x3000", with(grid108, 1, 3000),
       0x3e285e513ffcec36ull},
      {"8x6 symmetric latop 1x5000", with(grid86_sym, 1, 5000),
       0x762a49d9a225f200ull},
      // kLatOp under a C7 penalty (scored through the cut cache), then
      // multi-restart and multi-word rows at n = 48, 128 and 256.
      {"8x6 latop min-cut 1x3000", with(grid86_c7, 1, 3000),
       0xd62d2c919fc357a1ull},
      {"16x8 latop 1x3000", with(grid168, 1, 3000),
       0x1f9ffdc9e2ab26c8ull},
      {"8x6 latop 2x3000", with(grid86, 2, 3000), 0xe81ab34efa3ef162ull},
      {"16x16 latop 1x1500", with(grid1616, 1, 1500),
       0xba37370ba9598b1cull},
  };
  for (const auto& c : cases) {
    const auto r = anneal_synthesize(c.cfg);
    EXPECT_EQ(restart_digest(r), c.digest)
        << c.name << ": 0x" << std::hex << restart_digest(r);
  }
}

// Recorded goldens for the pattern-weighted and sparsest-cut objectives on
// paper-scale layouts. kPattern scores every move with weighted hops over
// the maintained rows; the mixed-weight row makes every partial sum
// inexact, so it pins the accumulation order too. kSCOp at n = 20 runs the
// exact cut enumerator on every cache refresh.
TEST(AnnealGolden, PatternAndCutDigests) {
  const auto cfg_for = [](topo::Layout layout, Objective objective,
                          long moves) {
    SynthesisConfig cfg;
    cfg.layout = layout;
    cfg.link_class = topo::LinkClass::kMedium;
    cfg.radix = 4;
    cfg.objective = objective;
    cfg.restarts = 1;
    cfg.seed = 23;
    cfg.max_moves = moves;
    if (objective == Objective::kPattern)
      cfg.pattern = shuffle_pattern(layout.n());
    return cfg;
  };
  auto mixed = cfg_for(topo::Layout::noi_4x5(), Objective::kPattern, 6000);
  const auto tornado = tornado_pattern(20);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d)
      mixed.pattern(s, d) = 0.7 * mixed.pattern(s, d) + 0.3 * tornado(s, d);
  const struct {
    const char* name;
    SynthesisConfig cfg;
    std::uint64_t digest;
  } cases[] = {
      {"4x5 shuffle pattern 1x6000",
       cfg_for(topo::Layout::noi_4x5(), Objective::kPattern, 6000),
       0x2f8c92463f0ccd6eull},
      {"4x5 mixed pattern 1x6000", mixed, 0xd7c1306558acfe18ull},
      {"8x6 shuffle pattern 1x3000",
       cfg_for(topo::Layout::noi_8x6(), Objective::kPattern, 3000),
       0xa7e66eec76c3bc1full},
      {"4x5 scop 1x6000",
       cfg_for(topo::Layout::noi_4x5(), Objective::kSCOp, 6000),
       0x0244dd2a5ca634faull},
  };
  for (const auto& c : cases) {
    const auto r = anneal_synthesize(c.cfg);
    EXPECT_EQ(restart_digest(r), c.digest)
        << c.name << ": 0x" << std::hex << restart_digest(r);
  }
}

TEST(Anneal, FillsPortBudgetOnLargerInstance) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout::noi_4x5();
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.objective = Objective::kLatOp;
  cfg.max_moves = 50000;
  cfg.restarts = 1;
  cfg.seed = 5;
  const auto r = anneal_synthesize(cfg);
  // Paper SV-D: NetSmith "maximally uses all available router ports".
  EXPECT_GE(r.graph.num_directed_edges(), 70);  // of 80 possible
  // Even a short budget must land below the folded torus (2.32); the
  // full-budget runs reach ~2.07 (Table II reproduction).
  EXPECT_LT(topo::average_hops(r.graph), 2.32);
}

}  // namespace
}  // namespace netsmith::core
