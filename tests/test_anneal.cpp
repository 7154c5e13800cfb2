#include "core/anneal.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/netsmith.hpp"
#include "core/objective.hpp"
#include "routing/mclb.hpp"
#include "routing/paths.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {
namespace {

SynthesisConfig small_cfg(Objective obj, double secs = 1.5) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 3, 2.0};
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 3;
  cfg.objective = obj;
  cfg.time_limit_s = secs;
  cfg.restarts = 2;
  cfg.seed = 11;
  return cfg;
}

TEST(Anneal, ProducesValidTopology) {
  const auto cfg = small_cfg(Objective::kLatOp);
  const auto r = synthesize(cfg);
  EXPECT_TRUE(topo::strongly_connected(r.graph));
  EXPECT_TRUE(topo::respects_radix(r.graph, cfg.radix));
  EXPECT_TRUE(topo::respects_link_class(r.graph, cfg.layout, cfg.link_class));
}

TEST(Anneal, ObjectiveMatchesGraph) {
  const auto r = synthesize(small_cfg(Objective::kLatOp));
  EXPECT_NEAR(r.objective_value, topo::average_hops(r.graph), 1e-9);
}

TEST(Anneal, RespectsSymmetryConstraint) {
  auto cfg = small_cfg(Objective::kLatOp);
  cfg.symmetric_links = true;
  const auto r = synthesize(cfg);
  EXPECT_TRUE(r.graph.is_symmetric());
  EXPECT_TRUE(topo::respects_radix(r.graph, cfg.radix));
}

TEST(Anneal, TraceIncumbentMonotone) {
  const auto r = synthesize(small_cfg(Objective::kLatOp));
  ASSERT_FALSE(r.trace.empty());
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_LE(r.trace[i].incumbent, r.trace[i - 1].incumbent + 1e-12);
  // Gap closes (or at least never goes negative nonsense).
  for (const auto& pt : r.trace) EXPECT_GE(pt.incumbent + 1e-9, pt.bound);
}

TEST(Anneal, BoundIsValidLowerBound) {
  const auto r = synthesize(small_cfg(Objective::kLatOp));
  EXPECT_GE(r.objective_value + 1e-9, r.bound);
}

TEST(Anneal, ScopMaximizesCut) {
  const auto r = synthesize(small_cfg(Objective::kSCOp, 2.0));
  EXPECT_TRUE(topo::strongly_connected(r.graph));
  const auto cut = topo::sparsest_cut_exact(r.graph);
  EXPECT_NEAR(r.objective_value, cut.bandwidth, 1e-9);
  EXPECT_LE(r.objective_value, r.bound + 1e-9);  // bound is an upper bound
  EXPECT_GT(r.objective_value, 0.0);
}

TEST(Anneal, ScopBeatsOrMatchesLatOpOnBandwidth) {
  const auto lat = synthesize(small_cfg(Objective::kLatOp, 2.0));
  const auto scp = synthesize(small_cfg(Objective::kSCOp, 2.0));
  const auto bw_lat = topo::sparsest_cut_exact(lat.graph).bandwidth;
  const auto bw_scp = topo::sparsest_cut_exact(scp.graph).bandwidth;
  EXPECT_GE(bw_scp + 1e-9, bw_lat);
}

TEST(Anneal, PatternObjectiveSpecializes) {
  auto cfg = small_cfg(Objective::kPattern, 2.0);
  const int n = cfg.layout.n();
  // Traffic only between the two far corners.
  cfg.pattern = util::Matrix<double>(n, n, 0.0);
  cfg.pattern(0, n - 1) = 1.0;
  cfg.pattern(n - 1, 0) = 1.0;
  const auto r = synthesize(cfg);
  const auto dist = topo::apsp_bfs(r.graph);
  // A medium link (2,0) exists, so corner-to-corner should be <= 2 hops on a
  // 2x3 layout once the optimizer dedicates links to the pattern.
  EXPECT_LE(dist(0, n - 1), 2);
  EXPECT_LE(dist(n - 1, 0), 2);
}

TEST(Anneal, DiameterBoundHonored) {
  auto cfg = small_cfg(Objective::kLatOp, 1.5);
  cfg.diameter_bound = 3;
  const auto r = synthesize(cfg);
  EXPECT_LE(topo::diameter(r.graph), 3);
}

TEST(Anneal, DeterministicForSeed) {
  // Time-based annealing is not bit-reproducible across runs, but the
  // *result quality* for a fixed seed and ample budget must be stable: both
  // runs reach the small-instance optimum.
  const auto a = synthesize(small_cfg(Objective::kLatOp, 1.0));
  const auto b = synthesize(small_cfg(Objective::kLatOp, 1.0));
  EXPECT_NEAR(a.objective_value, b.objective_value, 0.15);
}

// With a per-restart move budget the schedule is move-driven, so a fixed
// seed must reproduce the incumbent bit-exactly at any thread count: the
// parallel best-of reduction walks restarts in index order with the same
// strictly-better rule as the serial loop.
TEST(Anneal, ParallelRestartsBitExactLatOp) {
  auto cfg = small_cfg(Objective::kLatOp);
  cfg.restarts = 4;
  AnnealOptions serial;
  serial.threads = 1;
  serial.max_moves = 3000;
  AnnealOptions parallel = serial;
  parallel.threads = 4;
  const auto a = anneal_synthesize(cfg, serial);
  const auto b = anneal_synthesize(cfg, parallel);
  EXPECT_TRUE(a.graph == b.graph);
  EXPECT_EQ(a.objective_value, b.objective_value);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.trace.size(), b.trace.size());
}

TEST(Anneal, ParallelRestartsBitExactScop) {
  auto cfg = small_cfg(Objective::kSCOp);
  cfg.restarts = 3;
  AnnealOptions serial;
  serial.threads = 1;
  serial.max_moves = 1500;
  AnnealOptions parallel = serial;
  parallel.threads = 3;
  const auto a = anneal_synthesize(cfg, serial);
  const auto b = anneal_synthesize(cfg, parallel);
  EXPECT_TRUE(a.graph == b.graph);
  EXPECT_EQ(a.objective_value, b.objective_value);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.accepted, b.accepted);
}

// Move-budgeted runs are reproducible run-to-run (not just across thread
// counts): same seed, same graph.
TEST(Anneal, MoveBudgetDeterministicAcrossRuns) {
  auto cfg = small_cfg(Objective::kLatOp);
  cfg.restarts = 2;
  AnnealOptions opts;
  opts.max_moves = 2000;
  const auto a = anneal_synthesize(cfg, opts);
  const auto b = anneal_synthesize(cfg, opts);
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
// directly — running the compiled path-enum -> MCLB pipeline inside every
// move — must match or beat the hop-count proxy on the load metric.
TEST(Anneal, ChannelLoadObjectiveBeatsHopProxyOnLoad) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout::noi_4x5();
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 4;
  cfg.restarts = 2;
  cfg.seed = 9;
  AnnealOptions opts;
  opts.max_moves = 2500;  // move-budgeted: deterministic and load-insensitive

  cfg.objective = Objective::kLatOp;
  const auto lat = anneal_synthesize(cfg, opts);
  cfg.objective = Objective::kChannelLoad;
  const auto cl = anneal_synthesize(cfg, opts);

  EXPECT_TRUE(topo::strongly_connected(cl.graph));
  EXPECT_TRUE(topo::respects_radix(cl.graph, cfg.radix));
  EXPECT_TRUE(topo::respects_link_class(cl.graph, cfg.layout, cfg.link_class));

  EXPECT_LE(routed_max_load(cl.graph), routed_max_load(lat.graph) + 1e-12);

  // objective_value is exactly what the move evaluator saw: the capped
  // pipeline re-run on the returned graph reproduces it.
  const auto capped = routing::enumerate_shortest_paths(
      cl.graph, cfg.anneal_paths_per_flow);
  EXPECT_NEAR(cl.objective_value,
              routing::mclb_local_search(capped, {}, cfg.anneal_mclb_rounds)
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
  AnnealOptions opts;
  opts.max_moves = 2500;

  cfg.objective = Objective::kLatOp;
  const auto lat = anneal_synthesize(cfg, opts);
  cfg.objective = Objective::kLatLoad;
  const auto ll = anneal_synthesize(cfg, opts);

  EXPECT_TRUE(topo::strongly_connected(ll.graph));
  // The combined mode may trade a little latency for load, but not much...
  EXPECT_LE(topo::average_hops(ll.graph), topo::average_hops(lat.graph) + 0.2);
  // ...and must not ship a worse bottleneck than the hop-only proxy.
  EXPECT_LE(routed_max_load(ll.graph), routed_max_load(lat.graph) + 1e-12);
}

// The route-aware scoring path must preserve the parallel-restart
// determinism contract: move-budgeted runs are bit-exact across thread
// counts.
TEST(Anneal, ParallelRestartsBitExactChannelLoad) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 3, 2.0};
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 3;
  cfg.objective = Objective::kChannelLoad;
  cfg.restarts = 3;
  cfg.seed = 11;
  AnnealOptions serial;
  serial.threads = 1;
  serial.max_moves = 1200;
  AnnealOptions parallel = serial;
  parallel.threads = 3;
  const auto a = anneal_synthesize(cfg, serial);
  const auto b = anneal_synthesize(cfg, parallel);
  EXPECT_TRUE(a.graph == b.graph);
  EXPECT_EQ(a.objective_value, b.objective_value);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.accepted, b.accepted);
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
    AnnealOptions opts;
    opts.max_moves = c.max_moves;
    const auto r = anneal_synthesize(cfg, opts);
    EXPECT_EQ(synthesis_digest(r), c.digest)
        << c.name << ": 0x" << std::hex << synthesis_digest(r);
  }
}

TEST(Anneal, FillsPortBudgetOnLargerInstance) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout::noi_4x5();
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.objective = Objective::kLatOp;
  cfg.time_limit_s = 2.0;
  cfg.restarts = 1;
  cfg.seed = 5;
  const auto r = synthesize(cfg);
  // Paper SV-D: NetSmith "maximally uses all available router ports".
  EXPECT_GE(r.graph.num_directed_edges(), 70);  // of 80 possible
  // Even a 2-second budget must land below the folded torus (2.32); the
  // full-budget runs reach ~2.07 (Table II reproduction).
  EXPECT_LT(topo::average_hops(r.graph), 2.32);
}

}  // namespace
}  // namespace netsmith::core
