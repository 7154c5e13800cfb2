#include "core/milp_encoding.hpp"

#include <gtest/gtest.h>

#include "core/anneal.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {
namespace {

TEST(MilpEncoding, LatOpTinyLayoutSolves) {
  const topo::Layout lay{2, 2, 2.0};
  auto enc = encode_latop(lay, topo::LinkClass::kSmall, 2, /*diam=*/3);
  lp::MilpOptions opts;
  opts.time_limit_s = 30.0;
  const auto sol = lp::solve_milp(enc.model, opts);
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  const auto g = decode_topology(enc, sol.x);
  EXPECT_TRUE(topo::strongly_connected(g));
  EXPECT_TRUE(topo::respects_radix(g, 2));
  // 2x2 with radix 2: every node can link to every other in small class
  // (all spans <= (1,1)); optimum is total hops 12... each node reaches 2
  // others at 1 hop and 1 at >=1: radix 2 allows out-degree 2 so one pair
  // stays at 2 hops per node: total = 12*1? Verify against the decoded
  // graph's true metric instead of a hand value:
  const auto d = topo::apsp_bfs(g);
  EXPECT_NEAR(sol.objective, static_cast<double>(topo::total_hops(d)), 1e-6);
}

TEST(MilpEncoding, DVariablesMatchTrueDistances) {
  const topo::Layout lay{2, 2, 2.0};
  auto enc = encode_latop(lay, topo::LinkClass::kSmall, 2, 3);
  lp::MilpOptions opts;
  opts.time_limit_s = 60.0;
  const auto sol = lp::solve_milp(enc.model, opts);
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  const auto g = decode_topology(enc, sol.x);
  const auto dist = topo::apsp_bfs(g);
  const int n = lay.n();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const int dv = enc.d_var[i * n + j];
      // At the optimum the D variables equal the decoded graph's true
      // shortest distances (the core soundness claim of the C4/C5 encoding).
      EXPECT_NEAR(sol.x[dv], static_cast<double>(dist(i, j)), 1e-6)
          << i << "->" << j;
    }
}

// The two cross-checks below run on node and move budgets, so they reach the
// same incumbents on any host and under sanitizers; the time limits are only
// a backstop against a hang.
TEST(MilpEncoding, MatchesAnnealerOnProvenTinyInstance) {
  // 2x2 is small enough for the MILP to prove optimality; the annealer must
  // match the proven optimum.
  const topo::Layout lay{2, 2, 2.0};
  SynthesisConfig cfg;
  cfg.layout = lay;
  cfg.link_class = topo::LinkClass::kSmall;
  cfg.radix = 2;
  cfg.diameter_bound = 3;
  cfg.objective = Objective::kLatOp;
  lp::MilpOptions opts;
  opts.node_limit = 20000;  // proves optimality at 2224 nodes
  opts.time_limit_s = 600.0;
  const auto exact = synthesize_exact(cfg, opts);
  cfg.max_moves = 2000;  // the optimum is reached within 30 moves
  cfg.restarts = 2;
  cfg.seed = 2;
  const auto anneal = anneal_synthesize(cfg);
  EXPECT_NEAR(anneal.objective_value, exact.objective_value, 1e-9)
      << "annealer missed the proven optimum on a tiny instance";
}

TEST(MilpEncoding, AnytimeIncumbentCrossValidatesAnnealer) {
  // 2x3/medium cannot be *proven* optimal quickly (the big-M relaxation is
  // weak — the same reason the paper's Gurobi runs plateau in Fig. 5), but
  // the solver's anytime incumbent and the annealer should land on equally
  // good topologies.
  const topo::Layout lay{2, 3, 2.0};
  SynthesisConfig cfg;
  cfg.layout = lay;
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 2;
  cfg.diameter_bound = 4;
  cfg.objective = Objective::kLatOp;
  lp::MilpOptions opts;
  // The first incumbent appears at ~510 nodes; by 1000 it has 58 total hops.
  opts.node_limit = 1000;
  opts.time_limit_s = 600.0;
  const auto milp = synthesize_exact(cfg, opts);  // anytime incumbent
  cfg.max_moves = 5000;  // 1.6 average hops within 300 moves
  cfg.restarts = 3;
  cfg.seed = 2;
  const auto anneal = anneal_synthesize(cfg);
  // Annealer is at least as good as the MILP incumbent, and both respect
  // the MILP's proven lower bound.
  EXPECT_LE(anneal.objective_value, milp.objective_value + 1e-9);
  EXPECT_GE(anneal.objective_value + 1e-9, milp.bound);
}

TEST(MilpEncoding, SymmetryConstraintHolds) {
  const topo::Layout lay{2, 2, 2.0};
  auto enc = encode_latop(lay, topo::LinkClass::kSmall, 2, 3,
                          /*symmetric=*/true);
  lp::MilpOptions opts;
  opts.time_limit_s = 30.0;
  const auto sol = lp::solve_milp(enc.model, opts);
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(decode_topology(enc, sol.x).is_symmetric());
}

TEST(MilpEncoding, ScopMaximizesSparsestCut) {
  const topo::Layout lay{2, 2, 2.0};
  auto enc = encode_scop(lay, topo::LinkClass::kSmall, 2, 3);
  lp::MilpOptions opts;
  opts.time_limit_s = 60.0;
  const auto sol = lp::solve_milp(enc.model, opts);
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  const auto g = decode_topology(enc, sol.x);
  ASSERT_TRUE(topo::strongly_connected(g));
  const auto cut = topo::sparsest_cut_exact(g);
  // The model's B variable must equal the decoded graph's true sparsest cut.
  EXPECT_NEAR(sol.x[enc.b_var], cut.bandwidth, 1e-6);
  // Radix 2, 4 nodes: the ring achieves B = min over cuts; a 1v3 cut gives
  // 2/(1*3) = 2/3, a 2v2 cut gives 2/4 = 1/2 -> optimum 1/2.
  EXPECT_NEAR(cut.bandwidth, 0.5, 1e-6);
}

TEST(MilpEncoding, RejectsOversizedLayouts) {
  EXPECT_THROW(
      encode_latop(topo::Layout::noi_4x5(), topo::LinkClass::kSmall, 4, 5),
      std::invalid_argument);
}

TEST(MilpEncoding, PatternObjectiveRejectedByExactPath) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 2, 2.0};
  cfg.objective = Objective::kPattern;
  EXPECT_THROW(synthesize_exact(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace netsmith::core
