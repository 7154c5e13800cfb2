#include "topologies/lpbt.hpp"

#include <gtest/gtest.h>

#include "core/milp_encoding.hpp"
#include "topo/builders.hpp"
#include "topo/metrics.hpp"

namespace netsmith::topologies {
namespace {

TEST(Lpbt, HopsObjectiveTinyLayout) {
  const topo::Layout lay{2, 2, 2.0};
  lp::MilpOptions opts;
  opts.time_limit_s = 60.0;
  const auto r = lpbt_synthesize(lay, topo::LinkClass::kSmall, 2,
                                 LpbtObjective::kHops, opts);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(topo::strongly_connected(r.graph));
  EXPECT_TRUE(topo::respects_radix(r.graph, 2));
  // The flow-based objective counts total hops across all flows; it must
  // match the decoded graph's total shortest hops at the optimum.
  const auto d = topo::apsp_bfs(r.graph);
  EXPECT_NEAR(r.objective, static_cast<double>(topo::total_hops(d)), 1e-6);
}

TEST(Lpbt, PowerObjectivePrefersShortLinks) {
  const topo::Layout lay{2, 2, 2.0};
  lp::MilpOptions opts;
  opts.time_limit_s = 60.0;
  const auto r = lpbt_synthesize(lay, topo::LinkClass::kSmall, 2,
                                 LpbtObjective::kPower, opts);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  ASSERT_TRUE(topo::strongly_connected(r.graph));
  // Power-optimal connectivity avoids diagonals (length 2*sqrt(2) > 2):
  for (const auto& [i, j] : r.graph.edges())
    EXPECT_NEAR(topo::link_length_mm(lay, i, j), 2.0, 1e-9);
}

TEST(Lpbt, RefusesPaperScale) {
  EXPECT_THROW(lpbt_synthesize(topo::Layout::noi_4x5(),
                               topo::LinkClass::kSmall, 4,
                               LpbtObjective::kHops),
               std::invalid_argument);
}

TEST(LpbtModelStats, DemonstratesBlowup) {
  // The formulation's size explains the paper's 20-day solve times: at the
  // 20-router scale LPBT needs ~50k binaries vs NetSmith's ~O(n^3).
  const auto tiny = lpbt_model_stats(topo::Layout{2, 2, 2.0},
                                     topo::LinkClass::kSmall);
  const auto paper = lpbt_model_stats(topo::Layout::noi_4x5(),
                                      topo::LinkClass::kSmall);
  EXPECT_LT(tiny.binaries, 200);
  EXPECT_GT(paper.binaries, 40000);
  EXPECT_GT(paper.constraints, 40000);
}

TEST(Lpbt, MatchesNetSmithOptimumOnTinyHops) {
  // On instances both can solve exactly, the two formulations agree on the
  // optimal total-hops value (they optimize the same quantity).
  const topo::Layout lay{2, 2, 2.0};
  lp::MilpOptions opts;
  opts.time_limit_s = 60.0;
  const auto lpbt = lpbt_synthesize(lay, topo::LinkClass::kSmall, 2,
                                    LpbtObjective::kHops, opts);
  ASSERT_EQ(lpbt.status, lp::SolveStatus::kOptimal);

  core::SynthesisConfig cfg;
  cfg.layout = lay;
  cfg.link_class = topo::LinkClass::kSmall;
  cfg.radix = 2;
  cfg.diameter_bound = 3;
  const auto ns = core::synthesize_exact(cfg, opts);
  const auto ns_total = topo::total_hops(topo::apsp_bfs(ns.graph));
  EXPECT_NEAR(lpbt.objective, static_cast<double>(ns_total), 1e-6);
}

}  // namespace
}  // namespace netsmith::topologies
