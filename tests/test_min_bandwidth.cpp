// C7: minimum sparsest-cut bandwidth as a hard synthesis constraint
// combined with the latency objective (paper Table I, "combined measures").

#include <gtest/gtest.h>

#include "core/anneal.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {
namespace {

// Every run is move-budgeted: deterministic and load-insensitive.
TEST(MinBandwidth, ConstraintHonoredOnTinyInstance) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 3, 2.0};
  // Small links: the latency optimum this search reaches has a sparser cut
  // than SCOp finds, so the constrained branch below actually runs.
  cfg.link_class = topo::LinkClass::kSmall;
  cfg.radix = 3;
  cfg.objective = Objective::kLatOp;
  cfg.max_moves = 20000;
  cfg.restarts = 2;
  cfg.seed = 17;

  // Unconstrained latency optimum and its bandwidth.
  const auto free_run = anneal_synthesize(cfg);
  const double free_bw = topo::sparsest_cut_exact(free_run.graph).bandwidth;

  // Achievable bandwidth ceiling from a SCOp run.
  cfg.objective = Objective::kSCOp;
  const auto scop = anneal_synthesize(cfg);
  const double max_bw = scop.objective_value;
  if (max_bw <= free_bw + 1e-9)
    GTEST_SKIP() << "latency optimum already bandwidth-optimal here";

  // Demand more bandwidth than the latency optimum provides, but an amount
  // SCOp proved achievable.
  cfg.objective = Objective::kLatOp;
  cfg.min_cut_bandwidth = 0.5 * (free_bw + max_bw);
  const auto constrained = anneal_synthesize(cfg);
  const double got = topo::sparsest_cut_exact(constrained.graph).bandwidth;
  EXPECT_GE(got + 1e-9, cfg.min_cut_bandwidth);
  // The latency can only get worse (or stay equal) under the extra
  // constraint.
  EXPECT_GE(constrained.objective_value + 1e-9, free_run.objective_value);
}

TEST(MinBandwidth, TrivialConstraintChangesNothingStructural) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 3, 2.0};
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 3;
  cfg.objective = Objective::kLatOp;
  cfg.max_moves = 20000;
  cfg.restarts = 2;
  cfg.seed = 18;
  cfg.min_cut_bandwidth = 0.01;  // any connected topology clears this
  const auto r = anneal_synthesize(cfg);
  EXPECT_TRUE(topo::strongly_connected(r.graph));
  EXPECT_GE(topo::sparsest_cut_exact(r.graph).bandwidth, 0.01);
}

TEST(MinBandwidth, WorksAtPaperScale) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout::noi_4x5();
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.objective = Objective::kLatOp;
  cfg.max_moves = 20000;
  cfg.restarts = 2;
  cfg.seed = 19;
  cfg.min_cut_bandwidth = 0.085;  // above the FT's 1/12, below the class UB
  const auto r = anneal_synthesize(cfg);
  EXPECT_GE(topo::sparsest_cut_exact(r.graph).bandwidth + 1e-9, 0.085);
  // Should still deliver decent latency (better than folded torus).
  EXPECT_LT(r.objective_value, 2.32);
}

}  // namespace
}  // namespace netsmith::core
