#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include "core/anneal.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {
namespace {

TEST(HopBound, BelowFoldedTorus) {
  const auto lay = topo::Layout::noi_4x5();
  const auto lb = average_hops_lower_bound(lay, topo::LinkClass::kMedium, 4);
  // The folded torus is a valid medium topology -> bound must not exceed it.
  EXPECT_LE(lb, topo::average_hops(topo::build_folded_torus(lay)) + 1e-12);
  EXPECT_GT(lb, 1.0);  // radix 4 cannot make everything one hop away
}

TEST(HopBound, TightensWithRadix) {
  const auto lay = topo::Layout::noi_4x5();
  const auto lb4 = average_hops_lower_bound(lay, topo::LinkClass::kLarge, 4);
  const auto lb8 = average_hops_lower_bound(lay, topo::LinkClass::kLarge, 8);
  EXPECT_GE(lb4, lb8);  // more ports -> potentially lower hops
}

TEST(HopBound, LoosensWithLinkClass) {
  const auto lay = topo::Layout::noi_4x5();
  const auto s = average_hops_lower_bound(lay, topo::LinkClass::kSmall, 4);
  const auto m = average_hops_lower_bound(lay, topo::LinkClass::kMedium, 4);
  const auto l = average_hops_lower_bound(lay, topo::LinkClass::kLarge, 4);
  EXPECT_GE(s, m);
  EXPECT_GE(m, l);
}

TEST(HopBound, BelowEveryAchievedTopology) {
  // Any synthesized topology must respect the bound (soundness).
  const auto lay = topo::Layout::noi_4x5();
  for (const auto cls : {topo::LinkClass::kSmall, topo::LinkClass::kMedium}) {
    SynthesisConfig cfg;
    cfg.layout = lay;
    cfg.link_class = cls;
    cfg.time_limit_s = 1.0;
    cfg.restarts = 1;
    cfg.seed = 99;
    const auto r = anneal_synthesize(cfg);
    EXPECT_GE(topo::average_hops(r.graph) + 1e-9,
              average_hops_lower_bound(lay, cls, 4));
  }
}

TEST(CutBound, AboveFoldedTorus) {
  const auto lay = topo::Layout::noi_4x5();
  const auto ub = sparsest_cut_upper_bound(lay, topo::LinkClass::kMedium, 4);
  const auto ft = topo::sparsest_cut_exact(topo::build_folded_torus(lay));
  EXPECT_GE(ub + 1e-12, ft.bandwidth);
}

TEST(CutBound, GrowsWithLinkClass) {
  const auto lay = topo::Layout::noi_4x5();
  const auto s = sparsest_cut_upper_bound(lay, topo::LinkClass::kSmall, 4);
  const auto m = sparsest_cut_upper_bound(lay, topo::LinkClass::kMedium, 4);
  const auto l = sparsest_cut_upper_bound(lay, topo::LinkClass::kLarge, 4);
  EXPECT_LE(s, m + 1e-12);
  EXPECT_LE(m, l + 1e-12);
}

TEST(CutBound, RadixLimitsCapacity) {
  const auto lay = topo::Layout::noi_4x5();
  const auto r2 = sparsest_cut_upper_bound(lay, topo::LinkClass::kLarge, 2);
  const auto r4 = sparsest_cut_upper_bound(lay, topo::LinkClass::kLarge, 4);
  EXPECT_LE(r2, r4 + 1e-12);
}

TEST(TotalHopBound, ScalesWithLayout) {
  const auto lb20 =
      total_hops_lower_bound(topo::Layout::noi_4x5(), topo::LinkClass::kMedium, 4);
  const auto lb30 =
      total_hops_lower_bound(topo::Layout::noi_6x5(), topo::LinkClass::kMedium, 4);
  EXPECT_GT(lb30, lb20);
}

}  // namespace
}  // namespace netsmith::core
