#pragma once
// Dense two-phase primal simplex with bounded variables.
//
// Handles general variable bounds [lb, ub] natively (nonbasic-at-lower /
// nonbasic-at-upper with bound flips), converts all constraints to equalities
// with slacks, and uses artificial variables only for rows whose slack cannot
// absorb the initial residual. Dantzig pricing with a Bland's-rule fallback
// guards against cycling. Intended problem sizes are the paper's: hundreds to
// a few thousand variables/rows (NetSmith Table I at small n, MCLB routing,
// LPBT baseline), where a dense tableau is simple and fast enough.

#include "lp/model.hpp"

namespace netsmith::lp {

// Tolerances and the iteration cap are constants in simplex.cpp.
struct SimplexOptions {
  double time_limit_s = 60.0;
};

// Solves the LP relaxation of `model` (integrality ignored).
Solution solve_lp(const Model& model, const SimplexOptions& opts = {});

}  // namespace netsmith::lp
