#pragma once
// Branch-and-bound MILP solver over the simplex LP relaxation.
//
// Best-first node selection on the relaxation bound with depth-first
// "plunging" to find incumbents early (the same anytime behaviour the paper
// leans on: MIP solvers report an incumbent and an objective-bounds gap that
// narrows over time, Fig. 5). Supports time and node limits and an optional
// progress callback receiving (seconds, incumbent, bound); the gap is fixed.

#include <functional>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace netsmith::lp {

struct MilpOptions {
  SimplexOptions lp;
  double time_limit_s = 60.0;
  long node_limit = 2000000;
  // Called whenever the incumbent or bound improves.
  std::function<void(double seconds, double incumbent, double bound)> progress;
};

Solution solve_milp(const Model& model, const MilpOptions& opts = {});

}  // namespace netsmith::lp
