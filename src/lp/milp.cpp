#include "lp/milp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "obs/clock.hpp"

namespace netsmith::lp {

namespace {

// Relative objective-bounds gap to stop at, and integrality tolerance.
constexpr double kGapTol = 1e-6, kIntTol = 1e-6;

struct Node {
  // Bound overrides relative to the root model, sparse: (var, lb, ub).
  std::vector<std::array<double, 2>> bounds;  // indexed in parallel with vars_
  std::vector<int> vars;
  double bound = 0.0;  // parent LP objective (in minimization sense)
  int depth = 0;
};

struct NodeCmp {
  bool operator()(const std::shared_ptr<Node>& a,
                  const std::shared_ptr<Node>& b) const {
    if (a->bound != b->bound) return a->bound > b->bound;  // min-heap on bound
    return a->depth < b->depth;  // deeper first among equals (plunge-like)
  }
};

bool is_int_var(const VarDef& v) { return v.type != VarType::kContinuous; }

}  // namespace

Solution solve_milp(const Model& model, const MilpOptions& opts) {
  obs::WallTimer timer;
  const double sign = model.sense() == Sense::kMinimize ? 1.0 : -1.0;

  if (!model.has_integers()) return solve_lp(model, opts.lp);

  Solution best;
  best.status = SolveStatus::kInfeasible;
  double incumbent = std::numeric_limits<double>::infinity();  // min-sense
  long nodes = 0;
  long iterations = 0;

  // Working copy whose bounds we mutate per node.
  Model work = model;

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      NodeCmp>
      open;
  auto root = std::make_shared<Node>();
  root->bound = -std::numeric_limits<double>::infinity();
  open.push(root);

  double global_bound = -std::numeric_limits<double>::infinity();
  SolveStatus final_status = SolveStatus::kOptimal;

  auto report = [&]() {
    if (!opts.progress) return;
    const double inc = std::isfinite(incumbent) ? sign * incumbent
                                                : std::numeric_limits<double>::quiet_NaN();
    opts.progress(timer.seconds(), inc, sign * global_bound);
  };

  // Solves the LP under a node's bound overrides (applied then restored in
  // LIFO order — a variable branched on twice records its earlier state
  // after later overrides, so only reverse restoration is correct).
  auto solve_node = [&](const Node& node) -> Solution {
    std::vector<std::array<double, 2>> saved(node.vars.size());
    bool bounds_ok = true;
    for (std::size_t k = 0; k < node.vars.size(); ++k) {
      auto& v = work.var(node.vars[k]);
      saved[k] = {v.lb, v.ub};
      v.lb = std::max(v.lb, node.bounds[k][0]);
      v.ub = std::min(v.ub, node.bounds[k][1]);
      if (v.lb > v.ub + 1e-12) bounds_ok = false;
    }
    Solution lp;
    if (bounds_ok) {
      lp = solve_lp(work, opts.lp);
      iterations += lp.iterations;
    } else {
      lp.status = SolveStatus::kInfeasible;
    }
    ++nodes;
    for (std::size_t k = node.vars.size(); k-- > 0;) {
      auto& v = work.var(node.vars[k]);
      v.lb = saved[k][0];
      v.ub = saved[k][1];
    }
    return lp;
  };

  auto most_fractional = [&](const std::vector<double>& x) {
    int frac_var = -1;
    double best_score = 1.0;
    for (int j = 0; j < model.num_vars(); ++j) {
      if (!is_int_var(model.var(j))) continue;
      const double dist = std::abs(x[j] - std::round(x[j]));
      if (dist <= kIntTol) continue;
      const double score = std::abs(dist - 0.5);
      if (frac_var < 0 || score < best_score) {
        frac_var = j;
        best_score = score;
      }
    }
    return frac_var;
  };

  bool done = false;
  while (!open.empty() && !done) {
    auto node = open.top();
    open.pop();
    global_bound = node->bound;
    if (std::isfinite(incumbent)) {
      const double gap = (incumbent - global_bound) /
                         std::max(1.0, std::abs(incumbent));
      if (gap <= kGapTol) {
        global_bound = incumbent;
        break;
      }
    }
    if (node->bound >= incumbent - 1e-12 && std::isfinite(incumbent)) continue;

    // Plunge: follow the branch child nearer the LP value depth-first,
    // queueing the far child. This finds incumbents quickly so best-first
    // pruning has something to prune against.
    std::shared_ptr<Node> cur = node;
    while (cur) {
      if (timer.seconds() > opts.time_limit_s) {
        final_status = SolveStatus::kTimeLimit;
        done = true;
        break;
      }
      if (nodes > opts.node_limit) {
        final_status = SolveStatus::kNodeLimit;
        done = true;
        break;
      }

      const Solution lp = solve_node(*cur);
      if (lp.status == SolveStatus::kInfeasible) break;
      if (lp.status == SolveStatus::kUnbounded) {
        final_status = SolveStatus::kUnbounded;
        done = true;
        break;
      }
      if (lp.status != SolveStatus::kOptimal) {
        final_status = lp.status;
        done = true;
        break;
      }

      const double lp_obj = sign * lp.objective;  // minimization sense
      if (lp_obj >= incumbent - 1e-12) break;     // bound prune

      const int frac_var = most_fractional(lp.x);
      if (frac_var < 0) {
        // Integral: new incumbent (strictly better, by the prune above).
        incumbent = lp_obj;
        best.status = SolveStatus::kOptimal;
        best.x = lp.x;
        for (int j = 0; j < model.num_vars(); ++j)
          if (is_int_var(model.var(j))) best.x[j] = std::round(best.x[j]);
        best.objective = model.objective_value(best.x);
        report();
        break;
      }

      const double v = lp.x[frac_var];
      auto make_child = [&](double new_lb, double new_ub) {
        auto child = std::make_shared<Node>(*cur);
        child->vars.push_back(frac_var);
        child->bounds.push_back({new_lb, new_ub});
        child->bound = lp_obj;
        child->depth = cur->depth + 1;
        return child;
      };
      auto down = make_child(-kInf, std::floor(v));  // x <= floor(v)
      auto up = make_child(std::ceil(v), kInf);      // x >= ceil(v)
      // Near child continues the plunge; far child goes to the queue.
      if (v - std::floor(v) <= 0.5) {
        open.push(std::move(up));
        cur = std::move(down);
      } else {
        open.push(std::move(down));
        cur = std::move(up);
      }
    }
  }

  if (open.empty()) global_bound = std::isfinite(incumbent) ? incumbent : global_bound;

  best.nodes = nodes;
  best.iterations = iterations;
  if (std::isfinite(incumbent)) {
    if (final_status != SolveStatus::kOptimal) best.status = final_status;
    // A found incumbent with exhausted queue is proven optimal.
    if (open.empty() && final_status == SolveStatus::kOptimal)
      best.status = SolveStatus::kOptimal;
    best.bound = sign * std::min(global_bound, incumbent);
    return best;
  }

  best.status = final_status == SolveStatus::kOptimal ? SolveStatus::kInfeasible
                                                      : final_status;
  best.bound = sign * global_bound;
  return best;
}

}  // namespace netsmith::lp
