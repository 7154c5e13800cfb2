#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/clock.hpp"

namespace netsmith::lp {

namespace {

enum : std::int8_t { kAtLb = 0, kAtUb = 1, kBasic = 2 };

struct Tableau {
  int m = 0;       // rows
  int total = 0;   // columns: structural + slack + artificial
  int n_struct = 0;
  std::vector<double> T;     // m x total, current tableau B^-1 * A
  std::vector<double> beta;  // m, values of basic variables
  std::vector<int> basis;    // m
  std::vector<std::int8_t> stat;  // total
  std::vector<double> lb, ub, xval;
  std::vector<double> d;  // reduced-cost row for the active phase
  double z = 0.0;         // active-phase objective value

  double& at(int i, int j) { return T[static_cast<std::size_t>(i) * total + j]; }
  double at(int i, int j) const { return T[static_cast<std::size_t>(i) * total + j]; }

  double value_of(int j) const {
    if (stat[j] == kBasic) {
      for (int i = 0; i < m; ++i)
        if (basis[i] == j) return beta[i];
      return 0.0;  // unreachable
    }
    return xval[j];
  }
};

// Builds the reduced-cost row d = c - c_B^T * T and objective z = c^T x for
// an arbitrary cost vector over all columns.
void price(Tableau& t, const std::vector<double>& cost) {
  t.d.assign(t.total, 0.0);
  for (int j = 0; j < t.total; ++j) t.d[j] = cost[j];
  for (int i = 0; i < t.m; ++i) {
    const double cb = cost[t.basis[i]];
    if (cb == 0.0) continue;
    const double* row = &t.T[static_cast<std::size_t>(i) * t.total];
    for (int j = 0; j < t.total; ++j) t.d[j] -= cb * row[j];
  }
  t.z = 0.0;
  for (int i = 0; i < t.m; ++i) t.z += cost[t.basis[i]] * t.beta[i];
  for (int j = 0; j < t.total; ++j)
    if (t.stat[j] != kBasic) t.z += cost[j] * t.xval[j];
}

// Per-phase iteration cap and Dantzig-to-Bland switch; pivots at or below
// kPivotTol count as zero, and a reduced cost must beat kCostTol to enter.
constexpr long kMaxIterations = 200000, kBlandAfter = 20000;
constexpr double kPivotTol = 1e-9, kCostTol = 1e-7;

enum class StepResult { kOptimal, kUnbounded, kMoved };

// One primal simplex iteration (minimization). Returns kOptimal when no
// eligible entering variable exists.
StepResult step(Tableau& t, bool bland) {
  // --- Pricing: pick entering column.
  int q = -1;
  int dir = 0;
  double best = kCostTol;
  for (int j = 0; j < t.total; ++j) {
    if (t.stat[j] == kBasic) continue;
    if (t.lb[j] == t.ub[j]) continue;  // fixed, cannot move
    const double dj = t.d[j];
    if (t.stat[j] == kAtLb && dj < -kCostTol) {
      if (bland) { q = j; dir = +1; break; }
      if (-dj > best) { best = -dj; q = j; dir = +1; }
    } else if (t.stat[j] == kAtUb && dj > kCostTol) {
      if (bland) { q = j; dir = -1; break; }
      if (dj > best) { best = dj; q = j; dir = -1; }
    }
  }
  if (q < 0) return StepResult::kOptimal;

  // --- Ratio test. Two candidate limits: the entering variable reaching its
  // opposite bound (bound flip), and a basic variable reaching one of its
  // bounds (pivot).
  const double t_flip = (std::isfinite(t.ub[q]) && std::isfinite(t.lb[q]))
                            ? t.ub[q] - t.lb[q]
                            : kInf;
  double t_row = kInf;
  int leave_row = -1;
  int leave_to = kAtLb;
  double leave_pivot = 0.0;

  for (int i = 0; i < t.m; ++i) {
    const double a = t.at(i, q) * dir;
    if (std::abs(a) <= kPivotTol) continue;
    const int k = t.basis[i];
    double limit;
    int to;
    if (a > 0.0) {  // basic var decreases toward its lb
      if (!std::isfinite(t.lb[k])) continue;
      limit = (t.beta[i] - t.lb[k]) / a;
      to = kAtLb;
    } else {  // basic var increases toward its ub
      if (!std::isfinite(t.ub[k])) continue;
      limit = (t.ub[k] - t.beta[i]) / (-a);
      to = kAtUb;
    }
    if (limit < 0.0) limit = 0.0;
    bool take = false;
    if (limit < t_row - 1e-12) {
      take = true;
    } else if (limit < t_row + 1e-12 && leave_row >= 0) {
      // Tie-break: Bland prefers the smallest leaving index (anti-cycling);
      // otherwise prefer the largest pivot magnitude for stability.
      take = bland ? t.basis[i] < t.basis[leave_row]
                   : std::abs(t.at(i, q)) > std::abs(leave_pivot);
    }
    if (take) {
      t_row = std::min(t_row, limit);
      leave_row = i;
      leave_to = to;
      leave_pivot = t.at(i, q);
    }
  }

  if (!std::isfinite(t_flip) && !std::isfinite(t_row))
    return StepResult::kUnbounded;

  const bool do_flip = t_flip <= t_row + 1e-12;
  const double step_len = std::max(do_flip ? t_flip : t_row, 0.0);

  // --- Apply the move of length step_len in direction dir.
  for (int i = 0; i < t.m; ++i) t.beta[i] -= t.at(i, q) * dir * step_len;
  t.z += t.d[q] * dir * step_len;

  if (do_flip) {
    // Bound flip: q moves to its opposite bound, basis unchanged.
    t.stat[q] = (dir > 0) ? kAtUb : kAtLb;
    t.xval[q] = (dir > 0) ? t.ub[q] : t.lb[q];
    return StepResult::kMoved;
  }

  // --- Pivot: q enters in leave_row, basis[leave_row] leaves.
  const double v_q = t.xval[q] + dir * step_len;
  const int k = t.basis[leave_row];
  t.stat[k] = static_cast<std::int8_t>(leave_to);
  t.xval[k] = (leave_to == kAtLb) ? t.lb[k] : t.ub[k];

  const double piv = t.at(leave_row, q);
  assert(std::abs(piv) > kPivotTol);
  double* prow = &t.T[static_cast<std::size_t>(leave_row) * t.total];
  const double inv = 1.0 / piv;
  for (int j = 0; j < t.total; ++j) prow[j] *= inv;
  for (int i = 0; i < t.m; ++i) {
    if (i == leave_row) continue;
    const double f = t.at(i, q);
    if (f == 0.0) continue;
    double* row = &t.T[static_cast<std::size_t>(i) * t.total];
    for (int j = 0; j < t.total; ++j) row[j] -= f * prow[j];
  }
  {
    const double f = t.d[q];
    if (f != 0.0)
      for (int j = 0; j < t.total; ++j) t.d[j] -= f * prow[j];
  }
  t.basis[leave_row] = q;
  t.stat[q] = kBasic;
  t.beta[leave_row] = v_q;
  return StepResult::kMoved;
}

}  // namespace

Solution solve_lp(const Model& model, const SimplexOptions& opts) {
  obs::WallTimer timer;
  Solution sol;
  const int n = model.num_vars();
  const int m = model.num_constraints();

  // Internally we always minimize; negate the objective for maximization.
  const double obj_sign = model.sense() == Sense::kMinimize ? 1.0 : -1.0;

  Tableau t;
  t.m = m;
  t.n_struct = n;
  // Columns: structural | slack (one per row) | artificial (allocated lazily
  // but we reserve one per row for simplicity).
  t.total = n + m + m;
  t.T.assign(static_cast<std::size_t>(m) * t.total, 0.0);
  t.beta.assign(m, 0.0);
  t.basis.assign(m, -1);
  t.stat.assign(t.total, kAtLb);
  t.lb.assign(t.total, 0.0);
  t.ub.assign(t.total, 0.0);
  t.xval.assign(t.total, 0.0);

  // Structural variables: nonbasic at a finite bound.
  for (int j = 0; j < n; ++j) {
    const auto& v = model.var(j);
    t.lb[j] = v.lb;
    t.ub[j] = v.ub;
    if (std::isfinite(v.lb)) {
      t.stat[j] = kAtLb;
      t.xval[j] = v.lb;
    } else if (std::isfinite(v.ub)) {
      t.stat[j] = kAtUb;
      t.xval[j] = v.ub;
    } else {
      throw std::invalid_argument("solve_lp: fully free variables unsupported");
    }
  }

  // Rows as equalities with slacks; artificials where the slack cannot cover
  // the initial residual.
  int artificials = 0;
  for (int i = 0; i < m; ++i) {
    const auto& c = model.constraint(i);
    double act = 0.0;
    for (const auto& term : c.terms) {
      t.at(i, term.var) += term.coef;
    }
    for (const auto& term : c.terms) act += term.coef * t.xval[term.var];

    const int s = n + i;  // slack column
    double slb = 0.0, sub = 0.0;
    switch (c.rel) {
      case Rel::kLe: slb = 0.0; sub = kInf; break;
      case Rel::kGe: slb = -kInf; sub = 0.0; break;
      case Rel::kEq: slb = 0.0; sub = 0.0; break;
    }
    t.at(i, s) = 1.0;
    t.lb[s] = slb;
    t.ub[s] = sub;

    const double resid = c.rhs - act;  // desired slack value
    if (resid >= slb - 1e-12 && resid <= sub + 1e-12) {
      // Slack absorbs the residual: make it basic.
      t.basis[i] = s;
      t.stat[s] = kBasic;
      t.beta[i] = resid;
    } else {
      // Clamp slack to its nearest bound and add an artificial.
      const double sv = std::clamp(resid, slb, sub);
      const double sv_clamped = std::isfinite(sv) ? sv : 0.0;
      t.stat[s] = (sv_clamped == slb) ? kAtLb : kAtUb;
      t.xval[s] = sv_clamped;
      double left = resid - sv_clamped;
      const int a = n + m + i;
      if (left < 0) {
        // Scale the row by -1 so the artificial enters with +1 and beta >= 0.
        double* row = &t.T[static_cast<std::size_t>(i) * t.total];
        for (int j = 0; j < t.total; ++j) row[j] = -row[j];
        left = -left;
      }
      t.at(i, a) = 1.0;
      t.lb[a] = 0.0;
      t.ub[a] = kInf;
      t.basis[i] = a;
      t.stat[a] = kBasic;
      t.beta[i] = left;
      ++artificials;
    }
  }

  auto run_phase = [&](const std::vector<double>& cost) -> SolveStatus {
    price(t, cost);
    long it = 0;
    while (true) {
      if (timer.seconds() > opts.time_limit_s) return SolveStatus::kTimeLimit;
      if (it > kMaxIterations) return SolveStatus::kIterLimit;
      const bool bland = it > kBlandAfter;
      const StepResult r = step(t, bland);
      ++it;
      sol.iterations++;
      if (r == StepResult::kOptimal) return SolveStatus::kOptimal;
      if (r == StepResult::kUnbounded) return SolveStatus::kUnbounded;
    }
  };

  // --- Phase 1: drive artificials to zero.
  if (artificials > 0) {
    std::vector<double> cost1(t.total, 0.0);
    for (int i = 0; i < m; ++i) {
      const int a = n + m + i;
      if (t.ub[a] > 0.0 || t.at(i, a) != 0.0) cost1[a] = 1.0;
    }
    const SolveStatus s1 = run_phase(cost1);
    if (s1 != SolveStatus::kOptimal) {
      sol.status = s1 == SolveStatus::kUnbounded ? SolveStatus::kInfeasible : s1;
      return sol;
    }
    if (t.z > 1e-6) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
    // Lock artificials at zero for phase 2.
    for (int i = 0; i < m; ++i) {
      const int a = n + m + i;
      t.lb[a] = 0.0;
      t.ub[a] = 0.0;
      if (t.stat[a] != kBasic) t.xval[a] = 0.0;
    }
  }

  // --- Phase 2: original objective.
  std::vector<double> cost2(t.total, 0.0);
  for (int j = 0; j < n; ++j) cost2[j] = obj_sign * model.var(j).obj;
  const SolveStatus s2 = run_phase(cost2);
  if (s2 == SolveStatus::kUnbounded) {
    sol.status = SolveStatus::kUnbounded;
    return sol;
  }
  if (s2 != SolveStatus::kOptimal) {
    sol.status = s2;
    return sol;
  }

  sol.status = SolveStatus::kOptimal;
  sol.x.assign(n, 0.0);
  for (int j = 0; j < n; ++j) sol.x[j] = t.value_of(j);
  sol.objective = model.objective_value(sol.x);
  sol.bound = sol.objective;
  return sol;
}

}  // namespace netsmith::lp
