#include "routing/mclb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "obs/metrics.hpp"

namespace netsmith::routing {

LoadObjective LoadObjective::of(const std::vector<double>& loads) {
  LoadObjective o;
  for (double v : loads) {
    o.sumsq += v * v;
    if (v > o.max) {
      o.max = v;
      o.at_max = 1;
    } else if (v == o.max) {
      ++o.at_max;
    }
  }
  return o;
}

namespace {

// ---------------------------------------------------------------------------
// Objective evaluators. Both run on the flat path set and expose the
// same interface to the shared local-search driver:
//   current()         objective of the present loads
//   eval_add(p, w)    objective if path p gained w more load (pure, w >= 0)
//   apply(p, w)       commit w (possibly negative) along path p
//   load(e)           present load of dense edge e
// The *only* difference between them is evaluation strategy, which is what
// makes the scan engine a faithful oracle for the incremental one.

// Scan engine: eval_add walks every interned edge (O(links)), overlaying +w
// on the candidate path's edges during the scan. The overlay reads
// loads[e] + w exactly like a mutated array would, but never writes, so the
// loads array sees only committed ±w operations — identical history to the
// flat engine's.
class ScanEvaluator {
 public:
  explicit ScanEvaluator(const PathSet& ps)
      : ps_(ps), loads_(ps.num_edges, 0.0), on_path_(ps.num_edges, 0) {}

  double load(int e) const { return loads_[e]; }

  LoadObjective current() const { return LoadObjective::of(loads_); }

  LoadObjective eval_add(int p, double w) {
    const std::int32_t* e = ps_.edges_of(p);
    const int len = ps_.path_length(p);
    for (int i = 0; i < len; ++i) on_path_[e[i]] = 1;
    LoadObjective o;
    for (int idx = 0; idx < ps_.num_edges; ++idx) {
      const double v = on_path_[idx] ? loads_[idx] + w : loads_[idx];
      o.sumsq += v * v;
      if (v > o.max) {
        o.max = v;
        o.at_max = 1;
      } else if (v == o.max) {
        ++o.at_max;
      }
    }
    for (int i = 0; i < len; ++i) on_path_[e[i]] = 0;
    return o;
  }

  void apply(int p, double w) {
    const std::int32_t* e = ps_.edges_of(p);
    const int len = ps_.path_length(p);
    for (int i = 0; i < len; ++i) loads_[e[i]] += w;
  }

 private:
  const PathSet& ps_;
  std::vector<double> loads_;
  std::vector<std::uint8_t> on_path_;
};

// Flat incremental engine: maintains (max, at_max, sumsq) under ±w edge
// deltas through a load histogram, so eval_add costs O(path length).
//
//  - Uniform unit-weight searches (the default everywhere: empty
//    flow_weight means every flow weighs exactly 1.0) keep a dense integer
//    histogram hist[level] = #edges carrying exactly `level` flows; loads
//    are exact small integers, updates are O(1), and the running max only
//    ever steps down one level at a time (amortized O(1)).
//  - General weights fall back to an ordered bucket map keyed by the exact
//    load value (loads are sums of subsets of the flow weights, so the
//    bucket count stays tiny); updates are O(log #distinct values).
//
// Invariants after every apply():
//   obj_.max    == max(loads_)                  (exactly)
//   obj_.at_max == #{e : loads_[e] == obj_.max} (exact double equality)
//   obj_.sumsq  == sum loads² up to float associativity; bit-equal to a
//                  fresh scan whenever weights and loads are exactly
//                  representable (integers / dyadic rationals).
class FlatEvaluator {
 public:
  FlatEvaluator(const PathSet& ps, bool unit_weights)
      : ps_(ps), loads_(ps.num_edges, 0.0), unit_(unit_weights) {
    obj_.max = 0.0;
    obj_.at_max = ps_.num_edges;
    obj_.sumsq = 0.0;
    if (unit_) {
      level_.assign(ps_.num_edges, 0);
      hist_.assign(1, ps_.num_edges);
      max_level_ = 0;
    } else {
      buckets_[0.0] = ps_.num_edges;
    }
  }

  double load(int e) const { return loads_[e]; }

  // Times the dense level histogram had to grow (unit mode only) — a proxy
  // for how often the incremental engine re-shapes its load index.
  long hist_grows() const { return hist_grows_; }

  const LoadObjective& current() const { return obj_; }

  LoadObjective eval_add(int p, double w) {
    const int len = ps_.path_length(p);
    if (w == 0.0 || len == 0) return obj_;
    const std::int32_t* e = ps_.edges_of(p);
    if (unit_) return eval_add_unit(e, len);
    LoadObjective o = obj_;
    // A shortest path never repeats an edge, so the per-edge deltas below
    // are independent.
    double m = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < len; ++i) {
      const double old = loads_[e[i]];
      const double nv = old + w;
      o.sumsq += nv * nv - old * old;
      if (nv > m) m = nv;
    }
    if (m > obj_.max) {
      // New global max: only path edges can reach it (w > 0 lifted them).
      int c = 0;
      for (int i = 0; i < len; ++i)
        if (loads_[e[i]] + w == m) ++c;
      o.max = m;
      o.at_max = c;
    } else if (m == obj_.max) {
      // Path edges landing exactly on the standing max join at_max; none of
      // them was there before (their old load is strictly below nv <= max).
      int c = 0;
      for (int i = 0; i < len; ++i)
        if (loads_[e[i]] + w == m) ++c;
      o.at_max += c;
    }
    // m < max: no path edge was at the max (old < nv <= m < max), so max
    // and at_max are untouched.
    return o;
  }

  void apply(int p, double w) {
    const std::int32_t* e = ps_.edges_of(p);
    const int len = ps_.path_length(p);
    for (int i = 0; i < len; ++i) add(e[i], w);
  }

 private:
  // eval_add for w == 1.0 on the integer levels. Every load and sum of
  // squares is an integer below 2^53 here, so summing the (l+1)^2 - l^2 =
  // 2l+1 deltas as integers and adding them once gives the same double as
  // the edge-by-edge update, and the level compares are the double ones.
  LoadObjective eval_add_unit(const std::int32_t* e, int len) const {
    long delta = 0;
    int top = 0;
    for (int i = 0; i < len; ++i) {
      const int l = level_[e[i]];
      delta += 2L * l + 1;
      top = std::max(top, l + 1);
    }
    LoadObjective o = obj_;
    o.sumsq += static_cast<double>(delta);
    if (top >= max_level_) {
      int c = 0;
      for (int i = 0; i < len; ++i) c += level_[e[i]] + 1 == top;
      if (top > max_level_) {
        o.max = static_cast<double>(top);
        o.at_max = c;
      } else {
        o.at_max += c;
      }
    }
    return o;
  }

  void add(int e, double w) {
    const double old = loads_[e];
    const double nv = old + w;
    loads_[e] = nv;
    obj_.sumsq += nv * nv - old * old;
    if (unit_) {
      // w is exactly ±1.0 here.
      const int ol = level_[e];
      const int nl = w > 0.0 ? ol + 1 : ol - 1;
      level_[e] = nl;
      --hist_[ol];
      if (nl >= static_cast<int>(hist_.size())) {
        hist_.resize(nl + 1, 0);
        ++hist_grows_;
      }
      ++hist_[nl];
      if (nl > max_level_) {
        max_level_ = nl;
      } else if (ol == max_level_ && hist_[ol] == 0) {
        while (max_level_ > 0 && hist_[max_level_] == 0) --max_level_;
      }
      obj_.max = static_cast<double>(max_level_);
      obj_.at_max = hist_[max_level_];
    } else {
      const auto it = buckets_.find(old);
      if (--(it->second) == 0) buckets_.erase(it);
      ++buckets_[nv];
      const auto top = buckets_.begin();
      obj_.max = top->first;
      obj_.at_max = top->second;
    }
  }

  const PathSet& ps_;
  std::vector<double> loads_;
  LoadObjective obj_;
  bool unit_;
  std::vector<int> level_;  // unit mode: flows on edge (== load exactly)
  std::vector<int> hist_;
  int max_level_ = 0;
  long hist_grows_ = 0;
  std::map<double, int, std::greater<double>> buckets_;  // general mode
};

// Per-flow weights in path-set flow order; returns (weights, wmax).
std::pair<std::vector<double>, double> flow_weights(
    const PathSet& ps, const std::vector<double>& flow_weight) {
  const int f_count = ps.num_flows();
  std::vector<double> w(f_count, 1.0);
  if (!flow_weight.empty())
    for (int f = 0; f < f_count; ++f)
      w[f] = flow_weight[static_cast<std::size_t>(ps.flow_s[f]) * ps.n +
                         ps.flow_d[f]];
  double wmax = 0.0;
  for (double v : w) wmax = std::max(wmax, v);
  return {std::move(w), wmax};
}

// Shared local-search driver. The decision sequence (greedy construction
// order, candidate order, comparisons) is fully determined by (ps, w, eps)
// and the objective tuples the evaluator returns — run it with the scan and
// the flat evaluator and any divergence is an incremental-maintenance bug.
template <class Eval>
MclbResult run_local_search(const PathSet& ps,
                            const std::vector<double>& w, double eps,
                            int max_rounds, Eval& ev) {
  const int n = ps.n;
  const int f_count = ps.num_flows();

  std::vector<int> choice(f_count, 0);

  // Greedy construction: longest flows first (hardest to place), ties by
  // flow index: a stable counting sort by descending hop count.
  std::vector<int> order(f_count);
  {
    const auto len = [&](int f) { return ps.path_length(ps.path_begin[f]); };
    int max_len = 0;
    for (int f = 0; f < f_count; ++f) max_len = std::max(max_len, len(f));
    std::vector<int> start(static_cast<std::size_t>(max_len) + 1, 0);
    for (int f = 0; f < f_count; ++f) ++start[max_len - len(f)];
    std::exclusive_scan(start.begin(), start.end(), start.begin(), 0);
    for (int f = 0; f < f_count; ++f) order[start[max_len - len(f)]++] = f;
  }

  // A single-path flow has no decision to make: it is placed without an
  // evaluation (eval_add is pure, so skipping it changes no state) but still
  // counted as a candidate considered. Only flows with two or more paths can
  // move in the improvement rounds, so those walk a list of them.
  long greedy_evals = 0;
  std::vector<int> multi;
  multi.reserve(f_count);
  for (int f : order) {
    const int pb = ps.path_begin[f], pe = ps.path_begin[f + 1];
    greedy_evals += pe - pb;
    int best_k = 0;
    if (pe - pb > 1) {
      LoadObjective best = ev.eval_add(pb, w[f]);
      for (int p = pb + 1; p < pe; ++p) {
        const auto obj = ev.eval_add(p, w[f]);
        if (obj.better_than(best, eps)) {
          best = obj;
          best_k = p - pb;
        }
      }
    }
    choice[f] = best_k;
    ev.apply(pb + best_k, w[f]);
  }
  for (int f = 0; f < f_count; ++f)
    if (ps.paths_of(f) > 1) multi.push_back(f);

  // Improvement: reroute flows crossing maximally loaded channels; accept
  // only lexicographic improvements of the load profile, so it terminates.
  long iters = 0;
  int rounds_run = 0;
  for (int round = 0; round < max_rounds; ++round) {
    ++rounds_run;
    bool improved = false;
    LoadObjective cur = ev.current();
    for (const int f : multi) {
      const int pb = ps.path_begin[f], pe = ps.path_begin[f + 1];
      const int curp = pb + choice[f];
      const std::int32_t* ce = ps.edges_of(curp);
      const int clen = ps.path_length(curp);
      bool on_max = false;
      for (int i = 0; i < clen && !on_max; ++i)
        if (ev.load(ce[i]) > cur.max - eps) on_max = true;
      if (!on_max) continue;

      ev.apply(curp, -w[f]);
      int best_k = choice[f];
      LoadObjective best = cur;
      for (int p = pb; p < pe; ++p) {
        if (p - pb == choice[f]) continue;
        ++iters;
        const auto obj = ev.eval_add(p, w[f]);
        if (obj.better_than(best, eps)) {
          best = obj;
          best_k = p - pb;
        }
      }
      ev.apply(pb + best_k, w[f]);
      if (best_k != choice[f]) {
        choice[f] = best_k;
        cur = best;
        improved = true;
      }
    }
    if (!improved) break;
  }

  MclbResult result;
  result.choice.assign(static_cast<std::size_t>(n) * n, 0);
  for (int f = 0; f < f_count; ++f)
    result.choice[static_cast<std::size_t>(ps.flow_s[f]) * n +
                  ps.flow_d[f]] = choice[f];
  result.objective = ev.current();
  result.max_flows_on_link = static_cast<int>(std::lround(result.objective.max));
  result.max_load = result.objective.max / (n - 1);
  result.iterations = iters;
  // One flush per search: the annealer runs this on every candidate move, so
  // the hot loops above must stay free of shared-state traffic, and the
  // handle lookups are cached (a name lookup per search would already cost
  // percents at ~10k searches/s).
  if (obs::metrics_enabled()) {
    static obs::Counter& searches = obs::counter("mclb.searches");
    static obs::Counter& rounds = obs::counter("mclb.rounds");
    static obs::Counter& evals = obs::counter("mclb.candidate_evals");
    searches.inc();
    rounds.add(static_cast<std::uint64_t>(rounds_run));
    evals.add(static_cast<std::uint64_t>(greedy_evals + iters));
  }
  return result;
}

bool all_unit(const std::vector<double>& w) {
  for (double v : w)
    if (v != 1.0) return false;
  return true;
}

// Load profile of a unit-weight choice vector, recomputed from scratch
// (used to report the MILP solution's objective in the same terms the
// local-search engines maintain). Links that appear only on unchosen paths
// carry zero load but still count in at_max, exactly as in the search
// engines' edge universe.
LoadObjective objective_of_choice(const PathSet& ps,
                                  const std::vector<int>& choice) {
  std::vector<double> loads(ps.num_edges, 0.0);
  for (int f = 0; f < ps.num_flows(); ++f) {
    const int p = ps.path_begin[f] +
                  choice[static_cast<std::size_t>(ps.flow_s[f]) * ps.n +
                         ps.flow_d[f]];
    const std::int32_t* e = ps.edges_of(p);
    for (int i = 0; i < ps.path_length(p); ++i) loads[e[i]] += 1.0;
  }
  return LoadObjective::of(loads);
}

// The Table III model over ps, shared by the exact and the fractional MCLB:
// path p is variable p (binary, or continuous in [0, 1] when relaxed), one
// C4 "exactly one path" row per flow, then the load bound t = variable
// ps.num_paths() (the objective; integer or continuous) and one C1/O1
// "cload[i][j] <= t" row per link in (i, j) order.
lp::Model table3_model(const PathSet& ps, bool integral) {
  lp::Model m;
  for (int f = 0; f < ps.num_flows(); ++f) {
    std::vector<lp::Term> one;
    for (int p = ps.path_begin[f]; p < ps.path_begin[f + 1]; ++p)
      one.push_back(
          {integral ? m.add_binary(0.0) : m.add_continuous(0.0, 1.0), 1.0});
    m.add_constraint(std::move(one), lp::Rel::kEq, 1.0);
  }
  // Uniform demand => integral channel loads; integer t tightens the search.
  const int t = integral ? m.add_integer(0.0, lp::kInf, 1.0)
                         : m.add_continuous(0.0, lp::kInf, 1.0);
  std::vector<std::vector<lp::Term>> rows(ps.num_edges);
  for (int p = 0; p < ps.num_paths(); ++p) {
    const std::int32_t* e = ps.edges_of(p);
    for (int i = 0; i < ps.path_length(p); ++i) rows[e[i]].push_back({p, 1.0});
  }
  for (const int e : ps.edge_id) {
    if (e < 0) continue;
    rows[e].push_back({t, -1.0});
    m.add_constraint(std::move(rows[e]), lp::Rel::kLe, 0.0);
  }
  m.set_sense(lp::Sense::kMinimize);
  return m;
}

}  // namespace

MclbResult mclb_local_search(const PathSet& ps,
                             const std::vector<double>& flow_weight,
                             int max_rounds) {
  auto [w, wmax] = flow_weights(ps, flow_weight);
  FlatEvaluator ev(ps, all_unit(w));
  MclbResult r = run_local_search(ps, w, LoadObjective::tolerance(wmax),
                                  max_rounds, ev);
  if (obs::metrics_enabled()) {
    static obs::Counter& rebuilds = obs::counter("mclb.hist_rebuilds");
    rebuilds.add(static_cast<std::uint64_t>(ev.hist_grows()));
  }
  return r;
}

MclbResult mclb_local_search_scan(const PathSet& ps,
                                  const std::vector<double>& flow_weight,
                                  int max_rounds) {
  auto [w, wmax] = flow_weights(ps, flow_weight);
  ScanEvaluator ev(ps);
  return run_local_search(ps, w, LoadObjective::tolerance(wmax), max_rounds,
                          ev);
}

MclbResult mclb_exact(const PathSet& ps, const lp::MilpOptions& opts,
                      const MclbResult* incumbent) {
  const int n = ps.num_nodes();
  lp::Model m = table3_model(ps, /*integral=*/true);
  const int t = ps.num_paths();

  // Seed the bound with the local-search incumbent (valid upper bound) —
  // the caller's, when provided, so its search is not repeated.
  const MclbResult ls = incumbent ? *incumbent : mclb_local_search(ps);
  m.var(t).ub = ls.max_flows_on_link;

  const auto sol = lp::solve_milp(m, opts);
  if (sol.status != lp::SolveStatus::kOptimal || sol.x.empty()) {
    // Fall back to the local-search answer.
    MclbResult fallback = ls;
    fallback.proven_optimal = false;
    return fallback;
  }
  MclbResult result;
  result.choice.assign(static_cast<std::size_t>(n) * n, 0);
  for (int f = 0; f < ps.num_flows(); ++f)
    for (int p = ps.path_begin[f]; p < ps.path_begin[f + 1]; ++p)
      if (sol.x[p] > 0.5)
        result.choice[static_cast<std::size_t>(ps.flow_s[f]) * n +
                      ps.flow_d[f]] = p - ps.path_begin[f];
  result.max_flows_on_link = static_cast<int>(std::lround(sol.x[t]));
  result.max_load = sol.x[t] / (n - 1);
  result.objective = objective_of_choice(ps, result.choice);
  result.iterations = sol.iterations;
  result.proven_optimal = true;
  return result;
}

FractionalMclbResult mclb_fractional(const PathSet& ps,
                                     const lp::SimplexOptions& opts) {
  const int t = ps.num_paths();
  const auto sol = lp::solve_lp(table3_model(ps, /*integral=*/false), opts);

  FractionalMclbResult r;
  r.iterations = sol.iterations;
  if (sol.status != lp::SolveStatus::kOptimal) return r;
  r.solved = true;
  r.weights.assign(sol.x.begin(), sol.x.begin() + ps.num_paths());
  r.max_load = sol.x[t] / (ps.num_nodes() - 1);
  return r;
}

LoadAnalysis analyze_fractional_choice(const PathSet& ps,
                                       const FractionalMclbResult& frac) {
  const int n = ps.num_nodes();
  util::Matrix<double> load(n, n, 0.0);
  const double unit = 1.0 / (n - 1);
  LoadAnalysis a;
  if (!frac.weights.empty()) {
    a.flows = ps.num_flows();
    for (int p = 0; p < ps.num_paths(); ++p) {
      const double w = frac.weights[p];
      if (w <= 0.0) continue;
      const std::int32_t* e = ps.edges_of(p);
      for (int i = 0; i < ps.path_length(p); ++i)
        load(ps.edge_src[e[i]], ps.edge_dst[e[i]]) += w * unit;
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) a.max_load = std::max(a.max_load, load(i, j));
  a.load = std::move(load);
  return a;
}

}  // namespace netsmith::routing
