#include "core/milp_encoding.hpp"

#include <cmath>
#include <stdexcept>

#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {

namespace {

// Shared skeleton: M variables + radix rows + D variables with the C4/C5
// shortest-path construction.
MilpEncoding encode_common(const topo::Layout& layout, topo::LinkClass cls,
                           int radix, int diameter_bound, bool symmetric) {
  const int n = layout.n();
  if (n > 12)
    throw std::invalid_argument(
        "milp encoding: exact formulation is sized for n <= 12");

  MilpEncoding enc;
  enc.n = n;
  lp::Model& m = enc.model;

  const int diam = diameter_bound > 0 ? diameter_bound : n - 1;
  // Tightest valid big-M: every D is in [1, diam], so slack of `diam` covers
  // both the <= rows (D <= D + 1 + M) and the >= rows (D >= D + 1 - M).
  // A tight M is what keeps the LP relaxation strong enough to prune.
  const double big_m = static_cast<double>(diam);

  // C1/C3: connectivity map over the valid link set only.
  enc.m_var.assign(static_cast<std::size_t>(n) * n, -1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      if (!topo::link_allowed(layout, i, j, cls)) continue;
      enc.m_var[static_cast<std::size_t>(i) * n + j] = m.add_binary();
    }

  // C9 (optional): symmetric links.
  if (symmetric) {
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) {
        const int mij = enc.m_var[static_cast<std::size_t>(i) * n + j];
        const int mji = enc.m_var[static_cast<std::size_t>(j) * n + i];
        if (mij < 0 || mji < 0) continue;
        m.add_constraint({{mij, 1.0}, {mji, -1.0}}, lp::Rel::kEq, 0.0);
      }
  }

  // C2: out/in radix.
  for (int i = 0; i < n; ++i) {
    std::vector<lp::Term> out_row, in_row;
    for (int j = 0; j < n; ++j) {
      const int mij = enc.m_var[static_cast<std::size_t>(i) * n + j];
      const int mji = enc.m_var[static_cast<std::size_t>(j) * n + i];
      if (mij >= 0) out_row.push_back({mij, 1.0});
      if (mji >= 0) in_row.push_back({mji, 1.0});
    }
    if (!out_row.empty())
      m.add_constraint(std::move(out_row), lp::Rel::kLe, radix);
    if (!in_row.empty())
      m.add_constraint(std::move(in_row), lp::Rel::kLe, radix);
  }

  // D variables (C8 folds into the upper bound => connectivity guaranteed).
  enc.d_var.assign(static_cast<std::size_t>(n) * n, -1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      enc.d_var[static_cast<std::size_t>(i) * n + j] =
          m.add_integer(1.0, diam);
    }
  auto D = [&](int i, int j) {
    return enc.d_var[static_cast<std::size_t>(i) * n + j];
  };
  auto M = [&](int i, int j) {
    return enc.m_var[static_cast<std::size_t>(i) * n + j];
  };

  // C4 upper side: D(i,j) <= 1 + big_m * (1 - M(i,j)) when (i,j) in L.
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j || M(i, j) < 0) continue;
      m.add_constraint({{D(i, j), 1.0}, {M(i, j), big_m}}, lp::Rel::kLe,
                       1.0 + big_m);
    }

  // C5: D(i,j) == min over predecessors k of D(i,k) + O(k,j).
  //  - Upper: D(i,j) <= D(i,k) + 1 + big_m*(1 - M(k,j))   for all k != i, j.
  //  - Lower: indicator y picks one predecessor with a real link:
  //      sum_k y(i,j,k) = 1;  y(i,j,k) <= M(k,j);
  //      D(i,j) >= D(i,k) + 1 - big_m*(1 - y(i,j,k)).
  //    The k == i case degenerates to the direct link (D(i,i) = 0 by C1).
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      std::vector<lp::Term> pick;
      for (int k = 0; k < n; ++k) {
        if (k == j) continue;
        const int mkj = M(k, j);
        if (mkj < 0) continue;  // predecessor needs a potential link k -> j
        if (k != i) {
          // Upper triangle rows tighten the relaxation.
          m.add_constraint(
              {{D(i, j), 1.0}, {D(i, k), -1.0}, {mkj, big_m}}, lp::Rel::kLe,
              1.0 + big_m);
        }
        const int y = m.add_binary();
        pick.push_back({y, 1.0});
        m.add_constraint({{y, 1.0}, {mkj, -1.0}}, lp::Rel::kLe, 0.0);
        if (k == i) {
          // D(i,j) >= 1 - big_m*(1-y): trivially true (D >= 1), so only the
          // upper side matters; keep the row for uniformity.
          m.add_constraint({{D(i, j), 1.0}, {y, -big_m}}, lp::Rel::kGe,
                           1.0 - big_m);
        } else {
          m.add_constraint({{D(i, j), 1.0}, {D(i, k), -1.0}, {y, -big_m}},
                           lp::Rel::kGe, 1.0 - big_m);
        }
      }
      if (pick.empty())
        throw std::invalid_argument(
            "milp encoding: node unreachable under the link class");
      m.add_constraint(std::move(pick), lp::Rel::kEq, 1.0);
    }

  return enc;
}

}  // namespace

MilpEncoding encode_latop(const topo::Layout& layout, topo::LinkClass cls,
                          int radix, int diameter_bound, bool symmetric_links) {
  MilpEncoding enc =
      encode_common(layout, cls, radix, diameter_bound, symmetric_links);
  const int n = enc.n;
  // O1: minimize sum of D.
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const int d = enc.d_var[static_cast<std::size_t>(i) * n + j];
      if (d >= 0) enc.model.var(d).obj = 1.0;
    }
  enc.model.set_sense(lp::Sense::kMinimize);
  return enc;
}

MilpEncoding encode_scop(const topo::Layout& layout, topo::LinkClass cls,
                         int radix, int diameter_bound, bool symmetric_links) {
  MilpEncoding enc =
      encode_common(layout, cls, radix, diameter_bound, symmetric_links);
  const int n = enc.n;
  lp::Model& m = enc.model;

  // O2 via C6/C7: B <= (crossings of every partition, each direction),
  // scaled by 1/(|U||V|). All 2^(n-1)-1 partitions enumerated.
  enc.b_var = m.add_continuous(0.0, static_cast<double>(n), 1.0);
  // Node n-1 stays in V so each unordered partition appears once.
  for (std::uint64_t mask = 1; mask < (1ULL << (n - 1)); ++mask) {
    int usz = 0;
    for (int i = 0; i < n; ++i) usz += static_cast<int>(mask >> i & 1);
    if (usz == 0 || usz == n) continue;
    const double scale = static_cast<double>(usz) * (n - usz);
    std::vector<lp::Term> uv{{enc.b_var, -scale}};
    std::vector<lp::Term> vu{{enc.b_var, -scale}};
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        const int mij = enc.m_var[static_cast<std::size_t>(i) * n + j];
        if (mij < 0) continue;
        const bool ui = mask >> i & 1, uj = mask >> j & 1;
        if (ui && !uj) uv.push_back({mij, 1.0});
        else if (!ui && uj) vu.push_back({mij, 1.0});
      }
    m.add_constraint(std::move(uv), lp::Rel::kGe, 0.0);
    m.add_constraint(std::move(vu), lp::Rel::kGe, 0.0);
  }
  m.set_sense(lp::Sense::kMaximize);
  return enc;
}

topo::DiGraph decode_topology(const MilpEncoding& enc,
                              const std::vector<double>& x) {
  topo::DiGraph g(enc.n);
  for (int i = 0; i < enc.n; ++i)
    for (int j = 0; j < enc.n; ++j) {
      const int v = enc.m_var[static_cast<std::size_t>(i) * enc.n + j];
      if (v >= 0 && x[v] > 0.5) g.add_edge(i, j);
    }
  return g;
}

SynthesisResult synthesize_exact(const SynthesisConfig& cfg,
                                 const lp::MilpOptions& opts) {
  MilpEncoding enc;
  switch (cfg.objective) {
    case Objective::kLatOp:
      enc = encode_latop(cfg.layout, cfg.link_class, cfg.radix,
                         cfg.diameter_bound, cfg.symmetric_links);
      break;
    case Objective::kSCOp:
      enc = encode_scop(cfg.layout, cfg.link_class, cfg.radix,
                        cfg.diameter_bound, cfg.symmetric_links);
      break;
    case Objective::kPattern:
    case Objective::kChannelLoad:
    case Objective::kLatLoad:
      throw std::invalid_argument(
          "synthesize_exact: pattern/route-aware objectives are anneal-only");
  }

  lp::MilpOptions o = opts;
  if (o.time_limit_s <= 0) o.time_limit_s = cfg.time_limit_s;
  const auto sol = lp::solve_milp(enc.model, o);
  if (sol.x.empty())
    throw std::runtime_error("synthesize_exact: no feasible topology found (" +
                             lp::to_string(sol.status) + ")");

  SynthesisResult result;
  result.graph = decode_topology(enc, sol.x);
  const int n = result.graph.num_nodes();
  if (cfg.objective == Objective::kLatOp) {
    result.objective_value = topo::average_hops(result.graph);
    result.bound = sol.bound / (static_cast<double>(n) * (n - 1));
  } else {
    result.objective_value = topo::sparsest_cut(result.graph).bandwidth;
    result.bound = sol.bound;
  }
  ProgressPoint pt;
  pt.incumbent = result.objective_value;
  pt.bound = result.bound;
  result.trace.push_back(pt);
  return result;
}

}  // namespace netsmith::core
