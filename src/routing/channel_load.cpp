#include "routing/channel_load.hpp"

#include <algorithm>
#include <span>

#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::routing {

namespace {

void add_path_load(util::Matrix<double>& load, std::span<const int> p,
                   double w) {
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    load(p[i], p[i + 1]) += w;
}

LoadAnalysis finish(util::Matrix<double> load, int flows) {
  LoadAnalysis a;
  a.flows = flows;
  a.max_load = 0.0;
  for (std::size_t i = 0; i < load.rows(); ++i)
    for (std::size_t j = 0; j < load.cols(); ++j)
      a.max_load = std::max(a.max_load, load(i, j));
  a.load = std::move(load);
  return a;
}

}  // namespace

LoadAnalysis analyze_uniform(const RoutingTable& rt) {
  const int n = rt.num_nodes();
  util::Matrix<double> load(n, n, 0.0);
  const double w = 1.0 / (n - 1);
  int flows = 0;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const auto p = rt.path(s, d);
      if (p.size() < 2) continue;
      add_path_load(load, p, w);
      ++flows;
    }
  return finish(std::move(load), flows);
}

LoadAnalysis analyze_uniform_fractional(const PathSet& ps) {
  const int n = ps.num_nodes();
  util::Matrix<double> load(n, n, 0.0);
  const double w = 1.0 / (n - 1);
  for (int f = 0; f < ps.num_flows(); ++f) {
    const double share = w / static_cast<double>(ps.paths_of(f));
    for (int p = ps.path_begin[f]; p < ps.path_begin[f + 1]; ++p)
      add_path_load(load, ps.nodes_of(p), share);
  }
  return finish(std::move(load), ps.num_flows());
}

LoadAnalysis analyze_pattern(const RoutingTable& rt,
                             const util::Matrix<double>& weight) {
  const int n = rt.num_nodes();
  util::Matrix<double> load(n, n, 0.0);
  // Normalize: average outgoing weight per node = 1.
  double total = 0.0;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d) total += weight(s, d);
  if (total <= 0.0) return finish(std::move(load), 0);
  const double scale = static_cast<double>(n) / total;
  int flows = 0;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      if (s == d || weight(s, d) <= 0.0) continue;
      const auto p = rt.path(s, d);
      if (p.size() < 2) continue;
      add_path_load(load, p, weight(s, d) * scale);
      ++flows;
    }
  return finish(std::move(load), flows);
}

double occupancy_bound(const topo::DiGraph& g) {
  const double h = topo::average_hops(g);
  if (h <= 0.0) return 0.0;
  return g.num_directed_edges() / (h * g.num_nodes());
}

double cut_bound(const topo::DiGraph& g) {
  const auto cut = topo::sparsest_cut(g);
  return cut.bandwidth * (g.num_nodes() - 1);
}

}  // namespace netsmith::routing
