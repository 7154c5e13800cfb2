#include "routing/repair.hpp"

#include <algorithm>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/metrics.hpp"

namespace netsmith::routing {

namespace {

// Dense directed-edge membership for O(1) "does this route cross a failed
// edge" probes.
struct EdgeSet {
  int n = 0;
  std::vector<std::uint8_t> bits;
  explicit EdgeSet(int n_) : n(n_), bits(static_cast<std::size_t>(n_) * n_) {}
  void insert(int u, int v) { bits[static_cast<std::size_t>(u) * n + v] = 1; }
  bool contains(int u, int v) const {
    return bits[static_cast<std::size_t>(u) * n + v] != 0;
  }
};

bool crosses(std::span<const int> p, const EdgeSet& down) {
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    if (down.contains(p[i], p[i + 1])) return true;
  return false;
}

}  // namespace

RepairResult repair_routes(const topo::DiGraph& base_graph,
                           const RoutingTable& base_table,
                           const std::vector<std::pair<int, int>>& down_edges,
                           int max_paths_per_flow) {
  obs::Span span("routing/repair");
  const int n = base_graph.num_nodes();
  RepairResult r;

  EdgeSet down(n);
  topo::DiGraph degraded = base_graph;
  for (const auto& [u, v] : down_edges)
    if (degraded.remove_edge(u, v)) down.insert(u, v);

  std::vector<std::uint8_t> affected(static_cast<std::size_t>(n) * n, 0);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const auto p = base_table.path(s, d);
      if (!p.empty() && crosses(p, down)) {
        affected[static_cast<std::size_t>(s) * n + d] = 1;
        ++r.flows_affected;
      }
    }
  }
  if (r.flows_affected == 0) {
    r.table = base_table;
    return r;
  }

  // Candidate sets: incumbent path only for survivors (pins them: MCLB can
  // only choose that path, so only severed flows move), fresh degraded-
  // graph shortest paths for the affected flows. The greedy places flows
  // longest first, so a severed flow is placed against the partial load
  // profile of the flows placed before it, not the full incumbent one.
  const util::Matrix<int> dist = topo::apsp_bfs(degraded);
  PathCompiler dfs;
  dfs.set_graph(degraded);
  PathSet ps;
  ps.clear(n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      if (!affected[static_cast<std::size_t>(s) * n + d]) {
        const auto p = base_table.path(s, d);
        if (!p.empty()) ps.add_path(p);
      } else if (dfs.add_flow(dist, s, d, max_paths_per_flow, ps) == 0) {
        ++r.flows_unroutable;
      } else {
        ++r.flows_rerouted;
      }
      ps.close_flow(s, d);
    }
  }

  MclbResult m = mclb_local_search(ps);
  r.table = m.table(ps);
  r.objective = m.objective;
  r.iterations = m.iterations;

  if (obs::metrics_enabled()) {
    obs::counter("fault.flows_rerouted")
        .add(static_cast<std::uint64_t>(r.flows_rerouted));
    obs::counter("fault.flows_unroutable")
        .add(static_cast<std::uint64_t>(r.flows_unroutable));
  }
  return r;
}

}  // namespace netsmith::routing
