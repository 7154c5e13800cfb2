#include "routing/paths.hpp"

#include <algorithm>

#include "topo/metrics.hpp"

namespace netsmith::routing {

void PathSet::clear(int routers) {
  const std::size_t nn = static_cast<std::size_t>(routers) * routers;
  n = routers;
  num_edges = 0;
  edge_src.clear();
  edge_dst.clear();
  edge_id.assign(nn, -1);
  flow_s.clear();
  flow_d.clear();
  flow_of_pair.assign(nn, -1);
  path_begin.assign(1, 0);
  edge_begin.assign(1, 0);
  path_edges.clear();
  path_nodes.clear();
}

void PathSet::add_path(std::span<const int> nodes) {
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    int& id = edge_id[static_cast<std::size_t>(nodes[i]) * n + nodes[i + 1]];
    if (id < 0) {
      id = num_edges++;
      edge_src.push_back(nodes[i]);
      edge_dst.push_back(nodes[i + 1]);
    }
    path_edges.push_back(id);
  }
  edge_begin.push_back(static_cast<std::int32_t>(path_edges.size()));
  path_nodes.insert(path_nodes.end(), nodes.begin(), nodes.end());
}

void PathSet::close_flow(int s, int d) {
  if (num_paths() == path_begin.back()) return;
  flow_of_pair[static_cast<std::size_t>(s) * n + d] = num_flows();
  flow_s.push_back(s);
  flow_d.push_back(d);
  path_begin.push_back(num_paths());
}

PathSet enumerate_shortest_paths(const topo::DiGraph& g,
                                 int max_paths_per_flow) {
  PathSet ps;
  PathCompiler().enumerate(g, topo::apsp_bfs(g), max_paths_per_flow, ps);
  return ps;
}

void PathCompiler::sort_adjacency(const topo::DiGraph& g) {
  const int n = g.num_nodes();
  adj_.resize(n);
  for (int u = 0; u < n; ++u) {
    const auto& nbrs = g.out_neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());
    std::sort(adj_[u].begin(), adj_[u].end());
  }
}

// Depth-first over the shortest-path DAG of flow (prefix_.front(), d),
// neighbours in sorted order, stopping after `cap` paths.
void PathCompiler::dfs(const util::Matrix<int>& dist, int d, int cap,
                       PathSet& out) {
  const int u = prefix_.back();
  if (u == d) {
    out.add_path(prefix_);
    ++emitted_;
    return;
  }
  if (emitted_ >= cap) return;
  const int s = prefix_.front();
  for (int v : adj_[u]) {
    if (dist(s, u) + 1 + dist(v, d) != dist(s, d)) continue;
    if (dist(s, v) != dist(s, u) + 1) continue;
    prefix_.push_back(v);
    dfs(dist, d, cap, out);
    prefix_.pop_back();
    if (emitted_ >= cap) return;
  }
}

void PathCompiler::set_graph(const topo::DiGraph& g) {
  sort_adjacency(g);
  removed_.clear();
  n_ = 0;
}

int PathCompiler::add_flow(const util::Matrix<int>& dist, int s, int d,
                           int max_paths_per_flow, PathSet& out) {
  emitted_ = 0;
  if (s == d || dist(s, d) >= topo::kUnreachable) return 0;
  prefix_.assign(1, s);
  dfs(dist, d, max_paths_per_flow, out);
  return emitted_;
}

// The three-condition test from the header, for a pair reachable now.
bool PathCompiler::paths_survive(const util::Matrix<int>& dist, int s,
                                 int d) const {
  const std::size_t k = static_cast<std::size_t>(s) * n_ + d;
  const int len = dist(s, d);
  if (prev_dist_[k] != len) return false;
  for (const auto& [u, v] : added_)
    if (dist(s, u) + 1 + dist(v, d) == len) return false;
  if (removed_.empty()) return true;
  for (int p = node_begin_[k]; p < node_begin_[k + 1]; p += len + 1)
    for (int i = p; i < p + len; ++i)
      if (removed_mask_[static_cast<std::size_t>(nodes_[i]) * n_ +
                        nodes_[i + 1]])
        return false;
  return true;
}

void PathCompiler::enumerate(const topo::DiGraph& g,
                             const util::Matrix<int>& dist,
                             int max_paths_per_flow, PathSet& out) {
  const int n = g.num_nodes();
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  const bool full = n != n_ || max_paths_per_flow != cap_;
  adj_.swap(prev_adj_);
  sort_adjacency(g);

  // R and A: a merge of each router's old and new sorted out-lists.
  for (const auto& [u, v] : removed_)
    removed_mask_[static_cast<std::size_t>(u) * n_ + v] = 0;
  removed_.clear();
  added_.clear();
  if (full) {
    n_ = n;
    cap_ = max_paths_per_flow;
    removed_mask_.assign(nn, 0);
  } else {
    for (int u = 0; u < n; ++u) {
      const auto& a = prev_adj_[u];
      const auto& b = adj_[u];
      std::size_t i = 0, j = 0;
      while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i] < b[j])) {
          removed_.emplace_back(u, a[i]);
          removed_mask_[static_cast<std::size_t>(u) * n + a[i++]] = 1;
        } else if (i == a.size() || b[j] < a[i]) {
          added_.emplace_back(u, b[j++]);
        } else {
          ++i;
          ++j;
        }
      }
    }
  }

  out.clear(n);
  next_node_begin_.resize(nn + 1);
  recompiled_ = 0;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      const std::size_t k = static_cast<std::size_t>(s) * n + d;
      next_node_begin_[k] = static_cast<int>(out.path_nodes.size());
      if (s == d || dist(s, d) >= topo::kUnreachable) continue;
      if (!full && paths_survive(dist, s, d)) {
        const int len = dist(s, d) + 1;
        for (int i = node_begin_[k]; i < node_begin_[k + 1]; i += len)
          out.add_path({nodes_.data() + i, static_cast<std::size_t>(len)});
      } else {
        ++recompiled_;
        add_flow(dist, s, d, max_paths_per_flow, out);
      }
      out.close_flow(s, d);
    }
  }
  next_node_begin_[nn] = static_cast<int>(out.path_nodes.size());
  nodes_.assign(out.path_nodes.begin(), out.path_nodes.end());
  node_begin_.swap(next_node_begin_);
  prev_dist_.assign(dist.data(), dist.data() + nn);
}

bool is_shortest_path(const topo::DiGraph& g, const util::Matrix<int>& dist,
                      std::span<const int> p) {
  if (p.size() < 2) return false;
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    if (!g.has_edge(p[i], p[i + 1])) return false;
  return static_cast<int>(p.size()) - 1 == dist(p.front(), p.back());
}

}  // namespace netsmith::routing
