#include "routing/compiled.hpp"

#include <algorithm>

#include "topo/metrics.hpp"

namespace netsmith::routing {

namespace {

int intern_edge(CompiledPathSet& c, int u, int v) {
  int& id = c.edge_id[static_cast<std::size_t>(u) * c.n + v];
  if (id < 0) {
    id = c.num_edges++;
    c.edge_src.push_back(u);
    c.edge_dst.push_back(v);
  }
  return id;
}

}  // namespace

CompiledPathSet compile_paths(const PathSet& ps) {
  const int n = ps.num_nodes();
  CompiledPathSet c;
  c.n = n;
  c.edge_id.assign(static_cast<std::size_t>(n) * n, -1);
  c.flow_of_pair.assign(static_cast<std::size_t>(n) * n, -1);

  c.path_begin.push_back(0);
  c.edge_begin.push_back(0);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const auto& alts = ps.at(s, d);
      if (alts.empty()) continue;
      c.flow_of_pair[static_cast<std::size_t>(s) * n + d] = c.num_flows();
      c.flow_s.push_back(s);
      c.flow_d.push_back(d);
      for (const Path& p : alts) {
        for (std::size_t i = 0; i + 1 < p.size(); ++i)
          c.path_edges.push_back(intern_edge(c, p[i], p[i + 1]));
        c.edge_begin.push_back(static_cast<std::int32_t>(c.path_edges.size()));
      }
      c.path_begin.push_back(c.num_paths());
    }
  }
  return c;
}

// Appends one path, given as a router sequence, to the CSR and to the
// carried-over path store.
void PathCompiler::emit(const int* nodes, int count, CompiledPathSet& out) {
  for (int i = 0; i + 1 < count; ++i)
    out.path_edges.push_back(intern_edge(out, nodes[i], nodes[i + 1]));
  out.edge_begin.push_back(static_cast<std::int32_t>(out.path_edges.size()));
  next_nodes_.insert(next_nodes_.end(), nodes, nodes + count);
}

// Mirrors dfs_paths in routing/paths.cpp exactly (same pruning, same
// sorted-neighbour order, same cap semantics), but emits interned edge ids
// instead of router-sequence Paths.
void PathCompiler::dfs(const util::Matrix<int>& dist, int d, int cap,
                       CompiledPathSet& out) {
  const int u = prefix_.back();
  if (u == d) {
    emit(prefix_.data(), static_cast<int>(prefix_.size()), out);
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
                             int max_paths_per_flow, CompiledPathSet& out) {
  const int n = g.num_nodes();
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  const bool full = n != n_ || max_paths_per_flow != cap_;
  adj_.swap(prev_adj_);
  adj_.resize(n);
  for (int u = 0; u < n; ++u) {
    const auto& nbrs = g.out_neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());
    std::sort(adj_[u].begin(), adj_[u].end());
  }

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

  out.n = n;
  out.num_edges = 0;
  out.edge_src.clear();
  out.edge_dst.clear();
  out.edge_id.assign(nn, -1);
  out.flow_s.clear();
  out.flow_d.clear();
  out.flow_of_pair.assign(nn, -1);
  out.path_begin.clear();
  out.path_begin.push_back(0);
  out.edge_begin.clear();
  out.edge_begin.push_back(0);
  out.path_edges.clear();

  next_nodes_.clear();
  next_node_begin_.resize(nn + 1);
  recompiled_ = 0;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      const std::size_t k = static_cast<std::size_t>(s) * n + d;
      next_node_begin_[k] = static_cast<int>(next_nodes_.size());
      if (s == d || dist(s, d) >= topo::kUnreachable) continue;
      const int before = out.num_paths();
      if (!full && paths_survive(dist, s, d)) {
        const int len = dist(s, d) + 1;
        for (int i = node_begin_[k]; i < node_begin_[k + 1]; i += len)
          emit(nodes_.data() + i, len, out);
      } else {
        ++recompiled_;
        prefix_.clear();
        prefix_.push_back(s);
        emitted_ = 0;
        dfs(dist, d, max_paths_per_flow, out);
      }
      if (out.num_paths() > before) {
        out.flow_of_pair[k] = out.num_flows();
        out.flow_s.push_back(s);
        out.flow_d.push_back(d);
        out.path_begin.push_back(out.num_paths());
      }
    }
  }
  next_node_begin_[nn] = static_cast<int>(next_nodes_.size());
  nodes_.swap(next_nodes_);
  node_begin_.swap(next_node_begin_);
  prev_dist_.assign(dist.data(), dist.data() + nn);
}

}  // namespace netsmith::routing
