#include "routing/paths.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

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

int PathSet::intern_edge(int u, int v) {
  int& id = edge_id[static_cast<std::size_t>(u) * n + v];
  if (id < 0) {
    id = num_edges++;
    edge_src.push_back(u);
    edge_dst.push_back(v);
  }
  return id;
}

void PathSet::add_path(std::span<const int> nodes) {
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
    path_edges.push_back(intern_edge(nodes[i], nodes[i + 1]));
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

namespace {

// Every flow of a compiler whose adjacency is sorted: the full pass. Returns
// the number of flows it ran the DFS for.
int add_all_flows(PathCompiler& pc, const util::Matrix<int>& dist, int n,
                  int max_paths_per_flow, PathSet& out) {
  int flows = 0;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      if (s == d || dist(s, d) >= topo::kUnreachable) continue;
      ++flows;
      pc.add_flow(dist, s, d, max_paths_per_flow, out);
      out.close_flow(s, d);
    }
  return flows;
}

}  // namespace

// One-shot: the full pass through the per-flow entry, so no base is kept.
PathSet enumerate_shortest_paths(const topo::DiGraph& g,
                                 int max_paths_per_flow) {
  PathCompiler pc;
  pc.set_graph(g);
  PathSet ps;
  ps.clear(g.num_nodes());
  add_all_flows(pc, topo::apsp_bfs(g), g.num_nodes(), max_paths_per_flow, ps);
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
  n_ = 0;
  pending_ = false;
}

int PathCompiler::add_flow(const util::Matrix<int>& dist, int s, int d,
                           int max_paths_per_flow, PathSet& out) {
  emitted_ = 0;
  if (s == d || dist(s, d) >= topo::kUnreachable) return 0;
  prefix_.assign(1, s);
  dfs(dist, d, max_paths_per_flow, out);
  return emitted_;
}

// Users of every base edge, deduplicated per flow (a flow's paths share
// edges): a count pass and a fill pass over the base's path edges. Built
// once per base and shared by every candidate diffed against it, which is
// why it beats re-scanning the base's path edges for removed ones per call.
void PathCompiler::index_users() {
  const int m = base_.num_edges;
  user_begin_.assign(static_cast<std::size_t>(m) + 1, 0);
  std::vector<int> last;  // the flow that last touched each edge
  for (int pass = 0; pass < 2; ++pass) {
    last.assign(m, -1);
    for (int f = 0; f < base_.num_flows(); ++f) {
      const int k = base_.flow_s[f] * n_ + base_.flow_d[f];
      const int eb = base_.edge_begin[base_.path_begin[f]];
      const int ee = base_.edge_begin[base_.path_begin[f + 1]];
      for (int i = eb; i < ee; ++i) {
        const int e = base_.path_edges[i];
        if (last[e] == f) continue;
        last[e] = f;
        if (pass == 0)
          ++user_begin_[e + 1];
        else
          users_[user_begin_[e]++] = k;
      }
    }
    if (pass == 0) {
      std::inclusive_scan(user_begin_.begin(), user_begin_.end(),
                          user_begin_.begin());
      users_.resize(user_begin_[m]);
    }
  }
  // The fill pass advanced each begin to the next edge's; shift back.
  for (int e = m; e > 0; --e) user_begin_[e] = user_begin_[e - 1];
  user_begin_[0] = 0;
  users_ready_ = true;
}

// redo_[s*n+d] = 1 for every pair meeting condition (1), (2) or (3) of the
// header against the base. R and A come from a merge of each router's base
// and current sorted out-lists.
void PathCompiler::mark_diff(const util::Matrix<int>& dist) {
  const int n = n_;
  redo_.assign(static_cast<std::size_t>(n) * n, 0);
  for (int s = 0; s < n; ++s) {
    const int* row = &dist(s, 0);
    const int* base = base_dist_.data() + static_cast<std::size_t>(s) * n;
    if (std::equal(row, row + n, base)) continue;
    std::uint8_t* r = redo_.data() + static_cast<std::size_t>(s) * n;
    for (int d = 0; d < n; ++d) r[d] |= row[d] != base[d];
  }
  const auto removed = [&](int u, int v) {
    const int e = base_.lookup_edge(u, v);
    if (e < 0) return;
    if (!users_ready_) index_users();
    for (int i = user_begin_[e]; i < user_begin_[e + 1]; ++i)
      redo_[users_[i]] = 1;
  };
  const auto added = [&](int u, int v) {
    const int* dv = &dist(v, 0);
    for (int s = 0; s < n; ++s) {
      if (dist(s, u) >= topo::kUnreachable) continue;
      const int a = dist(s, u) + 1;
      const int* ds = &dist(s, 0);
      std::uint8_t* r = redo_.data() + static_cast<std::size_t>(s) * n;
      for (int d = 0; d < n; ++d) r[d] |= a + dv[d] == ds[d];
    }
  };
  for (int u = 0; u < n; ++u) {
    const auto& a = base_adj_[u];
    const auto& b = adj_[u];
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && a[i] < b[j])) {
        removed(u, a[i++]);
      } else if (i == a.size() || b[j] < a[i]) {
        added(u, b[j++]);
      } else {
        ++i;
        ++j;
      }
    }
  }
}

// Appends base flows [fb, fe) to out: their CSR rows shifted to out's
// offsets, router sequences copied, and edge ids remapped through remap_,
// which interns a base edge the first time the output meets it.
void PathCompiler::copy_run(int fb, int fe, PathSet& out) {
  if (fb >= fe) return;
  const int pb = base_.path_begin[fb], pe = base_.path_begin[fe];
  const int eb = base_.edge_begin[pb], ee = base_.edge_begin[pe];
  const int path_shift = out.num_paths() - pb;
  const int edge_shift = static_cast<int>(out.path_edges.size()) - eb;
  const auto grow = [](auto& v, std::size_t by) {
    v.resize(v.size() + by);
    return v.data() + v.size() - by;
  };
  int* fs = grow(out.flow_s, fe - fb);
  int* fd = grow(out.flow_d, fe - fb);
  int* fp = grow(out.path_begin, fe - fb);
  for (int f = fb, next = out.num_flows() - (fe - fb); f < fe; ++f, ++next) {
    const int s = base_.flow_s[f], d = base_.flow_d[f];
    out.flow_of_pair[static_cast<std::size_t>(s) * out.n + d] = next;
    *fs++ = s;
    *fd++ = d;
    *fp++ = base_.path_begin[f + 1] + path_shift;
  }
  std::int32_t* ep = grow(out.edge_begin, pe - pb);
  for (int p = pb + 1; p <= pe; ++p) *ep++ = base_.edge_begin[p] + edge_shift;
  std::int32_t* id = grow(out.path_edges, ee - eb);
  for (int i = eb; i < ee; ++i) {
    const int e = base_.path_edges[i];
    if (remap_[e] < 0)
      remap_[e] = out.intern_edge(base_.edge_src[e], base_.edge_dst[e]);
    *id++ = remap_[e];
  }
  out.path_nodes.insert(out.path_nodes.end(),
                        base_.path_nodes.begin() + eb + pb,
                        base_.path_nodes.begin() + ee + pe);
}

void PathCompiler::enumerate(const topo::DiGraph& g,
                             const util::Matrix<int>& dist,
                             int max_paths_per_flow, PathSet& out) {
  const int n = g.num_nodes();
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  const bool full = n != n_ || max_paths_per_flow != cap_;
  sort_adjacency(g);
  out.clear(n);
  recompiled_ = 0;

  if (full) {
    recompiled_ = add_all_flows(*this, dist, n, max_paths_per_flow, out);
    n_ = n;
    cap_ = max_paths_per_flow;
    base_ = out;
    base_adj_ = adj_;
    base_dist_.assign(dist.data(), dist.data() + nn);
    users_ready_ = false;
    pending_ = false;
    return;
  }

  mark_diff(dist);
  remap_.assign(base_.num_edges, -1);
  int run_b = 0, run_e = 0;  // base flows waiting to be copied
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      const std::size_t k = static_cast<std::size_t>(s) * n + d;
      if (s == d || dist(s, d) >= topo::kUnreachable) continue;
      if (!redo_[k]) {
        const int f = base_.flow_of_pair[k];
        if (f < 0) continue;  // cap 0: no paths here or in the base
        if (f != run_e) {
          copy_run(run_b, run_e, out);
          run_b = f;
        }
        run_e = f + 1;
        continue;
      }
      copy_run(run_b, run_e, out);
      run_b = run_e = 0;
      ++recompiled_;
      add_flow(dist, s, d, max_paths_per_flow, out);
      out.close_flow(s, d);
    }
  }
  copy_run(run_b, run_e, out);
  dist_.assign(dist.data(), dist.data() + nn);
  pending_ = true;
}

void PathCompiler::commit(const PathSet& last) {
  if (!pending_) return;
  assert(last.n == n_);
  base_ = last;
  base_adj_.swap(adj_);
  base_dist_.swap(dist_);
  users_ready_ = false;
  pending_ = false;
}

bool is_shortest_path(const topo::DiGraph& g, const util::Matrix<int>& dist,
                      std::span<const int> p) {
  if (p.size() < 2) return false;
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    if (!g.has_edge(p[i], p[i + 1])) return false;
  return static_cast<int>(p.size()) - 1 == dist(p.front(), p.back());
}

}  // namespace netsmith::routing
