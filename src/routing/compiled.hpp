#pragma once
// Compiled (flat, interned) form of a PathSet for the MCLB routing engine.
//
// enumerate_shortest_paths produces a ragged vector-of-vectors-of-Paths;
// walking it during routing costs a std::map edge lookup per edge per
// candidate per round. Compiling interns every candidate path once into
// contiguous arrays:
//
//   - a dense edge index: every directed link that appears on at least one
//     candidate path gets a small integer id (first-use order), with an
//     n*n lookup table for interning and edge_src/edge_dst for the reverse
//     mapping;
//   - flows (ordered (s, d) row-major, only s != d pairs with >= 1
//     candidate) with CSR offsets into a path table;
//   - paths as CSR offsets into one flat array of edge ids, so "apply this
//     path" is a linear walk over a few ints in one cache line.
//
// The compiled form is immutable; both the flat incremental engine and the
// retained scan-based oracle in routing/mclb run on it, which keeps their
// decision sequences trivially comparable.

#include <cstdint>
#include <utility>
#include <vector>

#include "routing/paths.hpp"

namespace netsmith::routing {

struct CompiledPathSet {
  int n = 0;          // routers
  int num_edges = 0;  // distinct directed edges used by any candidate path

  // Dense edge interning: edge id -> endpoints, and an n*n lookup table
  // (-1 = the link is on no candidate path).
  std::vector<int> edge_src, edge_dst;
  std::vector<int> edge_id;

  // Flows in (s, d) row-major order; flow_of_pair[s*n+d] = flow index or -1.
  std::vector<int> flow_s, flow_d;
  std::vector<int> flow_of_pair;

  // CSR layout: paths of flow f are path indices [path_begin[f],
  // path_begin[f+1]); edges of path p are path_edges[edge_begin[p] ..
  // edge_begin[p+1]). Path k of flow f is path index path_begin[f] + k,
  // matching PathSet::at(s, d)[k].
  std::vector<int> path_begin;
  std::vector<std::int32_t> edge_begin;
  std::vector<std::int32_t> path_edges;

  int num_flows() const { return static_cast<int>(flow_s.size()); }
  int num_paths() const { return static_cast<int>(edge_begin.size()) - 1; }
  int paths_of(int f) const { return path_begin[f + 1] - path_begin[f]; }
  int path_length(int p) const { return edge_begin[p + 1] - edge_begin[p]; }
  const std::int32_t* edges_of(int p) const {
    return path_edges.data() + edge_begin[p];
  }

  int lookup_edge(int u, int v) const {
    return edge_id[static_cast<std::size_t>(u) * n + v];
  }
};

// Interns every candidate path of ps; deterministic (first-use edge order,
// row-major flow order, PathSet path order).
CompiledPathSet compile_paths(const PathSet& ps);

// Scratch-reusing enumerate+compile: DFSes the shortest-path DAG straight
// into the compiled CSR arrays, skipping the intermediate ragged PathSet
// entirely. Produces a CompiledPathSet identical to
// compile_paths(enumerate_shortest_paths_from_dist(g, dist, cap)), field for
// field. This is what the annealer's route-aware objectives run once per
// scored move, so it is incremental against its previous call: a flow's
// paths are the lexicographically first `cap` shortest paths, and they are
// still exactly that after a graph change unless
//   (1) dist(s, d) changed,
//   (2) one of its emitted paths crosses a removed edge, or
//   (3) an added edge (u, v) lies on a shortest s->d path, i.e.
//       dist(s, u) + 1 + dist(v, d) == dist(s, d) under the new distances.
// Without (1) and (3) the new shortest-path set is a subset of the old one;
// without (2) it still holds every emitted path, which therefore stay the
// lexicographically first. (1) is implied by the other two (a shorter or
// newly possible route needs an added edge; a longer one breaks every
// emitted path) and is tested first as the cheapest. Only flows meeting a
// condition are re-DFSed; the rest keep their paths, and the CSR is
// re-interned in row-major order so edge ids match a fresh compile. The
// first call, and any call that changes n or cap, is a full pass.
class PathCompiler {
 public:
  void enumerate(const topo::DiGraph& g, const util::Matrix<int>& dist,
                 int max_paths_per_flow, CompiledPathSet& out);

  // Flows the last enumerate() call ran the DFS for; every other flow kept
  // the paths of the call before.
  int last_recompiled_flows() const { return recompiled_; }

 private:
  bool paths_survive(const util::Matrix<int>& dist, int s, int d) const;
  void dfs(const util::Matrix<int>& dist, int d, int cap,
           CompiledPathSet& out);
  void emit(const int* nodes, int count, CompiledPathSet& out);

  int n_ = 0, cap_ = -1;  // shape of the previous call (n_ == 0: none)
  std::vector<std::vector<int>> adj_, prev_adj_;  // presorted out-neighbours
  std::vector<int> prev_dist_;                    // previous call's dist
  std::vector<std::pair<int, int>> removed_, added_;  // R and A
  std::vector<char> removed_mask_;                    // R as an n*n mask
  // Emitted paths as router sequences, dist(s, d) + 1 routers each: pair
  // s*n+d owns nodes_[node_begin_[s*n+d], node_begin_[s*n+d+1]). The next_
  // pair is filled by the current call and swapped in at its end.
  std::vector<int> nodes_, node_begin_, next_nodes_, next_node_begin_;
  std::vector<int> prefix_;
  int emitted_ = 0;  // paths emitted for the current flow
  int recompiled_ = 0;
};

}  // namespace netsmith::routing
