#pragma once
// Shortest-path set (paper SIII-D): the set P of all minimal paths between
// every source and destination, computed statically from the topology. This
// set is the only input the MCLB formulation needs. Every consumer (the MCLB
// engines and the Table III MILP, NDBT filtering, table selection, fault
// repair) reads it in one flat, interned form:
//
//   - a dense edge index: every directed link that appears on at least one
//     path gets a small integer id (first-use order), with an n*n lookup
//     table for interning and edge_src/edge_dst for the reverse mapping;
//   - flows (ordered (s, d) row-major, only s != d pairs with >= 1 path)
//     with CSR offsets into a path table;
//   - paths as CSR offsets into one flat array of edge ids, so "apply this
//     path" is a linear walk over a few ints in one cache line, and the
//     same paths as router sequences in one flat array of nodes.
//
// Both the flat incremental MCLB engine and the retained scan-based oracle
// in routing/mclb run on it, which keeps their decision sequences trivially
// comparable.

#include <cstdint>
#include <span>
#include <vector>

#include "topo/graph.hpp"
#include "util/matrix.hpp"

namespace netsmith::routing {

struct PathSet {
  int n = 0;          // routers
  int num_edges = 0;  // distinct directed edges used by any path

  // Dense edge interning: edge id -> endpoints, and an n*n lookup table
  // (-1 = the link is on no path).
  std::vector<int> edge_src, edge_dst;
  std::vector<int> edge_id;

  // Flows in (s, d) row-major order; flow_of_pair[s*n+d] = flow index or -1.
  std::vector<int> flow_s, flow_d;
  std::vector<int> flow_of_pair;

  // CSR layout: paths of flow f are path indices [path_begin[f],
  // path_begin[f+1]), in enumeration order; edges of path p are
  // path_edges[edge_begin[p] .. edge_begin[p+1]). Path p's routers are the
  // path_length(p) + 1 ints of path_nodes from edge_begin[p] + p (every
  // earlier path has one more router than it has edges).
  std::vector<int> path_begin;
  std::vector<std::int32_t> edge_begin;
  std::vector<std::int32_t> path_edges;
  std::vector<int> path_nodes;

  int num_nodes() const { return n; }
  int num_flows() const { return static_cast<int>(flow_s.size()); }
  int num_paths() const { return static_cast<int>(edge_begin.size()) - 1; }
  int paths_of(int f) const { return path_begin[f + 1] - path_begin[f]; }
  int path_length(int p) const { return edge_begin[p + 1] - edge_begin[p]; }
  const std::int32_t* edges_of(int p) const {
    return path_edges.data() + edge_begin[p];
  }
  // Path p as its router sequence, front() == s, back() == d.
  std::span<const int> nodes_of(int p) const {
    return {path_nodes.data() + edge_begin[p] + p,
            static_cast<std::size_t>(path_length(p)) + 1};
  }

  int lookup_edge(int u, int v) const {
    return edge_id[static_cast<std::size_t>(u) * n + v];
  }
  // Flow index of (s, d); -1 when the pair has no path.
  int flow(int s, int d) const {
    return flow_of_pair[static_cast<std::size_t>(s) * n + d];
  }

  // True iff every s != d pair has at least one path.
  bool all_flows_covered() const { return num_flows() == n * (n - 1); }

  // Building, one flow at a time in row-major order: clear(n), then per
  // flow add_path for each of its paths (router sequences, >= 2 routers)
  // and close_flow(s, d). A flow closed with no path is left out.
  void clear(int routers);
  void add_path(std::span<const int> nodes);
  void close_flow(int s, int d);
  // Id of the link u -> v, interned on first use.
  int intern_edge(int u, int v);
};

// The first max_paths_per_flow shortest paths of every flow, in
// lexicographic router order (a DFS over the shortest-path DAG with sorted
// neighbours: edge (u,v) lies on a shortest s->d path iff
// dist(s,u) + 1 + dist(v,d) == dist(s,d)).
PathSet enumerate_shortest_paths(const topo::DiGraph& g,
                                 int max_paths_per_flow = 64);

// The one shortest-path DFS, with scratch reused across calls. enumerate()
// fills a whole path set from a caller-provided APSP matrix (dist(i, j) =
// hop count, topo::kUnreachable when disconnected); this is what the
// annealer's route-aware objectives run once per scored move, so it diffs
// each call against a committed base (graph, distances and path set), as
// topo::DeltaApsp does. A flow's paths are the lexicographically first `cap`
// shortest paths, and they are still exactly the base's unless
//   (1) dist(s, d) differs from the base's,
//   (2) one of the base's paths for it crosses an edge the graph lost, or
//   (3) an edge (u, v) the graph gained lies on a shortest s->d path, i.e.
//       dist(s, u) + 1 + dist(v, d) == dist(s, d) under the new distances.
// Without (1) and (3) the new shortest-path set is a subset of the base's;
// without (2) it still holds every base path, which therefore stay the
// lexicographically first. The flows to redo come from the diff: rows whose
// distances changed, the users of each removed edge (an edge -> flows index
// kept with the base) and the added-edge test. Only those are re-DFSed;
// every other flow is copied from the base as runs of its CSR rows, with
// base edge ids remapped to output ids in first-use order, so the output
// equals a fresh enumeration field for field, edge ids included.
//
// commit(last) makes `last`, which must be the set the last enumerate()
// wrote, the base of the calls after it, and is a no-op when no incremental
// call ran since the last commit; without a commit every call diffs against
// the same base, so a rejected candidate costs the next call nothing. A call
// with no base (the first, or one that changes n or cap) is a full pass and
// becomes the base. Output never depends on when, or whether, commit() runs:
// any base is some graph's exact set.
//
// set_graph() + add_flow() is the per-flow entry for callers that need a
// few flows rather than all n^2 (route repair re-enumerates only the flows
// a fault severed): set_graph sorts g's adjacency once and drops the base,
// and each add_flow appends the first max_paths_per_flow shortest paths of
// (s, d) to the flow `out` is building.
class PathCompiler {
 public:
  void enumerate(const topo::DiGraph& g, const util::Matrix<int>& dist,
                 int max_paths_per_flow, PathSet& out);
  void commit(const PathSet& last);

  // Flows the last enumerate() call ran the DFS for; every other flow was
  // copied from the base.
  int last_recompiled_flows() const { return recompiled_; }

  void set_graph(const topo::DiGraph& g);
  // Returns the number of paths appended (0 when d is unreachable from s).
  int add_flow(const util::Matrix<int>& dist, int s, int d,
               int max_paths_per_flow, PathSet& out);

 private:
  void sort_adjacency(const topo::DiGraph& g);
  void dfs(const util::Matrix<int>& dist, int d, int cap, PathSet& out);
  void mark_diff(const util::Matrix<int>& dist);
  void index_users();
  void copy_run(int fb, int fe, PathSet& out);

  int n_ = 0, cap_ = -1;  // shape of the base (n_ == 0: no base)
  std::vector<std::vector<int>> adj_;  // presorted out-neighbours, this call
  std::vector<int> dist_;              // this call's dist, row-major
  // The base: sorted adjacency, distances and path set.
  std::vector<std::vector<int>> base_adj_;
  std::vector<int> base_dist_;
  PathSet base_;
  // Users of base edge e: pairs s*n+d whose base paths cross it, as
  // users_[user_begin_[e], user_begin_[e+1]); built on first need.
  std::vector<int> user_begin_, users_;
  bool users_ready_ = false;
  bool pending_ = false;              // an incremental call, not committed
  std::vector<std::uint8_t> redo_;    // per pair: re-DFS on this call
  std::vector<int> remap_;            // base edge id -> output id, or -1
  std::vector<int> prefix_;
  int emitted_ = 0;  // paths emitted for the current flow
  int recompiled_ = 0;
};

// True iff p is a path in g (consecutive nodes linked) of length
// dist(s,d) — i.e. a genuine shortest path.
bool is_shortest_path(const topo::DiGraph& g, const util::Matrix<int>& dist,
                      std::span<const int> p);

}  // namespace netsmith::routing
