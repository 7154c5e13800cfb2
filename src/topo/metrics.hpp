#pragma once
// Graph distance metrics: the latency-side quantities NetSmith optimizes.
// Average hop count under uniform all-to-all traffic (paper SII-C) and the
// network diameter (constraint C8).
//
// The default BFS/APSP kernels are word-parallel: a frontier is a packed
// bitset of ceil(n/64) uint64 words and one expansion step is
// `next |= out_bits(u)` per frontier node followed by a masked merge, so at
// paper scale (n <= 64) the whole frontier lives in one machine word. The
// scalar queue-based kernels are kept both as the oracle for property tests
// and for head-to-head benchmarking (bench/perf_report.cpp).

#include <cstdint>
#include <limits>
#include <vector>

#include "topo/graph.hpp"
#include "util/matrix.hpp"

namespace netsmith::topo {

inline constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;

// Single-source BFS hop distances; unreachable nodes get kUnreachable.
// Word-parallel frontier expansion over the graph's adjacency bit rows.
std::vector<int> bfs_distances(const DiGraph& g, int src);

// Scalar queue-based reference implementation (test oracle / benchmarks).
std::vector<int> bfs_distances_scalar(const DiGraph& g, int src);

// All-pairs shortest hop distances via n word-parallel BFS traversals.
util::Matrix<int> apsp_bfs(const DiGraph& g);

// Scalar reference APSP (n queue-based BFS traversals, O(n*(n+m))).
util::Matrix<int> apsp_bfs_scalar(const DiGraph& g);

// All-pairs shortest hop distances via Floyd-Warshall; used as an
// independent oracle in property tests.
util::Matrix<int> apsp_floyd_warshall(const DiGraph& g);

// Sum of D(s,d) over all ordered pairs s != d (objective O1 in Table I).
// Returns a kUnreachable-scaled huge value if the graph is not strongly
// connected, so disconnected candidates always lose.
std::int64_t total_hops(const util::Matrix<int>& dist);

// total_hops / (n*(n-1)); matches Table II "Avg. Hops".
double average_hops(const DiGraph& g);
double average_hops(const util::Matrix<int>& dist);

// Max finite distance; kUnreachable if disconnected.
int diameter(const util::Matrix<int>& dist);
int diameter(const DiGraph& g);

bool strongly_connected(const DiGraph& g);

// Traffic-weighted average hops: sum_{s,d} w(s,d) * D(s,d) / sum w over
// pairs s != d with w(s,d) > 0, accumulated source-major over the full APSP
// matrix `dist`. Every weighted pair must be reachable: callers check
// connectivity first. Used for pattern-optimized synthesis (paper SV-E,
// shuffle).
double weighted_hops(const util::Matrix<int>& dist,
                     const util::Matrix<double>& weight);

// Reusable word-parallel BFS engine: allocates the frontier/visited scratch
// once and amortizes it across calls. This is what the annealer's objective
// engine drives on every move; the free functions above wrap it.
class BitBfs {
 public:
  explicit BitBfs(int n);

  // Totals of one distance row, excluding src itself: the sum of finite hop
  // counts and the number of unreached targets.
  struct RowTotals {
    std::int64_t hop_sum = 0;
    int unreached = 0;
  };

  // Fills dist[0..n) with hop counts from src (kUnreachable when unreached)
  // and returns the row's totals, counted level by level during the sweep.
  RowTotals distances(const DiGraph& g, int src, int* dist);

  // Sum of hop counts from src to every reached node, without materializing
  // per-node distances; *unreached gets the count of unreachable targets
  // (excluding src itself).
  std::int64_t sum_from(const DiGraph& g, int src, int* unreached);

  // Number of nodes reachable from src (including src), following out-edges
  // when forward, in-edges otherwise.
  int reach_count(const DiGraph& g, int src, bool forward);

 private:
  template <class PerLevel>
  void run(const DiGraph& g, int src, bool forward, PerLevel&& per_level);

  int n_ = 0;
  int words_ = 0;
  std::vector<std::uint64_t> frontier_, next_, visited_;
};

}  // namespace netsmith::topo
