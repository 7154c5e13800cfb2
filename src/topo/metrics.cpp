#include "topo/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace netsmith::topo {

// --- Word-parallel BFS engine ---------------------------------------------

BitBfs::BitBfs(int n)
    : n_(n),
      words_((n + 63) / 64),
      frontier_(words_, 0),
      next_(words_, 0),
      visited_(words_, 0) {}

// Runs a level-synchronous BFS; per_level(level, new_words) is invoked with
// the freshly reached bitset (already merged into visited) for each level.
template <class PerLevel>
void BitBfs::run(const DiGraph& g, int src, bool forward, PerLevel&& per_level) {
  assert(g.num_nodes() == n_ && g.bit_words() == words_);
  std::fill(frontier_.begin(), frontier_.end(), 0);
  std::fill(visited_.begin(), visited_.end(), 0);
  frontier_[src >> 6] = 1ULL << (src & 63);
  visited_[src >> 6] = frontier_[src >> 6];

  int level = 0;
  bool any = true;
  while (any) {
    ++level;
    std::fill(next_.begin(), next_.end(), 0);
    for (int w = 0; w < words_; ++w) {
      std::uint64_t m = frontier_[w];
      while (m) {
        const int u = (w << 6) + std::countr_zero(m);
        m &= m - 1;
        const std::uint64_t* row = forward ? g.out_bits(u) : g.in_bits(u);
        for (int k = 0; k < words_; ++k) next_[k] |= row[k];
      }
    }
    any = false;
    for (int w = 0; w < words_; ++w) {
      next_[w] &= ~visited_[w];
      if (next_[w]) {
        visited_[w] |= next_[w];
        any = true;
      }
    }
    if (any) per_level(level, next_.data());
    frontier_.swap(next_);
  }
}

BitBfs::RowTotals BitBfs::distances(const DiGraph& g, int src, int* dist) {
  std::fill(dist, dist + n_, kUnreachable);
  dist[src] = 0;
  RowTotals t;
  if (words_ == 1) {
    // Single-word fast path (n <= 64): the whole frontier lives in one
    // register and rows[u] is a direct array load. Each visited node is
    // extracted exactly once: the same pass that assigns its distance also
    // ORs its row into the next level's candidate set.
    // Totals are counted in the same pass, one increment per reached node:
    // the build targets no popcount instruction, and the software popcount
    // per level measured slower than this.
    const std::uint64_t* rows = g.out_bits(0);
    std::uint64_t visited = 1ULL << src;
    std::uint64_t acc = rows[src];  // candidates for the next level
    int level = 0;
    int reached = 1;
    for (;;) {
      std::uint64_t fresh = acc & ~visited;
      if (!fresh) break;
      ++level;
      visited |= fresh;
      acc = 0;
      int cnt = 0;
      do {
        const int j = std::countr_zero(fresh);
        fresh &= fresh - 1;
        dist[j] = level;
        acc |= rows[j];
        ++cnt;
      } while (fresh);
      t.hop_sum += static_cast<std::int64_t>(level) * cnt;
      reached += cnt;
    }
    t.unreached = n_ - reached;
    return t;
  }
  int reached = 1;
  run(g, src, /*forward=*/true, [&](int level, const std::uint64_t* fresh) {
    int cnt = 0;
    for (int w = 0; w < words_; ++w) {
      for (std::uint64_t m = fresh[w]; m; m &= m - 1) {
        dist[(w << 6) + std::countr_zero(m)] = level;
        ++cnt;
      }
    }
    t.hop_sum += static_cast<std::int64_t>(level) * cnt;
    reached += cnt;
  });
  t.unreached = n_ - reached;
  return t;
}

std::int64_t BitBfs::sum_from(const DiGraph& g, int src, int* unreached) {
  std::int64_t total = 0;
  int reached = 1;  // src itself
  if (words_ == 1) {
    const std::uint64_t* rows = g.out_bits(0);
    std::uint64_t visited = 1ULL << src;
    std::uint64_t acc = rows[src];
    int level = 0;
    for (;;) {
      std::uint64_t fresh = acc & ~visited;
      if (!fresh) break;
      ++level;
      visited |= fresh;
      const int cnt = std::popcount(fresh);
      total += static_cast<std::int64_t>(level) * cnt;
      reached += cnt;
      acc = 0;
      do {
        acc |= rows[std::countr_zero(fresh)];
        fresh &= fresh - 1;
      } while (fresh);
    }
    *unreached = n_ - reached;
    return total;
  }
  run(g, src, /*forward=*/true, [&](int level, const std::uint64_t* fresh) {
    int cnt = 0;
    for (int w = 0; w < words_; ++w) cnt += std::popcount(fresh[w]);
    total += static_cast<std::int64_t>(level) * cnt;
    reached += cnt;
  });
  *unreached = n_ - reached;
  return total;
}

int BitBfs::reach_count(const DiGraph& g, int src, bool forward) {
  int reached = 1;
  if (words_ == 1) {
    const std::uint64_t* rows = forward ? g.out_bits(0) : g.in_bits(0);
    std::uint64_t visited = 1ULL << src;
    std::uint64_t acc = rows[src];
    for (;;) {
      std::uint64_t fresh = acc & ~visited;
      if (!fresh) break;
      visited |= fresh;
      acc = 0;
      do {
        acc |= rows[std::countr_zero(fresh)];
        fresh &= fresh - 1;
      } while (fresh);
    }
    return std::popcount(visited);
  }
  run(g, src, forward, [&](int, const std::uint64_t* fresh) {
    for (int w = 0; w < words_; ++w) reached += std::popcount(fresh[w]);
  });
  return reached;
}

// --- Free functions -------------------------------------------------------

std::vector<int> bfs_distances(const DiGraph& g, int src) {
  const int n = g.num_nodes();
  std::vector<int> dist(n, kUnreachable);
  if (n == 0) return dist;
  BitBfs bfs(n);
  bfs.distances(g, src, dist.data());
  return dist;
}

std::vector<int> bfs_distances_scalar(const DiGraph& g, int src) {
  const int n = g.num_nodes();
  std::vector<int> dist(n, kUnreachable);
  std::vector<int> queue;
  queue.reserve(n);
  dist[src] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    const int du = dist[u];
    for (int v : g.out_neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = du + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

util::Matrix<int> apsp_bfs(const DiGraph& g) {
  const int n = g.num_nodes();
  util::Matrix<int> d(n, n, 0);
  BitBfs bfs(n);
  for (int s = 0; s < n; ++s) bfs.distances(g, s, &d(s, 0));
  return d;
}

util::Matrix<int> apsp_bfs_scalar(const DiGraph& g) {
  const int n = g.num_nodes();
  util::Matrix<int> d(n, n, 0);
  for (int s = 0; s < n; ++s) {
    const auto row = bfs_distances_scalar(g, s);
    for (int t = 0; t < n; ++t) d(s, t) = row[t];
  }
  return d;
}

util::Matrix<int> apsp_floyd_warshall(const DiGraph& g) {
  const int n = g.num_nodes();
  util::Matrix<int> d(n, n, kUnreachable);
  for (int i = 0; i < n; ++i) d(i, i) = 0;
  for (const auto& [i, j] : g.edges()) d(i, j) = 1;
  for (int k = 0; k < n; ++k)
    for (int i = 0; i < n; ++i) {
      const int dik = d(i, k);
      if (dik >= kUnreachable) continue;
      for (int j = 0; j < n; ++j) {
        const int via = dik + d(k, j);
        if (via < d(i, j)) d(i, j) = via;
      }
    }
  return d;
}

std::int64_t total_hops(const util::Matrix<int>& dist) {
  const std::size_t n = dist.rows();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      total += dist(i, j);
    }
  return total;
}

double average_hops(const util::Matrix<int>& dist) {
  const auto n = static_cast<std::int64_t>(dist.rows());
  if (n < 2) return 0.0;
  return static_cast<double>(total_hops(dist)) / static_cast<double>(n * (n - 1));
}

double average_hops(const DiGraph& g) { return average_hops(apsp_bfs(g)); }

int diameter(const util::Matrix<int>& dist) {
  const std::size_t n = dist.rows();
  int d = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) d = std::max(d, dist(i, j));
  return d;
}

int diameter(const DiGraph& g) { return diameter(apsp_bfs(g)); }

bool strongly_connected(const DiGraph& g) {
  const int n = g.num_nodes();
  if (n == 0) return true;
  // Forward reachability over out-rows, backward over in-rows: no reversed()
  // graph materialization.
  BitBfs bfs(n);
  if (bfs.reach_count(g, 0, /*forward=*/true) < n) return false;
  return bfs.reach_count(g, 0, /*forward=*/false) == n;
}

double weighted_hops(const util::Matrix<int>& dist,
                     const util::Matrix<double>& weight) {
  assert(dist.rows() == weight.rows() && dist.cols() == weight.cols());
  double total = 0.0, wsum = 0.0;
  for (std::size_t s = 0; s < dist.rows(); ++s) {
    for (std::size_t j = 0; j < dist.cols(); ++j) {
      if (j == s) continue;
      const double w = weight(s, j);
      if (w <= 0.0) continue;
      assert(dist(s, j) < kUnreachable);
      total += w * dist(s, j);
      wsum += w;
    }
  }
  return wsum > 0.0 ? total / wsum : 0.0;
}

}  // namespace netsmith::topo
