#include "topo/cuts.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace netsmith::topo {

namespace {

#if !defined(_OPENMP)
// Serial fallbacks so the enumeration loops below compile unchanged when
// OpenMP is unavailable (the pragmas are then no-ops).
int omp_get_num_threads() { return 1; }
int omp_get_thread_num() { return 0; }
#endif

double ratio(int cross_uv, int cross_vu, int u_size, int n) {
  const int v_size = n - u_size;
  const int cap = std::min(cross_uv, cross_vu);
  return static_cast<double>(cap) /
         (static_cast<double>(u_size) * static_cast<double>(v_size));
}

// Word-parallel cross-edge count: for each node one AND + popcount against
// its out-adjacency bit row. O(n) popcounts instead of O(m) branches.
void count_cross(const DiGraph& g, std::uint64_t mask, int* cross_uv,
                 int* cross_vu) {
  int uv = 0, vu = 0;
  const int n = g.num_nodes();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t row = g.out_bits(i)[0];
    if (mask >> i & 1)
      uv += std::popcount(row & ~mask);
    else
      vu += std::popcount(row & mask);
  }
  *cross_uv = uv;
  *cross_vu = vu;
}

// Flips node b's membership and updates cross counts with four popcounts
// over b's own bit rows (out- and in-adjacency vs. the current mask).
void flip_node(const DiGraph& g, std::uint64_t& mask, int b, int* cross_uv,
               int* cross_vu, int* u_size) {
  const std::uint64_t out = g.out_bits(b)[0];
  const std::uint64_t in = g.in_bits(b)[0];
  // Self-loops are impossible, so bit b never appears in b's own rows and
  // the popcounts below are unaffected by b's side of the mask.
  if (mask >> b & 1) {
    *cross_uv -= std::popcount(out & ~mask);
    *cross_vu -= std::popcount(in & ~mask);
    mask &= ~(1ULL << b);
    --*u_size;
    *cross_vu += std::popcount(out & mask);
    *cross_uv += std::popcount(in & mask);
  } else {
    *cross_vu -= std::popcount(out & mask);
    *cross_uv -= std::popcount(in & mask);
    mask |= 1ULL << b;
    ++*u_size;
    *cross_uv += std::popcount(out & ~mask);
    *cross_vu += std::popcount(in & ~mask);
  }
}

// Clears mask bits at or above n (callers may pass unnormalized masks).
std::uint64_t clip_mask(std::uint64_t mask, int n) {
  return n >= 64 ? mask : mask & ((1ULL << n) - 1);
}

Cut make_cut(const DiGraph& g, std::uint64_t mask) {
  const int n = g.num_nodes();
  mask = clip_mask(mask, n);
  const int usz = std::popcount(mask);
  Cut c;
  c.u_mask = mask;
  c.u_size = usz;
  count_cross(g, mask, &c.cross_uv, &c.cross_vu);
  c.bandwidth = (usz == 0 || usz == n)
                    ? std::numeric_limits<double>::infinity()
                    : ratio(c.cross_uv, c.cross_vu, usz, n);
  return c;
}

void require_mask_width(const DiGraph& g, const char* who) {
  if (g.num_nodes() > 64)
    throw std::invalid_argument(std::string(who) +
                                ": n > 64 exceeds the uint64 partition mask");
}

// Scalar membership-vector variants for graphs wider than one mask word
// (bisection_bandwidth supports arbitrary n; masks cap the other APIs).
void count_cross_scalar(const DiGraph& g, const std::vector<std::uint8_t>& in_u,
                        int* cross_uv, int* cross_vu) {
  int uv = 0, vu = 0;
  const int n = g.num_nodes();
  for (int i = 0; i < n; ++i) {
    for (int j : g.out_neighbors(i)) {
      if (in_u[i] && !in_u[j]) ++uv;
      else if (!in_u[i] && in_u[j]) ++vu;
    }
  }
  *cross_uv = uv;
  *cross_vu = vu;
}

void flip_node_scalar(const DiGraph& g, std::vector<std::uint8_t>& in_u, int b,
                      int* cross_uv, int* cross_vu, int* u_size) {
  const bool entering_u = !in_u[b];
  // Remove b's current contribution, then re-add with flipped membership.
  for (int x : g.out_neighbors(b)) {
    if (in_u[b] && !in_u[x]) --*cross_uv;
    else if (!in_u[b] && in_u[x]) --*cross_vu;
  }
  for (int x : g.in_neighbors(b)) {
    if (in_u[x] && !in_u[b]) --*cross_uv;
    else if (!in_u[x] && in_u[b]) --*cross_vu;
  }
  in_u[b] = entering_u ? 1 : 0;
  *u_size += entering_u ? 1 : -1;
  for (int x : g.out_neighbors(b)) {
    if (in_u[b] && !in_u[x]) ++*cross_uv;
    else if (!in_u[b] && in_u[x]) ++*cross_vu;
  }
  for (int x : g.in_neighbors(b)) {
    if (in_u[x] && !in_u[b]) ++*cross_uv;
    else if (!in_u[x] && in_u[b]) ++*cross_vu;
  }
}

// Heuristic bisection for n > 64: the pre-bitset implementation over a
// membership vector (no mask-width limit).
int bisection_heuristic_scalar(const DiGraph& g) {
  const int n = g.num_nodes();
  const int half = n / 2;
  util::Rng rng(0xB15EC7);
  int best = std::numeric_limits<int>::max();
  for (int restart = 0; restart < 96; ++restart) {
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    rng.shuffle(perm);
    std::vector<std::uint8_t> in_u(n, 0);
    for (int i = 0; i < half; ++i) in_u[perm[i]] = 1;
    int uv = 0, vu = 0;
    count_cross_scalar(g, in_u, &uv, &vu);
    bool improved = true;
    while (improved) {
      improved = false;
      int usz = half;
      for (int a = 0; a < n && !improved; ++a) {
        if (!in_u[a]) continue;
        for (int b = 0; b < n && !improved; ++b) {
          if (in_u[b]) continue;
          const int before = std::min(uv, vu);
          flip_node_scalar(g, in_u, a, &uv, &vu, &usz);
          flip_node_scalar(g, in_u, b, &uv, &vu, &usz);
          if (std::min(uv, vu) < before) {
            improved = true;
          } else {
            flip_node_scalar(g, in_u, b, &uv, &vu, &usz);
            flip_node_scalar(g, in_u, a, &uv, &vu, &usz);
          }
        }
      }
    }
    best = std::min(best, std::min(uv, vu));
  }
  return best;
}

}  // namespace

std::pair<int, int> cross_edge_counts(const DiGraph& g, std::uint64_t u_mask) {
  require_mask_width(g, "cross_edge_counts");
  int uv = 0, vu = 0;
  count_cross(g, clip_mask(u_mask, g.num_nodes()), &uv, &vu);
  return {uv, vu};
}

Cut evaluate_cut(const DiGraph& g, std::uint64_t u_mask) {
  require_mask_width(g, "evaluate_cut");
  return make_cut(g, u_mask);
}

Cut sparsest_cut_exact(const DiGraph& g) {
  const int n = g.num_nodes();
  if (n < 2) throw std::invalid_argument("sparsest_cut_exact: n < 2");
  if (n > 26) throw std::invalid_argument("sparsest_cut_exact: n > 26");
  // Fix node n-1 in V so every unordered partition is visited exactly once.
  const std::uint64_t total = 1ULL << (n - 1);

  Cut best;
  best.bandwidth = std::numeric_limits<double>::infinity();

  // Tiny graphs (n <= 12, the annealer's per-move exact-cut regime) take
  // microseconds to enumerate: a fork/join would cost more than the work,
  // and stalls for a whole timeslice when the cores are oversubscribed.
  constexpr std::uint64_t kMinParallelPartitions = 1ULL << 12;
#pragma omp parallel if (total >= kMinParallelPartitions)
  {
    Cut local_best;
    local_best.bandwidth = std::numeric_limits<double>::infinity();

    const int threads = omp_get_num_threads();
    const int tid = omp_get_thread_num();
    const std::uint64_t chunk = (total + threads - 1) / threads;
    const std::uint64_t lo = std::max<std::uint64_t>(1, tid * chunk);
    const std::uint64_t hi = std::min(total, (tid + 1) * chunk);

    if (lo < hi) {
      // Gray-code walk: gray(i) and gray(i+1) differ in bit ctz(i+1).
      std::uint64_t gray = lo ^ (lo >> 1);
      std::uint64_t mask = gray;
      int usz = std::popcount(mask), uv = 0, vu = 0;
      count_cross(g, mask, &uv, &vu);

      for (std::uint64_t i = lo;; ++i) {
        if (usz > 0) {
          const double bw = ratio(uv, vu, usz, n);
          if (bw < local_best.bandwidth) {
            local_best.bandwidth = bw;
            local_best.u_mask = gray;
            local_best.u_size = usz;
            local_best.cross_uv = uv;
            local_best.cross_vu = vu;
          }
        }
        if (i + 1 >= hi) break;
        const int flip = std::countr_zero(i + 1);
        gray ^= 1ULL << flip;
        flip_node(g, mask, flip, &uv, &vu, &usz);
      }
    }

#pragma omp critical
    {
      if (local_best.bandwidth < best.bandwidth ||
          (local_best.bandwidth == best.bandwidth &&
           local_best.u_mask < best.u_mask))
        best = local_best;
    }
  }
  return best;
}

Cut sparsest_cut_heuristic(const DiGraph& g, util::Rng& rng, int restarts) {
  const int n = g.num_nodes();
  if (n < 2) throw std::invalid_argument("sparsest_cut_heuristic: n < 2");
  require_mask_width(g, "sparsest_cut_heuristic");
  Cut best;
  best.bandwidth = std::numeric_limits<double>::infinity();

  for (int r = 0; r < restarts; ++r) {
    std::uint64_t mask = 0;
    int usz = 0;
    // Random initial subset of random target size in [1, n-1].
    const int target = static_cast<int>(rng.uniform_int(1, n - 1));
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    rng.shuffle(perm);
    for (int i = 0; i < target; ++i) {
      mask |= 1ULL << perm[i];
      ++usz;
    }
    int uv = 0, vu = 0;
    count_cross(g, mask, &uv, &vu);

    // Steepest single-node moves until a local minimum of the ratio.
    bool improved = true;
    while (improved) {
      improved = false;
      double cur = ratio(uv, vu, usz, n);
      int best_node = -1;
      double best_bw = cur;
      for (int b = 0; b < n; ++b) {
        const bool in_u = mask >> b & 1;
        // Don't empty either side.
        if ((in_u && usz == 1) || (!in_u && usz == n - 1)) continue;
        flip_node(g, mask, b, &uv, &vu, &usz);
        const double bw = ratio(uv, vu, usz, n);
        if (bw < best_bw - 1e-12) {
          best_bw = bw;
          best_node = b;
        }
        flip_node(g, mask, b, &uv, &vu, &usz);  // undo
      }
      if (best_node >= 0) {
        flip_node(g, mask, best_node, &uv, &vu, &usz);
        improved = true;
      }
    }

    const double bw = ratio(uv, vu, usz, n);
    if (bw < best.bandwidth) {
      best.bandwidth = bw;
      best.u_mask = mask;
      best.u_size = usz;
      best.cross_uv = uv;
      best.cross_vu = vu;
    }
  }
  return best;
}

Cut sparsest_cut(const DiGraph& g) {
  if (g.num_nodes() <= 22) return sparsest_cut_exact(g);
  util::Rng rng(0xC0FFEE);
  return sparsest_cut_heuristic(g, rng, 128);
}

int bisection_bandwidth(const DiGraph& g) {
  const int n = g.num_nodes();
  if (n < 2) return 0;
  // Wider than one mask word: scalar membership-vector heuristic (the
  // parametric baselines generate graphs at arbitrary router counts).
  if (n > 64) return bisection_heuristic_scalar(g);
  const int half = n / 2;

  if (n <= 24) {
    // Enumerate subsets of size `half` with node n-1 fixed in V (for even n
    // this visits each unordered bisection once; for odd n, U is the smaller
    // side).
    int best = std::numeric_limits<int>::max();
    // Iterate combinations of {0..n-2} choose half via bit tricks.
    std::uint64_t comb = (1ULL << half) - 1;
    const std::uint64_t limit = 1ULL << (n - 1);
    while (comb < limit) {
      int uv = 0, vu = 0;
      count_cross(g, comb, &uv, &vu);
      best = std::min(best, std::min(uv, vu));
      // Gosper's hack: next combination with the same popcount.
      const std::uint64_t c = comb & (~comb + 1);
      const std::uint64_t r = comb + c;
      comb = (((r ^ comb) >> 2) / c) | r;
    }
    return best;
  }

  // Heuristic: random balanced partitions + pair-swap refinement.
  util::Rng rng(0xB15EC7);
  int best = std::numeric_limits<int>::max();
  for (int restart = 0; restart < 96; ++restart) {
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    rng.shuffle(perm);
    std::uint64_t mask = 0;
    for (int i = 0; i < half; ++i) mask |= 1ULL << perm[i];
    int uv = 0, vu = 0;
    count_cross(g, mask, &uv, &vu);
    bool improved = true;
    while (improved) {
      improved = false;
      int usz = half;
      for (int a = 0; a < n && !improved; ++a) {
        if (!(mask >> a & 1)) continue;
        for (int b = 0; b < n && !improved; ++b) {
          if (mask >> b & 1) continue;
          const int before = std::min(uv, vu);
          flip_node(g, mask, a, &uv, &vu, &usz);
          flip_node(g, mask, b, &uv, &vu, &usz);
          if (std::min(uv, vu) < before) {
            improved = true;
          } else {
            flip_node(g, mask, b, &uv, &vu, &usz);
            flip_node(g, mask, a, &uv, &vu, &usz);
          }
        }
      }
    }
    best = std::min(best, std::min(uv, vu));
  }
  return best;
}

}  // namespace netsmith::topo
