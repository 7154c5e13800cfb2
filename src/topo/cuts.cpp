#include "topo/cuts.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace netsmith::topo {

namespace {

double ratio(int cross_uv, int cross_vu, int u_size, int n) {
  const int v_size = n - u_size;
  const int cap = std::min(cross_uv, cross_vu);
  return static_cast<double>(cap) /
         (static_cast<double>(u_size) * static_cast<double>(v_size));
}

// The kernels below read a partition as a bit row over the graph's words
// (bit i set => router i in U). kWords = 1 is the one-word case (n <= 64,
// every uint64 mask API); kWords = 0 reads g.bit_words() words.
template <int kWords>
int mask_words(const DiGraph& g) {
  return kWords > 0 ? kWords : g.bit_words();
}

// Word holding node i's bit (always word 0 in the one-word case).
template <int kWords>
int word_of(int i) {
  return kWords == 1 ? 0 : i >> 6;
}

template <int kWords>
bool in_mask(const std::uint64_t* mask, int i) {
  return mask[word_of<kWords>(i)] >> (i & 63) & 1;
}

// Word-parallel cross-edge count: for each node one AND + popcount per word
// against its out-adjacency bit row. O(n) popcounts instead of O(m) branches.
template <int kWords>
void count_cross(const DiGraph& g, const std::uint64_t* mask, int* cross_uv,
                 int* cross_vu) {
  const int words = mask_words<kWords>(g);
  int uv = 0, vu = 0;
  const int n = g.num_nodes();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t* row = g.out_bits(i);
    if (in_mask<kWords>(mask, i)) {
      for (int w = 0; w < words; ++w) uv += std::popcount(row[w] & ~mask[w]);
    } else {
      for (int w = 0; w < words; ++w) vu += std::popcount(row[w] & mask[w]);
    }
  }
  *cross_uv = uv;
  *cross_vu = vu;
}

// Flips node b's membership and updates cross counts with two popcounts
// per word: b's out- and in-adjacency rows against U. b's links into V are
// its degree minus its links into U.
template <int kWords>
void flip_node(const DiGraph& g, std::uint64_t* mask, int b, int* cross_uv,
               int* cross_vu, int* u_size) {
  const int words = mask_words<kWords>(g);
  const std::uint64_t* out = g.out_bits(b);
  const std::uint64_t* in = g.in_bits(b);
  // Self-loops are impossible, so bit b never appears in b's own rows and
  // the popcounts are the same on either side of the flip.
  int to_u = 0, from_u = 0;
  for (int w = 0; w < words; ++w) {
    to_u += std::popcount(out[w] & mask[w]);
    from_u += std::popcount(in[w] & mask[w]);
  }
  const int to_v = g.out_degree(b) - to_u;
  const int from_v = g.in_degree(b) - from_u;
  const std::uint64_t bit = 1ULL << (b & 63);
  if (in_mask<kWords>(mask, b)) {
    // U -> V: b's links to V stop crossing, its links to U start.
    *cross_uv += from_u - to_v;
    *cross_vu += to_u - from_v;
    mask[word_of<kWords>(b)] &= ~bit;
    --*u_size;
  } else {
    *cross_uv += to_v - from_u;
    *cross_vu += from_v - to_u;
    mask[word_of<kWords>(b)] |= bit;
    ++*u_size;
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
  count_cross<1>(g, &mask, &c.cross_uv, &c.cross_vu);
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

// Pair-swap bisection heuristic: random balanced partitions, each refined
// by the first improving (a in U, b in V) swap until none improves.
template <int kWords>
int bisection_heuristic(const DiGraph& g) {
  const int n = g.num_nodes();
  const int half = n / 2;
  util::Rng rng(0xB15EC7);
  int best = std::numeric_limits<int>::max();
  std::vector<std::uint64_t> mask(
      static_cast<std::size_t>(mask_words<kWords>(g)));
  for (int restart = 0; restart < 96; ++restart) {
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    rng.shuffle(perm);
    std::fill(mask.begin(), mask.end(), 0);
    for (int i = 0; i < half; ++i)
      mask[word_of<kWords>(perm[i])] |= 1ULL << (perm[i] & 63);
    int uv = 0, vu = 0;
    count_cross<kWords>(g, mask.data(), &uv, &vu);
    bool improved = true;
    while (improved) {
      improved = false;
      int usz = half;
      for (int a = 0; a < n && !improved; ++a) {
        if (!in_mask<kWords>(mask.data(), a)) continue;
        for (int b = 0; b < n && !improved; ++b) {
          if (in_mask<kWords>(mask.data(), b)) continue;
          const int before = std::min(uv, vu);
          flip_node<kWords>(g, mask.data(), a, &uv, &vu, &usz);
          flip_node<kWords>(g, mask.data(), b, &uv, &vu, &usz);
          if (std::min(uv, vu) < before) {
            improved = true;
          } else {
            flip_node<kWords>(g, mask.data(), b, &uv, &vu, &usz);
            flip_node<kWords>(g, mask.data(), a, &uv, &vu, &usz);
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
  const std::uint64_t mask = clip_mask(u_mask, g.num_nodes());
  int uv = 0, vu = 0;
  count_cross<1>(g, &mask, &uv, &vu);
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
  // Fix node n-1 in V so every unordered partition is visited exactly once:
  // the Gray codes of i = 1 .. 2^(n-1) - 1 are exactly the masks with U and
  // V both non-empty. gray(i) and gray(i+1) differ in bit ctz(i+1), so each
  // step is one flip_node.
  const std::uint64_t total = 1ULL << (n - 1);
  std::uint64_t mask = 1;
  int usz = 1, uv = 0, vu = 0;
  count_cross<1>(g, &mask, &uv, &vu);

  Cut best;
  best.bandwidth = std::numeric_limits<double>::infinity();
  for (std::uint64_t i = 1;; ++i) {
    const double bw = ratio(uv, vu, usz, n);
    if (bw < best.bandwidth) {
      best.bandwidth = bw;
      best.u_mask = mask;
      best.u_size = usz;
      best.cross_uv = uv;
      best.cross_vu = vu;
    }
    if (i + 1 >= total) break;
    flip_node<1>(g, &mask, std::countr_zero(i + 1), &uv, &vu, &usz);
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
    count_cross<1>(g, &mask, &uv, &vu);

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
        flip_node<1>(g, &mask, b, &uv, &vu, &usz);
        const double bw = ratio(uv, vu, usz, n);
        if (bw < best_bw - 1e-12) {
          best_bw = bw;
          best_node = b;
        }
        flip_node<1>(g, &mask, b, &uv, &vu, &usz);  // undo
      }
      if (best_node >= 0) {
        flip_node<1>(g, &mask, best_node, &uv, &vu, &usz);
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
  if (n > 24)
    return n <= 64 ? bisection_heuristic<1>(g) : bisection_heuristic<0>(g);

  // Enumerate subsets of size n/2 with node n-1 fixed in V (for even n this
  // visits each unordered bisection once; for odd n, U is the smaller side).
  int best = std::numeric_limits<int>::max();
  // Iterate combinations of {0..n-2} choose n/2 via bit tricks.
  std::uint64_t comb = (1ULL << (n / 2)) - 1;
  const std::uint64_t limit = 1ULL << (n - 1);
  while (comb < limit) {
    int uv = 0, vu = 0;
    count_cross<1>(g, &comb, &uv, &vu);
    best = std::min(best, std::min(uv, vu));
    // Gosper's hack: next combination with the same popcount.
    const std::uint64_t c = comb & (~comb + 1);
    const std::uint64_t r = comb + c;
    comb = (((r ^ comb) >> 2) / c) | r;
  }
  return best;
}

}  // namespace netsmith::topo
