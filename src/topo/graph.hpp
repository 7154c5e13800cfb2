#pragma once
// Directed graph over integer-labelled routers. This is NetSmith's
// "connectivity map" M (paper Table I): element (i, j) set iff a
// unidirectional link connects router i to router j. Symmetric (full-duplex)
// links are simply a pair of opposing directed edges; NetSmith counts one
// full-duplex-equivalent "link" per two directed edges when reporting.
//
// The adjacency is kept as packed *bit rows* (one row of ceil(n/64) uint64
// words per node, for both out- and in-edges) beside the neighbour lists,
// both updated incrementally in add_edge/remove_edge. The bit rows answer
// edge probes and back the word-parallel BFS/APSP kernels in topo/metrics
// and the popcount-based cross-edge counts in topo/cuts: at paper scale
// (n <= 64) a whole BFS frontier fits in a single machine word.

#include <cstdint>
#include <string>
#include <vector>

namespace netsmith::topo {

class DiGraph {
 public:
  DiGraph() = default;
  explicit DiGraph(int n);

  int num_nodes() const { return n_; }

  bool has_edge(int i, int j) const {
    return (out_bits_[bidx(i, j)] >> (j & 63)) & 1;
  }

  // Returns true if the edge was newly inserted.
  bool add_edge(int i, int j);
  // Returns true if the edge existed and was removed.
  bool remove_edge(int i, int j);
  // Adds both directions; returns number of directed edges inserted (0-2).
  int add_duplex(int i, int j);

  const std::vector<int>& out_neighbors(int i) const { return out_[i]; }
  const std::vector<int>& in_neighbors(int i) const { return in_[i]; }
  int out_degree(int i) const { return static_cast<int>(out_[i].size()); }
  int in_degree(int i) const { return static_cast<int>(in_[i].size()); }

  int num_directed_edges() const { return edges_; }
  // Paper Table II "# Links": full-duplex-equivalent links = directed / 2.
  double duplex_links() const { return edges_ / 2.0; }

  // All directed edges as (src, dst) pairs in deterministic order.
  std::vector<std::pair<int, int>> edges() const;

  bool is_symmetric() const;
  DiGraph reversed() const;

  // --- Packed bit rows (word-parallel kernels) ---------------------------
  // Words per bit row: ceil(n / 64).
  int bit_words() const { return words_; }
  // Out-adjacency bit row of i: bit j set iff edge i -> j.
  const std::uint64_t* out_bits(int i) const {
    return &out_bits_[static_cast<std::size_t>(i) * words_];
  }
  // In-adjacency bit row of j: bit i set iff edge i -> j.
  const std::uint64_t* in_bits(int j) const {
    return &in_bits_[static_cast<std::size_t>(j) * words_];
  }

  bool operator==(const DiGraph& o) const {
    return n_ == o.n_ && out_bits_ == o.out_bits_;
  }

  // Compact textual form "n:i>j,i>j,..." for goldens/serialization.
  std::string to_string() const;
  // Strict inverse of to_string: throws std::invalid_argument on a node
  // count outside [0, kMaxNodes], an endpoint outside [0, n), or any stray
  // character. Safe on untrusted input (artifact payloads, specs).
  static DiGraph from_string(const std::string& s);

  // Largest node count from_string accepts: the out- and in-bit rows take
  // n^2 / 4 bytes together (64 MiB at this bound), so anything bigger is a
  // corrupt header, not a topology.
  static constexpr int kMaxNodes = 1 << 14;

 private:
  std::size_t bidx(int i, int j) const {
    return static_cast<std::size_t>(i) * words_ +
           static_cast<std::size_t>(j >> 6);
  }
  int n_ = 0;
  int words_ = 0;
  int edges_ = 0;
  std::vector<std::uint64_t> out_bits_, in_bits_;
  std::vector<std::vector<int>> out_, in_;
};

}  // namespace netsmith::topo
