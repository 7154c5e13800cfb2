#include "topo/graph.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace netsmith::topo {

DiGraph::DiGraph(int n)
    : n_(n),
      words_((n + 63) / 64),
      out_bits_(static_cast<std::size_t>(n) * words_, 0),
      in_bits_(static_cast<std::size_t>(n) * words_, 0),
      out_(n),
      in_(n) {
  assert(n >= 0);
}

bool DiGraph::add_edge(int i, int j) {
  assert(i >= 0 && i < n_ && j >= 0 && j < n_);
  if (i == j || has_edge(i, j)) return false;
  out_bits_[bidx(i, j)] |= 1ULL << (j & 63);
  in_bits_[bidx(j, i)] |= 1ULL << (i & 63);
  out_[i].push_back(j);
  in_[j].push_back(i);
  ++edges_;
  return true;
}

bool DiGraph::remove_edge(int i, int j) {
  assert(i >= 0 && i < n_ && j >= 0 && j < n_);
  if (!has_edge(i, j)) return false;
  out_bits_[bidx(i, j)] &= ~(1ULL << (j & 63));
  in_bits_[bidx(j, i)] &= ~(1ULL << (i & 63));
  auto& o = out_[i];
  o.erase(std::find(o.begin(), o.end(), j));
  auto& in = in_[j];
  in.erase(std::find(in.begin(), in.end(), i));
  --edges_;
  return true;
}

int DiGraph::add_duplex(int i, int j) {
  return static_cast<int>(add_edge(i, j)) + static_cast<int>(add_edge(j, i));
}

std::vector<std::pair<int, int>> DiGraph::edges() const {
  std::vector<std::pair<int, int>> e;
  e.reserve(static_cast<std::size_t>(edges_));
  for (int i = 0; i < n_; ++i) {
    const std::uint64_t* row = out_bits(i);
    for (int w = 0; w < words_; ++w)
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1)
        e.emplace_back(i, w * 64 + std::countr_zero(bits));
  }
  return e;
}

// Edge i -> j exists iff j -> i does exactly when every out-row equals the
// same node's in-row.
bool DiGraph::is_symmetric() const { return out_bits_ == in_bits_; }

DiGraph DiGraph::reversed() const {
  DiGraph r(n_);
  for (int i = 0; i < n_; ++i)
    for (int j : out_[i]) r.add_edge(j, i);
  return r;
}

std::string DiGraph::to_string() const {
  std::ostringstream os;
  os << n_ << ':';
  bool first = true;
  for (const auto& [i, j] : edges()) {
    if (!first) os << ',';
    first = false;
    os << i << '>' << j;
  }
  return os.str();
}

DiGraph DiGraph::from_string(const std::string& s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  auto read_int = [&] {
    int v = 0;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) throw std::invalid_argument("DiGraph: expected an integer");
    p = next;
    return v;
  };
  auto expect = [&](char c) {
    if (p == end || *p != c)
      throw std::invalid_argument(std::string("DiGraph: expected '") + c + "'");
    ++p;
  };
  const int n = read_int();
  if (n < 0 || n > kMaxNodes) throw std::invalid_argument("DiGraph: node count out of range");
  expect(':');
  DiGraph g(n);
  while (p != end) {
    const int i = read_int();
    expect('>');
    const int j = read_int();
    if (i < 0 || i >= n || j < 0 || j >= n)
      throw std::invalid_argument("DiGraph: edge endpoint out of range");
    g.add_edge(i, j);
    if (p != end) {
      expect(',');
      if (p == end) throw std::invalid_argument("DiGraph: trailing ','");
    }
  }
  return g;
}

}  // namespace netsmith::topo
