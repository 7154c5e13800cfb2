#include "vc/cdg.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

namespace netsmith::vc {

LinkIds::LinkIds(const topo::DiGraph& g) : n_(g.num_nodes()) {
  id_.assign(static_cast<std::size_t>(n_) * n_, -1);
  for (const auto& [u, v] : g.edges()) {
    id_[static_cast<std::size_t>(u) * n_ + v] = static_cast<int>(links_.size());
    links_.emplace_back(u, v);
  }
}

Cdg::Cdg(int num_links) : adj_(num_links) {}

bool Cdg::add_dep(int from, int to) {
  auto& a = adj_[from];
  if (std::find(a.begin(), a.end(), to) != a.end()) return false;
  a.push_back(to);
  ++deps_;
  return true;
}

void Cdg::remove_dep(int from, int to) {
  auto& a = adj_[from];
  auto it = std::find(a.begin(), a.end(), to);
  if (it != a.end()) {
    a.erase(it);
    --deps_;
  }
}

std::vector<std::pair<int, int>> Cdg::add_path(std::span<const int> p,
                                               const LinkIds& ids) {
  std::vector<std::pair<int, int>> inserted;
  for (std::size_t i = 0; i + 2 < p.size(); ++i) {
    const int e1 = ids.id(p[i], p[i + 1]);
    const int e2 = ids.id(p[i + 1], p[i + 2]);
    if (e1 < 0 || e2 < 0) continue;
    if (add_dep(e1, e2)) inserted.emplace_back(e1, e2);
  }
  return inserted;
}

void Cdg::remove_deps(const std::vector<std::pair<int, int>>& deps) {
  for (const auto& [from, to] : deps) remove_dep(from, to);
}

bool Cdg::has_cycle() const {
  const int n = num_links();
  // Iterative DFS with colors: 0 white, 1 on stack, 2 done.
  std::vector<std::int8_t> color(n, 0);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int s = 0; s < n; ++s) {
    if (color[s] != 0) continue;
    stack.emplace_back(s, 0);
    color[s] = 1;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < adj_[u].size()) {
        const int v = adj_[u][idx++];
        if (color[v] == 1) return true;
        if (color[v] == 0) {
          color[v] = 1;
          stack.emplace_back(v, 0);
        }
      } else {
        color[u] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

OrderedCdg::OrderedCdg(const topo::DiGraph& g, const LinkIds& ids) {
  const int n = g.num_nodes();
  const int links = ids.count();
  out_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  in_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    out_off_[v + 1] = out_off_[v] + g.out_degree(v);
    in_off_[v + 1] = in_off_[v] + g.in_degree(v);
  }
  out_link_.resize(static_cast<std::size_t>(out_off_[n]));
  in_link_.resize(static_cast<std::size_t>(in_off_[n]));
  tail_.resize(links);
  head_.resize(links);
  out_port_.resize(links);
  in_port_.resize(links);
  for (int v = 0; v < n; ++v) {
    const auto& outs = g.out_neighbors(v);
    for (std::size_t k = 0; k < outs.size(); ++k) {
      const int e = ids.id(v, outs[k]);
      out_link_[out_off_[v] + k] = e;
      out_port_[e] = static_cast<int>(k);
    }
    const auto& ins = g.in_neighbors(v);
    for (std::size_t k = 0; k < ins.size(); ++k) {
      const int e = ids.id(ins[k], v);
      in_link_[in_off_[v] + k] = e;
      in_port_[e] = static_cast<int>(k);
    }
  }
  out_word_off_.assign(static_cast<std::size_t>(links) + 1, 0);
  in_word_off_.assign(static_cast<std::size_t>(links) + 1, 0);
  for (int e = 0; e < links; ++e) {
    const auto [u, v] = ids.link(e);
    tail_[e] = u;
    head_[e] = v;
    out_word_off_[e + 1] =
        out_word_off_[e] + (out_off_[v + 1] - out_off_[v] + 63) / 64;
    in_word_off_[e + 1] =
        in_word_off_[e] + (in_off_[u + 1] - in_off_[u] + 63) / 64;
  }
  out_words_.assign(static_cast<std::size_t>(out_word_off_[links]), 0);
  in_words_.assign(static_cast<std::size_t>(in_word_off_[links]), 0);
  ord_.resize(links);
  std::iota(ord_.begin(), ord_.end(), 0);
  mark_.assign(links, 0);
}

void OrderedCdg::clear() {
  std::fill(out_words_.begin(), out_words_.end(), 0);
  std::fill(in_words_.begin(), in_words_.end(), 0);
  std::iota(ord_.begin(), ord_.end(), 0);
}

bool OrderedCdg::has_dep(int a, int b) const {
  const int k = out_port_[b];
  return (out_words_[out_word_off_[a] + (k >> 6)] >> (k & 63)) & 1;
}

bool OrderedCdg::insert(int a, int b) {
  if (has_dep(a, b)) return true;
  if (ord_[a] > ord_[b]) {
    // The order disagrees: a cycle exists iff b already reaches a. If not,
    // the links reachable from b and those reaching a, both confined to the
    // window between ord[b] and ord[a], swap places in the order.
    if (++epoch_ == 0) {  // wrapped: clear stale marks once
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    if (forward_reaches(b, a)) return false;
    collect_backward(a, ord_[b]);
    reorder();
  }
  const int ko = out_port_[b], ki = in_port_[a];
  out_words_[out_word_off_[a] + (ko >> 6)] |= 1ULL << (ko & 63);
  in_words_[in_word_off_[b] + (ki >> 6)] |= 1ULL << (ki & 63);
  return true;
}

void OrderedCdg::remove(int a, int b) {
  const int ko = out_port_[b], ki = in_port_[a];
  out_words_[out_word_off_[a] + (ko >> 6)] &= ~(1ULL << (ko & 63));
  in_words_[in_word_off_[b] + (ki >> 6)] &= ~(1ULL << (ki & 63));
}

bool OrderedCdg::forward_reaches(int b, int a) {
  const int upper = ord_[a];
  fwd_.clear();
  stack_.assign(1, b);
  mark_[b] = epoch_;
  while (!stack_.empty()) {
    const int x = stack_.back();
    stack_.pop_back();
    fwd_.push_back(x);
    const int* next = out_link_.data() + out_off_[head_[x]];
    for (int w = out_word_off_[x]; w < out_word_off_[x + 1]; ++w)
      for (std::uint64_t bits = out_words_[w]; bits; bits &= bits - 1) {
        const int y =
            next[((w - out_word_off_[x]) << 6) + std::countr_zero(bits)];
        if (y == a) return true;
        if (mark_[y] != epoch_ && ord_[y] < upper) {
          mark_[y] = epoch_;
          stack_.push_back(y);
        }
      }
  }
  return false;
}

// Links that reach a with ord > lower. None of them was reached forward from
// b (that would have been a path b ->* a), so the shared marks are safe.
void OrderedCdg::collect_backward(int a, int lower) {
  bwd_.clear();
  stack_.assign(1, a);
  mark_[a] = epoch_;
  while (!stack_.empty()) {
    const int x = stack_.back();
    stack_.pop_back();
    bwd_.push_back(x);
    const int* prev = in_link_.data() + in_off_[tail_[x]];
    for (int w = in_word_off_[x]; w < in_word_off_[x + 1]; ++w)
      for (std::uint64_t bits = in_words_[w]; bits; bits &= bits - 1) {
        const int y =
            prev[((w - in_word_off_[x]) << 6) + std::countr_zero(bits)];
        if (mark_[y] != epoch_ && ord_[y] > lower) {
          mark_[y] = epoch_;
          stack_.push_back(y);
        }
      }
  }
}

// Hands the pooled order slots of both sets back out, the backward set
// first: every link that reaches a now precedes every link b reaches, and
// each set keeps its internal order.
void OrderedCdg::reorder() {
  const auto by_ord = [this](int x, int y) { return ord_[x] < ord_[y]; };
  std::sort(bwd_.begin(), bwd_.end(), by_ord);
  std::sort(fwd_.begin(), fwd_.end(), by_ord);
  slots_.clear();
  for (const int x : bwd_) slots_.push_back(ord_[x]);
  for (const int x : fwd_) slots_.push_back(ord_[x]);
  std::sort(slots_.begin(), slots_.end());
  std::size_t i = 0;
  for (const int x : bwd_) ord_[x] = slots_[i++];
  for (const int x : fwd_) ord_[x] = slots_[i++];
}

bool OrderedCdg::add_path(std::span<const int> p, const LinkIds& ids) {
  added_.clear();
  for (std::size_t i = 0; i + 2 < p.size(); ++i) {
    const int e1 = ids.id(p[i], p[i + 1]);
    const int e2 = ids.id(p[i + 1], p[i + 2]);
    if (e1 < 0 || e2 < 0 || has_dep(e1, e2)) continue;
    if (!insert(e1, e2)) {
      for (const auto& [a, b] : added_) remove(a, b);
      return false;
    }
    added_.emplace_back(e1, e2);
  }
  return true;
}

std::vector<std::pair<int, int>> OrderedCdg::deps() const {
  std::vector<std::pair<int, int>> out;
  for (int a = 0; a < num_links(); ++a) {
    const int* next = out_link_.data() + out_off_[head_[a]];
    for (int w = out_word_off_[a]; w < out_word_off_[a + 1]; ++w)
      for (std::uint64_t bits = out_words_[w]; bits; bits &= bits - 1)
        out.emplace_back(
            a, next[((w - out_word_off_[a]) << 6) + std::countr_zero(bits)]);
  }
  return out;
}

}  // namespace netsmith::vc
