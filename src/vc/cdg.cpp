#include "vc/cdg.hpp"

#include <algorithm>

namespace netsmith::vc {

LinkIds::LinkIds(const topo::DiGraph& g) : n_(g.num_nodes()) {
  id_.assign(static_cast<std::size_t>(n_) * n_, -1);
  for (const auto& [u, v] : g.edges()) {
    id_[static_cast<std::size_t>(u) * n_ + v] = static_cast<int>(links_.size());
    links_.emplace_back(u, v);
  }
}

Cdg::Cdg(int num_links) : adj_(num_links), mark_(num_links, 0) {}

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

bool Cdg::closes_cycle(const std::vector<std::pair<int, int>>& inserted) {
  for (const auto& [a, b] : inserted) {
    if (++epoch_ == 0) {  // wrapped: clear stale marks once
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    stack_.assign(1, b);
    mark_[b] = epoch_;
    while (!stack_.empty()) {
      const int u = stack_.back();
      stack_.pop_back();
      if (u == a) return true;
      for (const int v : adj_[u])
        if (mark_[v] != epoch_) {
          mark_[v] = epoch_;
          stack_.push_back(v);
        }
    }
  }
  return false;
}

}  // namespace netsmith::vc
