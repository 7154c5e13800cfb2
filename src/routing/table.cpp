#include "routing/table.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "topo/metrics.hpp"

namespace netsmith::routing {

void RoutingTable::set_path(int s, int d, std::span<const int> route) {
  const std::size_t f = static_cast<std::size_t>(s) * n_ + d;
  if (route.size() > len_[f]) {
    assert(hops_.size() + route.size() <=
           std::numeric_limits<std::uint32_t>::max());
    offset_[f] = static_cast<std::uint32_t>(hops_.size());
    hops_.insert(hops_.end(), route.begin(), route.end());
  } else {
    std::copy(route.begin(), route.end(), hops_.begin() + offset_[f]);
  }
  len_[f] = static_cast<std::uint32_t>(route.size());
}

RoutingTable RoutingTable::from_flat(int n, std::vector<int> hops,
                                     std::vector<std::uint32_t> lengths) {
  assert(lengths.size() == static_cast<std::size_t>(n) * n);
  assert(hops.size() <= std::numeric_limits<std::uint32_t>::max());
  RoutingTable rt;
  rt.n_ = n;
  rt.offset_.resize(lengths.size());
  std::uint32_t at = 0;
  for (std::size_t f = 0; f < lengths.size(); ++f) {
    rt.offset_[f] = at;
    at += lengths[f];
  }
  assert(at == hops.size());
  rt.hops_ = std::move(hops);
  rt.len_ = std::move(lengths);
  return rt;
}

int RoutingTable::next_hop(int cur, int s, int d) const {
  const auto p = path(s, d);
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    if (p[i] == cur) return p[i + 1];
  return -1;
}

RoutingTable RoutingTable::from_choice(const PathSet& ps,
                                       const std::vector<int>& choice) {
  const int n = ps.num_nodes();
  // Flows run in row-major pair order, so the chosen routes laid end to end
  // are the flow-major arena. Size it exactly first, so it is filled
  // without regrowing.
  const auto chosen = [&](int f) {
    const std::size_t k =
        static_cast<std::size_t>(ps.flow_s[f]) * n + ps.flow_d[f];
    assert(choice[k] >= 0 && choice[k] < ps.paths_of(f));
    return std::pair{k, ps.nodes_of(ps.path_begin[f] + choice[k])};
  };
  std::vector<std::uint32_t> lengths(static_cast<std::size_t>(n) * n, 0);
  std::size_t total = 0;
  for (int f = 0; f < ps.num_flows(); ++f) {
    const auto [k, p] = chosen(f);
    lengths[k] = static_cast<std::uint32_t>(p.size());
    total += p.size();
  }
  std::vector<int> hops;
  hops.reserve(total);
  for (int f = 0; f < ps.num_flows(); ++f) {
    const auto p = chosen(f).second;
    hops.insert(hops.end(), p.begin(), p.end());
  }
  return from_flat(n, std::move(hops), std::move(lengths));
}

RoutingTable RoutingTable::select_first(const PathSet& ps) {
  const int n = ps.num_nodes();
  std::vector<int> choice(static_cast<std::size_t>(n) * n, 0);
  return from_choice(ps, choice);
}

RoutingTable RoutingTable::select_random(const PathSet& ps, util::Rng& rng) {
  const int n = ps.num_nodes();
  std::vector<int> choice(static_cast<std::size_t>(n) * n, 0);
  for (int f = 0; f < ps.num_flows(); ++f)
    choice[static_cast<std::size_t>(ps.flow_s[f]) * n + ps.flow_d[f]] =
        static_cast<int>(rng.uniform_int(0, ps.paths_of(f) - 1));
  return from_choice(ps, choice);
}

bool RoutingTable::consistent_with(const topo::DiGraph& g) const {
  for (int s = 0; s < n_; ++s)
    for (int d = 0; d < n_; ++d) {
      if (s == d) continue;
      const auto p = path(s, d);
      if (p.size() < 2 || p.front() != s || p.back() != d) return false;
      for (std::size_t i = 0; i + 1 < p.size(); ++i)
        if (!g.has_edge(p[i], p[i + 1])) return false;
    }
  return true;
}

bool RoutingTable::is_minimal(const topo::DiGraph& g) const {
  const auto dist = topo::apsp_bfs(g);
  for (int s = 0; s < n_; ++s)
    for (int d = 0; d < n_; ++d) {
      if (s == d) continue;
      if (static_cast<int>(path(s, d).size()) - 1 != dist(s, d)) return false;
    }
  return true;
}

}  // namespace netsmith::routing
