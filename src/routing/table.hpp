#pragma once
// Table-based routing: one chosen shortest path per flow (paper SII-E uses
// table-based routing for interposer networks; MCLB's output is exactly one
// path per flow). The table is what the simulator consumes.
//
// Storage is one flat arena: every route's routers live in `hops_`,
// flow-major, and each flow f = s*n + d keeps an offset into it and a
// length. A table is three allocations whatever n is, so copying or
// restoring one costs a few memcpys instead of n^2 heap vectors.

#include <cstdint>
#include <span>
#include <vector>

#include "routing/paths.hpp"
#include "util/rng.hpp"

namespace netsmith::routing {

class RoutingTable {
 public:
  RoutingTable() = default;
  explicit RoutingTable(int n)
      : n_(n),
        offset_(static_cast<std::size_t>(n) * n, 0),
        len_(static_cast<std::size_t>(n) * n, 0) {}

  int num_nodes() const { return n_; }

  // The (s, d) route's routers; empty for s == d and unrouted flows.
  std::span<const int> path(int s, int d) const {
    const std::size_t f = static_cast<std::size_t>(s) * n_ + d;
    return {hops_.data() + offset_[f], len_[f]};
  }

  // The whole route arena. Every path(s, d) is a sub-span of it, so
  // path(s, d).data() - hops().data() indexes arrays laid out alongside it.
  std::span<const int> hops() const { return hops_; }

  // Replaces the (s, d) route. `route` must not point into this table.
  // A route no longer than the one it replaces is written in place; a
  // longer one goes to the end of the arena, so any flow order works.
  void set_path(int s, int d, std::span<const int> route);

  // Adopts routes laid end to end in flow order as the arena: flow f's
  // route is the next lengths[f] routers of `hops`. Requires n * n lengths
  // that sum to hops.size().
  static RoutingTable from_flat(int n, std::vector<int> hops,
                                std::vector<std::uint32_t> lengths);

  // Next router after `cur` on the (s, d) route; -1 when cur == d or the
  // router is not on the route.
  int next_hop(int cur, int s, int d) const;

  // Builds a table by picking path choice[s*n + d] of every flow (s, d).
  static RoutingTable from_choice(const PathSet& ps, const std::vector<int>& choice);

  // Picks the first (deterministic) path of every flow.
  static RoutingTable select_first(const PathSet& ps);

  // Random selection among the valid choices (the paper's NDBT policy).
  static RoutingTable select_random(const PathSet& ps, util::Rng& rng);

  // Every route exists, uses graph edges, starts at s and ends at d.
  bool consistent_with(const topo::DiGraph& g) const;

  // True iff every route has length dist(s,d) (minimal routing).
  bool is_minimal(const topo::DiGraph& g) const;

 private:
  int n_ = 0;
  std::vector<int> hops_;              // every route's routers
  std::vector<std::uint32_t> offset_;  // per flow: first router in hops_
  std::vector<std::uint32_t> len_;     // per flow: routers on the route
};

}  // namespace netsmith::routing
