#pragma once
// Channel dependency graph (Dally & Seitz): nodes are the network's directed
// links; an edge (e1 -> e2) exists when some route occupies e1 and then e2
// consecutively. A routing subfunction is deadlock-free on a VC if the CDG
// restricted to that VC's routes is acyclic (paper SII-F).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "topo/graph.hpp"

namespace netsmith::vc {

// Maps directed links to dense ids.
class LinkIds {
 public:
  explicit LinkIds(const topo::DiGraph& g);

  int id(int u, int v) const { return id_[static_cast<std::size_t>(u) * n_ + v]; }
  int count() const { return static_cast<int>(links_.size()); }
  std::pair<int, int> link(int e) const { return links_[e]; }

 private:
  int n_ = 0;
  std::vector<int> id_;  // -1 when no such link
  std::vector<std::pair<int, int>> links_;
};

class Cdg {
 public:
  explicit Cdg(int num_links);

  // Adds a dependency edge; duplicates ignored. Returns true if new.
  bool add_dep(int from, int to);
  void remove_dep(int from, int to);

  // Adds every consecutive-link dependency of the path. Returns the list of
  // (from, to) pairs actually inserted, so the caller can roll back.
  std::vector<std::pair<int, int>> add_path(std::span<const int> p,
                                            const LinkIds& ids);
  void remove_deps(const std::vector<std::pair<int, int>>& deps);

  bool has_cycle() const;
  // Incremental form of has_cycle() for a graph that was acyclic before
  // `inserted` went in: any new cycle runs through some new dependency
  // (a, b), so one exists iff some b reaches its a. Costs one DFS per
  // inserted pair over the part of the graph reachable from b, instead of a
  // full rescan; the visited marks and DFS stack live here and are reused.
  bool closes_cycle(const std::vector<std::pair<int, int>>& inserted);
  int num_deps() const { return deps_; }
  int num_links() const { return static_cast<int>(adj_.size()); }

 private:
  std::vector<std::vector<int>> adj_;
  int deps_ = 0;
  // closes_cycle scratch: a link is visited in the current search iff its
  // mark equals epoch_, so each search starts by bumping the epoch.
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::vector<int> stack_;
};

}  // namespace netsmith::vc
