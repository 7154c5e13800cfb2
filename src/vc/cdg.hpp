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

// Plain adjacency-list CDG with a full cycle check: the oracle for
// OrderedCdg, and what verify_acyclic uses.
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
  int num_deps() const { return deps_; }
  int num_links() const { return static_cast<int>(adj_.size()); }

 private:
  std::vector<std::vector<int>> adj_;
  int deps_ = 0;
};

// One VC layer's CDG, kept acyclic and in a topological order `ord` (a
// permutation of the link ids with ord[a] < ord[b] for every dependency
// a -> b), so that an insertion is an exact cycle test (Pearce & Kelly, "A
// Dynamic Topological Sort Algorithm for Directed Acyclic Graphs", JEA
// 2006). An insertion that agrees with the order costs O(1); otherwise only
// the links whose order lies between the two endpoints are searched.
//
// Adjacency is stored as port bitmasks: a dependency (u,v) -> (v,w) is the
// bit of w's out-port index at v in the out-words of link (u,v), and the bit
// of u's in-port index at v in the in-words of link (v,w). A link carries
// ceil(degree / 64) words on each side, so routers of any degree work.
class OrderedCdg {
 public:
  OrderedCdg(const topo::DiGraph& g, const LinkIds& ids);

  // Removes every dependency and resets the order (start of a new layer).
  void clear();

  // Inserts the dependency a -> b, where a = (u,v) and b = (v,w). Returns
  // false, leaving the graph unchanged, iff it would close a cycle; an
  // already present dependency is accepted as is.
  bool insert(int a, int b);
  // Removes a -> b. Deleting edges keeps `ord` a topological order.
  void remove(int a, int b);
  bool has_dep(int a, int b) const;

  // Inserts every consecutive-link dependency of the path (pairs whose links
  // are not in the graph are skipped, as in Cdg::add_path). If one closes a
  // cycle, the dependencies this call inserted are removed again and the
  // result is false.
  bool add_path(std::span<const int> p, const LinkIds& ids);

  int num_links() const { return static_cast<int>(ord_.size()); }
  // Position of link e in the current topological order.
  int order(int e) const { return ord_[e]; }
  // Every dependency (a, b), ascending by a then by b's port index.
  std::vector<std::pair<int, int>> deps() const;

 private:
  // True iff b reaches a; marks and collects the searched links with
  // ord < ord[a] into fwd_ otherwise.
  bool forward_reaches(int b, int a);
  void collect_backward(int a, int lower);
  void reorder();

  // Per router v: out-links out_link_[out_off_[v] ..) and in-links
  // in_link_[in_off_[v] ..), both in the graph's neighbour-list order.
  std::vector<int> out_off_, out_link_, in_off_, in_link_;
  // Per link e = (u, v): tail u, head v, e's index among u's out-links and
  // among v's in-links, and the offsets of its out-words (over v's
  // out-ports) and in-words (over u's in-ports).
  std::vector<int> tail_, head_, out_port_, in_port_;
  std::vector<int> out_word_off_, in_word_off_;
  std::vector<std::uint64_t> out_words_, in_words_;

  std::vector<int> ord_;
  // Search scratch: a link was reached by the current insertion's searches
  // iff its mark equals epoch_.
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::vector<int> stack_, fwd_, bwd_, slots_;
  std::vector<std::pair<int, int>> added_;  // add_path rollback list
};

}  // namespace netsmith::vc
