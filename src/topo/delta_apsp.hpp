#pragma once
// Delta-APSP: incrementally maintained BFS distance rows under single-edge
// graph edits. This is what makes the synthesis hot loop sub-linear in n per
// move at large scale: instead of re-running the full n-source APSP sweep
// after every candidate move, only the rows whose BFS tree can have changed
// are re-swept.
//
// Affected-source detection uses the maintained (pre-edit) distance matrix:
//  - adding directed edge (u, v) can only change row s when it creates a
//    shortcut, i.e. D(s,u) + 1 < D(s,v);
//  - removing directed edge (u, v) can only change row s when the edge lies
//    on some shortest path from s, i.e. D(s,u) + 1 == D(s,v), AND no other
//    in-neighbor p of v survives with D(s,p) + 1 == D(s,v). A surviving
//    equal-level predecessor proves the whole row unchanged: D(s,v) is still
//    achieved via p (the s->p shortest path is one hop shorter than any walk
//    through v or u->v, so it avoids the removed edge(s)), and every target
//    whose shortest path crossed (u, v) reroutes s->p->v + old v-suffix at
//    equal length. This predecessor filter is what keeps the affected
//    fraction small on radix-bounded graphs, where most removed edges have
//    equal-length siblings; it is proven for batches with at most one
//    removed edge or a symmetric twin pair {(u,v), (v,u)} — the shapes the
//    annealer emits — and apply() falls back to the plain on-some-shortest-
//    path rule for any other batch.
// Detection works on words of 64 rows: for each edit, one branch-free pass
// over columns u and v of the n rows sets a candidate bit per row
// (ceil(n/64) words), and the predecessor filter then visits only the
// candidate rows. Each re-swept row's hop sum and unreached count come back
// from the same BitBfs::distances call that writes the row.
// For a batch of edits applied together (the annealer's remove+add rewire
// move, doubled in symmetric mode), the union of the per-edit affected sets
// — all evaluated against the pre-move matrix — is re-swept once on the
// post-move graph. A minimal-counterexample argument shows this is exact:
// an unaffected row keeps, for every target, a shortest path avoiding every
// removed edge, and no combination of non-shortcut additions can shorten it.
// Rows are therefore bit-identical to a from-scratch apsp_bfs at all times
// (asserted under randomized edit sequences in tests/test_delta_apsp.cpp).
//
// Each apply() journals the previous contents of the re-swept rows, so a
// rejected annealer move rolls back with a handful of row memcpys instead of
// re-running BFS.

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"
#include "topo/metrics.hpp"
#include "util/matrix.hpp"

namespace netsmith::topo {

class DeltaApsp {
 public:
  // One directed-edge edit; `g` passed to apply() must already reflect it.
  struct EdgeChange {
    int u = 0, v = 0;
    bool added = false;  // false = removed
  };

  DeltaApsp() = default;
  // One row per source: rows() is the complete APSP matrix.
  explicit DeltaApsp(int n) { init(n); }

  // Re-initialize, reusing existing storage when n is unchanged (the
  // annealer hoists one engine across restarts).
  void init(int n);

  // Full sweep of every row; discards any pending journal.
  void rebuild(const DiGraph& g);

  // Incremental update for a batch of edge edits already applied to g:
  // detect() + sweep() of every affected row. Journals overwritten rows;
  // returns the number of rows re-swept. A previous apply() must have been
  // committed or rolled back first.
  int apply(const DiGraph& g, const EdgeChange* changes, int count);

  // The two halves of apply(). detect() finds the rows the batch can change
  // (against the pre-edit rows) and returns their number; sweep() then
  // journals and re-sweeps them in detection order on the post-edit g.
  // After each row but the last, stop(unswept) is asked whether to skip the
  // `unswept` rows still left; a stopped sweep returns false, leaves those
  // rows stale and must be rolled back. Either way the pending edit ends
  // with commit() or rollback().
  //
  // Early-rejection premise (tests/test_delta_apsp.cpp): for a sharp
  // removal-only batch (one edge or a twin pair) on a graph with
  // unreachable() == 0, every affected row either loses a target or its
  // hop sum grows by at least 1. Removals never shorten a row, and an
  // affected row's head v has no surviving predecessor at level D(s,v) - 1.
  // So while no swept row has lost a target, hop_sum() + unswept is a lower
  // bound on the post-move hop_sum().
  int detect(const DiGraph& g, const EdgeChange* changes, int count);
  template <class Stop>
  bool sweep(const DiGraph& g, Stop&& stop) {
    const std::size_t k = affected_.size();
    for (std::size_t i = 0; i < k; ++i) {
      journal_and_sweep(g, affected_[i]);
      if (i + 1 < k && stop(static_cast<int>(k - i - 1))) return false;
    }
    return true;
  }

  void commit();    // accept the last apply (drop the journal)
  void rollback();  // undo the last apply (restore journaled rows)

  // Aggregates over all rows, maintained incrementally. hop_sum is
  // the sum of finite distances; unreachable counts (source, target) pairs
  // with no path (target != source).
  std::int64_t hop_sum() const { return hop_sum_; }
  long unreachable() const { return unreachable_; }

  int num_nodes() const { return n_; }

  // n x n distance matrix; row r holds distances from r, so this is exactly
  // apsp_bfs(g).
  const util::Matrix<int>& rows() const { return dist_; }

  // Cumulative affected rows detected since init: the rows apply() re-sweeps
  // (perf accounting: the full re-sweep equivalent is n per move). A sweep
  // stopped early still counts every affected row, so the figure does not
  // depend on where a caller stops.
  std::int64_t resweeps() const { return resweeps_; }

 private:
  void sweep_row(const DiGraph& g, int r);
  void journal_and_sweep(const DiGraph& g, int r);

  int n_ = 0;
  util::Matrix<int> dist_;            // n x n
  std::vector<std::int64_t> row_sum_; // finite distances per row
  std::vector<int> row_unreach_;      // unreachable targets per row
  std::int64_t hop_sum_ = 0;
  long unreachable_ = 0;

  BitBfs bfs_{0};

  // Rows already affected by an earlier edit of one apply(), one bit per
  // row in ceil(n / 64) words, and those rows in (edit, row) order.
  std::vector<std::uint64_t> taken_;
  std::vector<int> affected_;

  // Journal of the last apply(): row payloads + aggregate deltas.
  struct Saved {
    int row;
    std::int64_t sum;
    int unreach;
  };
  std::vector<Saved> journal_;
  std::vector<int> journal_rows_;  // concatenated old row contents
  bool pending_ = false;

  std::int64_t resweeps_ = 0;
};

}  // namespace netsmith::topo
