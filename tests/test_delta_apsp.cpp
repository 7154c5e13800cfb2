// Delta-APSP correctness: under randomized single-edge and batched
// (annealer-style rewire) edit sequences, the incrementally maintained
// distance rows must stay bit-identical to a from-scratch apsp_bfs after
// every commit AND every rollback, across the one-word/multi-word BitBfs
// boundary, and apply()'s word-parallel affected-row scan must count the
// same rows as the plain per-row loop it replaced. The split detect() +
// sweep() path has its own oracles: a sweep
// cut short by its stop predicate rolls back to the pre-move rows, one never
// stopped equals apply(), and on a connected graph every row a sharp removal
// batch affects grows or loses a target (the annealer's early-rejection
// premise).

#include "topo/delta_apsp.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/anneal.hpp"
#include "topo/builders.hpp"
#include "topo/graph.hpp"
#include "topo/metrics.hpp"
#include "util/rng.hpp"

namespace netsmith::topo {
namespace {

DiGraph random_graph(int n, double p, util::Rng& rng) {
  DiGraph g(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j && rng.bernoulli(p)) g.add_edge(i, j);
  return g;
}

// Engine rows + maintained aggregates vs a from-scratch BFS oracle.
::testing::AssertionResult matches_oracle(const DeltaApsp& e,
                                          const DiGraph& g) {
  const auto oracle = apsp_bfs(g);
  std::int64_t sum = 0;
  long unreach = 0;
  for (int s = 0; s < e.num_nodes(); ++s) {
    for (int j = 0; j < e.num_nodes(); ++j) {
      const int got = e.rows()(static_cast<std::size_t>(s),
                               static_cast<std::size_t>(j));
      const int want = oracle(static_cast<std::size_t>(s),
                              static_cast<std::size_t>(j));
      if (got != want)
        return ::testing::AssertionFailure()
               << "row for source " << s << ", target " << j << ": got " << got
               << ", oracle " << want;
      if (j == s) continue;
      if (want >= kUnreachable)
        ++unreach;
      else
        sum += want;
    }
  }
  if (e.hop_sum() != sum)
    return ::testing::AssertionFailure()
           << "hop_sum " << e.hop_sum() << " != oracle " << sum;
  if (e.unreachable() != unreach)
    return ::testing::AssertionFailure()
           << "unreachable " << e.unreachable() << " != oracle " << unreach;
  return ::testing::AssertionSuccess();
}

// The affected-row rule as the plain per-row, per-edit loop: the oracle for
// apply()'s word-parallel scan. Reads the engine's pre-edit rows and the
// post-edit graph, exactly as apply() does, and counts the union of the
// per-edit affected rows.
int scalar_affected_count(const DeltaApsp& e, const DiGraph& g,
                          const std::vector<DeltaApsp::EdgeChange>& changes) {
  int removed = 0, r0 = -1, r1 = -1;
  for (int c = 0; c < static_cast<int>(changes.size()); ++c) {
    if (changes[static_cast<std::size_t>(c)].added) continue;
    (removed == 0 ? r0 : r1) = c;
    ++removed;
  }
  const bool sharp =
      removed <= 1 ||
      (removed == 2 && changes[static_cast<std::size_t>(r0)].u ==
                           changes[static_cast<std::size_t>(r1)].v &&
       changes[static_cast<std::size_t>(r0)].v ==
           changes[static_cast<std::size_t>(r1)].u);
  const auto& d = e.rows();
  std::vector<char> mark(static_cast<std::size_t>(e.num_nodes()), 0);
  int count = 0;
  for (const auto& ch : changes) {
    const auto& preds = g.in_neighbors(ch.v);
    for (std::size_t r = 0; r < mark.size(); ++r) {
      if (mark[r]) continue;
      const int du = d(r, static_cast<std::size_t>(ch.u));
      const int dv = d(r, static_cast<std::size_t>(ch.v));
      bool hit = ch.added ? du + 1 < dv : du + 1 == dv;
      if (hit && !ch.added && sharp) {
        for (const int p : preds) {
          if (d(r, static_cast<std::size_t>(p)) + 1 == dv) {
            hit = false;
            break;
          }
        }
      }
      if (hit) {
        mark[r] = 1;
        ++count;
      }
    }
  }
  return count;
}

// One annealer-style batch of edits, applied to g and returned: a symmetric
// twin-pair rewire (remove a twin pair {(u,v), (v,u)} and/or add one), two
// unrelated removals (the batch shape without the predecessor filter), or
// 1-2 single edits (remove and/or add). Empty if no edit was possible.
std::vector<DeltaApsp::EdgeChange> random_batch(DiGraph& g, util::Rng& rng) {
  const int n = g.num_nodes();
  std::vector<DeltaApsp::EdgeChange> changes;
  const auto remove = [&](int u, int v) {
    g.remove_edge(u, v);
    changes.push_back({u, v, false});
  };
  const auto add = [&](int u, int v) {
    g.add_edge(u, v);
    changes.push_back({u, v, true});
  };
  const auto pick = [&](const std::vector<std::pair<int, int>>& from) {
    return from[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  const double shape = rng.uniform();
  if (shape < 0.15) {  // symmetric rewire
    std::vector<std::pair<int, int>> twins;
    for (const auto& [u, v] : g.edges())
      if (u < v && g.has_edge(v, u)) twins.emplace_back(u, v);
    if (!twins.empty() && rng.bernoulli(0.7)) {
      const auto [u, v] = pick(twins);
      remove(u, v);
      remove(v, u);
    }
    if (changes.empty() || rng.bernoulli(0.5)) {
      for (int attempt = 0; attempt < 32; ++attempt) {
        const int u = static_cast<int>(rng.uniform_int(0, n - 1));
        const int v = static_cast<int>(rng.uniform_int(0, n - 1));
        if (u == v || g.has_edge(u, v) || g.has_edge(v, u)) continue;
        add(u, v);
        add(v, u);
        break;
      }
    }
  } else if (shape < 0.25) {  // two removals that are not a twin pair
    const auto edges = g.edges();
    if (edges.size() >= 2) {
      const auto a = pick(edges);
      for (int attempt = 0; attempt < 32; ++attempt) {
        const auto b = pick(edges);
        if (b == a || (b.first == a.second && b.second == a.first)) continue;
        remove(a.first, a.second);
        remove(b.first, b.second);
        break;
      }
    }
  } else {
    const double r = rng.uniform();
    if (r < 0.7 && g.num_directed_edges() > 0) {  // remove one existing edge
      const auto [u, v] = pick(g.edges());
      remove(u, v);
    }
    if (r >= 0.3) {  // add one absent edge (rewire when combined with a remove)
      for (int attempt = 0; attempt < 32; ++attempt) {
        const int u = static_cast<int>(rng.uniform_int(0, n - 1));
        const int v = static_cast<int>(rng.uniform_int(0, n - 1));
        if (u == v || g.has_edge(u, v)) continue;
        add(u, v);
        break;
      }
    }
  }
  return changes;
}

// Reverts a batch on the graph (the engine side is rollback()).
void undo_batch(DiGraph& g, const std::vector<DeltaApsp::EdgeChange>& changes) {
  for (std::size_t i = changes.size(); i-- > 0;) {
    if (changes[i].added)
      g.remove_edge(changes[i].u, changes[i].v);
    else
      g.add_edge(changes[i].u, changes[i].v);
  }
}

// One annealer-style step: a random_batch applied to the graph and the
// engine, then committed or rolled back with probability 1/2. apply()'s
// affected-row count must equal the scalar loop's. Returns false if no edit
// was possible.
bool random_step(DiGraph& g, DeltaApsp& e, util::Rng& rng) {
  const auto changes = random_batch(g, rng);
  if (changes.empty()) return false;
  const int want = scalar_affected_count(e, g, changes);
  const int got = e.apply(g, changes.data(), static_cast<int>(changes.size()));
  EXPECT_EQ(got, want) << "affected rows for a batch of " << changes.size()
                       << " edits, n=" << g.num_nodes();
  if (rng.bernoulli(0.5)) {
    e.commit();
  } else {
    e.rollback();
    undo_batch(g, changes);
  }
  return true;
}

class DeltaApspRandom : public ::testing::TestWithParam<int> {};

TEST_P(DeltaApspRandom, EditSequenceBitExactVsApsp) {
  const int n = GetParam();
  util::Rng rng(0xDE17A + n);
  const int steps = n <= 65 ? 120 : 40;
  const double densities[] = {1.5 / n, 3.0 / n, 0.2};
  for (int d = 0; d < 3; ++d) {
    DiGraph g = random_graph(n, densities[d], rng);
    DeltaApsp e(n);
    e.rebuild(g);
    ASSERT_TRUE(matches_oracle(e, g)) << "n=" << n << " density#" << d;
    for (int step = 0; step < steps; ++step) {
      if (!random_step(g, e, rng)) continue;
      ASSERT_TRUE(matches_oracle(e, g))
          << "n=" << n << " density#" << d << " step=" << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeltaApspRandom,
                         ::testing::Values(7, 48, 65, 130, 260));

// --- Stoppable sweeps: the early-rejection oracles -------------------------

// Strongly connected radix-style graph: a ring (both directions when
// symmetric) plus random extra edges (twin pairs when symmetric).
DiGraph connected_graph(int n, bool symmetric, util::Rng& rng) {
  DiGraph g(n);
  const auto link = [&](int u, int v) {
    if (u == v || g.has_edge(u, v)) return;
    g.add_edge(u, v);
    if (symmetric) g.add_edge(v, u);
  };
  for (int i = 0; i < n; ++i) link(i, (i + 1) % n);
  for (int extra = 0; extra < n; ++extra)
    link(static_cast<int>(rng.uniform_int(0, n - 1)),
         static_cast<int>(rng.uniform_int(0, n - 1)));
  return g;
}

// Every sharp removal batch of g: each edge alone, and each twin pair.
std::vector<std::vector<DeltaApsp::EdgeChange>> sharp_removals(
    const DiGraph& g) {
  std::vector<std::vector<DeltaApsp::EdgeChange>> batches;
  for (const auto& [u, v] : g.edges()) {
    batches.push_back({{u, v, false}});
    if (u < v && g.has_edge(v, u))
      batches.push_back({{u, v, false}, {v, u, false}});
  }
  return batches;
}

void apply_to_graph(DiGraph& g,
                    const std::vector<DeltaApsp::EdgeChange>& changes) {
  for (const auto& c : changes) {
    if (c.added)
      g.add_edge(c.u, c.v);
    else
      g.remove_edge(c.u, c.v);
  }
}

class DeltaApspSweep : public ::testing::TestWithParam<int> {};

// A sweep stopped after k rows leaves the unswept rows stale; rollback()
// must still restore the exact pre-move rows and aggregates.
TEST_P(DeltaApspSweep, StoppedSweepRollsBackToPreMoveRows) {
  const int n = GetParam();
  util::Rng rng(0x57095 + n);
  DiGraph g = random_graph(n, 3.0 / n, rng);
  DeltaApsp e(n);
  e.rebuild(g);
  int stopped = 0;
  for (int step = 0; step < 60; ++step) {
    const auto changes = random_batch(g, rng);
    if (changes.empty()) continue;
    const int affected =
        e.detect(g, changes.data(), static_cast<int>(changes.size()));
    const int k =
        affected > 0 ? static_cast<int>(rng.uniform_int(1, affected)) : 0;
    const bool done =
        e.sweep(g, [&](int unswept) { return affected - unswept >= k; });
    EXPECT_EQ(done, k == affected) << "n=" << n << " step=" << step;
    stopped += !done;
    e.rollback();
    undo_batch(g, changes);
    ASSERT_TRUE(matches_oracle(e, g))
        << "n=" << n << " step=" << step << " stopped after " << k << " of "
        << affected;
    // Keep the graph moving: re-apply and commit every other batch.
    if (step % 2) continue;
    apply_to_graph(g, changes);
    e.apply(g, changes.data(), static_cast<int>(changes.size()));
    e.commit();
  }
  if (n > 7) {
    EXPECT_GT(stopped, 0) << "n=" << n;
  }
}

// With a stop predicate that never fires, detect() + sweep() is apply():
// same rows, aggregates, return value and resweeps(), across commits and
// rollbacks of every batch shape.
TEST_P(DeltaApspSweep, UnstoppedSweepEqualsApply) {
  const int n = GetParam();
  util::Rng rng(0xA991 + n);
  DiGraph g = random_graph(n, 3.0 / n, rng);
  DeltaApsp split(n);
  DeltaApsp whole(n);
  split.rebuild(g);
  whole.rebuild(g);
  for (int step = 0; step < 60; ++step) {
    const auto changes = random_batch(g, rng);
    if (changes.empty()) continue;
    const int count = static_cast<int>(changes.size());
    const int affected = split.detect(g, changes.data(), count);
    EXPECT_TRUE(split.sweep(g, [](int) { return false; }));
    EXPECT_EQ(whole.apply(g, changes.data(), count), affected);
    ASSERT_EQ(split.rows(), whole.rows()) << "n=" << n << " step=" << step;
    EXPECT_EQ(split.hop_sum(), whole.hop_sum());
    EXPECT_EQ(split.unreachable(), whole.unreachable());
    EXPECT_EQ(split.resweeps(), whole.resweeps());
    if (rng.bernoulli(0.5)) {
      split.commit();
      whole.commit();
    } else {
      split.rollback();
      whole.rollback();
      undo_batch(g, changes);
    }
  }
  ASSERT_TRUE(matches_oracle(split, g));
}

// The annealer's bound rests on this: on a graph with no unreachable pair,
// every row a sharp removal batch affects either loses a target or grows
// its hop sum by at least 1. Per-row deltas are read off the aggregates
// after each swept row.
TEST_P(DeltaApspSweep, SharpRemovalGrowsEveryAffectedRow) {
  const int n = GetParam();
  util::Rng rng(0x9E0 + n);
  for (const bool symmetric : {false, true}) {
    DiGraph g = connected_graph(n, symmetric, rng);
    DeltaApsp e(n);
    e.rebuild(g);
    ASSERT_EQ(e.unreachable(), 0);
    long rows_seen = 0;
    for (const auto& changes : sharp_removals(g)) {
      apply_to_graph(g, changes);
      std::int64_t sum = e.hop_sum();
      long unreach = e.unreachable();
      const auto check_row = [&] {
        const bool lost = e.unreachable() > unreach;
        EXPECT_TRUE(lost || e.hop_sum() >= sum + 1)
            << "n=" << n << " edge " << changes[0].u << "->" << changes[0].v
            << ": row sum " << sum << " -> " << e.hop_sum();
        sum = e.hop_sum();
        unreach = e.unreachable();
        ++rows_seen;
      };
      const int affected =
          e.detect(g, changes.data(), static_cast<int>(changes.size()));
      e.sweep(g, [&](int) {
        check_row();
        return false;
      });
      if (affected > 0) check_row();
      e.rollback();
      undo_batch(g, changes);
    }
    EXPECT_GT(rows_seen, 0) << "n=" << n;
    ASSERT_TRUE(matches_oracle(e, g));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeltaApspSweep,
                         ::testing::Values(7, 48, 65, 130));

TEST(DeltaApsp, InitReusesStorageAcrossRestarts) {
  util::Rng rng(0xC0FFEE);
  DeltaApsp e(48);
  for (int restart = 0; restart < 3; ++restart) {
    DiGraph g = random_graph(48, 3.0 / 48, rng);
    e.init(48);  // same shape: storage reused, state reset
    e.rebuild(g);
    EXPECT_EQ(e.resweeps(), 0);  // rebuild is not counted as delta work
    for (int step = 0; step < 20; ++step) random_step(g, e, rng);
    ASSERT_TRUE(matches_oracle(e, g)) << "restart=" << restart;
  }
}

TEST(DeltaApsp, ResweepsFarBelowFullSweepEquivalent) {
  // The point of the engine: per-move row re-sweeps must be a small fraction
  // of n even on a sparse graph where single edits have wide blast radii.
  const int n = 130;
  util::Rng rng(0x5CA1E);
  DiGraph g = random_graph(n, 3.0 / n, rng);
  DeltaApsp e(n);
  e.rebuild(g);
  int applied = 0;
  for (int step = 0; step < 200; ++step)
    if (random_step(g, e, rng)) ++applied;
  ASSERT_GT(applied, 0);
  const double full_equiv = static_cast<double>(applied) * n;
  EXPECT_LT(static_cast<double>(e.resweeps()), 0.5 * full_equiv)
      << "resweeps=" << e.resweeps() << " over " << applied << " moves";
}

}  // namespace
}  // namespace topo

// --- The annealer's delta-APSP accounting ----------------------------------

namespace netsmith::core {
namespace {

TEST(DeltaApspAnneal, ReportsResweepAccounting) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 3, 2.0};
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 4;
  cfg.objective = Objective::kLatOp;
  cfg.time_limit_s = 60.0;  // move budget terminates first
  cfg.restarts = 2;
  cfg.seed = 23;
  cfg.max_moves = 1500;
  EXPECT_GT(anneal_synthesize(cfg).apsp_resweeps, 0);
}

}  // namespace
}  // namespace netsmith::core
