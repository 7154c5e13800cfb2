#include "core/anneal.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/bounds.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/mclb.hpp"
#include "routing/paths.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/delta_apsp.hpp"
#include "topo/metrics.hpp"
#include "util/rng.hpp"

namespace netsmith::core {

namespace {

constexpr double kDisconnected = 1e9;

// Temperature schedule: geometric from kT0 to kT1 in the elapsed-time or
// elapsed-move fraction (see SynthesisConfig::max_moves).
constexpr double kT0 = 8.0;
constexpr double kT1 = 0.02;
constexpr int kCutCacheSize = 320;
constexpr int kCutRefreshAccepts = 500;  // exact-cut refresh cadence for SCOp
constexpr int kMaxTracePoints = 512;

// Lazily grown cache of the most binding cuts for the SCOp surrogate.
class CutCache {
 public:
  CutCache(int n, int cap) : n_(n), cap_(cap) {}

  double cached_bandwidth(const topo::DiGraph& g) const {
    double best = std::numeric_limits<double>::infinity();
    for (const auto mask : masks_) best = std::min(best, bw(g, mask));
    return best;
  }

  // Soft objective: weighted sum of the k sparsest cached cuts. Improving
  // near-minimal cuts is rewarded before the minimum itself moves, which
  // gives the annealer a gradient across the plateau.
  double soft_bandwidth(const topo::DiGraph& g) const {
    constexpr int kTop = 4;
    double smallest[kTop];
    int cnt = 0;
    for (const auto mask : masks_) {
      double v = bw(g, mask);
      for (int i = 0; i < cnt; ++i)
        if (v < smallest[i]) std::swap(v, smallest[i]);
      if (cnt < kTop) smallest[cnt++] = v;
    }
    static constexpr double kW[kTop] = {1.0, 0.2, 0.08, 0.04};
    double s = 0.0;
    for (int i = 0; i < cnt; ++i) s += kW[i] * smallest[i];
    return s;
  }

  // Refresh against the exact sparsest cut; returns the exact bandwidth.
  double refresh(const topo::DiGraph& g) {
    const auto cut = n_ <= 26 ? topo::sparsest_cut_exact(g)
                              : heuristic_cut(g);
    insert(cut.u_mask);
    return cut.bandwidth;
  }

  bool empty() const { return masks_.empty(); }

 private:
  topo::Cut heuristic_cut(const topo::DiGraph& g) const {
    util::Rng rng(0x5EED + masks_.size());
    return topo::sparsest_cut_heuristic(g, rng, 48);
  }

  // Popcount evaluation of a cached cut via the shared word-parallel
  // cross-edge counter in topo/cuts.
  double bw(const topo::DiGraph& g, std::uint64_t mask) const {
    const int usz = std::popcount(mask);
    if (usz == 0 || usz == n_) return std::numeric_limits<double>::infinity();
    const auto [uv, vu] = topo::cross_edge_counts(g, mask);
    return static_cast<double>(std::min(uv, vu)) /
           (static_cast<double>(usz) * (n_ - usz));
  }

  void insert(std::uint64_t mask) {
    if (std::find(masks_.begin(), masks_.end(), mask) != masks_.end()) return;
    // FIFO eviction: a still-binding cut will be re-inserted by the next
    // exact refresh.
    if (static_cast<int>(masks_.size()) >= cap_) masks_.erase(masks_.begin());
    masks_.push_back(mask);
  }

  int n_;
  int cap_;
  std::vector<std::uint64_t> masks_;
};

// Mutable edge list paired with the graph for O(1) random edge selection.
struct EdgePool {
  std::vector<std::pair<int, int>> edges;  // duplex pairs (i<j) in symmetric mode

  void rebuild(const topo::DiGraph& g, bool symmetric) {
    edges.clear();
    for (const auto& [i, j] : g.edges()) {
      if (symmetric) {
        if (i < j) edges.emplace_back(i, j);
      } else {
        edges.emplace_back(i, j);
      }
    }
  }
};

// Scratch reused across restarts: at n = 1024 the distance matrix alone is
// 4 MB, so re-allocating it (plus the BFS bitsets and the flat path-set
// arrays) per restart churns the allocator for nothing.
struct RestartWorkspace {
  topo::DeltaApsp engine;  // maintained distance rows + hop aggregates
  routing::PathCompiler path_compiler;
  routing::PathSet paths;
  EdgePool pool;
};

// Shared, immutable search inputs (candidate link set, analytic bound).
struct SearchContext {
  SynthesisConfig cfg;
  int n = 0;
  std::vector<std::vector<int>> out_cand;  // candidate link set L (C3)
  double bound = 0.0;

  explicit SearchContext(const SynthesisConfig& c) : cfg(c), n(c.layout.n()) {
    out_cand.resize(n);
    for (const auto& [i, j] : topo::valid_links(cfg.layout, cfg.link_class)) {
      if (cfg.symmetric_links && i > j) continue;
      out_cand[i].push_back(j);
    }
    switch (cfg.objective) {
      case Objective::kLatOp:
        bound = average_hops_lower_bound(cfg.layout, cfg.link_class, cfg.radix);
        break;
      case Objective::kSCOp:
        bound = sparsest_cut_upper_bound(cfg.layout, cfg.link_class, cfg.radix);
        break;
      case Objective::kPattern: {
        // Weighted-hops bound: distances in the all-valid-links graph, which
        // every link class connects (each admits all grid-neighbour links).
        topo::DiGraph pot(n);
        for (const auto& [i, j] : topo::valid_links(cfg.layout, cfg.link_class))
          pot.add_edge(i, j);
        assert(topo::strongly_connected(pot));
        bound = topo::weighted_hops(topo::apsp_bfs(pot), cfg.pattern);
        break;
      }
      case Objective::kChannelLoad:
      case Objective::kLatLoad: {
        // Uniform demand puts sum(normalized loads) = n * avg_hops across at
        // most n*radix directed links, so the max normalized load of ANY
        // routing is at least avg_hops_lb / radix.
        const double h =
            average_hops_lower_bound(cfg.layout, cfg.link_class, cfg.radix);
        const double load_lb = h / cfg.radix;
        bound = cfg.objective == Objective::kChannelLoad
                    ? load_lb
                    : h + cfg.load_weight * load_lb;
        break;
      }
    }
  }

  // Primary objective in *reporting* units: avg hops (min), exact cut
  // bandwidth (max), max normalized channel load (min), or the combined
  // hops+load score (min). Secondary: avg hops for SCOp/kChannelLoad
  // tie-breaks.
  bool better(double p, double s, double bp, double bs) const {
    if (cfg.objective == Objective::kSCOp) {
      if (p != bp) return p > bp;
      return s < bs;
    }
    if (cfg.objective == Objective::kChannelLoad) {
      if (p != bp) return p < bp;
      return s < bs;
    }
    return p < bp;
  }
};

// Everything one restart produces; merged by the deterministic reduction.
struct RestartOutcome {
  bool have = false;
  double primary = 0.0, secondary = 0.0;
  topo::DiGraph graph;
  struct TracePt {
    double seconds, primary, secondary;
  };
  std::vector<TracePt> trace;
  long moves = 0, accepted = 0;
  long resweeps = 0;
  double duration_s = 0.0;
};

// One restart: fully self-contained state (RNG, cut cache, incumbent) plus a
// borrowed workspace holding the incrementally maintained distance rows, so
// the search trajectory depends only on (cfg, restart index).
//
// Move protocol: propose_and_apply mutates the graph, sync_engine() replays
// the edit batch into the delta-APSP engine (journaling the overwritten
// rows), search_score() is then a pure read of the maintained aggregates,
// and accept/reject becomes engine.commit()/engine.rollback(). A rejected
// move therefore costs a few row memcpys instead of an n-source BFS sweep.
class RestartRun {
 public:
  RestartRun(const SearchContext& ctx, int restart, RestartWorkspace& ws)
      : ctx_(ctx),
        cfg_(ctx.cfg),
        restart_(restart),
        n_(ctx.n),
        rng_(cfg_.seed * 0x9E3779B9 + restart * 1234567 + 1),
        cuts_(n_, kCutCacheSize),
        ws_(ws),
        hops_score_(cfg_.objective == Objective::kLatOp &&
                    cfg_.min_cut_bandwidth <= 0.0) {}

  RestartOutcome run() {
    obs::WallTimer timer;
    RestartOutcome out;
    obs::Span span("anneal/restart");
    span.arg("restart", restart_);
    span.arg("n", n_);

    topo::DiGraph g =
        cfg_.symmetric_links
            ? topo::build_random_symmetric(cfg_.layout, cfg_.link_class,
                                           cfg_.radix, rng_)
            : topo::build_random(cfg_.layout, cfg_.link_class, cfg_.radix, rng_);
    // The greedy radix fill can strand a node with no out-links on large
    // grids (its candidates' in-degrees all saturated). The search would
    // climb out through the unreachability penalty; a connected start skips
    // that detour. Redraw until strongly connected: two BFS per check, and
    // the extra rng_ draws happen only in the (rare) disconnected case.
    // Every recorded trajectory that starts disconnected includes the
    // redraws, so removing them would change those results.
    for (int redraw = 0; redraw < 32 && !topo::strongly_connected(g); ++redraw)
      g = cfg_.symmetric_links
              ? topo::build_random_symmetric(cfg_.layout, cfg_.link_class,
                                             cfg_.radix, rng_)
              : topo::build_random(cfg_.layout, cfg_.link_class, cfg_.radix,
                                   rng_);
    ws_.pool.rebuild(g, cfg_.symmetric_links);
    ws_.engine.init(n_);
    ws_.engine.rebuild(g);

    const double budget_s = cfg_.time_limit_s / std::max(1, cfg_.restarts);
    const long budget_moves = cfg_.max_moves;
    long moves_done = 0;

    double score = search_score(g);
    long accepts_since_refresh = 0;

    for (;;) {
      double frac;
      if (budget_moves > 0) {
        if (moves_done >= budget_moves) break;
        frac = static_cast<double>(moves_done) / budget_moves;
      } else {
        const double el = timer.seconds();
        if (el >= budget_s) break;
        frac = el / budget_s;
      }
      const double temp = kT0 * std::pow(kT1 / kT0, frac);

      for (int inner = 0; inner < 200; ++inner) {
        if (budget_moves > 0 && moves_done >= budget_moves) break;
        ++out.moves;
        ++moves_done;
        if (!propose_and_apply(g, ws_.pool)) continue;
        double u = -1.0;  // the Metropolis uniform, once drawn
        if (!sync_engine(g, score, temp, &u)) {
          ++early_rejects_;
          ws_.engine.rollback();
          undo(g, ws_.pool);
          continue;
        }
        const double cand = search_score(g);
        const double delta = cand - score;
        if (delta <= 0.0 ||
            (u >= 0.0 ? u : rng_.uniform()) < std::exp(-delta / temp)) {
          ws_.engine.commit();
          ws_.path_compiler.commit(ws_.paths);
          score = cand;
          ++out.accepted;
          ++accepts_since_refresh;
        } else {
          ws_.engine.rollback();
          undo(g, ws_.pool);
          continue;
        }

        // Candidate incumbent: exact objective, behind a cheap reject gate.
        maybe_update_incumbent(g, out, timer, &score);

        const bool uses_cut_cache =
            cfg_.objective == Objective::kSCOp ||
            (cfg_.min_cut_bandwidth > 0.0 && n_ > 12);
        if (uses_cut_cache &&
            accepts_since_refresh >= kCutRefreshAccepts) {
          accepts_since_refresh = 0;
          cuts_.refresh(g);
          score = search_score(g);
        }
      }
    }
    out.duration_s = timer.seconds();
    out.resweeps = static_cast<long>(ws_.engine.resweeps());
    span.arg("moves", out.moves);
    span.arg("accepted", out.accepted);
    span.arg("incumbents", incumbent_updates_);
    span.arg("resweeps", out.resweeps);
    // Per-restart flush: the hot loop above touches no shared state; the
    // registry sees a handful of adds per restart.
    if (obs::metrics_enabled()) {
      obs::counter("anneal.restarts").inc();
      obs::counter("anneal.moves").add(static_cast<std::uint64_t>(out.moves));
      obs::counter("anneal.accepted")
          .add(static_cast<std::uint64_t>(out.accepted));
      obs::counter("anneal.incumbent_updates")
          .add(static_cast<std::uint64_t>(incumbent_updates_));
      obs::counter("anneal.incumbent_fast_rejects")
          .add(static_cast<std::uint64_t>(fast_rejects_));
      obs::counter("anneal.apsp_resweeps")
          .add(static_cast<std::uint64_t>(out.resweeps));
      obs::counter("anneal.early_rejects")
          .add(static_cast<std::uint64_t>(early_rejects_));
    }
    return out;
  }

 private:
  // Replay the move's edit batch into the delta-APSP engine. Removals and
  // additions are detected against the pre-move rows (the union rule in
  // topo/delta_apsp.hpp), so the entry order is immaterial.
  //
  // Early rejection. When the score is the hop total, the move is a pure
  // removal (one edge or a twin pair), the graph is connected and some row
  // is affected, every affected row grows or loses a target, so the move
  // certainly scores worse and the Metropolis test will draw its uniform:
  // draw it here, into *u, at the same point of the RNG stream. After each
  // re-swept row the partial score bound (swept rows exact, each unswept
  // one at least 1 above its old sum) is tested with the same rule; once
  // the bound already fails it, the rest of the sweep is skipped and this
  // returns false (the caller rolls back). A move that survives runs the
  // ordinary test with the same *u, so every decision is the one the full
  // sweep would make.
  bool sync_engine(const topo::DiGraph& g, double score, double temp,
                   double* u) {
    topo::DeltaApsp::EdgeChange ch[4];
    int c = 0;
    if (delta_.removed) {
      ch[c++] = {delta_.rem.first, delta_.rem.second, false};
      if (cfg_.symmetric_links)
        ch[c++] = {delta_.rem.second, delta_.rem.first, false};
    }
    if (delta_.added) {
      ch[c++] = {delta_.add.first, delta_.add.second, true};
      if (cfg_.symmetric_links)
        ch[c++] = {delta_.add.second, delta_.add.first, true};
    }
    auto& e = ws_.engine;
    const bool certain_loss = e.detect(g, ch, c) > 0 && hops_score_ &&
                              !delta_.added && e.unreachable() == 0;
    if (certain_loss) *u = rng_.uniform();
    return e.sweep(g, [&](int unswept) {
      if (!certain_loss) return false;
      const long lost = e.unreachable();
      const double bound =
          lost > 0 ? kDisconnected * lost
                   : std::min(kDisconnected,
                              static_cast<double>(e.hop_sum() + unswept));
      return !(*u < std::exp(-(bound - score) / temp));
    });
  }

  // Hop total of the current graph from the maintained aggregates. Integer
  // row sums are associative, so this is bit-identical to the old per-move
  // n-source re-sweep.
  double hops_total() const {
    const long unreach = ws_.engine.unreachable();
    if (unreach > 0) return kDisconnected * unreach;
    return static_cast<double>(ws_.engine.hop_sum());
  }

  // C7 penalty: shortfall against the minimum sparsest-cut bandwidth,
  // evaluated exactly for tiny n and through the cut cache otherwise.
  double bandwidth_penalty(const topo::DiGraph& g) {
    if (cfg_.min_cut_bandwidth <= 0.0) return 0.0;
    const double bw = n_ <= 12 ? topo::sparsest_cut_exact(g).bandwidth
                               : (cuts_.empty() ? cuts_.refresh(g)
                                                : cuts_.cached_bandwidth(g));
    return std::max(0.0, cfg_.min_cut_bandwidth - bw) * 50000.0;
  }

  // Pure read of the engine aggregates (+ cut cache / MCLB pipeline): the
  // delta-APSP apply already happened in sync_engine, so re-scoring the same
  // graph (e.g. after a cut refresh) is safe and cheap. Also records the
  // hops (and pattern-weighted hops) of the scored graph in last_hops_ /
  // last_weighted_ for the incumbent check below.
  double search_score(const topo::DiGraph& g) {
    switch (cfg_.objective) {
      case Objective::kLatOp:
        last_hops_ = hops_total();
        return last_hops_ + bandwidth_penalty(g);
      case Objective::kPattern: {
        // Primary: pattern-weighted hops. Secondary (small weight): uniform
        // total hops, which keeps the spare port budget working for the
        // traffic the pattern doesn't exercise instead of leaving links
        // unplaced.
        last_hops_ = hops_total();
        if (last_hops_ >= kDisconnected) return last_hops_;
        last_weighted_ = topo::weighted_hops(ws_.engine.rows(), cfg_.pattern);
        return last_weighted_ * static_cast<double>(n_) * (n_ - 1) +
               0.05 * last_hops_ + bandwidth_penalty(g);
      }
      case Objective::kSCOp: {
        last_hops_ = hops_total();
        if (last_hops_ >= kDisconnected) return last_hops_;
        const double avg = last_hops_ / (static_cast<double>(n_) * (n_ - 1));
        // Tiny instances: the exact sparsest cut is cheap enough to evaluate
        // on every move; the cut-cache surrogate is for paper-scale n.
        if (n_ <= 12)
          return -topo::sparsest_cut_exact(g).bandwidth * 2000.0 + avg;
        if (cuts_.empty()) cuts_.refresh(g);
        const double soft = cuts_.soft_bandwidth(g);
        return -soft * 2000.0 + avg;
      }
      case Objective::kChannelLoad:
      case Objective::kLatLoad: {
        // Route-aware scoring: the maintained full distance matrix feeds
        // both the hop term and the shortest-path DAG the MCLB pipeline
        // routes over (no BFS at all on most moves).
        last_hops_ = hops_total();
        if (last_hops_ >= kDisconnected) return last_hops_;
        last_load_ = route_max_load(g);
        const double avg = last_hops_ / (static_cast<double>(n_) * (n_ - 1));
        if (cfg_.objective == Objective::kChannelLoad)
          // Units of "flows on the bottleneck link" (delta of one rerouted
          // flow = 1.0), with average hops as a mild tie-break so equal-load
          // candidates still feel a latency gradient.
          return last_load_ * (n_ - 1) + 0.01 * avg + bandwidth_penalty(g);
        return (avg + cfg_.load_weight * last_load_) *
                   (static_cast<double>(n_) * (n_ - 1)) +
               bandwidth_penalty(g);
      }
    }
    return 0.0;
  }

  // MCLB max normalized channel load of g, routed over the maintained
  // shortest-path matrix. The compiler enumerates straight into the
  // persistent path set, so the enumeration half of the per-move pipeline
  // reuses its arrays instead of reallocating them every move.
  double route_max_load(const topo::DiGraph& g) {
    ws_.path_compiler.enumerate(g, ws_.engine.rows(),
                                kAnnealPathsPerFlow, ws_.paths);
    return routing::mclb_local_search(ws_.paths, {}, kAnnealMclbRounds)
        .max_load;
  }

  // True when the accepted move's already-computed scores prove it cannot
  // beat this restart's incumbent (the fast path the expensive incumbent
  // verification never runs for).
  bool cheap_reject(const topo::DiGraph& g, const RestartOutcome& out,
                    double avg) const {
    switch (cfg_.objective) {
      case Objective::kLatOp:
        return avg >= out.primary;
      case Objective::kPattern:
        return last_weighted_ >= out.primary;
      case Objective::kSCOp: {
        // Only pay for an exact cut when the surrogate looks competitive.
        const double surrogate = cuts_.cached_bandwidth(g);
        return surrogate < out.primary ||
               (surrogate == out.primary && avg >= out.secondary);
      }
      case Objective::kChannelLoad:
        return last_load_ > out.primary ||
               (last_load_ == out.primary && avg >= out.secondary);
      case Objective::kLatLoad:
        return avg + cfg_.load_weight * last_load_ >= out.primary;
    }
    return false;
  }

  void maybe_update_incumbent(const topo::DiGraph& g, RestartOutcome& out,
                              const obs::WallTimer& timer, double* score) {
    // last_hops_ is the maintained hop total of the accepted move: no
    // all-pairs traversal here.
    const double hops = last_hops_;
    if (hops >= kDisconnected) return;
    const double avg = hops / (static_cast<double>(n_) * (n_ - 1));

    // Cheap reject: skip the diameter / exact-cut work whenever the
    // accepted score cannot beat this restart's incumbent.
    if (out.have && cheap_reject(g, out, avg)) {
      ++fast_rejects_;
      return;
    }

    // Connectivity was already established, so the max entry of the
    // maintained matrix is the graph diameter.
    if (cfg_.diameter_bound > 0 &&
        topo::diameter(ws_.engine.rows()) > cfg_.diameter_bound)
      return;
    double verified_bw = -1.0;  // exact cut from the C7 check, if it ran
    if (cfg_.min_cut_bandwidth > 0.0) {
      // The cached bandwidth upper-bounds the exact sparsest cut, so a
      // cached violation already proves C7 infeasibility — no enumeration.
      if (!cuts_.empty() &&
          cuts_.cached_bandwidth(g) + 1e-12 < cfg_.min_cut_bandwidth)
        return;
      // C7 is a hard constraint on incumbents: verify with the exact cut
      // (refresh() also inserts it into the cache, so a violated cut is
      // caught by the cheap cached check from then on).
      const double bw = cuts_.refresh(g);
      verified_bw = bw;
      if (bw + 1e-12 < cfg_.min_cut_bandwidth) {
        // The cache just learned why this candidate is infeasible; re-score
        // the current graph so the search feels the violation.
        *score = search_score(g);
        return;
      }
    }

    double primary, secondary;
    if (cfg_.objective == Objective::kSCOp) {
      // Exact value (also tightens the cache); the C7 check above may have
      // just computed it for this same graph.
      primary = verified_bw >= 0.0 ? verified_bw : cuts_.refresh(g);
      secondary = avg;
    } else if (cfg_.objective == Objective::kPattern) {
      primary = last_weighted_;
      secondary = avg;
    } else if (cfg_.objective == Objective::kChannelLoad) {
      primary = last_load_;
      secondary = avg;
    } else if (cfg_.objective == Objective::kLatLoad) {
      primary = avg + cfg_.load_weight * last_load_;
      secondary = avg;
    } else {
      primary = avg;
      secondary = avg;
    }

    if (!out.have || ctx_.better(primary, secondary, out.primary, out.secondary)) {
      out.have = true;
      out.primary = primary;
      out.secondary = secondary;
      out.graph = g;
      ++incumbent_updates_;
      // Objective-trajectory sample: one counter track per run in the trace
      // viewer (Fig. 5's incumbent curve, live).
      obs::trace_counter("anneal/incumbent", primary);
      if (static_cast<int>(out.trace.size()) < kMaxTracePoints)
        out.trace.push_back({timer.seconds(), primary, secondary});
    }
  }

  // --- Move machinery. A move removes up to one edge and adds up to one
  // edge (duplex pairs in symmetric mode); `undo` restores the previous
  // state exactly.
  struct Delta {
    bool removed = false, added = false;
    std::pair<int, int> rem, add;
  };

  bool degree_ok_add(const topo::DiGraph& g, int i, int j) const {
    if (cfg_.symmetric_links)
      return g.out_degree(i) < cfg_.radix && g.in_degree(i) < cfg_.radix &&
             g.out_degree(j) < cfg_.radix && g.in_degree(j) < cfg_.radix;
    return g.out_degree(i) < cfg_.radix && g.in_degree(j) < cfg_.radix;
  }

  void do_add(topo::DiGraph& g, EdgePool& pool, int i, int j) {
    g.add_edge(i, j);
    if (cfg_.symmetric_links) g.add_edge(j, i);
    pool.edges.emplace_back(i, j);
  }

  void do_remove(topo::DiGraph& g, EdgePool& pool, std::size_t idx) {
    const auto [i, j] = pool.edges[idx];
    g.remove_edge(i, j);
    if (cfg_.symmetric_links) g.remove_edge(j, i);
    pool.edges[idx] = pool.edges.back();
    pool.edges.pop_back();
  }

  bool try_random_add(topo::DiGraph& g, EdgePool& pool) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const int i = static_cast<int>(rng_.uniform_int(0, n_ - 1));
      if (ctx_.out_cand[i].empty()) continue;
      const int j = rng_.pick(ctx_.out_cand[i]);
      if (g.has_edge(i, j) || (cfg_.symmetric_links && g.has_edge(j, i)))
        continue;
      if (!degree_ok_add(g, i, j)) continue;
      do_add(g, pool, i, j);
      delta_.added = true;
      delta_.add = {i, j};
      return true;
    }
    return false;
  }

  bool propose_and_apply(topo::DiGraph& g, EdgePool& pool) {
    delta_ = Delta{};
    const double r = rng_.uniform();
    if (r < 0.15) {
      // Pure add (fills radix slack).
      return try_random_add(g, pool);
    }
    if (pool.edges.empty()) return false;
    const std::size_t idx = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pool.edges.size()) - 1));
    const auto rem = pool.edges[idx];
    do_remove(g, pool, idx);
    delta_.removed = true;
    delta_.rem = rem;
    if (r < 0.25) return true;  // pure remove
    // Rewire: remove + add elsewhere.
    if (try_random_add(g, pool)) return true;
    // Could not re-add: keep as a pure remove (still a valid move).
    return true;
  }

  void undo(topo::DiGraph& g, EdgePool& pool) {
    if (delta_.added) {
      // The added edge is the last pool entry.
      g.remove_edge(delta_.add.first, delta_.add.second);
      if (cfg_.symmetric_links)
        g.remove_edge(delta_.add.second, delta_.add.first);
      pool.edges.pop_back();
    }
    if (delta_.removed) {
      g.add_edge(delta_.rem.first, delta_.rem.second);
      if (cfg_.symmetric_links) g.add_edge(delta_.rem.second, delta_.rem.first);
      pool.edges.push_back(delta_.rem);
    }
  }

  const SearchContext& ctx_;
  const SynthesisConfig& cfg_;
  int restart_;
  int n_;
  util::Rng rng_;
  CutCache cuts_;
  RestartWorkspace& ws_;
  // The search score is exactly hops_total(): kLatOp with no C7 penalty.
  // The early-rejection bound covers integer row sums only, and
  // bandwidth_penalty() may refresh the cut cache while scoring.
  bool hops_score_;
  double last_hops_ = 0.0;
  double last_weighted_ = 0.0;
  double last_load_ = 0.0;
  long incumbent_updates_ = 0;  // accepted incumbents (obs flush per restart)
  long fast_rejects_ = 0;       // cheap-reject gate hits
  long early_rejects_ = 0;      // moves rejected before a full re-sweep
  Delta delta_;
};

}  // namespace

SynthesisResult anneal_synthesize(const SynthesisConfig& cfg) {
  const SearchContext ctx(cfg);
  const int restarts = std::max(1, cfg.restarts);

  obs::Span span("anneal/synthesize");
  span.arg("n", ctx.n);
  span.arg("restarts", restarts);

  std::vector<RestartOutcome> outcomes(restarts);
  RestartWorkspace ws;  // reused across restarts (reserve/clear, no churn)
  for (int r = 0; r < restarts; ++r) outcomes[r] = RestartRun(ctx, r, ws).run();

  // Deterministic best-of reduction: walk restarts in index order with the
  // same strictly-better comparison the per-restart incumbent loop applies.
  SynthesisResult result;
  result.bound = ctx.bound;
  const double per_restart = cfg.time_limit_s / restarts;

  bool have = false;
  double bp = 0.0, bs = 0.0;
  int best_restart = -1;
  for (int r = 0; r < restarts; ++r) {
    const auto& out = outcomes[r];
    result.moves += out.moves;
    result.accepted += out.accepted;
    result.apsp_resweeps += out.resweeps;
    if (out.have &&
        (!have || ctx.better(out.primary, out.secondary, bp, bs))) {
      have = true;
      bp = out.primary;
      bs = out.secondary;
      best_restart = r;
    }
  }

  // Merged monotone trace: keep only the points that improved on every
  // earlier restart's incumbent, exactly as a serial global-incumbent loop
  // would have logged them. Restart r's points are offset as if restarts ran
  // back-to-back: by the nominal time slice in wall-clock mode, and by the
  // sum of actual durations in move-budget mode (where a restart may run
  // past time_limit_s / restarts), keeping the x-axis monotone.
  bool thave = false;
  double tp = 0.0, ts = 0.0;
  double offset = 0.0;
  for (int r = 0; r < restarts; ++r) {
    for (const auto& pt : outcomes[r].trace) {
      if (thave && !ctx.better(pt.primary, pt.secondary, tp, ts)) continue;
      thave = true;
      tp = pt.primary;
      ts = pt.secondary;
      if (static_cast<int>(result.trace.size()) < kMaxTracePoints) {
        ProgressPoint p;
        p.seconds = pt.seconds + offset;
        p.incumbent = pt.primary;
        p.bound = ctx.bound;
        result.trace.push_back(p);
      }
    }
    offset += cfg.max_moves > 0 ? outcomes[r].duration_s : per_restart;
  }

  if (!have || best_restart < 0)
    throw std::runtime_error(
        "anneal_synthesize: no topology satisfying the constraints "
        "(diameter / min-bandwidth) was found within the time budget");

  result.graph = outcomes[best_restart].graph;
  result.objective_value = outcomes[best_restart].primary;
  return result;
}

}  // namespace netsmith::core
