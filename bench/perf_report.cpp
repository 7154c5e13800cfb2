// Performance trajectory harness: times the synthesis-loop hot paths
// (annealer move throughput, word-parallel vs scalar APSP, sparsest-cut
// refresh, simulator cycle throughput) and writes BENCH_perf.json so
// successive PRs can track the numbers.
//
// Usage: perf_report [--smoke] [--out PATH] [--min-apsp-speedup X]
//                    [--min-sim-speedup X] [--min-mclb-speedup X]
//                    [--max-obs-overhead-pct X] [--min-delta-apsp-speedup X]
//   --smoke              short budgets (CI-friendly, ~10 s total); the
//                        n_scaling block covers n = {48, 256} instead of the
//                        full {48, 128, 256, 512, 1024} curve
//   --out PATH           output JSON path (default: BENCH_perf.json in cwd)
//   --min-apsp-speedup X exit non-zero if bitset/scalar APSP speedup < X,
//                        so CI fails loudly on kernel regressions
//   --min-sim-speedup X  exit non-zero if the activity-driven simulator is
//                        not at least X times the reference full scan
//   --min-mclb-speedup X exit non-zero if the flat incremental MCLB engine
//                        is not at least X times the scan-based oracle
//   --max-obs-overhead-pct X exit non-zero if running with metrics + tracing
//                        enabled costs more than X% over the disabled
//                        baseline (sim or MCLB arm)
//   --min-delta-apsp-speedup X exit non-zero if the delta-APSP engine's
//                        per-move throughput at n = 256 is not at least X
//                        times the full n-source re-sweep (annealer-style
//                        rewire moves, arms interleaved)
//
// Speedups are measured as in-process ratios (optimized and reference runs
// interleaved in the same process), so they stay meaningful on a noisy
// 1-core CI runner where absolute throughput numbers drift with load.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/anneal.hpp"
#include "core/plan.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/mclb.hpp"
#include "sim/network.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/delta_apsp.hpp"
#include "topo/metrics.hpp"
#include "util/json.hpp"

using namespace netsmith;

namespace {

// Runs fn repeatedly until budget_s elapsed (at least once); returns
// nanoseconds per call.
template <class Fn>
double time_ns_per_op(double budget_s, Fn&& fn) {
  obs::WallTimer timer;
  long iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.seconds() < budget_s);
  return timer.seconds() * 1e9 / static_cast<double>(iters);
}

// Fastest of repeated runs of a deterministic workload: at least
// kMinSamples runs, and more until the runs add up to kMinSampleSeconds.
// A run of a few ms read far apart across reports of one binary when it got
// only one or two samples.
constexpr int kMinSamples = 5;
constexpr double kMinSampleSeconds = 0.2;

template <class Fn>
double fastest_seconds(Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  double spent = 0.0;
  for (int samples = 0; samples < kMinSamples || spent < kMinSampleSeconds;
       ++samples) {
    obs::WallTimer t;
    fn();
    const double s = t.seconds();
    spent += s;
    best = std::min(best, s);
  }
  return best;
}

// One arm of an interleaved A/B timing: work units done, seconds spent.
struct ArmTime {
  long units = 0;
  double seconds = 0.0;
  double per_sec() const { return static_cast<double>(units) / seconds; }
  double ns_per_unit() const {
    return seconds * 1e9 / static_cast<double>(units);
  }
};

// Alternates one timed call of `a` and one of `b` until budget_s has elapsed
// (each runs at least once). Each call returns the work units it did, and
// rates are ratios of accumulated totals, so machine-load noise cancels out
// of the a/b ratio.
template <class A, class B>
std::pair<ArmTime, ArmTime> interleave(double budget_s, A&& a, B&& b) {
  ArmTime ta, tb;
  obs::WallTimer total;
  do {
    {
      obs::WallTimer w;
      ta.units += a();
      ta.seconds += w.seconds();
    }
    {
      obs::WallTimer w;
      tb.units += b();
      tb.seconds += w.seconds();
    }
  } while (total.seconds() < budget_s);
  return {ta, tb};
}

struct Report {
  bool smoke = false;
  double anneal_moves_per_sec = 0.0;
  double anneal_accept_rate = 0.0;
  double anneal_latload_moves_per_sec = 0.0;
  double apsp48_bitset_ns = 0.0;
  double apsp48_scalar_ns = 0.0;
  double apsp48_speedup = 0.0;
  double cut_exact20_ms = 0.0;
  double cut_heuristic48_ms = 0.0;
  double sim_cycles_per_sec = 0.0;
  double sim_ref_cycles_per_sec = 0.0;
  double sim_speedup = 0.0;
  double mclb_flat_routes_per_sec = 0.0;
  double mclb_scan_routes_per_sec = 0.0;
  double mclb_speedup = 0.0;
  double mclb_compile_ms = 0.0;
  double obs_sim_overhead_pct = 0.0;
  double obs_mclb_overhead_pct = 0.0;
  // Schema 4: delta-APSP per-move engine vs full re-sweep at n = 256.
  double dapsp_delta_ns = 0.0;
  double dapsp_full_ns = 0.0;
  double dapsp_speedup = 0.0;
  double dapsp_rows_per_move = 0.0;
  // Schema 4: synthesis + simulation throughput vs n.
  struct ScalePoint {
    int n = 0;
    double synth_moves_per_sec = 0.0;
    double apsp_rows_per_move = 0.0;  // delta-engine re-sweeps per move
    double sim_cycles_per_sec = 0.0;
  };
  std::vector<ScalePoint> scaling;
};

// A number rounded to `decimals` places: each field keeps the precision
// BENCH_perf.json has always recorded.
util::JsonValue fixed(double v, int decimals) {
  const double scale = std::pow(10.0, decimals);
  return util::JsonValue::number(std::round(v * scale) / scale);
}

util::JsonValue object(
    std::initializer_list<std::pair<const char*, util::JsonValue>> members) {
  auto o = util::JsonValue::object();
  for (const auto& [key, value] : members) o.set(key, value);
  return o;
}

void write_json(const Report& r, const std::string& path) {
  using util::JsonValue;
  auto scaling = JsonValue::array();
  for (const auto& p : r.scaling)
    scaling.push_back(object({
        {"n", JsonValue::integer(p.n)},
        {"synth_moves_per_sec", fixed(p.synth_moves_per_sec, 1)},
        {"apsp_rows_per_move", fixed(p.apsp_rows_per_move, 2)},
        {"sim_cycles_per_sec", fixed(p.sim_cycles_per_sec, 1)},
    }));
  // v4: adds "delta_apsp" (incremental-APSP move engine vs full re-sweep)
  // and "n_scaling" (synthesis + sim throughput vs n); every pre-v4 field
  // keeps its key, position and precision so the perf trajectory across PRs
  // stays diffable.
  const std::string text =
      object({
          {"schema", JsonValue::integer(4)},
          {"smoke", JsonValue::boolean(r.smoke)},
          {"anneal", object({
                         {"moves_per_sec", fixed(r.anneal_moves_per_sec, 1)},
                         {"accept_rate", fixed(r.anneal_accept_rate, 4)},
                         {"latload_moves_per_sec",
                          fixed(r.anneal_latload_moves_per_sec, 1)},
                     })},
          {"apsp_n48", object({
                           {"bitset_ns_per_op", fixed(r.apsp48_bitset_ns, 1)},
                           {"scalar_ns_per_op", fixed(r.apsp48_scalar_ns, 1)},
                           {"speedup", fixed(r.apsp48_speedup, 2)},
                       })},
          {"cut", object({
                      {"exact_n20_ms", fixed(r.cut_exact20_ms, 3)},
                      {"heuristic_n48_ms", fixed(r.cut_heuristic48_ms, 3)},
                  })},
          {"sim", object({
                      {"cycles_per_sec", fixed(r.sim_cycles_per_sec, 1)},
                      {"reference_cycles_per_sec",
                       fixed(r.sim_ref_cycles_per_sec, 1)},
                      {"speedup", fixed(r.sim_speedup, 2)},
                  })},
          {"mclb", object({
                       {"flat_routes_per_sec",
                        fixed(r.mclb_flat_routes_per_sec, 1)},
                       {"scan_routes_per_sec",
                        fixed(r.mclb_scan_routes_per_sec, 1)},
                       {"speedup", fixed(r.mclb_speedup, 2)},
                       {"compile_ms", fixed(r.mclb_compile_ms, 4)},
                   })},
          {"obs", object({
                      {"sim_overhead_pct", fixed(r.obs_sim_overhead_pct, 2)},
                      {"mclb_overhead_pct", fixed(r.obs_mclb_overhead_pct, 2)},
                  })},
          {"delta_apsp", object({
                             {"n", JsonValue::integer(256)},
                             {"delta_ns_per_move", fixed(r.dapsp_delta_ns, 1)},
                             {"full_ns_per_move", fixed(r.dapsp_full_ns, 1)},
                             {"speedup", fixed(r.dapsp_speedup, 2)},
                             {"rows_per_move", fixed(r.dapsp_rows_per_move, 2)},
                         })},
          {"n_scaling", std::move(scaling)},
      }).dump();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perf_report: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Report rep;
  std::string out = "BENCH_perf.json";
  double min_apsp_speedup = 0.0;
  double min_sim_speedup = 0.0;
  double min_mclb_speedup = 0.0;
  double max_obs_overhead_pct = 0.0;
  double min_dapsp_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) rep.smoke = true;
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out = argv[++i];
    else if (!std::strcmp(argv[i], "--min-apsp-speedup") && i + 1 < argc)
      min_apsp_speedup = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--min-sim-speedup") && i + 1 < argc)
      min_sim_speedup = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--min-mclb-speedup") && i + 1 < argc)
      min_mclb_speedup = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--max-obs-overhead-pct") && i + 1 < argc)
      max_obs_overhead_pct = std::atof(argv[++i]);
    else if (!std::strcmp(argv[i], "--min-delta-apsp-speedup") && i + 1 < argc)
      min_dapsp_speedup = std::atof(argv[++i]);
    else {
      std::fprintf(stderr,
                   "usage: perf_report [--smoke] [--out PATH] "
                   "[--min-apsp-speedup X] [--min-sim-speedup X] "
                   "[--min-mclb-speedup X] [--max-obs-overhead-pct X] "
                   "[--min-delta-apsp-speedup X]\n");
      return 2;
    }
  }
  const double kernel_budget = rep.smoke ? 0.2 : 1.0;

  // --- APSP at n = 48 (paper scale): bitset vs scalar, same graph. --------
  {
    const topo::Layout lay{6, 8, 2.0};
    util::Rng rng(1);
    const auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
    rep.apsp48_bitset_ns = time_ns_per_op(kernel_budget, [&] {
      volatile auto d = topo::apsp_bfs(g).rows();
      (void)d;
    });
    rep.apsp48_scalar_ns = time_ns_per_op(kernel_budget, [&] {
      volatile auto d = topo::apsp_bfs_scalar(g).rows();
      (void)d;
    });
    rep.apsp48_speedup = rep.apsp48_scalar_ns / rep.apsp48_bitset_ns;
  }

  // --- Cut refresh: exact enumeration at n = 20, heuristic at n = 48. -----
  {
    const auto g20 = topo::build_folded_torus(topo::Layout::noi_4x5());
    rep.cut_exact20_ms = time_ns_per_op(kernel_budget, [&] {
      volatile auto bw = topo::sparsest_cut_exact(g20).bandwidth;
      (void)bw;
    }) / 1e6;
    const topo::Layout lay{6, 8, 2.0};
    util::Rng rng(2);
    const auto g48 = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
    rep.cut_heuristic48_ms = time_ns_per_op(kernel_budget, [&] {
      util::Rng r(0x5EED);
      volatile auto bw = topo::sparsest_cut_heuristic(g48, r, 8).bandwidth;
      (void)bw;
    }) / 1e6;
  }

  // --- MCLB routing: flat incremental engine vs scan-based oracle. --------
  // Same path set (folded torus at n = 20, full enumeration), runs
  // interleaved so machine-load noise cancels out of the ratio.
  {
    const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
    rep.mclb_compile_ms = time_ns_per_op(kernel_budget * 0.25, [&] {
      volatile auto e = routing::enumerate_shortest_paths(g).num_edges;
      (void)e;
    }) / 1e6;
    const auto ps = routing::enumerate_shortest_paths(g);
    const auto [flat, scan] = interleave(
        kernel_budget * 2.0,
        [&] {
          volatile auto m = routing::mclb_local_search(ps).max_flows_on_link;
          (void)m;
          return 1L;
        },
        [&] {
          volatile auto m =
              routing::mclb_local_search_scan(ps).max_flows_on_link;
          (void)m;
          return 1L;
        });
    rep.mclb_flat_routes_per_sec = flat.per_sec();
    rep.mclb_scan_routes_per_sec = scan.per_sec();
    rep.mclb_speedup =
        rep.mclb_flat_routes_per_sec / rep.mclb_scan_routes_per_sec;
  }

  // --- Delta-APSP move engine vs full re-sweep at n = 256. ----------------
  // Two arms replay the annealer's real hot loop — its move distribution,
  // radix bound, kLatOp score, and Metropolis acceptance with the default
  // t0/t1 schedule — on identical graph/RNG streams, interleaved so
  // machine-load noise cancels out of the ratio. Replaying the acceptance
  // rule matters as much as the move mix: accepted moves bias the graph
  // toward low-hop, redundancy-rich states where few rows change per edit.
  // The full arm is exactly what the pre-delta HopEvaluator paid per scored
  // move: an n-source word-parallel sum_from sweep.
  {
    const int n = 256;
    const topo::Layout lay{16, 16, 2.0};

    struct RewireArm {
      topo::DiGraph g{0};
      std::vector<std::pair<int, int>> edges;
      const std::vector<std::vector<int>>* cand = nullptr;  // legal links
      util::Rng rng{0xB1D5};
      topo::DeltaApsp::EdgeChange ch[2];
      int nch = 0;

      // One move with the annealer's exact distribution: 15% pure add,
      // 10% pure remove, 75% rewire (remove + add elsewhere), where adds
      // come from the layout/link-class candidate set under the radix-4
      // degree bound. This matters for the measurement: arbitrary
      // long-range or degree-unbounded adds shortcut far more rows than
      // any move the synthesis hot loop can actually make.
      bool try_add(int radix) {
        const int n = g.num_nodes();
        for (int attempt = 0; attempt < 16; ++attempt) {
          const int u = static_cast<int>(rng.uniform_int(0, n - 1));
          if ((*cand)[u].empty()) continue;
          const int v = rng.pick((*cand)[u]);
          if (g.has_edge(u, v)) continue;
          if (g.out_degree(u) >= radix || g.in_degree(v) >= radix) continue;
          g.add_edge(u, v);
          edges.emplace_back(u, v);
          ch[nch++] = {u, v, true};
          return true;
        }
        return false;
      }

      bool mutate() {
        nch = 0;
        const double r = rng.uniform();
        if (r < 0.15) return try_add(4);  // pure add (fills radix slack)
        if (edges.empty()) return false;
        const auto idx = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(edges.size()) - 1));
        const auto [u, v] = edges[idx];
        g.remove_edge(u, v);
        edges[idx] = edges.back();
        edges.pop_back();
        ch[nch++] = {u, v, false};
        if (r < 0.25) return true;  // pure remove
        try_add(4);                 // rewire (a failed re-add stays a remove)
        return true;
      }
      void revert() {
        for (int i = nch; i-- > 0;) {
          if (ch[i].added) {
            g.remove_edge(ch[i].u, ch[i].v);
            edges.pop_back();
          } else {
            g.add_edge(ch[i].u, ch[i].v);
            edges.emplace_back(ch[i].u, ch[i].v);
          }
        }
      }
    };

    util::Rng grng(7);
    std::vector<std::vector<int>> cand(n);
    for (const auto& [i, j] : topo::valid_links(lay, topo::LinkClass::kMedium))
      cand[i].push_back(j);
    RewireArm delta_arm, full_arm;
    delta_arm.g = topo::build_random(lay, topo::LinkClass::kMedium, 4, grng);
    delta_arm.edges = delta_arm.g.edges();
    delta_arm.cand = &cand;
    full_arm.g = delta_arm.g;
    full_arm.edges = delta_arm.edges;
    full_arm.cand = &cand;

    topo::DeltaApsp engine(n);
    engine.rebuild(delta_arm.g);
    topo::BitBfs bfs(n);

    // kLatOp score, exactly as the annealer's search_score computes it: the
    // raw total hop sum (disconnection scored as a huge penalty). Both arms
    // compute it bit-exactly (the engine's hop_sum is proven identical to
    // the full sweep), so their accept decisions — and hence graphs and RNG
    // streams — stay in lockstep.
    const auto score_of = [](long long hops, long miss) {
      return miss > 0 ? 1e15 : static_cast<double>(hops);
    };
    double dscore = score_of(engine.hop_sum(), engine.unreachable());
    // Annealer default schedule (t0 = 8, t1 = 0.02) over a fixed horizon;
    // past it the temperature floors at t1, the annealer's steady state.
    const double t0 = 8.0, t1 = 0.02, horizon = 12000.0;
    const auto temp_at = [t0, t1, horizon](long move) {
      const double frac = std::min(1.0, static_cast<double>(move) / horizon);
      return t0 * std::pow(t1 / t0, frac);
    };

    // Untimed burn-in: run the cooling schedule to its floor so the timed
    // comparison happens on the low-temperature steady state, which is where
    // a move-budgeted annealer run spends nearly all of its moves.
    for (long m = 0; m < static_cast<long>(horizon); ++m) {
      if (!delta_arm.mutate()) continue;
      engine.apply(delta_arm.g, delta_arm.ch, delta_arm.nch);
      const double cand = score_of(engine.hop_sum(), engine.unreachable());
      const double d = cand - dscore;
      if (d <= 0.0 || delta_arm.rng.uniform() < std::exp(-d / temp_at(m))) {
        engine.commit();
        dscore = cand;
      } else {
        engine.rollback();
        delta_arm.revert();
      }
    }
    full_arm.g = delta_arm.g;
    full_arm.edges = delta_arm.edges;
    full_arm.rng = delta_arm.rng;  // identical streams from here on
    double fscore = dscore;
    const std::int64_t burnin_resweeps = engine.resweeps();

    // Each timed call is a batch of 16 move attempts; its units are the
    // moves that mutated the graph.
    const int batch = 16;
    const auto [delta, full] = interleave(
        kernel_budget * 2.0,
        [&] {
          long moves = 0;
          for (int b = 0; b < batch; ++b) {
            if (!delta_arm.mutate()) continue;
            engine.apply(delta_arm.g, delta_arm.ch, delta_arm.nch);
            const double cand =
                score_of(engine.hop_sum(), engine.unreachable());
            const double d = cand - dscore;
            if (d <= 0.0 || delta_arm.rng.uniform() < std::exp(-d / t1)) {
              engine.commit();
              dscore = cand;
            } else {
              engine.rollback();
              delta_arm.revert();
            }
            ++moves;
          }
          return moves;
        },
        [&] {
          long moves = 0;
          for (int b = 0; b < batch; ++b) {
            if (!full_arm.mutate()) continue;
            long long hops = 0;
            int miss = 0;
            for (int s = 0; s < n; ++s)
              hops += bfs.sum_from(full_arm.g, s, &miss);
            const double cand = score_of(hops, miss);
            const double d = cand - fscore;
            if (d <= 0.0 || full_arm.rng.uniform() < std::exp(-d / t1)) {
              fscore = cand;
            } else {
              full_arm.revert();
            }
            ++moves;
          }
          return moves;
        });
    rep.dapsp_delta_ns = delta.ns_per_unit();
    rep.dapsp_full_ns = full.ns_per_unit();
    rep.dapsp_speedup = rep.dapsp_full_ns / rep.dapsp_delta_ns;
    rep.dapsp_rows_per_move =
        static_cast<double>(engine.resweeps() - burnin_resweeps) /
        static_cast<double>(delta.units);
  }

  // --- Synthesis + simulation throughput vs n (the scaling curve). --------
  // Move-budgeted kLatOp synthesis and a bounded coherence-traffic
  // simulation of the synthesized fabric.
  {
    struct Pt {
      int n, rows, cols;
      long moves;
    };
    const Pt pts[] = {{48, 8, 6, 4000},
                      {128, 16, 8, 3000},
                      {256, 16, 16, 3000},
                      {512, 32, 16, 2000},
                      {1024, 32, 32, 1500}};
    for (const auto& pt : pts) {
      if (rep.smoke && pt.n != 48 && pt.n != 256) continue;
      Report::ScalePoint sp;
      sp.n = pt.n;
      core::SynthesisConfig cfg;
      cfg.layout = topo::Layout{pt.rows, pt.cols, 2.0};
      cfg.link_class = topo::LinkClass::kMedium;
      cfg.objective = core::Objective::kLatOp;
      cfg.time_limit_s = 600.0;  // the move budget terminates first
      cfg.restarts = 1;
      cfg.seed = 9;
      cfg.max_moves = rep.smoke ? std::min(pt.moves, 1500L) : pt.moves;
      // The synthesis is move-budgeted, so every sample returns this result.
      core::SynthesisResult r;
      const double synth_s =
          fastest_seconds([&] { r = core::anneal_synthesize(cfg); });
      sp.synth_moves_per_sec = static_cast<double>(r.moves) / synth_s;
      sp.apsp_rows_per_move =
          r.moves > 0
              ? static_cast<double>(r.apsp_resweeps) / static_cast<double>(r.moves)
              : 0.0;

      // The longer routes at n >= 512 need a deeper VC stack for an acyclic
      // layering (same bound fig_scale uses).
      const auto plan = core::plan_network(
          r.graph, cfg.layout, core::RoutingPolicy::kMclb,
          /*num_vcs=*/pt.n >= 512 ? 10 : 6, 7, /*max_paths_per_flow=*/4);
      sim::TrafficConfig t;
      t.kind = sim::TrafficKind::kCoherence;
      t.injection_rate = 0.02;
      sim::SimConfig scfg;
      scfg.warmup = 200;
      scfg.measure = rep.smoke ? 600 : 1500;
      scfg.drain = 1000;
      // Minimum time of three runs of the same (deterministic) simulation:
      // a single run read up to 12% apart across back-to-back reports.
      double sim_s = std::numeric_limits<double>::infinity();
      long cycles = 0;
      for (int run = 0; run < 3; ++run) {
        obs::WallTimer sim_t;
        cycles = sim::simulate(plan, t, scfg).cycles_run;
        sim_s = std::min(sim_s, sim_t.seconds());
      }
      sp.sim_cycles_per_sec = static_cast<double>(cycles) / sim_s;
      rep.scaling.push_back(sp);
      std::printf("  n_scaling n=%-5d synth %.0f moves/s (%.1f rows/move) | "
                  "sim %.2e cyc/s\n",
                  sp.n, sp.synth_moves_per_sec, sp.apsp_rows_per_move,
                  sp.sim_cycles_per_sec);
    }
  }

  // --- Annealer move throughput (LatOp on the 4x5 NoI, one thread). -------
  {
    core::SynthesisConfig cfg;
    cfg.layout = topo::Layout::noi_4x5();
    cfg.link_class = topo::LinkClass::kMedium;
    cfg.objective = core::Objective::kLatOp;
    cfg.time_limit_s = rep.smoke ? 0.5 : 4.0;
    cfg.restarts = 2;
    cfg.seed = 6;
    obs::WallTimer timer;
    const auto r = core::anneal_synthesize(cfg);
    const double secs = timer.seconds();
    rep.anneal_moves_per_sec = static_cast<double>(r.moves) / secs;
    rep.anneal_accept_rate =
        r.moves > 0 ? static_cast<double>(r.accepted) / r.moves : 0.0;
  }

  // --- Route-aware move throughput (kLatLoad, the synth48 instance). ------
  // Every scored move enumerates the shortest-path set and runs the MCLB
  // local search on it. 300 moves take tens of ms, so the fastest of
  // repeated runs of the same (move-budgeted, deterministic) synthesis is
  // kept, as in n_scaling.
  {
    core::SynthesisConfig cfg;
    cfg.layout = topo::Layout{8, 6, 2.0};
    cfg.link_class = topo::LinkClass::kMedium;
    cfg.radix = 4;
    cfg.objective = core::Objective::kLatLoad;
    cfg.time_limit_s = 600.0;  // the move budget terminates first
    cfg.restarts = 1;
    cfg.seed = 2;
    cfg.max_moves = 300;
    long moves = 0;
    const double best_s =
        fastest_seconds([&] { moves = core::anneal_synthesize(cfg).moves; });
    rep.anneal_latload_moves_per_sec = static_cast<double>(moves) / best_s;
  }

  // --- Simulator cycle throughput: activity-driven vs reference scan. -----
  // Low-rate point (the regime that dominates every injection sweep's
  // wall-clock), folded torus, MCLB, coherence. Runs of the two modes are
  // interleaved so machine-load noise cancels out of the ratio.
  {
    const auto lay = topo::Layout::noi_4x5();
    const auto plan = core::plan_network(topo::build_folded_torus(lay), lay,
                                         core::RoutingPolicy::kMclb, 6);
    sim::TrafficConfig t;
    t.kind = sim::TrafficKind::kCoherence;
    t.injection_rate = 0.02;
    sim::SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 2000;
    cfg.drain = 2000;
    sim::SimConfig ref_cfg = cfg;
    ref_cfg.reference_mode = true;
    const auto [opt, ref] = interleave(
        rep.smoke ? 1.0 : 4.0,
        [&] { return sim::simulate(plan, t, cfg).cycles_run; },
        [&] { return sim::simulate(plan, t, ref_cfg).cycles_run; });
    rep.sim_cycles_per_sec = opt.per_sec();
    rep.sim_ref_cycles_per_sec = ref.per_sec();
    rep.sim_speedup = rep.sim_cycles_per_sec / rep.sim_ref_cycles_per_sec;
  }

  // --- Observability overhead: metrics + tracing on vs off. ---------------
  // Same workloads as the speedup blocks (optimized sim run, flat MCLB
  // search), enabled/disabled arms interleaved and gated on the ratio of
  // accumulated totals, so machine-load noise largely cancels. This is the
  // contract check behind CI's --max-obs-overhead-pct: instrumentation must
  // stay in the noise even when it is switched on.
  {
    const auto lay = topo::Layout::noi_4x5();
    const auto plan = core::plan_network(topo::build_folded_torus(lay), lay,
                                         core::RoutingPolicy::kMclb, 6);
    sim::TrafficConfig t;
    t.kind = sim::TrafficKind::kCoherence;
    t.injection_rate = 0.02;
    sim::SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 2000;
    cfg.drain = 2000;
    const auto ps =
        routing::enumerate_shortest_paths(topo::build_folded_torus(lay));

    const auto set_obs = [](bool on) {
      obs::set_metrics_enabled(on);
      obs::set_trace_enabled(on);
    };
    // Each workload gets its own loop so both arms accumulate comparable
    // sample mass (a sim run is ~50x one MCLB search; sharing one loop
    // leaves the MCLB ratio noise-dominated).
    const double arm_budget = rep.smoke ? 0.6 : 2.0;
    // Each pass does identical deterministic work, so the per-arm *minimum*
    // is the noise-free cost estimate — scheduler preemptions and co-tenant
    // spikes only ever inflate a sample, never deflate it. On/off order
    // alternates per pass so monotone drift biases neither arm.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double sim_on_s = kInf, sim_off_s = kInf;
    {
      obs::WallTimer total;
      for (long pass = 0; total.seconds() < arm_budget; ++pass) {
        for (const bool on : {pass % 2 == 0, pass % 2 != 0}) {
          set_obs(on);
          sim::SimConfig c = cfg;
          obs::WallTimer w;
          volatile long cyc = sim::simulate(plan, t, c).cycles_run;
          (void)cyc;
          auto& best = on ? sim_on_s : sim_off_s;
          best = std::min(best, w.seconds());
        }
        // Keep the enabled arm at steady state: drop accumulated events and
        // counts outside the timed regions.
        obs::reset_trace();
        obs::reset_metrics();
      }
    }
    double mclb_on_s = kInf, mclb_off_s = kInf;
    {
      obs::WallTimer total;
      for (long pass = 0; total.seconds() < arm_budget; ++pass) {
        for (const bool on : {pass % 2 == 0, pass % 2 != 0}) {
          set_obs(on);
          obs::WallTimer w;
          for (int k = 0; k < 20; ++k) {
            volatile auto m =
                routing::mclb_local_search(ps).max_flows_on_link;
            (void)m;
          }
          auto& best = on ? mclb_on_s : mclb_off_s;
          best = std::min(best, w.seconds());
        }
        obs::reset_trace();
        obs::reset_metrics();
      }
    }
    set_obs(false);
    rep.obs_sim_overhead_pct = (sim_on_s / sim_off_s - 1.0) * 100.0;
    rep.obs_mclb_overhead_pct = (mclb_on_s / mclb_off_s - 1.0) * 100.0;
  }

  write_json(rep, out);
  std::printf("perf_report%s: anneal %.0f moves/s (latload %.0f) | apsp48 %.0f ns (scalar "
              "%.0f ns, %.2fx) | dapsp256 %.0f ns/move (full %.0f ns, %.2fx, "
              "%.1f rows/move) | cut20 %.2f ms | mclb %.0f routes/s (scan "
              "%.0f, %.2fx) | sim %.2e cyc/s (ref %.2e, %.2fx) | obs "
              "+%.1f%%/+%.1f%% -> %s\n",
              rep.smoke ? " [smoke]" : "", rep.anneal_moves_per_sec,
              rep.anneal_latload_moves_per_sec,
              rep.apsp48_bitset_ns, rep.apsp48_scalar_ns, rep.apsp48_speedup,
              rep.dapsp_delta_ns, rep.dapsp_full_ns, rep.dapsp_speedup,
              rep.dapsp_rows_per_move,
              rep.cut_exact20_ms, rep.mclb_flat_routes_per_sec,
              rep.mclb_scan_routes_per_sec, rep.mclb_speedup,
              rep.sim_cycles_per_sec, rep.sim_ref_cycles_per_sec,
              rep.sim_speedup, rep.obs_sim_overhead_pct,
              rep.obs_mclb_overhead_pct, out.c_str());

  if (min_apsp_speedup > 0.0 && rep.apsp48_speedup < min_apsp_speedup) {
    std::fprintf(stderr,
                 "perf_report: APSP bitset speedup %.2fx below required %.2fx\n",
                 rep.apsp48_speedup, min_apsp_speedup);
    return 1;
  }
  if (min_sim_speedup > 0.0 && rep.sim_speedup < min_sim_speedup) {
    std::fprintf(stderr,
                 "perf_report: simulator speedup %.2fx below required %.2fx\n",
                 rep.sim_speedup, min_sim_speedup);
    return 1;
  }
  if (min_mclb_speedup > 0.0 && rep.mclb_speedup < min_mclb_speedup) {
    std::fprintf(stderr,
                 "perf_report: MCLB flat-engine speedup %.2fx below required "
                 "%.2fx\n",
                 rep.mclb_speedup, min_mclb_speedup);
    return 1;
  }
  if (min_dapsp_speedup > 0.0 && rep.dapsp_speedup < min_dapsp_speedup) {
    std::fprintf(stderr,
                 "perf_report: delta-APSP per-move speedup %.2fx at n=256 "
                 "below required %.2fx\n",
                 rep.dapsp_speedup, min_dapsp_speedup);
    return 1;
  }
  if (max_obs_overhead_pct > 0.0 &&
      (rep.obs_sim_overhead_pct > max_obs_overhead_pct ||
       rep.obs_mclb_overhead_pct > max_obs_overhead_pct)) {
    std::fprintf(stderr,
                 "perf_report: observability overhead (sim %.2f%%, mclb "
                 "%.2f%%) exceeds allowed %.2f%%\n",
                 rep.obs_sim_overhead_pct, rep.obs_mclb_overhead_pct,
                 max_obs_overhead_pct);
    return 1;
  }
  return 0;
}
