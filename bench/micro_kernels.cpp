// Google-benchmark microbenchmarks for the hot kernels: APSP, sparsest-cut
// enumeration, simplex pivoting, MCLB local search, annealer move
// evaluation, and simulator cycle throughput.

#include <benchmark/benchmark.h>

#include "core/anneal.hpp"
#include "core/plan.hpp"
#include "lp/simplex.hpp"
#include "routing/mclb.hpp"
#include "sim/network.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/delta_apsp.hpp"
#include "topo/metrics.hpp"

using namespace netsmith;

namespace {

// Word-parallel (bitset frontier) APSP vs. the scalar queue-based kernel,
// head-to-head on the same graphs. {6, 8} is the n = 48 paper scale.
void BM_ApspBfs(benchmark::State& state) {
  const auto lay = topo::Layout{static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(1)), 2.0};
  util::Rng rng(1);
  const auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::apsp_bfs(g));
  }
  state.SetItemsProcessed(state.iterations() * lay.n());
}
BENCHMARK(BM_ApspBfs)->Args({4, 5})->Args({6, 5})->Args({6, 8})->Args({8, 6});

void BM_ApspBfsScalar(benchmark::State& state) {
  const auto lay = topo::Layout{static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(1)), 2.0};
  util::Rng rng(1);
  const auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::apsp_bfs_scalar(g));
  }
  state.SetItemsProcessed(state.iterations() * lay.n());
}
BENCHMARK(BM_ApspBfsScalar)->Args({4, 5})->Args({6, 5})->Args({6, 8})->Args({8, 6});

void BM_SparsestCutExact(benchmark::State& state) {
  const auto lay = topo::Layout{4, static_cast<int>(state.range(0)), 2.0};
  util::Rng rng(2);
  const auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::sparsest_cut_exact(g));
  }
}
BENCHMARK(BM_SparsestCutExact)->Arg(4)->Arg(5)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_BisectionExact20(benchmark::State& state) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::bisection_bandwidth(g));
  }
}
BENCHMARK(BM_BisectionExact20)->Unit(benchmark::kMillisecond);

void BM_SimplexTransport(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    lp::Model model;
    util::Rng rng(3);
    std::vector<std::vector<int>> v(m, std::vector<int>(m));
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < m; ++j)
        v[i][j] = model.add_continuous(0, lp::kInf, 1.0 + rng.uniform() * 9);
    for (int i = 0; i < m; ++i) {
      std::vector<lp::Term> row;
      for (int j = 0; j < m; ++j) row.push_back({v[i][j], 1.0});
      model.add_constraint(std::move(row), lp::Rel::kLe, 10.0);
    }
    for (int j = 0; j < m; ++j) {
      std::vector<lp::Term> col;
      for (int i = 0; i < m; ++i) col.push_back({v[i][j], 1.0});
      model.add_constraint(std::move(col), lp::Rel::kGe, 5.0);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(lp::solve_lp(model));
  }
}
BENCHMARK(BM_SimplexTransport)->Arg(8)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_MclbLocalSearch20(benchmark::State& state) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto paths = routing::enumerate_shortest_paths(g);
  const auto cps = routing::compile_paths(paths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::mclb_local_search(cps));
  }
}
BENCHMARK(BM_MclbLocalSearch20)->Unit(benchmark::kMillisecond);

void BM_MclbLocalSearchScan20(benchmark::State& state) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto paths = routing::enumerate_shortest_paths(g);
  const auto cps = routing::compile_paths(paths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::mclb_local_search_scan(cps));
  }
}
BENCHMARK(BM_MclbLocalSearchScan20)->Unit(benchmark::kMillisecond);

void BM_CompilePaths20(benchmark::State& state) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto paths = routing::enumerate_shortest_paths(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::compile_paths(paths));
  }
}
BENCHMARK(BM_CompilePaths20)->Unit(benchmark::kMillisecond);

// Full channel-load move evaluation as the annealer pays it: capped path
// enumeration from a ready APSP, compile, flat MCLB.
void BM_ChannelLoadMoveEval(benchmark::State& state) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto dist = topo::apsp_bfs(g);
  for (auto _ : state) {
    const auto ps = routing::enumerate_shortest_paths_from_dist(g, dist, 8);
    const auto cps = routing::compile_paths(ps);
    benchmark::DoNotOptimize(routing::mclb_local_search(cps, {}, 8));
  }
}
BENCHMARK(BM_ChannelLoadMoveEval)->Unit(benchmark::kMillisecond);

void BM_PathEnumeration(benchmark::State& state) {
  const auto lay = topo::Layout{static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(1)), 2.0};
  util::Rng rng(4);
  const auto g = topo::build_random(lay, topo::LinkClass::kLarge, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::enumerate_shortest_paths(g, 32));
  }
}
BENCHMARK(BM_PathEnumeration)->Args({4, 5})->Args({8, 6})->Unit(benchmark::kMillisecond);

void BM_SimulatorCycles(benchmark::State& state) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = core::plan_network(topo::build_folded_torus(lay), lay,
                                       core::RoutingPolicy::kMclb, 6);
  sim::TrafficConfig t;
  t.kind = sim::TrafficKind::kCoherence;
  t.injection_rate = 0.05;
  sim::SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 2000;
  cfg.drain = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(plan, t, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 4500);  // cycles per run
}
BENCHMARK(BM_SimulatorCycles)->Unit(benchmark::kMillisecond);

// One delta-APSP rewire move (remove + re-add, then rollback so successive
// iterations see the same graph): affected-row detection, journaled
// re-sweeps, and the rollback memcpys — the annealer's per-move APSP cost.
void BM_DeltaApspMove(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(state.range(1));
  const auto lay = topo::Layout{rows, cols, 2.0};
  util::Rng rng(11);
  auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  topo::DeltaApsp engine(g.num_nodes());
  engine.rebuild(g);
  const auto edges = g.edges();
  std::size_t which = 0;
  for (auto _ : state) {
    const auto [u, v] = edges[which++ % edges.size()];
    topo::DeltaApsp::EdgeChange ch[2] = {{u, v, false}, {v, u, true}};
    const bool rewire = !g.has_edge(v, u);  // else a pure remove
    g.remove_edge(u, v);
    if (rewire) g.add_edge(v, u);
    benchmark::DoNotOptimize(engine.apply(g, ch, rewire ? 2 : 1));
    engine.rollback();
    if (rewire) g.remove_edge(v, u);
    g.add_edge(u, v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaApspMove)->Args({8, 6})->Args({16, 16})->Args({32, 32});

// Landmark objective estimate: maintained hop_sum over k sampled rows,
// scaled by n/k — the annealer's large-n move score.
void BM_LandmarkEstimate(benchmark::State& state) {
  const auto lay = topo::Layout{16, 16, 2.0};
  const int n = lay.n();
  const int k = static_cast<int>(state.range(0));
  util::Rng rng(12);
  auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  std::vector<int> sources;
  for (int s = 0; s < k; ++s) sources.push_back(s * (n / k));
  topo::DeltaApsp engine(n, sources);
  engine.rebuild(g);
  const auto edges = g.edges();
  std::size_t which = 0;
  const double scale = static_cast<double>(n) / k;
  for (auto _ : state) {
    const auto [u, v] = edges[which++ % edges.size()];
    g.remove_edge(u, v);
    topo::DeltaApsp::EdgeChange ch[1] = {{u, v, false}};
    engine.apply(g, ch, 1);
    benchmark::DoNotOptimize(static_cast<double>(engine.hop_sum()) * scale);
    engine.rollback();
    g.add_edge(u, v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LandmarkEstimate)->Arg(32)->Arg(64)->Arg(128);

void BM_AnnealMoves(benchmark::State& state) {
  for (auto _ : state) {
    core::SynthesisConfig cfg;
    cfg.layout = topo::Layout::noi_4x5();
    cfg.link_class = topo::LinkClass::kMedium;
    cfg.objective = core::Objective::kLatOp;
    cfg.time_limit_s = 0.1;
    cfg.restarts = 1;
    cfg.seed = 6;
    const auto r = core::anneal_synthesize(cfg);
    state.counters["moves_per_s"] = static_cast<double>(r.moves) / 0.1;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AnnealMoves)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
