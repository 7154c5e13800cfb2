// Scaling study: synthesis + simulation throughput and quality at
// n = 48 .. 1024 routers. This is the figure behind the delta-APSP work:
// one latency-optimized synthesis per grid size (move-budgeted,
// bit-reproducible), planned with a bounded MCLB budget and swept under
// coherence traffic, all through the declarative Study API.
//
// Usage: fig_scale [--smoke] [--n N]
//   --smoke  CI budget: only n = {48, 256}, reduced move/sweep windows
//            (the n = 256 point finishes well under two minutes)
//   --n N    run a single grid size from the table (48|128|256|512|1024)
//
// Every move is scored exactly on the delta-APSP engine at every n, so the
// reported objective is the true average hop count (see DESIGN.md,
// "Scaling to n = 1024").

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "api/study.hpp"
#include "obs/clock.hpp"
#include "util/table.hpp"

using namespace netsmith;

namespace {

struct Point {
  int n, rows, cols;
  long moves;  // full-run move budget
};

constexpr Point kPoints[] = {{48, 8, 6, 20000},
                             {128, 16, 8, 8000},
                             {256, 16, 16, 6000},
                             {512, 32, 16, 3000},
                             {1024, 32, 32, 2000}};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int only_n = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) smoke = true;
    else if (!std::strcmp(argv[i], "--n") && i + 1 < argc)
      only_n = std::atoi(argv[++i]);
    else {
      std::fprintf(stderr, "usage: fig_scale [--smoke] [--n N]\n");
      return 2;
    }
  }

  std::printf(
      "NetSmith scaling study — synthesis + simulation at n = 48 .. 1024\n"
      "Latency-optimized (latop) synthesis per grid size, every move scored\n"
      "exactly on the delta-APSP engine.\n\n");

  util::TablePrinter table({"n", "grid", "moves", "avg hops", "diam",
                            "synth (s)", "moves/s", "lat@0 (ns)",
                            "sat (pkt/node/ns)", "total (s)"});
  obs::WallTimer total;
  for (const auto& pt : kPoints) {
    if (only_n != 0 && pt.n != only_n) continue;
    if (only_n == 0 && smoke && pt.n != 48 && pt.n != 256) continue;

    api::ExperimentSpec spec;
    spec.name = "fig_scale_n" + std::to_string(pt.n);
    api::TopologySpec t;
    t.source = api::TopologySource::kSynthesize;
    t.rows = pt.rows;
    t.cols = pt.cols;
    t.objectives = {"latop"};
    t.radix = 4;
    t.time_limit_s = 600.0;  // the move budget terminates first
    t.synth_seed = 9;
    t.restarts = 1;
    t.max_moves = smoke ? std::min(pt.moves, 3000L) : pt.moves;
    spec.topologies = {t};
    // Bounded routing + sweep windows: the point of this figure is the
    // throughput curve vs n, not saturation-sweep fidelity. The longer
    // routes at n >= 512 need a deeper VC stack for an acyclic layering.
    spec.num_vcs = pt.n >= 512 ? 10 : 6;
    spec.max_paths_per_flow = 4;
    spec.traffic = {api::TrafficSpec{"coherence", "coherence"}};
    spec.sweep.points = smoke ? 3 : 4;
    spec.sweep.warmup = 300;
    spec.sweep.measure = smoke ? 800 : 1500;
    spec.sweep.drain = 3000;

    obs::WallTimer point_timer;
    const api::Report report = api::run_experiment(spec);
    const double point_s = point_timer.seconds();

    const auto& row = report.topologies.at(0);
    const double synth_s =
        row.trace.empty() ? 0.0 : row.trace.back().seconds;
    const auto& sw = report.sweeps.at(0);
    table.add_row(
        {std::to_string(pt.n),
         std::to_string(pt.rows) + "x" + std::to_string(pt.cols),
         std::to_string(row.moves),
         util::TablePrinter::fmt(row.avg_hops, 3),
         std::to_string(row.diameter), util::TablePrinter::fmt(synth_s, 2),
         util::TablePrinter::fmt(
             synth_s > 0.0 ? static_cast<double>(row.moves) / synth_s : 0.0,
             0),
         util::TablePrinter::fmt(sw.zero_load_latency_ns, 2),
         util::TablePrinter::fmt(sw.saturation_pkt_node_ns, 4),
         util::TablePrinter::fmt(point_s, 1)});
    std::printf("  [n=%d done in %.1f s]\n", pt.n, point_s);
  }
  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\n[%.1f s total. Machine-readable scaling numbers (moves/sec, APSP\n"
      "rows/move, sim cycles/sec) live in BENCH_perf.json \"n_scaling\";\n"
      "this figure exercises the same path through the declarative API.]\n",
      total.seconds());
  return 0;
}
