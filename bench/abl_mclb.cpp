// Ablation (paper SIII-D, Table III): MCLB routing quality and solver
// effort. Compares the deterministic min-max local search against the exact
// Table III MILP (on a reduced path set, where the in-tree solver is
// practical) and against random path selection, and reports the LPBT
// formulation's model-size blowup for context.
//
// Every number on stdout is deterministic: the exact solve runs on a branch
// node budget, not a wall-clock cap, and the three timing columns go to a
// stderr footer.

#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "obs/clock.hpp"
#include "routing/mclb.hpp"
#include "routing/ndbt.hpp"
#include "topologies/lpbt.hpp"
#include "topologies/registry.hpp"
#include "util/table.hpp"

using namespace netsmith;

int main() {
  std::printf(
      "NetSmith ablation — MCLB routing: local search vs exact MILP vs "
      "random selection (max flows on any channel; lower is better)\n\n");

  util::TablePrinter table({"topology", "random", "local search",
                            "exact (capped paths)", "proven"});
  std::string timings;

  const auto cat = topologies::catalog(20);
  for (const auto* name :
       {"FoldedTorus", "Kite-large", "NS-LatOp-medium-20", "NS-SCOp-large-20"}) {
    const auto t = topologies::find(cat, name);
    const auto paths = routing::enumerate_shortest_paths(t.graph);

    util::Rng rng(5);
    const auto random_rt = routing::RoutingTable::select_random(paths, rng);
    const int random_max = static_cast<int>(
        routing::analyze_uniform(random_rt).max_load * (20 - 1) + 0.5);

    obs::WallTimer ls_timer;
    const auto ls = routing::mclb_local_search(paths);
    const double ls_time = ls_timer.seconds();

    // Retained scan-based oracle: identical answer, O(links) per candidate.
    obs::WallTimer scan_timer;
    const auto ls_scan = routing::mclb_local_search_scan(paths);
    const double scan_time = scan_timer.seconds();
    if (ls_scan.max_flows_on_link != ls.max_flows_on_link)
      std::printf("WARNING: flat/scan divergence on %s\n", name);

    // Exact MILP on a reduced path set (8 per flow), seeded with that path
    // set's local-search incumbent. The budget is the root relaxation alone
    // (no branch node): a dense-tableau LP on ~1,100 path columns takes
    // about a second, so deeper trees cost seconds per node, and a node
    // count, unlike a wall-clock cap, gives the same answer on every host.
    const auto capped = routing::enumerate_shortest_paths(t.graph, 8);
    const auto capped_ls = routing::mclb_local_search(capped);
    lp::MilpOptions opts;
    opts.time_limit_s = std::numeric_limits<double>::infinity();
    opts.lp.time_limit_s = std::numeric_limits<double>::infinity();
    opts.node_limit = 0;
    obs::WallTimer ex_timer;
    const auto exact = routing::mclb_exact(capped, opts, &capped_ls);
    const double ex_time = ex_timer.seconds();

    table.add_row({name, std::to_string(random_max),
                   std::to_string(ls.max_flows_on_link),
                   std::to_string(exact.max_flows_on_link),
                   exact.proven_optimal ? "yes" : "no"});
    char line[160];
    std::snprintf(line, sizeof line,
                  "[%s: LS flat %.2f ms, LS scan %.2f ms, exact %.2f s]\n",
                  name, ls_time * 1e3, scan_time * 1e3, ex_time);
    timings += line;
  }
  table.print(std::cout);
  std::fputs(timings.c_str(), stderr);

  const auto stats20 = topologies::lpbt_model_stats(topo::Layout::noi_4x5(),
                                                    topo::LinkClass::kSmall);
  std::printf(
      "\nContext — prior-art LPBT synthesis formulation at 20 routers:\n"
      "  %d binaries, %d constraints (the paper reports ~20 days to a first\n"
      "  candidate with Gurobi; NetSmith's distance encoding avoids this).\n",
      stats20.binaries, stats20.constraints);
  std::printf(
      "\nExpected shape: local search lands at (or within 1 of) the exact\n"
      "optimum in milliseconds; random selection is clearly worse. The\n"
      "paper's 20-router MCLB solves in under 5 minutes on Gurobi; the\n"
      "in-tree exact solver proves the capped path set only where its root\n"
      "relaxation already closes the gap.\n");
  return 0;
}
