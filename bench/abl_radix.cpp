// Ablation (paper SIII-C): router-radix scalability. The paper reports the
// (initially surprising) result that increasing router radix *decreases*
// convergence time and yields better solutions; this bench sweeps the radix
// at a fixed budget and reports solution quality and time-to-first-good.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/anneal.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"
#include "util/table.hpp"

using namespace netsmith;

int main(int argc, char** argv) {
  const double budget = argc > 1 ? std::atof(argv[1]) : 6.0;

  std::printf(
      "NetSmith ablation — router radix sweep (LatOp, medium, 20 routers, "
      "%.0fs per run)\n\n",
      budget);

  util::TablePrinter table({"radix", "links", "avg hops", "bound",
                            "gap %", "bis BW", "t to within 5% (s)"});

  for (int radix = 3; radix <= 6; ++radix) {
    core::SynthesisConfig cfg;
    cfg.layout = topo::Layout::noi_4x5();
    cfg.link_class = topo::LinkClass::kMedium;
    cfg.radix = radix;
    cfg.objective = core::Objective::kLatOp;
    cfg.time_limit_s = budget;
    cfg.restarts = 2;
    cfg.seed = 0xAD1 + radix;
    const auto r = core::anneal_synthesize(cfg);

    // Time at which the incumbent first came within 5% of its final value.
    double t5 = budget;
    for (const auto& pt : r.trace) {
      if (pt.incumbent <= r.objective_value * 1.05) {
        t5 = pt.seconds;
        break;
      }
    }
    const double gap =
        (r.objective_value - r.bound) / std::max(1e-9, r.objective_value);
    table.add_row({std::to_string(radix),
                   util::TablePrinter::fmt(r.graph.duplex_links(), 0),
                   util::TablePrinter::fmt(r.objective_value, 3),
                   util::TablePrinter::fmt(r.bound, 3),
                   util::TablePrinter::fmt(gap * 100.0, 1),
                   std::to_string(topo::bisection_bandwidth(r.graph)),
                   util::TablePrinter::fmt(t5, 2)});
  }
  table.print(std::cout);
  std::printf(
      "\nExpected shape (paper SIII-C): higher radix reaches good solutions\n"
      "faster and lands at lower average hops (more ports = richer, easier\n"
      "search space), at the cost of more links.\n");
  return 0;
}
