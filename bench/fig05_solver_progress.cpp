// Regenerates paper Fig. 5: solver progress over time. Runs NetSmith's
// anytime LatOp search live for each link-length class and prints the
// objective-bounds-gap trace (incumbent avg hops vs analytic lower bound).
// The paper's observations to reproduce: (a) smaller link classes converge
// faster; (b) even non-converged searches beat the expert topologies.
//
// The trajectory comes from the obs trace recorder: the annealer emits an
// "anneal/incumbent" counter sample on every incumbent update, so the same
// samples that render as a value track in chrome://tracing drive this table.
// Restarts run serially, each with its own incumbent, so a later restart's
// samples can sit above an earlier one's best; a monotone filter keeps the
// cross-restart best-so-far curve, which is what Fig. 5 plots.
//
// Args: [seconds_per_class=12] [include_30=1] [trace_out.json]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/anneal.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

using namespace netsmith;

namespace {

void run(const topo::Layout& lay, topo::LinkClass cls, double budget,
         const char* label) {
  core::SynthesisConfig cfg;
  cfg.layout = lay;
  cfg.link_class = cls;
  cfg.objective = core::Objective::kLatOp;
  cfg.time_limit_s = budget;
  cfg.restarts = 2;
  cfg.seed = 0xF16;

  obs::reset_trace();
  const double t0_us = obs::now_us();
  const auto r = core::anneal_synthesize(cfg);

  std::printf("-- %s (%s, %.0fs budget): bound=%.3f avg hops\n", label,
              topo::to_string(cls).c_str(), budget, r.bound);
  util::TablePrinter table({"t (s)", "incumbent avg hops", "gap %"});
  // LatOp minimizes: keep only samples that improve on everything seen so
  // far, regardless of which restart emitted them.
  bool have = false;
  double best = 0.0;
  for (const auto& ev : obs::collect_trace_events()) {
    if (ev.ph != 'C' || ev.name != "anneal/incumbent") continue;
    if (have && ev.value >= best) continue;
    have = true;
    best = ev.value;
    const double avg = ev.value;  // LatOp samples carry avg hops directly
    const double gap =
        avg > 0.0 ? std::abs(avg - r.bound) / avg * 100.0 : 0.0;
    table.add_row({util::TablePrinter::fmt((ev.ts_us - t0_us) * 1e-6, 2),
                   util::TablePrinter::fmt(avg, 3),
                   util::TablePrinter::fmt(gap, 1)});
  }
  table.print(std::cout);
  std::printf("final: avg hops %.3f, gap %.1f%%\n\n", r.objective_value,
              (r.objective_value - r.bound) / r.objective_value * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  const double budget = argc > 1 ? std::atof(argv[1]) : 12.0;
  const bool include_30 = argc > 2 ? std::atoi(argv[2]) != 0 : true;
  const std::string trace_out = argc > 3 ? argv[3] : "";

  obs::set_trace_enabled(true);

  std::printf(
      "NetSmith reproduction — Fig. 5 (objective-bounds gap vs solver "
      "time, LatOp)\n\n");

  std::printf("== Fig. 5(a): 20 routers (4x5) ==\n");
  for (const auto cls : {topo::LinkClass::kSmall, topo::LinkClass::kMedium,
                         topo::LinkClass::kLarge})
    run(topo::Layout::noi_4x5(), cls, budget, "20-router");

  if (include_30) {
    std::printf("== Fig. 5(b): 30 routers (6x5) — longer to converge ==\n");
    run(topo::Layout::noi_6x5(), topo::LinkClass::kMedium, budget * 2,
        "30-router");
  }

  if (!trace_out.empty()) {
    // Holds the last run's spans and samples (each run resets the buffers).
    obs::write_trace(trace_out);
    std::printf("trace (last run) -> %s\n", trace_out.c_str());
  }

  std::printf(
      "Expected shape: the small class closes its gap fastest; larger\n"
      "classes plateau at a nonzero gap yet still beat expert designs\n"
      "(compare final avg hops against Table II).\n");
  return 0;
}
