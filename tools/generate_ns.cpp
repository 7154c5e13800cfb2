// Offline tool: generates the NS-* topologies (NetSmith outputs) with fixed
// seeds and emits FrozenEntry lines for src/topologies/frozen_data.inc,
// along with their analytic metrics for EXPERIMENTS.md. Also produces the
// short-budget symmetric "Kite-like-48" stand-ins used by the Fig. 11 bench.
//
// Usage: generate_ns [scale=1.0]   (scale multiplies all time budgets)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/anneal.hpp"
#include "core/objective.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

using namespace netsmith;

namespace {

void emit(const std::string& name, const core::SynthesisResult& r) {
  const auto& g = r.graph;
  std::printf("    {\"%s\",\n     \"%s\"},\n", name.c_str(),
              g.to_string().c_str());
  std::fprintf(stderr,
               "// %-24s links=%.0f diam=%d avg=%.3f bis=%d bound=%.3f\n",
               name.c_str(), g.duplex_links(), topo::diameter(g),
               topo::average_hops(g), topo::bisection_bandwidth(g), r.bound);
  std::fflush(stdout);
  std::fflush(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  using LC = topo::LinkClass;
  const LC classes[] = {LC::kSmall, LC::kMedium, LC::kLarge};

  struct SizeSpec {
    int routers;
    topo::Layout lay;
    double budget;
  };
  const SizeSpec sizes[] = {
      {20, topo::Layout::noi_4x5(), 20.0},
      {30, topo::Layout::noi_6x5(), 45.0},
      {48, topo::Layout::noi_8x6(), 70.0},
  };

  for (const auto& sz : sizes) {
    for (LC cls : classes) {
      // NS-LatOp at every size.
      {
        core::SynthesisConfig cfg;
        cfg.layout = sz.lay;
        cfg.link_class = cls;
        cfg.objective = core::Objective::kLatOp;
        cfg.time_limit_s = sz.budget * scale;
        cfg.restarts = 3;
        cfg.seed = 0x100 + sz.routers * 8 + static_cast<int>(cls);
        emit("NS-LatOp-" + topo::to_string(cls) + "-" +
                 std::to_string(sz.routers),
             core::anneal_synthesize(cfg));
      }
      // NS-SCOp and NS-ShufOpt only for the 20-router study.
      if (sz.routers == 20) {
        {
          core::SynthesisConfig cfg;
          cfg.layout = sz.lay;
          cfg.link_class = cls;
          cfg.objective = core::Objective::kSCOp;
          cfg.time_limit_s = sz.budget * scale;
          cfg.restarts = 3;
          cfg.seed = 0x200 + static_cast<int>(cls);
          emit("NS-SCOp-" + topo::to_string(cls) + "-20",
               core::anneal_synthesize(cfg));
        }
        {
          core::SynthesisConfig cfg;
          cfg.layout = sz.lay;
          cfg.link_class = cls;
          cfg.objective = core::Objective::kPattern;
          cfg.pattern = core::shuffle_pattern(sz.lay.n());
          cfg.time_limit_s = sz.budget * 0.6 * scale;
          cfg.restarts = 3;
          cfg.seed = 0x300 + static_cast<int>(cls);
          emit("NS-ShufOpt-" + topo::to_string(cls) + "-20",
               core::anneal_synthesize(cfg));
        }
      }
      // Kite-like-48: symmetric short-budget stand-in expert baseline.
      if (sz.routers == 48) {
        core::SynthesisConfig cfg;
        cfg.layout = sz.lay;
        cfg.link_class = cls;
        cfg.objective = core::Objective::kLatOp;
        cfg.symmetric_links = true;
        cfg.time_limit_s = 6.0 * scale;
        cfg.restarts = 2;
        cfg.seed = 0x400 + static_cast<int>(cls);
        emit("Kite-like-" + topo::to_string(cls) + "-48",
             core::anneal_synthesize(cfg));
      }
    }
  }
  return 0;
}
