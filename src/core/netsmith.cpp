#include "core/netsmith.hpp"

#include <stdexcept>

#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {

SynthesisResult synthesize(const SynthesisConfig& cfg) {
  return anneal_synthesize(cfg);
}

SynthesisResult synthesize_exact(const SynthesisConfig& cfg,
                                 const lp::MilpOptions& opts) {
  MilpEncoding enc;
  switch (cfg.objective) {
    case Objective::kLatOp:
      enc = encode_latop(cfg.layout, cfg.link_class, cfg.radix,
                         cfg.diameter_bound, cfg.symmetric_links);
      break;
    case Objective::kSCOp:
      enc = encode_scop(cfg.layout, cfg.link_class, cfg.radix,
                        cfg.diameter_bound, cfg.symmetric_links);
      break;
    case Objective::kPattern:
    case Objective::kChannelLoad:
    case Objective::kLatLoad:
      throw std::invalid_argument(
          "synthesize_exact: pattern/route-aware objectives are anneal-only");
  }

  lp::MilpOptions o = opts;
  if (o.time_limit_s <= 0) o.time_limit_s = cfg.time_limit_s;
  const auto sol = lp::solve_milp(enc.model, o);
  if (sol.x.empty())
    throw std::runtime_error("synthesize_exact: no feasible topology found (" +
                             lp::to_string(sol.status) + ")");

  SynthesisResult result;
  result.graph = decode_topology(enc, sol.x);
  const int n = result.graph.num_nodes();
  if (cfg.objective == Objective::kLatOp) {
    result.objective_value = topo::average_hops(result.graph);
    result.bound = sol.bound / (static_cast<double>(n) * (n - 1));
  } else {
    result.objective_value = topo::sparsest_cut(result.graph).bandwidth;
    result.bound = sol.bound;
  }
  ProgressPoint pt;
  pt.incumbent = result.objective_value;
  pt.bound = result.bound;
  result.trace.push_back(pt);
  return result;
}

}  // namespace netsmith::core
