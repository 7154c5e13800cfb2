#include "core/plan.hpp"

#include "obs/trace.hpp"
#include "routing/channel_load.hpp"
#include "routing/mclb.hpp"
#include "routing/ndbt.hpp"
#include "routing/paths.hpp"
#include "util/rng.hpp"
#include "vc/layers.hpp"

namespace netsmith::core {

const char* to_string(RoutingPolicy p) {
  return p == RoutingPolicy::kMclb ? "mclb" : "ndbt";
}

NetworkPlan plan_network(const topo::DiGraph& g, const topo::Layout& layout,
                         RoutingPolicy policy, int num_vcs,
                         std::uint64_t seed, int max_paths_per_flow) {
  NetworkPlan plan;
  plan.graph = g;
  plan.policy = policy;
  plan.num_vcs = num_vcs;
  plan.seed = seed;
  plan.max_paths_per_flow = max_paths_per_flow;

  const auto all_paths = routing::enumerate_shortest_paths(g, max_paths_per_flow);
  util::Rng rng(seed);

  if (policy == RoutingPolicy::kMclb) {
    // Deterministic local search only: abl_mclb shows it matches the exact
    // Table III MILP on these instances at a fraction of the cost. One
    // search per planned topology (not per annealer move), so a span per
    // call is cheap.
    obs::Span span("routing/mclb_local_search");
    const auto mclb = routing::mclb_local_search(all_paths);
    plan.table = mclb.table(all_paths);
    plan.max_channel_load = mclb.max_load;
    span.arg("n", g.num_nodes());
    span.arg("iterations", mclb.iterations);
    span.arg("max_load", mclb.max_load);
  } else {
    const auto filtered = routing::ndbt_filter(all_paths, layout);
    plan.ndbt_fallback_flows = filtered.flows_without_legal_path;
    plan.table = routing::RoutingTable::select_random(filtered.paths, rng);
    plan.max_channel_load = routing::analyze_uniform(plan.table).max_load;
  }

  const auto layers = vc::assign_layers(plan.table, g, rng);
  plan.vc_layers = layers.num_layers;
  plan.vc_map = vc::balance_vcs(layers, plan.table, num_vcs);
  return plan;
}

}  // namespace netsmith::core
