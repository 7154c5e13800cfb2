#pragma once
// Network plans: the routing tables and deadlock-free VC allocation a
// topology needs before it can be simulated (shortest-path enumeration ->
// MCLB or NDBT path selection -> VC layering and balancing).

#include <cstdint>

#include "routing/table.hpp"
#include "topo/graph.hpp"
#include "topo/layout.hpp"
#include "vc/balance.hpp"

namespace netsmith::core {

enum class RoutingPolicy { kMclb, kNdbt };

const char* to_string(RoutingPolicy p);

// Everything the simulator needs to run a topology deadlock-free.
struct NetworkPlan {
  topo::DiGraph graph;
  routing::RoutingTable table;
  vc::VcMap vc_map;
  double max_channel_load = 0.0;  // normalized, from the chosen routing
  int vc_layers = 0;
  int ndbt_fallback_flows = 0;  // NDBT only: flows that needed the fallback
  // Provenance: how plan_network built this plan. Reports key result rows on
  // these fields and artifact caches key plan reuse on them.
  RoutingPolicy policy = RoutingPolicy::kMclb;
  int num_vcs = 0;
  std::uint64_t seed = 0;
  int max_paths_per_flow = 0;
};

// Builds routing tables + VC allocation for an arbitrary topology.
//  - kMclb: MCLB path selection over all shortest paths (NetSmith's choice).
//  - kNdbt: no-double-back-turns with random selection among legal paths
//    (the expert topologies' published scheme).
NetworkPlan plan_network(const topo::DiGraph& g, const topo::Layout& layout,
                         RoutingPolicy policy, int num_vcs,
                         std::uint64_t seed = 7, int max_paths_per_flow = 48);

}  // namespace netsmith::core
