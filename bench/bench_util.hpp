#pragma once
// Shared helpers for the paper-reproduction bench harnesses.

#include <string>
#include <vector>

#include "core/netsmith.hpp"
#include "sim/sweep.hpp"
#include "topologies/registry.hpp"

namespace netsmith::bench {

// Standard simulation window for the figure sweeps: long enough for stable
// latency estimates, short enough that a full figure regenerates in tens of
// seconds.
inline sim::SimConfig default_sim() {
  sim::SimConfig cfg;
  cfg.warmup = 2000;
  cfg.measure = 6000;
  cfg.drain = 24000;
  return cfg;
}

// Routing policy the paper pairs with each topology: MCLB for machine
// topologies (NetSmith always routes with MCLB), NDBT for expert designs.
// The parametric baselines also route with MCLB — NDBT's x-monotonic rule
// assumes the Kite-style grid designs and has no published analogue for
// Dragonfly/CMesh/HammingMesh flattenings.
inline core::RoutingPolicy paper_policy(const topologies::NamedTopology& t) {
  return t.is_netsmith || t.parametric ? core::RoutingPolicy::kMclb
                                       : core::RoutingPolicy::kNdbt;
}

// Simulation window plus the topology's wire retiming (extra pipeline cycles
// on links beyond the clocking class's reach — parametric baselines only).
inline sim::SimConfig sim_for(const topologies::NamedTopology& t) {
  auto cfg = default_sim();
  cfg.extra_edge_delay = t.extra_edge_delay;
  return cfg;
}

// Catalog set + parametric baselines for one router count, in that order.
inline std::vector<topologies::NamedTopology> with_baselines(
    std::vector<topologies::NamedTopology> cat, int routers) {
  const auto& baselines = topologies::baseline_catalog(routers);
  cat.insert(cat.end(), baselines.begin(), baselines.end());
  return cat;
}

inline std::string class_name(topo::LinkClass c) { return topo::to_string(c); }

}  // namespace netsmith::bench
