#pragma once
// "No double-back turns" routing (paper SII-E): the shortest-path routing +
// turn-based deadlock-avoidance rule used by the expert-designed topologies
// (Kite, Butter Donut, Double Butterfly, Folded Torus). A route may never
// reverse its direction of travel along the horizontal (column) axis.

#include <span>

#include "routing/paths.hpp"
#include "routing/table.hpp"
#include "topo/layout.hpp"

namespace netsmith::routing {

// True iff the path changes horizontal direction (+x after -x or vice versa).
bool double_backs_x(std::span<const int> p, const topo::Layout& layout);

// Number of horizontal sign changes (0 for NDBT-legal paths).
int x_direction_changes(std::span<const int> p, const topo::Layout& layout);

struct NdbtFilterResult {
  PathSet paths;
  int flows_without_legal_path = 0;  // flows that needed the fallback
};

// Keeps only NDBT-legal paths per flow. If a flow has no legal shortest
// path, falls back to the paths with the fewest direction changes so the
// network stays routable (the count is reported for diagnostics; the expert
// topologies' published designs guarantee zero).
NdbtFilterResult ndbt_filter(const PathSet& ps, const topo::Layout& layout);

// Routes of `t` that double back in x. ndbt_filter keeps only legal paths
// for a flow that has one and only double-backing paths otherwise, so for a
// table chosen from its result this is exactly flows_without_legal_path.
// O(total hops) with a column lookup per hop, cheap enough for a plan
// restore to recount.
int count_double_backs(const RoutingTable& t, const topo::Layout& layout);

}  // namespace netsmith::routing
