#pragma once
// Artifact serialization round-trips for the persistent cache
// (api/artifact_cache.hpp). One payload format per cached artifact kind:
//
//  - topology: the job-produced half of a TopologyArtifact — the synthesized
//    graph plus the synthesis provenance the report embeds (objective value,
//    bound, move count, progress trace) and the analytic metrics block.
//  - plan: a complete core::NetworkPlan (graph, per-flow routing table, VC
//    map, provenance scalars) plus the chiplet system when the plan wraps
//    one. The two n*n bulk arrays are packed into one JSON string each:
//    `table` joins the flow-major routes (s * n + d) with ';', each route
//    its routers separated by single spaces (empty for s == d), and
//    `vc_map.vc` is the per-flow VC list separated by single spaces (-1 for
//    absent flows). Both decode with std::from_chars, no per-integer JSON
//    node.
//  - sweep: the report-facing projection of a sim::SweepResult — zero-load /
//    saturation summaries and, per injection point, exactly the fields a
//    SweepPointRow carries. Raw SimStats conservation counters are NOT kept;
//    a cached sweep reproduces the report bytes, not the full simulator
//    state.
//
// Payloads are self-describing single-line JSON ({"artifact": kind,
// "schema": N, ...}, written with dump_compact) and restore_* validates
// shape, sizes, ranges and schema: ANY anomaly — parse error, wrong kind,
// unknown schema, a plan whose seed differs from the slot's, mismatched
// array lengths, a route hop outside [0, n) or a VC outside [-1, num_vcs),
// a route that leaves the plan's graph, a VC map that disagrees with the
// plan's num_vcs / vc_layers or puts a routed flow on no VC (or an s == d
// flow on one), adjacency that contradicts the already-resolved topology —
// returns false so the caller treats the entry as a cache miss and
// recomputes. restore_* never throws.
//
// Round-trip contract (asserted in tests/test_serve.cpp): restoring a
// payload into a fresh artifact slot reproduces every report-visible field
// bit-exactly, including shortest-round-trip doubles, so cached and
// recomputed studies serialize byte-identical reports.

#include <string>
#include <string_view>

#include "api/study.hpp"
#include "sim/sweep.hpp"

namespace netsmith::api {

// Bumped when a payload layout changes; restore_* treats any other value as
// a miss, so stores populated by older builds are silently re-filled.
// Schema 2: compact envelope, packed plan `table` and `vc_map.vc` strings.
inline constexpr int kArtifactSchemaVersion = 2;

// `analytic` records whether the metrics block is populated; the Study keys
// cached topologies on it (";analytic=0|1" key suffix), so the payload flag
// is self-description, not dispatch.
std::string topology_artifact_payload(const TopologyArtifact& t,
                                      bool analytic);
// Restores into an expanded-but-unrun artifact (key/source/config already
// resolved). For synthesized sources the graph is taken from the payload;
// for pre-built sources the payload adjacency must match the resolved graph
// (a mismatch reads as a miss).
bool restore_topology_artifact(const std::string& payload, bool analytic,
                               TopologyArtifact& t);

std::string plan_artifact_payload(const PlanArtifact& p);
// `layout` is the one plan_network was given (the topology's, also for a
// chiplet-system plan); an NDBT plan restores only when its
// ndbt_fallback_flows equals the number of its routes that double back in x
// on it.
bool restore_plan_artifact(const std::string& payload,
                           const topo::Layout& layout, PlanArtifact& p);

// The plan payload's packed `table` string, on its own: pack_table writes
// the flow-major routes as described above; unpack_table decodes an n-router
// table in one pass and returns false, leaving `t` untouched, on a route
// count other than n * n, a hop outside [0, n), or any token that is not a
// decimal integer separated by single spaces.
std::string pack_table(const routing::RoutingTable& t);
bool unpack_table(std::string_view text, int n, routing::RoutingTable& t);

std::string sweep_artifact_payload(const sim::SweepResult& r);
bool restore_sweep_artifact(const std::string& payload, sim::SweepResult& r);

}  // namespace netsmith::api
