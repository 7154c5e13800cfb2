#pragma once
// Fault injection & graceful degradation (DESIGN.md "Fault injection").
//
// A FaultScenarioSpec names WHAT fails (adversarial top-k loaded links,
// random per-component MTBF/MTTR processes, or an explicit event list) and
// build_fault_schedule expands it deterministically into a FaultSchedule of
// timed kLinkDown/kLinkUp/kRouterDown/kRouterUp events against a concrete
// NetworkPlan. prepare_fault_plan then folds the schedule into a FaultPlan:
// per fault epoch (the interval between consecutive event cycles) the set of
// failed components plus — when repair is on — a routing table and VC map
// rebuilt against the surviving subgraph (routing/repair.hpp). The simulator
// consumes the FaultPlan read-only via SimConfig::faults; packets route by
// the table of the epoch they were injected in, so in-flight wormholes are
// never split by a table swap.
//
// Determinism: schedules derive from the scenario's own seed through
// util::split_stream (one stream per link / per router), never from the
// simulator's traffic RNG, so attaching a fault plan cannot perturb the
// injection sequence of a fault-free arm.

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.hpp"

namespace netsmith::fault {

enum class FaultEventKind { kLinkDown, kLinkUp, kRouterDown, kRouterUp };

const char* to_string(FaultEventKind k);
FaultEventKind fault_event_kind_from_string(const std::string& s);

// One timed event. Link events name a directed edge (a -> b); duplex
// failures are two events at the same cycle. Router events use a only.
struct FaultEvent {
  long cycle = 0;
  FaultEventKind kind = FaultEventKind::kLinkDown;
  int a = 0;
  int b = -1;

  bool operator==(const FaultEvent&) const = default;
};

// Declarative scenario (the spec `faults` block; api/spec.cpp serializes it).
struct FaultScenarioSpec {
  std::string name;               // report row label; empty = derived
  std::string mode = "targeted";  // targeted | random | explicit

  // targeted: fail the k most-loaded duplex links (channel-load pipeline,
  // deterministic tie-break) at fail_at, recovering at recover_at (< 0 =
  // permanent).
  int k = 1;
  long fail_at = 0;
  long recover_at = -1;

  // random: per-component alternating exponential up/down processes with
  // the given mean cycles (0 disables that component class).
  double link_mtbf = 0.0;
  double link_mttr = 0.0;
  double router_mtbf = 0.0;
  double router_mttr = 0.0;
  std::uint64_t seed = 1;

  // Degradation contract: lossy drops flits caught on a failing wire (whole
  // packets, counted); lossless strands them until the link recovers. repair
  // rebuilds affected flows' routes per epoch against the survivors.
  bool lossy = false;
  bool repair = true;

  // explicit mode: the schedule verbatim (validated against the plan).
  std::vector<FaultEvent> events;

  bool operator==(const FaultScenarioSpec&) const = default;

  std::string label() const;
  // Canonical artifact key (same treatment as topology/plan keys): every
  // semantic field, so caches never alias scenarios built differently.
  std::string canonical_key() const;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;  // sorted by (cycle, kind, a, b)
  bool empty() const { return events.empty(); }
};

// Expands the scenario against a concrete plan. Throws std::invalid_argument
// on events naming absent edges/routers or malformed scenario parameters.
FaultSchedule build_fault_schedule(const FaultScenarioSpec& scenario,
                                   const core::NetworkPlan& plan,
                                   long horizon);

// One interval between consecutive fault-event cycles, with the routing the
// simulator uses for packets injected during it.
struct FaultEpoch {
  long cycle = 0;  // first cycle this epoch is active
  int links_down = 0;    // directed edges down during the epoch
  int routers_down = 0;
  // When repair ran and changed anything: the repaired table + VC map
  // (deadlock-free: re-layered via vc::assign_layers). Otherwise the base
  // plan's are used and these stay empty.
  bool repaired = false;
  routing::RoutingTable table;
  vc::VcMap vc_map;
  int flows_rerouted = 0;
  int flows_unroutable = 0;  // degraded: no path in the surviving subgraph
};

// Precomputed fault state for one simulation run. Immutable while simulating
// (sweep points share it across OpenMP threads).
struct FaultPlan {
  bool lossy = false;
  std::vector<FaultEvent> events;  // sorted; applied at cycle boundaries
  std::vector<FaultEpoch> epochs;  // epochs[0].cycle == 0 (pre-fault state)
  int max_links_down = 0;     // peak concurrent directed-edge failures
  int max_routers_down = 0;
  int flows_rerouted = 0;     // summed over repaired epochs
  int flows_unroutable = 0;   // peak over epochs

  bool empty() const { return events.empty(); }
};

// build_fault_schedule + epoch construction + per-epoch route repair.
// Repair latency is recorded through the obs layer (fault/repair spans,
// fault.repair_us counter) and deliberately kept out of the plan so results
// stay byte-deterministic. Throws on invalid scenarios and on repairs whose
// VC re-layering exceeds the plan's VC budget (the Study runner records the
// job as failed and degrades to a partial report).
FaultPlan prepare_fault_plan(const core::NetworkPlan& plan,
                             const FaultScenarioSpec& scenario, long horizon);

}  // namespace netsmith::fault
