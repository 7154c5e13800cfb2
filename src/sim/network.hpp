#pragma once
// Flit-level NoI simulator (HeteroGarnet substitute, see DESIGN.md).
//
// Cycle-driven, input-queued virtual-channel wormhole network with
// credit-based flow control, table-based routing (one path per flow) and
// layered VC assignment (a packet keeps its VC end-to-end; deadlock freedom
// follows from each VC layer's acyclic CDG, which callers verify via
// vc::verify_acyclic before simulating). Per-hop latency = router pipeline +
// wire (+ CDC) cycles. Injection/ejection are 1 flit/cycle per node.

#include <cstdint>

#include "core/plan.hpp"
#include "sim/traffic.hpp"
#include "util/matrix.hpp"

namespace netsmith::fault {
struct FaultPlan;
}

namespace netsmith::sim {

struct SimConfig {
  int num_vcs = 6;
  int buf_flits = 8;     // per-VC input buffer depth in flits
  int router_delay = 2;  // cycles (paper Table IV: 2-cycle routers)
  int link_delay = 1;
  // Injection/ejection bandwidth in flits/cycle/node. The paper (SII-D)
  // notes local port bottlenecks are "straightforward to provision" away;
  // 2 keeps the topology, not the NI, as the binding constraint.
  int io_flits_per_cycle = 2;
  long warmup = 5000;
  long measure = 20000;
  long drain = 40000;
  std::uint64_t seed = 1;
  // Optional per-edge extra delay (e.g. 2-cycle CDC crossings); empty = 0.
  util::Matrix<int> extra_edge_delay;
  // Oracle mode: evaluate every router and output every cycle (the original
  // full-scan loop) instead of only the members of the active set. Both modes
  // share buffers, routing caches and the injection-gap sampler, so they
  // produce bit-identical SimStats for the same seed; the equivalence tests
  // assert exactly that.
  bool reference_mode = false;
  // Optional fault plan (fault/model.hpp), not owned; null or empty keeps the
  // fault-free hot path bit-identical (test_fault asserts that). Events apply
  // at cycle boundaries: a down link accepts no new flits and strands its
  // in-flight ones (lossy plans drop the affected packets instead), a down
  // router refuses injection and ejection but still forwards, and packets
  // injected during a repaired epoch route by that epoch's table.
  const fault::FaultPlan* faults = nullptr;
};

struct SimStats {
  double offered = 0.0;   // packets/node/cycle requested
  double accepted = 0.0;  // packets/node/cycle ejected during the window
  double avg_latency_cycles = 0.0;  // tagged packets, source-queue inclusive
  long tagged_injected = 0;
  long tagged_completed = 0;
  long total_injected = 0;
  long total_ejected = 0;
  bool saturated = false;
  double mean_source_backlog = 0.0;  // packets per node at window end
  long cycles_run = 0;  // simulated cycles (< horizon when drain exits early)
  // End-of-run flit accounting for the conservation invariant
  //   flits_injected == flits_ejected + flits_buffered_end + flits_inflight_end
  // (test_sim_invariants). A fully drained network additionally has the
  // *_end terms at zero, all credits restored and all VC owners null.
  long flits_injected = 0;      // flits switched out of a source NI
  long flits_ejected = 0;       // flits ejected at their destination
  long flits_buffered_end = 0;  // still in VC input buffers at exit
  long flits_inflight_end = 0;  // still on a wire at exit
  long source_flits_end = 0;    // unsent flits queued in source NIs at exit
  bool credits_consistent = true;  // credits mirror free buffer slots at exit
  bool owners_clear = true;        // no VC held by a packet at exit
  // Activity accounting, identical in reference and optimized modes (the
  // equivalence tests assert this): sum over cycles of the number of routers
  // with work pending at the start of the switch phase (buffered input flit
  // or queued source packet), and total arrival-event pops off the
  // per-channel arrival timing wheel (the name predates the wheel).
  long active_router_cycles = 0;
  long arrival_heap_pops = 0;
  // Fault accounting (all zero / identity on fault-free runs). With faults
  // the conservation invariant gains a term:
  //   flits_injected == flits_ejected + flits_dropped
  //                     + flits_buffered_end + flits_inflight_end
  long flits_dropped = 0;     // purged by lossy link failures
  long packets_dropped = 0;   // whole packets purged (worm-granular)
  long tagged_dropped = 0;    // dropped packets from the measurement window
  long packets_unroutable = 0;  // offered to a flow with no surviving route
  // Tagged-packet latency percentiles and packet delivery fraction — the
  // resilience metrics the Report surfaces per fault-severity step.
  double latency_p50_cycles = 0.0;
  double latency_p99_cycles = 0.0;
  double delivered_fraction = 1.0;  // total_ejected / total_injected
};

// Runs one simulation at a fixed injection rate. The plan's VC map must use
// <= cfg.num_vcs channels. Throws std::invalid_argument for memory traffic
// without mc_nodes, custom traffic without per-node entries, and a route
// that is empty, does not run from its flow's source to its destination,
// leaves the plan's links or revisits a router; routes are checked on
// their flow's first packet, so only flows the run uses are checked.
SimStats simulate(const core::NetworkPlan& plan, const TrafficConfig& traffic,
                  const SimConfig& cfg);

}  // namespace netsmith::sim
