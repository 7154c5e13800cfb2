#pragma once
// Packet/flit types for the flit-level NoI simulator.

#include <cstdint>

namespace netsmith::sim {

struct Packet {
  long id = 0;
  int src = 0;
  int dst = 0;
  int flits = 1;          // 1-flit control or 9-flit data (8B links, 72B data)
  int vc = 0;             // layered routing: constant along the route
  int src_next = -1;      // next hop out of src (routed once at creation)
  long inject_cycle = 0;  // when the packet entered the source queue
  bool tagged = false;    // injected inside the measurement window
  bool is_request = false;  // memory traffic: triggers a reply at ejection
  int flits_sent = 0;       // progress at the current router
  // Fault-injection state (untouched on fault-free runs). epoch pins the
  // routing table the packet was injected under — in-flight wormholes keep
  // their route of record across repairs, so a table swap never splits a
  // worm. dropped marks a packet being purged by a lossy link failure.
  int epoch = 0;
  bool dropped = false;
};

struct Flit {
  Packet* pkt = nullptr;
  bool head = false;
  bool tail = false;
  // Output port `next` leaves by at the router whose input buffer holds this
  // flit: its index among that router's out-edges, or the out-degree for
  // ejection. Set together with `next`; keys the per-port request masks.
  std::int16_t port = 0;
  // Next hop from the router whose input buffer holds this flit (-1 = eject
  // here). Routed once when the flit is switched onto a link, so arbitration
  // never walks the routing table per candidate slot per cycle.
  int next = -1;
};
static_assert(sizeof(Flit) == sizeof(Packet*) + 2 * sizeof(int),
              "port must fit the padding after head/tail");

}  // namespace netsmith::sim
