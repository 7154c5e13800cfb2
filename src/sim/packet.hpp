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
  // The flow's route in its routing table's arena, and the out-port taken
  // at each of its routers (see Flit::port): ports[i] leaves route[i], and
  // the last entry is the destination's ejection port. Bound once, at
  // creation, to the table of the packet's epoch.
  const int* route = nullptr;
  const std::int16_t* ports = nullptr;
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
  // Output port the flit leaves by at the router whose input buffer holds
  // it: its index among that router's out-edges, or the out-degree for
  // ejection. Always pkt->ports[hop]; cached here because it keys the
  // per-port request masks.
  std::int16_t port = 0;
  // Index on pkt->route of the router whose input buffer holds this flit.
  // A grant advances it by one, so no hop ever searches the route.
  // Routes visit each router once and DiGraph::kMaxNodes is 2^14, so it
  // fits.
  std::int16_t hop = 0;
};
static_assert(sizeof(Flit) == 2 * sizeof(Packet*),
              "port and hop must fit the padding after head/tail");

}  // namespace netsmith::sim
