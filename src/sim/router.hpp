#pragma once
// Per-channel simulator state: input-queued virtual-channel wormhole
// switching with credit-based flow control.
//
// Each directed link owns (a) a per-VC input FIFO at its head router,
// (b) a per-VC credit counter at its tail router mirroring free downstream
// buffer slots, (c) a fixed-latency in-flight pipeline, and (d) a per-VC
// wormhole owner: once a head flit is switched onto (link, vc), that packet
// holds the VC until its tail passes (no flit interleaving within a VC).
//
// All FIFOs are fixed-capacity flat ring buffers: credits bound the per-VC
// input occupancy at buf_flits, and the wire carries at most one flit per
// cycle for `latency` cycles, so both capacities are known at init time and
// the simulator performs no steady-state allocation.

#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/packet.hpp"

namespace netsmith::sim {

struct InFlight {
  long arrive = 0;
  Flit flit;
  int vc = 0;
};

// Per-(link, VC) state, packed so one switch decision reads one 16-byte
// record instead of four parallel arrays.
struct VcState {
  Packet* owner = nullptr;  // wormhole allocation
  std::uint16_t head = 0;   // input ring head
  std::uint16_t count = 0;  // input occupancy
  int credits = 0;          // free downstream slots, at the upstream router
};
static_assert(sizeof(VcState) == 2 * sizeof(Packet*), "one VC, 16 bytes");

// State of one directed link.
struct Channel {
  int src = 0, dst = 0;
  int latency = 3;  // router pipeline + wire (+ CDC) cycles
  int vcs = 0, cap = 0;
  int k_at_dst = 0;  // position of this channel among dst's in-edges

  std::vector<Flit> buf;       // flat per-VC rings: slot vc*cap + i
  std::vector<VcState> state;  // per VC

  std::vector<InFlight> wire;  // flight ring (FIFO: fixed latency)
  int wire_head = 0, wire_count = 0;

  // Requires `latency` to be set first (sizes the wire ring).
  void init(int num_vcs, int buf_flits) {
    assert(latency >= 1);
    vcs = num_vcs;
    cap = buf_flits;
    buf.assign(static_cast<std::size_t>(vcs) * cap, {});
    state.assign(vcs, VcState{nullptr, 0, 0, buf_flits});
    wire.assign(static_cast<std::size_t>(latency) + 1, {});
    wire_head = wire_count = 0;
  }

  bool empty(int vc) const { return state[vc].count == 0; }
  Flit& front(int vc) {
    return buf[static_cast<std::size_t>(vc) * cap + state[vc].head];
  }
  // Ring indices wrap by comparison: head < cap and count <= cap, so one
  // subtraction suffices (no division on the per-flit path).
  void push(int vc, const Flit& f) {
    VcState& s = state[vc];
    assert(s.count < cap);  // credits guarantee a free slot
    int i = s.head + s.count;
    if (i >= cap) i -= cap;
    buf[static_cast<std::size_t>(vc) * cap + i] = f;
    ++s.count;
  }
  void pop(int vc) {
    VcState& s = state[vc];
    assert(s.count > 0);
    s.head = s.head + 1 == cap ? 0 : static_cast<std::uint16_t>(s.head + 1);
    --s.count;
  }

  bool wire_empty() const { return wire_count == 0; }
  InFlight& wire_front() { return wire[wire_head]; }
  void wire_push(const InFlight& f) {
    const int size = static_cast<int>(wire.size());
    assert(wire_count < size);
    int i = wire_head + wire_count;
    if (i >= size) i -= size;
    wire[i] = f;
    ++wire_count;
  }
  void wire_pop() {
    assert(wire_count > 0);
    wire_head =
        wire_head + 1 == static_cast<int>(wire.size()) ? 0 : wire_head + 1;
    --wire_count;
  }
};

// Per-node injection state: an unbounded source queue (NI) feeding the
// router at a configurable flits/cycle bandwidth.
struct SourceQueue {
  std::deque<Packet*> packets;
  long bw_cycle = -1;       // cycle the counter refers to
  int flits_this_cycle = 0; // flits injected in bw_cycle
};

}  // namespace netsmith::sim
