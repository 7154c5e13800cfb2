#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "fault/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/router.hpp"
#include "util/rng.hpp"

namespace netsmith::sim {

namespace {

// Out-port sequences for one routing table (the base plan's, or a repaired
// fault epoch's), built per flow on demand. `ports` lies alongside the
// table's route arena and stays uninitialized until a flow is built, so an
// unused table costs one untouched allocation; `built` holds one bit per
// flow s * n + d.
struct PortTable {
  PortTable(const routing::RoutingTable& t, int n)
      : table(&t),
        ports(std::make_unique_for_overwrite<std::int16_t[]>(t.hops().size())),
        built((static_cast<std::size_t>(n) * n + 63) / 64, 0) {}
  const routing::RoutingTable* table;
  std::unique_ptr<std::int16_t[]> ports;
  std::vector<std::uint64_t> built;
};

// Activity-driven flit simulator. The per-cycle loop touches only
//  (a) channels with a flit arriving now (per-channel arrival timing wheel),
//  (b) routers in the active set (any buffered input flit or queued source
//      packet; re-armed on arrival/injection, retired when both drain), and
//  (c) sources whose pre-sampled geometric injection gap expires now.
// Idle routers and idle sources therefore cost zero work per cycle, which is
// the common case over the low-rate half of every injection sweep.
//
// cfg.reference_mode keeps the original full-scan loop (every router, every
// output, every cycle; per-cycle linear scan of the injection schedule) as a
// bit-exact oracle: skipping a router with no buffered flits and no queued
// packets is a no-op (round-robin pointers only move on grants), and routers
// are visited in ascending index order in both modes, so instantaneous
// credit returns are observed identically.
class Simulator {
 public:
  Simulator(const core::NetworkPlan& plan, const TrafficConfig& traffic,
            const SimConfig& cfg)
      : plan_(plan), traffic_(traffic), cfg_(cfg), n_(plan.graph.num_nodes()),
        rng_(cfg.seed) {
    build_channels();
    sources_.resize(n_);
    eject_rr_.assign(n_, 0);
    last_input_pop_.assign(channels_.size(), -1);
    in_buffered_.assign(n_, 0);
    active_words_.assign((static_cast<std::size_t>(n_) + 63) / 64, 0);
    route_mark_.assign(n_, 0);
    port_tables_.emplace_back(plan_.table, n_);
    // An absent or empty fault plan leaves faults_ null, and every fault
    // branch below is a single predictable `if (faults_)` — the fault-free
    // hot path runs the exact pre-fault instruction stream.
    if (cfg.faults != nullptr && !cfg.faults->empty()) {
      faults_ = cfg.faults;
      link_down_.assign(channels_.size(), 0);
      wire_armed_.assign(channels_.size(), 0);
      router_down_.assign(static_cast<std::size_t>(n_), 0);
      // Route-of-record per epoch: unrepaired epochs share the base plan's.
      epoch_ports_.reserve(faults_->epochs.size());
      epoch_vcs_.reserve(faults_->epochs.size());
      for (const fault::FaultEpoch& ep : faults_->epochs) {
        epoch_ports_.push_back(ep.repaired ? port_tables_.size() : 0);
        if (ep.repaired) port_tables_.emplace_back(ep.table, n_);
        epoch_vcs_.push_back(ep.repaired ? &ep.vc_map : &plan_.vc_map);
      }
    }
    prepare_traffic();
    schedule_initial_injections();
  }

  SimStats run() {
    const long horizon = cfg_.warmup + cfg_.measure + cfg_.drain;
    const long window_end = cfg_.warmup + cfg_.measure;

    obs::Span span("sim/run");
    span.arg("n", n_);
    span.arg("rate", traffic_.injection_rate);
    // Sampled once per run: the per-cycle loop below must not re-read the
    // global gate.
    metrics_on_ = obs::metrics_enabled();

    stats_.cycles_run = horizon;
    for (long cycle = 0; cycle < horizon; ++cycle) {
      if (faults_) apply_fault_events(cycle);
      deliver_arrivals(cycle);
      if (cfg_.reference_mode)
        switch_all(cycle);
      else
        switch_active(cycle);
      if (cycle < window_end) generate_traffic(cycle);
      if (cycle == window_end - 1) record_backlog();
      // Early exit once every tagged packet has drained (dropped packets
      // count as resolved — they will never complete).
      if (cycle >= window_end &&
          stats_.tagged_completed + stats_.tagged_dropped ==
              stats_.tagged_injected &&
          stats_.tagged_injected > 0 && pending_replies_ == 0) {
        stats_.cycles_run = cycle + 1;
        break;
      }
    }

    stats_.offered = traffic_.injection_rate;
    stats_.accepted = static_cast<double>(ejected_in_window_) /
                      (static_cast<double>(active_sources_.size()) *
                       static_cast<double>(cfg_.measure));
    if (stats_.tagged_completed > 0)
      stats_.avg_latency_cycles =
          static_cast<double>(latency_sum_) / stats_.tagged_completed;
    // Saturation: backlog piled up, or tagged traffic failed to drain.
    const double drained =
        stats_.tagged_injected > 0
            ? static_cast<double>(stats_.tagged_completed) / stats_.tagged_injected
            : 1.0;
    stats_.saturated = stats_.mean_source_backlog > 4.0 || drained < 0.95;
    stats_.delivered_fraction =
        stats_.total_injected > 0
            ? static_cast<double>(stats_.total_ejected) / stats_.total_injected
            : 1.0;
    if (!latencies_.empty()) {
      std::sort(latencies_.begin(), latencies_.end());
      stats_.latency_p50_cycles =
          static_cast<double>(latencies_[(latencies_.size() - 1) / 2]);
      stats_.latency_p99_cycles = static_cast<double>(
          latencies_[(latencies_.size() - 1) * 99 / 100]);
    }
    record_residuals();
    span.arg("cycles", stats_.cycles_run);
    span.arg("accepted", stats_.accepted);
    span.arg("avg_latency", stats_.avg_latency_cycles);
    if (metrics_on_) flush_metrics();
    return stats_;
  }

 private:
  // --- Setup -------------------------------------------------------------
  void build_channels() {
    // No dense (u, v) -> channel map: lookups go through the per-router
    // adjacency, and an n^2-int table would dominate the simulator's
    // footprint at n = 1024 (4 MB for a graph with ~4n channels).
    // Adjacency is CSR (see port_base_ and in_base_), filled in channel id
    // order, so each router's ports and inputs keep ascending ids.
    const auto edges = plan_.graph.edges();
    port_base_.assign(static_cast<std::size_t>(n_) + 1, 0);
    in_base_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (const auto& [u, v] : edges) {
      ++port_base_[u + 1];
      ++in_base_[v + 1];
    }
    // Router u's port words: its out-edges, then one for ejection.
    for (int u = 0; u < n_; ++u) {
      port_base_[u + 1] += port_base_[u] + 1;
      in_base_[u + 1] += in_base_[u];
    }
    port_channel_.assign(static_cast<std::size_t>(port_base_[n_]), -1);
    port_dst_.assign(port_channel_.size(), -1);
    in_channel_.assign(edges.size(), -1);
    std::vector<int> out_fill(port_base_.begin(), port_base_.end() - 1);
    std::vector<int> in_fill(in_base_.begin(), in_base_.end() - 1);
    channels_.reserve(edges.size());
    for (const auto& [u, v] : edges) {
      Channel ch;
      ch.src = u;
      ch.dst = v;
      ch.latency = cfg_.router_delay + cfg_.link_delay;
      if (cfg_.extra_edge_delay.rows() == static_cast<std::size_t>(n_))
        ch.latency += cfg_.extra_edge_delay(u, v);
      ch.init(cfg_.num_vcs, cfg_.buf_flits);
      ch.k_at_dst = in_fill[v] - in_base_[v];
      const int id = static_cast<int>(channels_.size());
      port_dst_[out_fill[u]] = v;
      port_channel_[out_fill[u]++] = id;
      in_channel_[in_fill[v]++] = id;
      channels_.push_back(std::move(ch));
    }
    out_rr_.assign(channels_.size(), 0);
    // Every arrival lies at most one channel latency ahead, so a ring of at
    // least max latency + 1 buckets never files two different cycles
    // together; a power of two turns the bucket index into a mask.
    int max_latency = 1;
    for (const Channel& ch : channels_)
      max_latency = std::max(max_latency, ch.latency);
    wheel_.resize(std::bit_ceil(static_cast<std::size_t>(max_latency) + 1));
    wheel_mask_ = wheel_.size() - 1;
    // Per-port request words (see req_mask_), one per port word. Usable when
    // every slot index — including the injection input at k == in_degree —
    // fits in one word.
    req_mask_.assign(port_channel_.size(), 0);
    mask_ok_.resize(n_);
    for (int u = 0; u < n_; ++u)
      mask_ok_[u] = (in_degree(u) + 1) * cfg_.num_vcs <= 64;
    // Mask-mode slot decode: slot = k * num_vcs + vc, for every slot index a
    // request word can hold.
    for (int slot = 0; slot < 64 && cfg_.num_vcs > 0; ++slot) {
      slot_k_[slot] = static_cast<std::uint8_t>(slot / cfg_.num_vcs);
      slot_vc_[slot] = static_cast<std::uint8_t>(slot % cfg_.num_vcs);
    }
  }

  void prepare_traffic() {
    if (traffic_.sources.empty()) {
      for (int i = 0; i < n_; ++i) active_sources_.push_back(i);
    } else {
      active_sources_ = traffic_.sources;
    }
    if (traffic_.kind == TrafficKind::kMemory && traffic_.mc_nodes.empty())
      throw std::invalid_argument("memory traffic requires mc_nodes");
    if (traffic_.kind == TrafficKind::kCustom) {
      if (traffic_.custom.size() != static_cast<std::size_t>(n_))
        throw std::invalid_argument("custom traffic needs per-node entries");
      cum_.resize(n_);
      for (int s = 0; s < n_; ++s) {
        double acc = 0.0;
        for (const auto& [d, w] : traffic_.custom[s]) {
          acc += w;
          cum_[s].emplace_back(acc, d);
        }
      }
    }
  }

  // --- Traffic generation -------------------------------------------------
  // Per-source Bernoulli(p) injection, sampled as geometric inter-arrival
  // gaps: one RNG draw per injected packet instead of one per source per
  // cycle, so idle sources cost nothing. Both modes share the sampler (and
  // hence the RNG stream); they differ only in how due sources are found
  // (reference: linear scan of next_inject_; optimized: (cycle, idx) min-heap,
  // which pops equal-cycle entries in ascending source order — the same order
  // the linear scan visits them).
  void schedule_initial_injections() {
    const long window_end = cfg_.warmup + cfg_.measure;
    next_inject_.assign(active_sources_.size(), window_end);
    if (traffic_.injection_rate <= 0.0) return;
    for (std::size_t i = 0; i < active_sources_.size(); ++i) {
      next_inject_[i] = next_injection_after(-1);
      if (!cfg_.reference_mode && next_inject_[i] < window_end)
        inject_heap_.emplace(next_inject_[i], static_cast<int>(i));
    }
  }

  // First Bernoulli(p) success strictly after `cycle` (inverse-CDF geometric
  // sampling), clamped to the horizon.
  long next_injection_after(long cycle) {
    const double p = traffic_.injection_rate;
    if (p >= 1.0) return cycle + 1;
    const double gap =
        1.0 + std::floor(std::log1p(-rng_.uniform()) / std::log1p(-p));
    const long horizon = cfg_.warmup + cfg_.measure + cfg_.drain;
    const double next = static_cast<double>(cycle) + gap;
    return next >= static_cast<double>(horizon) ? horizon : static_cast<long>(next);
  }

  int pick_dest(int src) {
    switch (traffic_.kind) {
      case TrafficKind::kCoherence: {
        int d = static_cast<int>(rng_.uniform_int(0, n_ - 2));
        if (d >= src) ++d;
        return d;
      }
      case TrafficKind::kShuffle: {
        const int d = core::shuffle_dest(src, n_);
        return d == src ? -1 : d;
      }
      case TrafficKind::kMemory: {
        for (int attempt = 0; attempt < 8; ++attempt) {
          const int d = traffic_.mc_nodes[static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(traffic_.mc_nodes.size()) - 1))];
          if (d != src) return d;
        }
        return -1;
      }
      case TrafficKind::kCustom: {
        const auto& c = cum_[src];
        if (c.empty()) return -1;
        const double r = rng_.uniform() * c.back().first;
        const auto it = std::lower_bound(
            c.begin(), c.end(), r,
            [](const std::pair<double, int>& e, double v) { return e.first < v; });
        const int d = it == c.end() ? c.back().second : it->second;
        return d == src ? -1 : d;
      }
    }
    return -1;
  }

  int packet_size(bool is_request) {
    if (traffic_.kind == TrafficKind::kMemory)
      return is_request ? traffic_.ctrl_flits : traffic_.data_flits;
    return rng_.uniform() < traffic_.data_fraction ? traffic_.data_flits
                                                   : traffic_.ctrl_flits;
  }

  // --- Routes --------------------------------------------------------------
  // A flit carries its position on the route, so a grant reads the next
  // out-port at O(1) instead of searching the route for the router and the
  // router's out-edges for the next hop. Each flow's port sequence is built
  // from its route on the flow's first packet: most runs touch a fraction
  // of the n^2 flows, so the build cost follows the traffic, not n^2.
  int out_degree(int u) const { return port_base_[u + 1] - port_base_[u] - 1; }
  int in_degree(int u) const { return in_base_[u + 1] - in_base_[u]; }

  // Port index at router u of the link towards v; out_degree(u) (the
  // ejection port) when u has no such link.
  int port_of(int u, int v) const {
    const int base = port_base_[u];
    const int eject = port_base_[u + 1] - 1;
    for (int w = base; w < eject; ++w)
      if (port_dst_[w] == v) return w - base;
    return eject - base;
  }

  // Flow (s, d)'s out-port sequence in pt, validating its route on first
  // use: a route must be non-empty, run from s to d over links of the plan's
  // graph and visit no router twice. Anything else would head-of-line block
  // its source forever and report wrong stats, so it throws instead.
  const std::int16_t* ports_of(PortTable& pt, int s, int d,
                               std::span<const int> route) {
    const std::size_t f = static_cast<std::size_t>(s) * n_ + d;
    std::int16_t* ports =
        pt.ports.get() + (route.data() - pt.table->hops().data());
    const std::uint64_t bit = 1ULL << (f & 63);
    if (pt.built[f >> 6] & bit) return ports;
    const auto bad = [&](std::size_t hop, const std::string& what) {
      return std::invalid_argument(
          "simulate: route of flow " + std::to_string(s) + " -> " +
          std::to_string(d) + " is invalid at hop " + std::to_string(hop) +
          ": " + what);
    };
    if (route.empty()) throw bad(0, "the route is empty");
    if (route.front() != s)
      throw bad(0, "starts at router " + std::to_string(route.front()));
    if (route.back() != d)
      throw bad(route.size() - 1,
                "ends at router " + std::to_string(route.back()));
    // route[0] == s, and each later router was checked to be a neighbour
    // of the one before, so every router indexes route_mark_ safely.
    ++route_checks_;
    for (std::size_t i = 0; i < route.size(); ++i) {
      const int u = route[i];
      if (route_mark_[u] == route_checks_)
        throw bad(i, "revisits router " + std::to_string(u));
      route_mark_[u] = route_checks_;
      int port = out_degree(u);  // ejection, at d
      if (i + 1 < route.size()) {
        port = port_of(u, route[i + 1]);
        if (port == out_degree(u))
          throw bad(i, "no link " + std::to_string(u) + " -> " +
                           std::to_string(route[i + 1]));
      }
      ports[i] = static_cast<std::int16_t>(port);
    }
    pt.built[f >> 6] |= bit;
    return ports;
  }

  Packet* make_packet(int src, int dst, int flits, long cycle, bool request) {
    // New packets route by the current epoch's table; the epoch index is
    // pinned into the packet so later repairs never re-route it mid-flight.
    PortTable& pt = port_tables_[faults_ ? epoch_ports_[cur_epoch_] : 0];
    const vc::VcMap& vcm = faults_ ? *epoch_vcs_[cur_epoch_] : plan_.vc_map;
    const int vc = vcm.vc[static_cast<std::size_t>(src) * n_ + dst];
    if (vc < 0) {
      // No route: a fault disconnected the flow (counted degraded), or the
      // base plan is malformed (shouldn't happen when connected).
      if (faults_) ++stats_.packets_unroutable;
      return nullptr;
    }
    const auto route = pt.table->path(src, dst);
    const std::int16_t* ports = ports_of(pt, src, dst, route);
    Packet* p;
    if (!freelist_.empty()) {
      p = freelist_.back();
      freelist_.pop_back();
      *p = Packet{};
    } else {
      arena_.emplace_back();
      p = &arena_.back();
    }
    p->id = next_id_++;
    p->src = src;
    p->dst = dst;
    p->flits = flits;
    p->vc = vc;
    p->route = route.data();
    p->ports = ports;
    p->epoch = static_cast<int>(cur_epoch_);
    p->inject_cycle = cycle;
    p->tagged = cycle >= cfg_.warmup && cycle < cfg_.warmup + cfg_.measure;
    p->is_request = request;
    return p;
  }

  void inject_from(int idx, long cycle) {
    const int s = active_sources_[idx];
    const int d = pick_dest(s);
    if (d < 0) return;
    const bool request = traffic_.kind == TrafficKind::kMemory ||
                         (traffic_.kind == TrafficKind::kCustom &&
                          traffic_.custom_reply);
    Packet* p = make_packet(s, d, packet_size(request), cycle, request);
    if (!p) return;
    sources_[s].packets.push_back(p);
    activate(s);
    ++stats_.total_injected;
    if (p->tagged) ++stats_.tagged_injected;
    if (p->is_request) ++pending_replies_;
  }

  void generate_traffic(long cycle) {
    if (traffic_.injection_rate <= 0.0) return;
    if (cfg_.reference_mode) {
      for (std::size_t i = 0; i < active_sources_.size(); ++i) {
        if (next_inject_[i] != cycle) continue;
        inject_from(static_cast<int>(i), cycle);
        next_inject_[i] = next_injection_after(cycle);
      }
      return;
    }
    const long window_end = cfg_.warmup + cfg_.measure;
    while (!inject_heap_.empty() && inject_heap_.top().first <= cycle) {
      const int i = inject_heap_.top().second;
      inject_heap_.pop();
      inject_from(i, cycle);
      const long next = next_injection_after(cycle);
      next_inject_[static_cast<std::size_t>(i)] = next;
      if (next < window_end) inject_heap_.emplace(next, i);
    }
  }

  // --- Active set ----------------------------------------------------------
  void activate(int u) {
    active_words_[static_cast<std::size_t>(u) >> 6] |= 1ULL << (u & 63);
  }

  // Re-derives u's active bit from the retire predicate. Fault events can
  // empty a router (lossy purges) or find it with nothing to resume (router
  // up) outside the switch pass, and the activity count relies on the active
  // set being exactly the predicate-true set.
  void sync_active(int u) {
    auto& w = active_words_[static_cast<std::size_t>(u) >> 6];
    const std::uint64_t bit = 1ULL << (u & 63);
    if (in_buffered_[u] > 0 || !sources_[u].packets.empty())
      w |= bit;
    else
      w &= ~bit;
  }

  // --- Fault injection -----------------------------------------------------
  // Everything in this section runs only when faults_ is set; the fault-free
  // path never reaches it.

  int channel_id(int u, int v) const {
    const int j = port_of(u, v);
    return j < out_degree(u) ? port_channel_[port_base_[u] + j] : -1;
  }

  // The routing a packet was injected under (its epoch of record).
  const routing::RoutingTable& table_for(const Packet* p) const {
    return faults_ ? *port_tables_[epoch_ports_[static_cast<std::size_t>(
                         p->epoch)]].table
                   : plan_.table;
  }

  // Applies all fault events due at `cycle` (idempotent per component), then
  // advances the current routing epoch. Runs before delivery/switching, so a
  // link failing at cycle c carries nothing during c and a recovering link
  // delivers its stranded flits the same cycle it comes back.
  void apply_fault_events(long cycle) {
    const auto& evs = faults_->events;
    while (next_event_ < evs.size() && evs[next_event_].cycle <= cycle) {
      const fault::FaultEvent& e = evs[next_event_++];
      switch (e.kind) {
        case fault::FaultEventKind::kLinkDown: {
          const int id = channel_id(e.a, e.b);
          if (id >= 0 && !link_down_[id]) {
            link_down_[id] = 1;
            if (faults_->lossy && drop_wire_packets(id))
              for (int u = 0; u < n_; ++u) sync_active(u);
          }
          break;
        }
        case fault::FaultEventKind::kLinkUp: {
          const int id = channel_id(e.a, e.b);
          if (id >= 0 && link_down_[id]) {
            link_down_[id] = 0;
            Channel& ch = channels_[id];
            // Stranded flits resume: re-arm the arrival wheel unless an
            // entry for this channel is already pending. An overdue front
            // files under this cycle, whose bucket delivery has not run yet.
            if (!ch.wire_empty() && !wire_armed_[id]) {
              arm(std::max(ch.wire_front().arrive, cycle), id);
              wire_armed_[id] = 1;
            }
          }
          break;
        }
        case fault::FaultEventKind::kRouterDown:
          router_down_[static_cast<std::size_t>(e.a)] = 1;
          break;
        case fault::FaultEventKind::kRouterUp:
          // A down router keeps any refused injection/ejection work, so it
          // was never retired; resuming needs no activation.
          router_down_[static_cast<std::size_t>(e.a)] = 0;
          break;
      }
    }
    while (cur_epoch_ + 1 < faults_->epochs.size() &&
           faults_->epochs[cur_epoch_ + 1].cycle <= cycle)
      ++cur_epoch_;
  }

  // Lossy link failure: every packet with a flit in flight on the failing
  // wire is purged whole — worm-granular, because dropping part of a worm
  // would leave downstream VC owners held forever. Flits are removed from
  // every wire and buffer in the network, their reserved credits returned,
  // and the packet recycled; counts land in the dropped stats. Returns
  // whether anything was purged.
  bool drop_wire_packets(int id) {
    Channel& ch = channels_[id];
    if (ch.wire_empty()) return false;
    std::vector<Packet*> victims;
    for (int j = 0; j < ch.wire_count; ++j) {
      Packet* p =
          ch.wire[(ch.wire_head + j) % ch.wire.size()].flit.pkt;
      if (!p->dropped) {
        p->dropped = true;
        victims.push_back(p);
      }
    }
    purge_dropped();
    for (Packet* p : victims) {
      ++stats_.packets_dropped;
      if (p->tagged) ++stats_.tagged_dropped;
      if (p->is_request) --pending_replies_;
      // A victim with unsent flits is necessarily its source queue's front
      // (later packets have sent nothing, so they have no wire presence).
      auto& sq = sources_[p->src];
      if (!sq.packets.empty() && sq.packets.front() == p)
        sq.packets.pop_front();
      p->dropped = false;
      freelist_.push_back(p);
    }
    return true;
  }

  // Removes every flit of dropped packets from all wire and buffer rings,
  // restoring the credits those flits held and clearing their VC ownership.
  void purge_dropped() {
    for (std::size_t id = 0; id < channels_.size(); ++id) {
      Channel& ch = channels_[id];
      if (ch.wire_count > 0) {
        const int w = ch.wire_count;
        const std::size_t ring = ch.wire.size();
        int kept = 0;
        for (int j = 0; j < w; ++j) {
          const InFlight f = ch.wire[(ch.wire_head + j) % ring];
          if (f.flit.pkt->dropped) {
            ++ch.state[f.vc].credits;  // reserved downstream slot, never filled
            ++stats_.flits_dropped;
          } else {
            ch.wire[(ch.wire_head + kept) % ring] = f;
            ++kept;
          }
        }
        ch.wire_count = kept;
        // A now-stale wheel entry self-corrects: its pop delivers nothing
        // and re-arms from the surviving front (see deliver_arrivals).
      }
      for (int vc = 0; vc < ch.vcs; ++vc) {
        VcState& st = ch.state[vc];
        if (st.count > 0) {
          const int c = st.count;
          int kept = 0;
          for (int j = 0; j < c; ++j) {
            const Flit f = ch.buf[static_cast<std::size_t>(vc) * ch.cap +
                                  (st.head + j) % ch.cap];
            if (f.pkt->dropped) {
              ++st.credits;
              --in_buffered_[ch.dst];
              ++stats_.flits_dropped;
            } else {
              ch.buf[static_cast<std::size_t>(vc) * ch.cap +
                     (st.head + kept) % ch.cap] = f;
              ++kept;
            }
          }
          st.count = static_cast<std::uint16_t>(kept);
        }
        if (st.owner != nullptr && st.owner->dropped) st.owner = nullptr;
      }
    }
    // Purges change heads anywhere in the network: rebuild every mask.
    std::fill(req_mask_.begin(), req_mask_.end(), 0);
    for (Channel& ch : channels_)
      if (mask_ok_[ch.dst])
        for (int vc = 0; vc < ch.vcs; ++vc)
          if (!ch.empty(vc)) request_word(ch, vc) |= slot_bit(ch, vc);
  }

  // --- Flit movement -------------------------------------------------------
  // Event-driven delivery: instead of scanning every channel every cycle, a
  // timing wheel holds one entry per channel with flits on the wire, filed
  // under the cycle its front flit arrives. Per-channel arrivals are
  // monotone (FIFO wire, fixed latency), so the invariant "on the wheel iff
  // flight non-empty" survives pops and re-arms. Every arm lies in
  // (cycle, cycle + max latency] — except a link-up re-arm at this very
  // cycle, which runs before delivery — so one ring of at least max
  // latency + 1 buckets suffices (a power of two, so the bucket is a mask).
  // Deliveries due in one cycle commute (each moves flits of its own
  // channel, then ORs mask bits and bumps counters at the destination), so
  // bucket order gives the same state as any other order.
  // Every delivery re-arms the downstream router's active bit.
  void arm(long t, int id) {
    wheel_[static_cast<std::size_t>(t) & wheel_mask_].push_back(id);
  }

  void deliver_arrivals(long cycle) {
    // Re-arms land in other buckets, so `due` is stable while we walk it.
    std::vector<int>& due =
        wheel_[static_cast<std::size_t>(cycle) & wheel_mask_];
    for (const int id : due) {
      ++stats_.arrival_heap_pops;
      Channel& ch = channels_[id];
      if (faults_) {
        wire_armed_[id] = 0;
        // A down link strands its in-flight flits: no delivery, no re-arm
        // (kLinkUp re-arms). Drops the wheel entry on the floor.
        if (link_down_[id]) continue;
      }
      bool delivered = false;
      while (!ch.wire_empty() && ch.wire_front().arrive <= cycle) {
        const InFlight& f = ch.wire_front();
        ch.push(f.vc, f.flit);
        if (ch.state[f.vc].count == 1 && mask_ok_[ch.dst])
          request_word(ch, f.vc) |= slot_bit(ch, f.vc);
        ch.wire_pop();
        ++in_buffered_[ch.dst];
        delivered = true;
      }
      // Fault-free, every pop delivers (the wheel invariant guarantees a due
      // front), so the guard never changes behavior; it exists for stale
      // entries left by lossy purges and link-up re-arms.
      if (delivered) activate(ch.dst);
      if (!ch.wire_empty()) {
        arm(ch.wire_front().arrive, id);
        if (faults_) wire_armed_[id] = 1;
      }
    }
    due.clear();
  }

  // Per-port request masks. The head flit of input slot (k, vc) at router
  // u = ch.dst requests one port (Flit::port); its bit lives in that port's
  // word. Bits change only when a head changes: a flit landing in an empty
  // VC, a pop, or a purge (which rebuilds them all).
  std::uint64_t slot_bit(const Channel& ch, int vc) const {
    return 1ULL << (ch.k_at_dst * cfg_.num_vcs + vc);
  }
  std::uint64_t& request_word(Channel& ch, int vc) {
    return req_mask_[static_cast<std::size_t>(port_base_[ch.dst]) +
                     static_cast<std::size_t>(ch.front(vc).port)];
  }

  void switch_router(int u, long cycle) {
    if (cfg_.reference_mode || !mask_ok_[u]) {
      ejection(u, cycle);
      for (int j = 0; j < out_degree(u); ++j) arbitrate_output(u, j, cycle);
      return;
    }
    // Mask mode: a port whose request word is empty, and that the source
    // head is not bound for, returns from arbitration without a side effect,
    // so it is not visited. The source head is re-read per port: a grant can
    // pop it, and an ejection can enqueue a reply behind an empty queue.
    const std::size_t base = static_cast<std::size_t>(port_base_[u]);
    const std::size_t eject = static_cast<std::size_t>(port_base_[u + 1]) - 1;
    if (req_mask_[eject] != 0) ejection(u, cycle);
    const auto& sq = sources_[u];
    for (std::size_t p = base; p < eject; ++p)
      if (req_mask_[p] != 0 ||
          (!sq.packets.empty() &&
           static_cast<std::size_t>(sq.packets.front()->ports[0]) == p - base))
        arbitrate_output(u, static_cast<int>(p - base), cycle);
  }

  // Per-cycle activity accounting. The SimStats sum is always maintained
  // (the equivalence tests compare it across modes); the power-of-two
  // occupancy histogram accumulates locally and flushes once per run.
  void count_occupancy(long active) {
    stats_.active_router_cycles += active;
    if (!metrics_on_) return;
    int b = 0;
    while (b < kOccBuckets - 1 && active > kOccBounds[b]) ++b;
    ++occ_counts_[b];
  }

  void flush_metrics() {
    obs::counter("sim.runs").inc();
    obs::counter("sim.cycles")
        .add(static_cast<std::uint64_t>(stats_.cycles_run));
    obs::counter("sim.flits_injected")
        .add(static_cast<std::uint64_t>(flits_injected_));
    obs::counter("sim.flits_ejected")
        .add(static_cast<std::uint64_t>(flits_ejected_));
    obs::counter("sim.arrival_heap_pops")
        .add(static_cast<std::uint64_t>(stats_.arrival_heap_pops));
    obs::counter("sim.active_router_cycles")
        .add(static_cast<std::uint64_t>(stats_.active_router_cycles));
    auto& h = obs::histogram(
        "sim.active_routers",
        std::vector<double>(kOccBounds, kOccBounds + kOccBuckets - 1));
    for (int b = 0; b < kOccBuckets; ++b) {
      // bounds are inclusive upper edges, so bound b lands in bucket b; the
      // overflow bucket takes anything past the last bound.
      const double rep =
          b < kOccBuckets - 1 ? kOccBounds[b] : kOccBounds[kOccBuckets - 2] + 1;
      h.record_n(rep, static_cast<std::uint64_t>(occ_counts_[b]));
    }
  }

  // Reference mode: visit every router every cycle, ascending. The occupancy
  // pre-scan applies the retire predicate directly; in optimized mode the
  // same number falls out of the active bitmap (activations always accompany
  // new work and retirement only happens on drain, so at the start of the
  // switch phase the active set IS the predicate-true set).
  void switch_all(long cycle) {
    current_cycle_ = cycle;
    long active = 0;
    for (int u = 0; u < n_; ++u)
      if (in_buffered_[u] > 0 || !sources_[u].packets.empty()) ++active;
    count_occupancy(active);
    for (int u = 0; u < n_; ++u) switch_router(u, cycle);
  }

  // Optimized mode: visit only active routers, still in ascending order (the
  // word loop re-reads active_words_[w] so a router activated mid-cycle by an
  // earlier router — a reply enqueued at an ejecting node — is still visited
  // this cycle, exactly as the full scan would). A router retires from the
  // set only when it holds no buffered flit and no queued source packet;
  // anything blocked on credits or bandwidth stays in.
  void switch_active(long cycle) {
    current_cycle_ = cycle;
    long active = 0;
    for (std::uint64_t w : active_words_) active += std::popcount(w);
    count_occupancy(active);
    for (std::size_t w = 0; w < active_words_.size(); ++w) {
      std::uint64_t done = 0;
      while (std::uint64_t pending = active_words_[w] & ~done) {
        const int bit = std::countr_zero(pending);
        done |= 1ULL << bit;
        const int u = static_cast<int>(w << 6) + bit;
        switch_router(u, cycle);
        if (in_buffered_[u] == 0 && sources_[u].packets.empty())
          active_words_[w] &= ~(1ULL << bit);
      }
    }
  }

  // Head flit of (input source k, vc) at router u, or nullptr.
  Flit* peek(int u, int k, int vc) {
    if (k < in_degree(u)) {
      Channel& ch = channels_[in_channel_[in_base_[u] + k]];
      return ch.empty(vc) ? nullptr : &ch.front(vc);
    }
    // Injection source: synthesize the next flit view of the head packet.
    // A down router's NI refuses injection; its queue backs up instead.
    if (faults_ && router_down_[static_cast<std::size_t>(u)]) return nullptr;
    auto& sq = sources_[u];
    if (sq.packets.empty() || !source_bw_free(sq)) return nullptr;
    Packet* p = sq.packets.front();
    if (p->vc != vc) return nullptr;
    inject_view_.pkt = p;
    inject_view_.head = p->flits_sent == 0;
    inject_view_.tail = p->flits_sent == p->flits - 1;
    inject_view_.port = p->ports[0];
    inject_view_.hop = 0;
    return &inject_view_;
  }

  void pop(int u, int k, int vc, long cycle) {
    if (k < in_degree(u)) {
      const int id = in_channel_[in_base_[u] + k];
      Channel& ch = channels_[id];
      if (mask_ok_[u]) request_word(ch, vc) &= ~slot_bit(ch, vc);
      ch.pop(vc);
      if (mask_ok_[u] && !ch.empty(vc))
        request_word(ch, vc) |= slot_bit(ch, vc);
      ++ch.state[vc].credits;  // instantaneous credit return (simplification)
      --in_buffered_[u];
      last_input_pop_[id] = cycle;
    } else {
      auto& sq = sources_[u];
      Packet* p = sq.packets.front();
      ++p->flits_sent;
      ++flits_injected_;
      if (sq.bw_cycle != cycle) {
        sq.bw_cycle = cycle;
        sq.flits_this_cycle = 0;
      }
      ++sq.flits_this_cycle;
      if (p->flits_sent == p->flits) sq.packets.pop_front();
    }
  }

  bool source_bw_free(const SourceQueue& sq) const {
    return sq.bw_cycle != current_cycle_ ||
           sq.flits_this_cycle < cfg_.io_flits_per_cycle;
  }

  bool input_port_free(int u, int k, long cycle) const {
    if (k < in_degree(u))
      return last_input_pop_[in_channel_[in_base_[u] + k]] != cycle;
    return source_bw_free(sources_[u]);
  }

  // Output port j of router u (the link port_channel_[port_base_[u] + j]).
  void arbitrate_output(int u, int j, long cycle) {
    const int eid = port_channel_[port_base_[u] + j];
    if (faults_ && link_down_[eid]) return;  // down links accept no flits
    Channel& out = channels_[eid];
    const std::size_t num_inputs = static_cast<std::size_t>(in_degree(u)) + 1;
    const std::size_t slots = num_inputs * cfg_.num_vcs;
    int& rr = out_rr_[eid];

    // Returns true when slot = (input k, vc) wins the output this cycle.
    const auto try_slot = [&](int k, int vc, std::size_t slot) {
      if (!input_port_free(u, k, cycle)) return false;
      Flit* f = peek(u, k, vc);
      if (!f) return false;
      Packet* p = f->pkt;
      assert(p->route[f->hop] == u && p->ports[f->hop] == f->port);
      if (cfg_.reference_mode) {
        // Oracle: route from the table per candidate, as the original scan
        // did. f->port caches exactly this lookup (the ejection port when
        // p->dst == u).
        if (p->dst == u) return false;  // belongs to the ejection port
        if (table_for(p).next_hop(u, p->src, p->dst) != out.dst) return false;
      } else if (f->port != j) {
        return false;
      }
      // Wormhole VC allocation + credit check.
      VcState& st = out.state[vc];
      if (st.owner != nullptr && st.owner != p) return false;
      if (st.owner == nullptr && !f->head) return false;
      if (st.credits <= 0) return false;

      // Grant: the flit moves one router along its route.
      Flit sent = *f;
      ++sent.hop;
      sent.port = p->ports[sent.hop];
      pop(u, k, vc, cycle);
      --st.credits;
      st.owner = sent.tail ? nullptr : p;
      if (out.wire_empty() && (!faults_ || !wire_armed_[eid])) {
        arm(cycle + out.latency, eid);
        if (faults_) wire_armed_[eid] = 1;
      }
      out.wire_push({cycle + out.latency, sent, vc});
      rr = slot + 1 == slots ? 0 : static_cast<int>(slot + 1);
      return true;  // one flit per output per cycle
    };

    if (!cfg_.reference_mode && mask_ok_[u]) {
      // Visit only slots whose head requests this output, in the same cyclic
      // order the full scan uses. Every skipped slot — empty, or headed
      // elsewhere — fails try_slot's port test, which has no side effects,
      // so grants (and hence the round-robin pointer) are identical.
      std::uint64_t m = req_mask_[static_cast<std::size_t>(port_base_[u] + j)];
      const auto& sq = sources_[u];
      if (!sq.packets.empty() && sq.packets.front()->ports[0] == j)
        m |= 1ULL << (in_degree(u) * cfg_.num_vcs + sq.packets.front()->vc);
      if (m == 0) return;
      const std::uint64_t below_rr = (1ULL << rr) - 1;
      for (std::uint64_t part : {m & ~below_rr, m & below_rr})
        while (part) {
          const int slot = std::countr_zero(part);
          part &= part - 1;
          if (try_slot(slot_k_[slot], slot_vc_[slot],
                       static_cast<std::size_t>(slot)))
            return;
        }
      return;
    }
    for (std::size_t step = 0; step < slots; ++step) {
      const std::size_t slot = (rr + step) % slots;
      if (try_slot(static_cast<int>(slot / cfg_.num_vcs),
                   static_cast<int>(slot % cfg_.num_vcs), slot))
        return;
    }
  }

  void ejection(int u, long cycle) {
    if (faults_ && router_down_[static_cast<std::size_t>(u)]) return;
    const std::size_t slots =
        static_cast<std::size_t>(in_degree(u)) * cfg_.num_vcs;
    if (slots == 0) return;
    int& rr = eject_rr_[u];

    const auto try_slot = [&](int k, int vc, std::size_t slot) {
      if (!input_port_free(u, k, cycle)) return false;
      Channel& ch = channels_[in_channel_[in_base_[u] + k]];
      if (ch.empty(vc)) return false;
      const Flit f = ch.front(vc);
      if (f.pkt->dst != u) return false;
      pop(u, k, vc, cycle);
      ++flits_ejected_;
      if (f.tail) complete_packet(f.pkt, cycle);
      rr = slot + 1 == slots ? 0 : static_cast<int>(slot + 1);
      return true;
    };

    for (int granted = 0; granted < cfg_.io_flits_per_cycle; ++granted) {
      bool any = false;
      if (!cfg_.reference_mode && mask_ok_[u]) {
        // The ejection word holds exactly the slots whose head is addressed
        // here; reload it each grant, since the pop changed a head.
        const std::uint64_t m =
            req_mask_[static_cast<std::size_t>(port_base_[u + 1]) - 1];
        const std::uint64_t below_rr = (1ULL << rr) - 1;
        for (std::uint64_t part : {m & ~below_rr, m & below_rr}) {
          while (part && !any) {
            const int slot = std::countr_zero(part);
            part &= part - 1;
            any = try_slot(slot_k_[slot], slot_vc_[slot],
                           static_cast<std::size_t>(slot));
          }
          if (any) break;
        }
      } else {
        for (std::size_t step = 0; step < slots && !any; ++step) {
          const std::size_t slot = (rr + step) % slots;
          any = try_slot(static_cast<int>(slot / cfg_.num_vcs),
                         static_cast<int>(slot % cfg_.num_vcs), slot);
        }
      }
      if (!any) return;
    }
  }

  void complete_packet(Packet* p, long cycle) {
    ++stats_.total_ejected;
    if (cycle >= cfg_.warmup && cycle < cfg_.warmup + cfg_.measure)
      ++ejected_in_window_;
    if (p->tagged) {
      ++stats_.tagged_completed;
      latency_sum_ += cycle - p->inject_cycle + 1;
      latencies_.push_back(cycle - p->inject_cycle + 1);
    }
    if (p->is_request) {
      --pending_replies_;  // the request itself
      // Generate the data reply (memory / custom request-reply traffic).
      Packet* reply = make_packet(p->dst, p->src, traffic_.data_flits, cycle,
                                  /*request=*/false);
      if (reply) {
        reply->tagged = p->tagged;
        if (reply->tagged) ++stats_.tagged_injected;
        ++stats_.total_injected;
        sources_[reply->src].packets.push_back(reply);
        activate(reply->src);
      }
    }
    // The tail just ejected, so no buffer, wire or VC owner references p any
    // more: recycle it. (Long saturated drains no longer hold every packet
    // ever injected.)
    freelist_.push_back(p);
  }

  void record_backlog() {
    long total = 0;
    for (const auto& sq : sources_)
      total += static_cast<long>(sq.packets.size());
    stats_.mean_source_backlog =
        static_cast<double>(total) / std::max<std::size_t>(1, active_sources_.size());
  }

  // End-of-run accounting backing the conservation invariant tests.
  void record_residuals() {
    stats_.flits_injected = flits_injected_;
    stats_.flits_ejected = flits_ejected_;
    std::vector<int> wire_vc;
    for (const auto& ch : channels_) {
      // A credit is claimed when the flit enters the wire, so it mirrors the
      // downstream slots that are occupied *or reserved by an in-flight flit*.
      wire_vc.assign(ch.vcs, 0);
      for (int j = 0; j < ch.wire_count; ++j)
        ++wire_vc[ch.wire[(ch.wire_head + j) % ch.wire.size()].vc];
      for (int vc = 0; vc < ch.vcs; ++vc) {
        const VcState& st = ch.state[vc];
        stats_.flits_buffered_end += st.count;
        if (st.credits != cfg_.buf_flits - st.count - wire_vc[vc])
          stats_.credits_consistent = false;
        if (st.owner != nullptr) stats_.owners_clear = false;
      }
      stats_.flits_inflight_end += ch.wire_count;
    }
    for (const auto& sq : sources_)
      for (const Packet* p : sq.packets)
        stats_.source_flits_end += p->flits - p->flits_sent;
  }

  const core::NetworkPlan& plan_;
  TrafficConfig traffic_;
  SimConfig cfg_;
  int n_;
  util::Rng rng_;

  std::vector<Channel> channels_;
  // Arrival timing wheel: bucket t % size holds the channels whose front
  // flit arrives at cycle t; see deliver_arrivals. Buckets keep their
  // capacity, so the steady state allocates nothing.
  std::vector<std::vector<int>> wheel_;
  std::size_t wheel_mask_ = 0;  // wheel_.size() - 1 (a power of two)
  // CSR adjacency: router v's in-edges are in_channel_[in_base_[v] ..
  // in_base_[v + 1]), position k being input k of its switch; its out-edges
  // are its port words (port_base_, port_channel_).
  std::vector<int> in_base_, in_channel_;
  std::vector<int> out_rr_, eject_rr_;
  std::vector<long> last_input_pop_;
  std::vector<SourceQueue> sources_;
  std::vector<int> active_sources_;
  std::vector<std::vector<std::pair<double, int>>> cum_;

  // Active-set state: one bit per router, plus the number of flits buffered
  // across the router's input VCs (maintained by deliver/pop).
  std::vector<std::uint64_t> active_words_;
  std::vector<int> in_buffered_;
  // Observability: gate sampled once per run; per-cycle active-router counts
  // binned into power-of-two buckets, flushed to the registry at run end.
  static constexpr double kOccBounds[] = {0,  1,  2,   4,   8,   16,
                                          32, 64, 128, 256, 512, 1024};
  static constexpr int kOccBuckets =
      static_cast<int>(sizeof(kOccBounds) / sizeof(kOccBounds[0])) + 1;
  bool metrics_on_ = false;
  long occ_counts_[kOccBuckets] = {};
  // Port words: router u owns words port_base_[u] .. port_base_[u + 1] - 1,
  // one per out-edge and a last one for ejection. Word p's link is channel
  // port_channel_[p] towards router port_dst_[p] (both -1 for ejection).
  // The per-port request masks for mask-driven arbitration use the same
  // words: bit (k, vc) of word p is set iff the head flit of input slot
  // (k, vc) requests port p. Maintained only while the slot space fits one
  // word (mask_ok_, per router). slot_k_ / slot_vc_ decode a request-word
  // bit into its (input, VC) pair.
  std::vector<int> port_base_;
  std::vector<int> port_channel_;
  std::vector<int> port_dst_;
  std::vector<std::uint64_t> req_mask_;
  std::vector<std::uint8_t> mask_ok_;
  std::uint8_t slot_k_[64] = {};
  std::uint8_t slot_vc_[64] = {};

  // Injection schedule: next injection cycle per source index, mirrored in a
  // (cycle, idx) min-heap in optimized mode.
  std::vector<long> next_inject_;
  std::priority_queue<std::pair<long, int>, std::vector<std::pair<long, int>>,
                      std::greater<>>
      inject_heap_;

  // Fault state (sized only when a non-empty plan is attached). wire_armed_
  // mirrors "this channel has an arrival-wheel entry pending" — the fault
  // paths (stranding, purges, link-up re-arms) break the fault-free
  // invariant that an entry exists iff the wire is non-empty, so re-arming
  // needs an explicit flag to stay duplicate-free.
  const fault::FaultPlan* faults_ = nullptr;
  std::size_t next_event_ = 0;
  std::size_t cur_epoch_ = 0;
  std::vector<std::size_t> epoch_ports_;  // per epoch: its port_tables_ entry
  std::vector<const vc::VcMap*> epoch_vcs_;
  std::vector<std::uint8_t> link_down_;    // per channel id
  std::vector<std::uint8_t> router_down_;  // per router
  std::vector<std::uint8_t> wire_armed_;   // per channel id
  std::vector<long> latencies_;  // tagged completion latencies (percentiles)

  // Route state: [0] routes by the base plan, later entries by repaired
  // fault epochs. route_mark_ stamps the routers of the route being
  // validated with route_checks_, to catch a revisit.
  std::vector<PortTable> port_tables_;
  std::vector<long> route_mark_;
  long route_checks_ = 0;

  std::deque<Packet> arena_;        // stable storage; grows only when the
  std::vector<Packet*> freelist_;   // freelist of completed packets is empty
  Flit inject_view_;
  long next_id_ = 0;
  long current_cycle_ = -1;
  long latency_sum_ = 0;
  long ejected_in_window_ = 0;
  long pending_replies_ = 0;
  long flits_injected_ = 0;
  long flits_ejected_ = 0;

  SimStats stats_;
};

}  // namespace

SimStats simulate(const core::NetworkPlan& plan, const TrafficConfig& traffic,
                  const SimConfig& cfg) {
  Simulator s(plan, traffic, cfg);
  return s.run();
}

}  // namespace netsmith::sim
