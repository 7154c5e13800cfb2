#pragma once
// FNV-1a digest over every SimStats field, in declaration order. Golden
// values recorded from one implementation of the simulator pin every
// counter, flag and double of a run, so a later rewrite of the event loop
// must reproduce the exact same run, not merely agree with the reference
// mode (which shares the delivery path with the optimized mode).

#include <bit>
#include <cstdint>

#include "sim/network.hpp"

namespace netsmith::sim::testing {

inline std::uint64_t stats_digest(const SimStats& s) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_d = [&mix](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  const auto mix_i = [&mix](long v) { mix(static_cast<std::uint64_t>(v)); };
  mix_d(s.offered);
  mix_d(s.accepted);
  mix_d(s.avg_latency_cycles);
  mix_i(s.tagged_injected);
  mix_i(s.tagged_completed);
  mix_i(s.total_injected);
  mix_i(s.total_ejected);
  mix_i(s.saturated);
  mix_d(s.mean_source_backlog);
  mix_i(s.cycles_run);
  mix_i(s.flits_injected);
  mix_i(s.flits_ejected);
  mix_i(s.flits_buffered_end);
  mix_i(s.flits_inflight_end);
  mix_i(s.source_flits_end);
  mix_i(s.credits_consistent);
  mix_i(s.owners_clear);
  mix_i(s.active_router_cycles);
  mix_i(s.arrival_heap_pops);
  mix_i(s.flits_dropped);
  mix_i(s.packets_dropped);
  mix_i(s.tagged_dropped);
  mix_i(s.packets_unroutable);
  mix_d(s.latency_p50_cycles);
  mix_d(s.latency_p99_cycles);
  mix_d(s.delivered_fraction);
  return h;
}

}  // namespace netsmith::sim::testing
