#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "routing/channel_load.hpp"
#include "sim_digest.hpp"
#include "topo/builders.hpp"

namespace netsmith::sim {
namespace {

TEST(DefaultRates, MonotoneAndBounded) {
  const auto rates = default_rates(0.2, 10);
  ASSERT_EQ(rates.size(), 10u);
  for (std::size_t i = 1; i < rates.size(); ++i)
    EXPECT_GT(rates[i], rates[i - 1]);
  EXPECT_GT(rates.front(), 0.0);
  EXPECT_NEAR(rates.back(), 0.2, 1e-12);
}

class SweepTest : public ::testing::Test {
 protected:
  static SimConfig cfg() {
    SimConfig c;
    c.warmup = 1500;
    c.measure = 4000;
    c.drain = 10000;
    return c;
  }
};

TEST_F(SweepTest, ZeroLoadAndSaturationPopulated) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = core::plan_network(topo::build_folded_torus(lay), lay,
                                       core::RoutingPolicy::kMclb, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  const auto r = sweep_to_saturation(plan, t, cfg(), 3.0, /*points=*/6);
  EXPECT_GT(r.zero_load_latency_cycles, 5.0);
  EXPECT_NEAR(r.zero_load_latency_ns, r.zero_load_latency_cycles / 3.0, 1e-9);
  EXPECT_GT(r.saturation_pkt_node_cycle, 0.0);
  EXPECT_EQ(r.points.size(), 6u);
}

TEST_F(SweepTest, SaturationBelowOccupancyBound) {
  // The measured saturation (packets/node/cycle, avg 5 flits/packet) cannot
  // exceed the flit-level occupancy bound.
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_folded_torus(lay);
  const auto plan =
      core::plan_network(g, lay, core::RoutingPolicy::kMclb, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  const auto r = sweep_to_saturation(plan, t, cfg(), 3.0, 6);
  const double avg_flits = 1 + 0.5 * 8;  // 50/50 ctrl(1)/data(9)
  EXPECT_LE(r.saturation_pkt_node_cycle * avg_flits,
            routing::occupancy_bound(g) * 1.15);
}

TEST_F(SweepTest, NsUnitsConsistent) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = core::plan_network(topo::build_mesh(lay), lay,
                                       core::RoutingPolicy::kMclb, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  const auto r = injection_sweep(plan, t, cfg(), 2.5, {0.01, 0.02});
  for (const auto& pt : r.points) {
    EXPECT_NEAR(pt.latency_ns, pt.stats.avg_latency_cycles / 2.5, 1e-9);
    EXPECT_NEAR(pt.accepted_pkt_node_ns, pt.stats.accepted * 2.5, 1e-9);
  }
}

TEST_F(SweepTest, BetterTopologyHigherSaturation) {
  // Folded torus should saturate later than the mesh (more links, shorter
  // routes) under identical conditions.
  const auto lay = topo::Layout::noi_4x5();
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  const auto mesh = sweep_to_saturation(
      core::plan_network(topo::build_mesh(lay), lay,
                         core::RoutingPolicy::kMclb, 6),
      t, cfg(), 3.0, 8);
  const auto ft = sweep_to_saturation(
      core::plan_network(topo::build_folded_torus(lay), lay,
                         core::RoutingPolicy::kMclb, 6),
      t, cfg(), 3.0, 8);
  EXPECT_GT(ft.saturation_pkt_node_cycle, mesh.saturation_pkt_node_cycle);
}

// Digest of a whole sweep: every point's SimStats digest, then the zero-load
// latency and the extracted saturation throughput.
std::uint64_t sweep_digest(const SweepResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& pt : r.points) mix(testing::stats_digest(pt.stats));
  mix(std::bit_cast<std::uint64_t>(r.zero_load_latency_cycles));
  mix(std::bit_cast<std::uint64_t>(r.saturation_pkt_node_cycle));
  return h;
}

// Runs f with the OpenMP team width set to `threads`, restoring the old
// width afterwards.
template <class F>
SweepResult at_width(int threads, F&& f) {
#if defined(_OPENMP)
  struct Restore {
    int saved = omp_get_max_threads();
    ~Restore() { omp_set_num_threads(saved); }
  } restore;
  omp_set_num_threads(threads);
  return f();
#else
  (void)threads;
  return f();
#endif
}

// Schedule independence: a fixed (non-adaptive) sweep gives every point its
// own seed and result slot, so the point results, zero-load latency and
// saturation are the same at any team width and equal the recorded run. An
// adaptive sweep depends on its wave size and is pinned at width 2.
TEST_F(SweepTest, FixedSweepIsScheduleIndependent) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = core::plan_network(topo::build_folded_torus(lay), lay,
                                       core::RoutingPolicy::kMclb, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  SimConfig c;
  c.warmup = 300;
  c.measure = 800;
  c.drain = 2000;
  c.seed = 41;
  SweepOptions fixed;
  fixed.adaptive = false;
  constexpr std::uint64_t kFixedDigest = 0x31516a7a4e197cecull;
  for (const int width : {1, 2, 3}) {
    const auto r = at_width(width, [&] {
      return sweep_to_saturation(plan, t, c, 3.0, 6, 0.0, fixed);
    });
    ASSERT_EQ(r.points.size(), 6u);
    EXPECT_EQ(sweep_digest(r), kFixedDigest)
        << "width " << width << ": 0x" << std::hex << sweep_digest(r);
  }

  SweepOptions adaptive;
  adaptive.min_measure = 200;
  adaptive.min_drain = 500;
  const auto a = at_width(2, [&] {
    return sweep_to_saturation(plan, t, c, 3.0, 6, 0.0, adaptive);
  });
  EXPECT_EQ(sweep_digest(a), 0xc32046fb172f91e7ull)
      << "adaptive: 0x" << std::hex << sweep_digest(a);
  // The grid crosses saturation, so truncation did shorten later points.
  EXPECT_NE(sweep_digest(a), kFixedDigest);
}

// A simulate that throws inside the sweep's OpenMP region reaches the
// caller as the same exception, at any width, fixed or adaptive; it used to
// terminate the process. Memory traffic without mc_nodes fails every job.
TEST_F(SweepTest, SimulateErrorReachesTheCaller) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = core::plan_network(topo::build_mesh(lay), lay,
                                       core::RoutingPolicy::kMclb, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kMemory;  // no mc_nodes
  SweepOptions fixed;
  fixed.adaptive = false;
  for (const int width : {1, 4})
    for (const SweepOptions& opt : {SweepOptions{}, fixed}) {
      try {
        at_width(width, [&] {
          return sweep_to_saturation(plan, t, cfg(), 3.0, 6, 0.0, opt);
        });
        ADD_FAILURE() << "width " << width << ": no throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "memory traffic requires mc_nodes");
      }
    }
}

}  // namespace
}  // namespace netsmith::sim
