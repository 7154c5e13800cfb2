#pragma once
// Injection-rate sweeps and saturation-throughput extraction (paper Figs. 6,
// 10, 11). Sweep points are independent simulations and run in parallel
// with OpenMP. Cross-class comparisons use absolute units: latency in ns and
// throughput in packets/node/ns at the class clock (paper SIV: small/medium/
// large NoIs run at 3.6/3.0/2.7 GHz).
//
// Sweeps are adaptive by default: points run in ascending-rate waves (one
// wave per OpenMP thread team), and once a completed wave contains a
// saturated point, every later point runs with a truncated measure/drain
// window. Saturated points are the expensive ones — they never take the
// early drain exit — and past the knee only the saturated flag and a rough
// accepted throughput matter. Truncation decisions depend only on completed
// waves, so results are deterministic for a fixed thread count. Waves run
// only when the sweep is adaptive: a fixed sweep runs every point in one
// parallel region, highest rate first, and its results do not depend on
// the thread count.

#include <vector>

#include "sim/network.hpp"

namespace netsmith::sim {

struct SweepPoint {
  double offered_pkt_node_cycle = 0.0;
  SimStats stats;
  double latency_ns = 0.0;
  double accepted_pkt_node_ns = 0.0;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  double zero_load_latency_cycles = 0.0;
  double zero_load_latency_ns = 0.0;
  // Highest accepted throughput with latency below the saturation threshold.
  double saturation_pkt_node_cycle = 0.0;
  double saturation_pkt_node_ns = 0.0;
  // OpenMP thread count the sweep ran with. Adaptive truncation decisions
  // depend on the wave size (= thread count), so results are only
  // reproducible for the same value; reports surface it as provenance.
  int omp_threads = 1;
};

// Geometric-ish grid of offered rates up to max_rate.
std::vector<double> default_rates(double max_rate, int points = 14);

struct SweepOptions {
  // Past the first saturated wave, cut measure/drain windows to a quarter
  // (never below the floors).
  bool adaptive = true;
  long min_measure = 1000;  // truncated windows never shrink below these
  long min_drain = 2000;
};

// Throws what simulate throws (std::invalid_argument for a malformed plan
// or traffic config): the error of the lowest failing job, the zero-load
// run being job 0 and rate point i job i + 1.
SweepResult injection_sweep(const core::NetworkPlan& plan,
                            const TrafficConfig& traffic, const SimConfig& cfg,
                            double clock_ghz, const std::vector<double>& rates,
                            const SweepOptions& opt = {});

// Convenience: sweeps up to slightly above the analytic routed bound (which
// assumes uniform traffic). For other patterns pass max_rate_override, e.g.
// from routing::analyze_pattern on the pattern's weight matrix.
SweepResult sweep_to_saturation(const core::NetworkPlan& plan,
                                const TrafficConfig& traffic,
                                const SimConfig& cfg, double clock_ghz,
                                int points = 14,
                                double max_rate_override = 0.0,
                                const SweepOptions& opt = {});

}  // namespace netsmith::sim
