#include "sim/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "obs/trace.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace netsmith::sim {

namespace {

// Latency blowing past this multiple of zero-load marks saturation.
constexpr double kSaturationLatencyFactor = 6.0;
// Adaptive sweeps shrink measure/drain windows by this factor once a wave
// saturates.
constexpr long kTruncateFactor = 4;

}  // namespace

std::vector<double> default_rates(double max_rate, int points) {
  std::vector<double> rates;
  rates.reserve(points);
  // Denser near the knee: quadratic spacing.
  for (int i = 1; i <= points; ++i) {
    const double f = static_cast<double>(i) / points;
    rates.push_back(max_rate * f * f * 0.3 + max_rate * f * 0.7);
  }
  return rates;
}

SweepResult injection_sweep(const core::NetworkPlan& plan,
                            const TrafficConfig& traffic, const SimConfig& cfg,
                            double clock_ghz,
                            const std::vector<double>& rates,
                            const SweepOptions& opt) {
  SweepResult result;
  if (rates.empty()) return result;
  result.points.resize(rates.size());

  obs::Span span("sim/sweep");
  span.arg("points", static_cast<int>(rates.size()));
  span.arg("max_rate", rates.back());

  // Job 0 is the zero-load reference run; job i >= 1 is rate point i - 1.
  // Every job has its own seed and result slot, so without truncation the
  // schedule cannot change a result.
  SimStats zero_stats;
  const auto run_job = [&](std::size_t job, bool truncate) {
    if (job == 0) {
      TrafficConfig t0 = traffic;
      t0.injection_rate = std::max(1e-4, rates.front() * 0.05);
      zero_stats = simulate(plan, t0, cfg);
      return;
    }
    const std::size_t i = job - 1;
    TrafficConfig t = traffic;
    t.injection_rate = rates[i];
    SimConfig c = cfg;
    c.seed = cfg.seed + 1000 + i;  // independent streams per point
    if (truncate) {
      // Floors keep short-window estimates usable, but never let the
      // "truncated" window exceed what the caller configured.
      c.measure = std::min(cfg.measure, std::max(opt.min_measure,
                                                 cfg.measure / kTruncateFactor));
      c.drain = std::min(cfg.drain,
                         std::max(opt.min_drain, cfg.drain / kTruncateFactor));
    }
    SweepPoint pt;
    pt.offered_pkt_node_cycle = rates[i];
    pt.stats = simulate(plan, t, c);
    pt.latency_ns = pt.stats.avg_latency_cycles / clock_ghz;
    pt.accepted_pkt_node_ns = pt.stats.accepted * clock_ghz;
    result.points[i] = pt;
  };

#if defined(_OPENMP)
  const std::size_t wave = static_cast<std::size_t>(
      std::max(1, omp_get_max_threads()));
#else
  const std::size_t wave = 1;
#endif
  result.omp_threads = static_cast<int>(wave);
  const std::size_t total = rates.size() + 1;
  // An exception may not leave an OpenMP region (it would terminate the
  // process), so each job parks its own and the sweep rethrows the one of
  // the lowest job index after the region: the same error whatever the
  // schedule.
  std::vector<std::exception_ptr> errors(total);
  const auto guarded_job = [&](std::size_t job, bool truncate) {
    try {
      run_job(job, truncate);
    } catch (...) {
      errors[job] = std::current_exception();
    }
  };
  const auto rethrow_first = [&errors] {
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  };
  if (!opt.adaptive) {
    // One region, no barriers: highest rate (slowest run) first, so the
    // long saturated points start early and the cheap ones fill in.
#pragma omp parallel for schedule(dynamic, 1)
    for (std::size_t k = 0; k < total; ++k) guarded_job(total - 1 - k, false);
    rethrow_first();
  } else {
    // Adaptive: ascending-rate waves sized to the thread team. Truncation
    // for a wave depends only on completed waves, so the sweep stays
    // deterministic per thread count while the zero-load run and the
    // low-rate points still overlap.
    bool saturated_seen = false;
    for (std::size_t begin = 0; begin < total; begin += wave) {
      const std::size_t end = std::min(total, begin + wave);
      const bool truncate = saturated_seen;
#pragma omp parallel for schedule(dynamic)
      for (std::size_t job = begin; job < end; ++job)
        guarded_job(job, truncate);
      // Waves run in job order, so the first failing wave holds the lowest
      // failing index of the whole sweep.
      rethrow_first();
      for (std::size_t job = std::max<std::size_t>(begin, 1); job < end; ++job)
        if (result.points[job - 1].stats.saturated) saturated_seen = true;
    }
  }
  result.zero_load_latency_cycles = zero_stats.avg_latency_cycles;
  result.zero_load_latency_ns = zero_stats.avg_latency_cycles / clock_ghz;

  // Saturation throughput: the highest accepted rate before the latency
  // threshold (or explicit saturation flag) trips.
  const double threshold =
      result.zero_load_latency_cycles * kSaturationLatencyFactor;
  for (const auto& pt : result.points) {
    const bool sat = pt.stats.saturated ||
                     (pt.stats.avg_latency_cycles > threshold &&
                      result.zero_load_latency_cycles > 0.0);
    if (!sat)
      result.saturation_pkt_node_cycle =
          std::max(result.saturation_pkt_node_cycle, pt.stats.accepted);
    else
      // Accepted throughput at/after saturation is still a valid measure of
      // delivered bandwidth (input-queued networks can deliver slightly more
      // under overload).
      result.saturation_pkt_node_cycle =
          std::max(result.saturation_pkt_node_cycle,
                   std::min(pt.stats.accepted, pt.offered_pkt_node_cycle));
  }
  result.saturation_pkt_node_ns = result.saturation_pkt_node_cycle * clock_ghz;
  return result;
}

SweepResult sweep_to_saturation(const core::NetworkPlan& plan,
                                const TrafficConfig& traffic,
                                const SimConfig& cfg, double clock_ghz,
                                int points, double max_rate_override,
                                const SweepOptions& opt) {
  double max_rate = max_rate_override;
  if (max_rate <= 0.0) {
    // The routed channel-load bound caps useful offered rates.
    max_rate = 0.5;
    if (plan.max_channel_load > 0.0)
      max_rate = std::min(1.0, 1.6 / plan.max_channel_load);
    // Account for multi-flit packets: rates are packets/node/cycle but links
    // carry flits; the average packet is (1 + data_fraction*(data-1)) flits.
    const double avg_flits =
        traffic.kind == TrafficKind::kMemory
            ? 0.5 * (traffic.ctrl_flits + traffic.data_flits)
            : traffic.ctrl_flits + traffic.data_fraction *
                                       (traffic.data_flits - traffic.ctrl_flits);
    max_rate /= std::max(1.0, avg_flits);
  }
  return injection_sweep(plan, traffic, cfg, clock_ghz,
                         default_rates(max_rate, points), opt);
}

}  // namespace netsmith::sim
