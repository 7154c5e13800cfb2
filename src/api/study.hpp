#pragma once
// Study runner: expands an ExperimentSpec's grid (topologies x objectives x
// seeds x traffic) into a job DAG with shared-artifact caching and executes
// it on a job executor (api/executor.hpp).
//
// Artifact sharing: every distinct topology key is synthesized/built exactly
// once, every distinct plan key routed exactly once, and every distinct
// (plan, traffic) pair simulated exactly once, no matter how many grid rows
// reference it. Jobs run as their dependencies finish; each job writes only
// its own slot, so the assembled Report is byte-identical across thread
// counts (OpenMP width inside a sweep is the one environmental input, and it
// is recorded per sweep row).
//
// DAG shape:   topology ──► plan ──► sweep (x traffic)
//                   │          └───► resilience (x traffic x fault scenario)
//                   └─────► power
//
// Robustness: a throwing job records its artifact as failed instead of
// aborting the study; downstream jobs are skipped with a reason, and the
// Report carries the failure list as provenance (`failed_jobs`). Rows whose
// producing job failed keep default values.
//
// Keys (DESIGN.md "Experiment API"): topology keys canonicalize the source
// ("baseline:<family:k=v>", "catalog:<routers>:<row>", "explicit:<adjacency>",
// "synth:<full config>"); plan keys append policy/vcs/seed/path-budget/
// chiplet so caches never alias plans built differently.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/artifact_cache.hpp"
#include "api/executor.hpp"
#include "api/report.hpp"
#include "api/spec.hpp"
#include "core/config.hpp"
#include "core/plan.hpp"
#include "power/dsent_lite.hpp"
#include "system/chiplet.hpp"
#include "topologies/registry.hpp"

namespace netsmith::api {

struct TopologyArtifact {
  std::string key;
  TopologySource source = TopologySource::kBaseline;
  topologies::NamedTopology topo;  // synthesize: graph filled by the job
  // Synthesize inputs (pending until the job runs).
  core::SynthesisConfig synth_cfg;
  bool synthesized = false;
  core::SynthesisResult synth;
  // spec.analytic metrics (filled by the topology job).
  double avg_hops = 0.0;
  int diameter = 0;
  int bisection_bw = 0;
  double cut_bound = 0.0;
  double avg_extra_edge_delay = 0.0;
};

struct PlanArtifact {
  std::string key;
  int topology = -1;  // index into Study::topology_artifacts()
  std::uint64_t seed = 0;
  core::NetworkPlan plan;
  bool has_system = false;
  system::ChipletSystem system;  // spec.chiplet_system only
};

struct StudyOptions {
  // Thread-pool width; -1 = spec.threads, 0 = hardware concurrency. Does
  // not affect results, only wall clock.
  int threads = -1;
  // Persistent artifact store consulted before running topology/plan/sweep
  // jobs and fed after (api/artifact_cache.hpp). Null = recompute
  // everything. Cached and recomputed studies assemble byte-identical
  // reports, so plugging a cache never changes results, only wall clock.
  ArtifactCache* cache = nullptr;
  // Executor the job DAG runs on (a process-wide pool shared across
  // concurrent studies, e.g. the serve daemon's). Null = a local
  // `threads`-wide SharedPool for this run. With an executor the pool's
  // width governs parallelism and `threads` is ignored.
  JobExecutor* executor = nullptr;
  // Per-job completion callback (label, jobs completed, jobs total), called
  // serially in completion order while the DAG's bookkeeping lock is held —
  // keep it cheap; it is on the job handoff path, not the job bodies. The
  // serve layer streams these as progress events.
  std::function<void(const std::string&, int, int)> on_job_done;
};

class Study {
 public:
  // Expands the grid and resolves every non-synthesized topology; throws
  // std::invalid_argument on unknown factory specs / catalog rows.
  explicit Study(ExperimentSpec spec, StudyOptions opts = {});

  // Executes the job DAG and assembles the report. Callable once.
  Report run();

  const ExperimentSpec& spec() const { return spec_; }
  const StudyStats& stats() const { return stats_; }
  // Cache traffic against opts.cache (all-zero when no cache was plugged
  // in). Valid after run(). A fully warm run — every topology, plan and
  // sweep restored — has misses() == 0 and ran zero syntheses.
  ArtifactCacheStats artifact_cache_stats() const;

  // Shared artifacts (valid after run()), for callers that post-process
  // beyond the report — e.g. the full-system workload example replays
  // PARSEC traffic over the cached plans.
  const std::vector<TopologyArtifact>& topology_artifacts() const {
    return utopos_;
  }
  const std::vector<PlanArtifact>& plan_artifacts() const { return uplans_; }
  // Jobs that threw or were skipped because a dependency failed (valid after
  // run(); also embedded in the Report).
  const std::vector<FailedJob>& failed_jobs() const { return failed_jobs_; }
  // Unique plan artifact serving grid row (topology_ref, seed_index);
  // throws std::out_of_range when either index is outside the grid.
  const PlanArtifact& plan_for(int topology_ref, int seed_index = 0) const;

  // Routing policy a topology gets under spec.routing ("auto" = MCLB for
  // machine/parametric/explicit topologies, NDBT for expert designs).
  core::RoutingPolicy policy_for(const TopologyArtifact& t) const;

 private:
  struct USweep {
    int plan = -1;
    int traffic = -1;
    sim::SweepResult result;
  };
  // One (plan, traffic, fault scenario) evaluation: the expanded fault plan
  // plus a sweep run under it. Resilience sweeps force adaptive = false so
  // results are byte-identical across OpenMP widths (baseline sweeps record
  // their width instead).
  struct UResilience {
    int plan = -1;
    int traffic = -1;
    int scenario = -1;
    fault::FaultPlan fplan;
    sim::SweepResult result;
  };

  enum CacheKind { kTopologyCache, kPlanCache, kSweepCache, kCacheKinds };

  void expand();
  void run_jobs();
  // The one cache-through rule of topology, plan and sweep jobs: a job is
  // done if restored() loads its key and `restore` accepts the payload;
  // else it computes, then calls stored(). Both are no-ops without a cache.
  // Resilience jobs are uncached.
  bool restored(CacheKind kind, const std::string& key,
                const std::function<bool(const std::string&)>& restore);
  void stored(CacheKind kind, const std::string& key,
              const std::function<std::string()>& payload);
  void run_topology_job(TopologyArtifact& t);
  void run_plan_job(PlanArtifact& p);
  void run_sweep_job(USweep& s);
  void run_resilience_job(UResilience& r);
  // Cache key of a sweep job: the plan key extended with every input the
  // sweep depends on (traffic shape, sweep/sim windows, and the OpenMP
  // width, which adaptive truncation and the omp_threads provenance field
  // both observe). Built on the pool worker that runs the sweep.
  std::string sweep_cache_key(const USweep& s) const;
  // The one sweep body of sweep and resilience jobs: uplans_[plan] under
  // spec_.traffic[traffic], adaptive only when `faults` is null.
  sim::SweepResult sweep(int plan, int traffic,
                         const fault::FaultPlan* faults) const;
  Report assemble() const;

  ExperimentSpec spec_;
  StudyOptions opts_;
  StudyStats stats_;
  bool ran_ = false;
  std::atomic<int> synth_count_{0};
  // Cache traffic per CacheKind, counted by restored() and stored().
  std::atomic<long> cache_hits_[kCacheKinds] = {};
  std::atomic<long> cache_misses_[kCacheKinds] = {};
  std::atomic<long> cache_stores_{0};

  std::vector<TopologyArtifact> utopos_;
  std::vector<int> topo_refs_;  // grid ref -> unique topology index
  // Per-ref display names: name overrides are presentation-only and must
  // not defeat artifact dedup, so they live on the ref, not the key.
  std::vector<std::string> ref_names_;
  std::vector<PlanArtifact> uplans_;
  std::vector<int> plan_refs_;  // ref * seeds + seed_idx -> unique plan
  std::vector<USweep> usweeps_;  // dense grid uplan * T + t
  std::vector<power::PowerArea> upower_;  // per unique topology
  // Dense grid (uplan * T + t) * C + c over the spec's fault scenarios.
  std::vector<UResilience> uresil_;
  std::vector<FailedJob> failed_jobs_;
};

// Convenience one-shot: Study(spec).run().
Report run_experiment(const ExperimentSpec& spec, StudyOptions opts = {});

// Routing policy the paper pairs with a named topology: MCLB for machine
// topologies (NetSmith always routes with MCLB) and the parametric
// baselines, NDBT for the published expert designs. NDBT's x-monotonic rule
// assumes the Kite-style grid designs and has no published analogue for
// Dragonfly/CMesh/HammingMesh flattenings. spec.routing "auto" uses it.
core::RoutingPolicy paper_policy(const topologies::NamedTopology& t);

}  // namespace netsmith::api
