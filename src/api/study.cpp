#include "api/study.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/artifact_io.hpp"
#include "core/anneal.hpp"
#include "core/objective.hpp"
#include "fault/model.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/channel_load.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace netsmith::api {

namespace {

// Cache namespace of each Study::CacheKind.
const char* const kCacheKindNames[] = {kTopologyArtifactKind, kPlanArtifactKind,
                                       kSweepArtifactKind};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ----------------------------------------------------- job DAG executor ---

struct Job {
  std::function<void()> fn;
  std::string label;  // "kind:artifact key", for failure provenance
  std::vector<int> dependents;
  int pending = 0;  // unmet dependency count
  bool skip = false;
  std::string skip_reason;
  std::exception_ptr error;
};

using DoneCallback = std::function<void(const std::string&, int, int)>;

// The one DAG driver: submits each job to `exec` once its dependencies
// finished, so no task ever blocks on another task and a pool of any width,
// shared by any number of concurrent studies, makes progress. A failed
// dependency skips its downstream jobs (recording which dependency failed).
// Never throws: errors stay on the jobs for the caller to collect — a
// failed job degrades the report, it does not abort the study. Completion
// state is shared_ptr-held so in-flight task closures never dangle,
// whatever the pool's retirement order.
struct Dag : std::enable_shared_from_this<Dag> {
  std::vector<Job>* jobs = nullptr;
  JobExecutor* exec = nullptr;
  DoneCallback on_done;
  std::mutex m;
  std::condition_variable cv;
  int done = 0;

  void submit(int id) {
    exec->submit([self = shared_from_this(), id] { self->run(id); });
  }

  // Runs jobs[id], then — under `m` — retires it: propagates skips, fires
  // the completion callback and collects the newly unblocked dependents,
  // which are submitted once the lock is released.
  void run(int id) {
    Job& job = (*jobs)[id];
    if (!job.skip) {
      try {
        job.fn();
      } catch (...) {
        job.error = std::current_exception();
      }
    }
    const int total = static_cast<int>(jobs->size());
    std::vector<int> newly;
    {
      std::lock_guard<std::mutex> lk(m);
      ++done;
      const bool failed = job.skip || job.error != nullptr;
      for (int d : job.dependents) {
        Job& dep = (*jobs)[d];
        if (failed && !dep.skip) {
          dep.skip = true;
          dep.skip_reason = "dependency '" + job.label + "' " +
                            (job.error ? "failed" : "was skipped");
        }
        if (--dep.pending == 0) newly.push_back(d);
      }
      if (on_done) on_done(job.label, done, total);
      if (done == total) cv.notify_all();
    }
    for (int d : newly) submit(d);
  }
};

// Runs the DAG on `exec`; the calling thread blocks until it has drained.
void run_dag_on(std::vector<Job>& jobs, JobExecutor& exec,
                const DoneCallback& on_done) {
  auto dag = std::make_shared<Dag>();
  dag->jobs = &jobs;
  dag->exec = &exec;
  dag->on_done = on_done;
  // Snapshot the ready set BEFORE the first submit: once a task is in
  // flight it may retire and drive a dependent's pending count to zero
  // (submitting it via `newly`), and this loop reading that same count
  // would submit the job a second time.
  std::vector<int> initial;
  for (int i = 0; i < static_cast<int>(jobs.size()); ++i)
    if (jobs[i].pending == 0) initial.push_back(i);
  for (int i : initial) dag->submit(i);
  std::unique_lock<std::mutex> lk(dag->m);
  dag->cv.wait(lk, [&] { return dag->done == static_cast<int>(jobs.size()); });
}

std::string error_message(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

// ------------------------------------------------------------- expansion --

Study::Study(ExperimentSpec spec, StudyOptions opts)
    : spec_(std::move(spec)), opts_(opts) {
  if (spec_.topologies.empty())
    throw std::invalid_argument("study: spec has no topologies");
  if (spec_.seeds.empty())
    throw std::invalid_argument("study: spec has no seeds");
  expand();
}

core::RoutingPolicy Study::policy_for(const TopologyArtifact& t) const {
  if (spec_.routing == "mclb") return core::RoutingPolicy::kMclb;
  if (spec_.routing == "ndbt") return core::RoutingPolicy::kNdbt;
  // "auto": the paper's pairing, with user-supplied topologies on MCLB.
  if (t.source == TopologySource::kSynthesize ||
      t.source == TopologySource::kExplicit)
    return core::RoutingPolicy::kMclb;
  return paper_policy(t.topo);
}

core::RoutingPolicy paper_policy(const topologies::NamedTopology& t) {
  return t.is_netsmith || t.parametric ? core::RoutingPolicy::kMclb
                                       : core::RoutingPolicy::kNdbt;
}

void Study::expand() {
  std::map<std::string, int> topo_index;
  // display_name: per-ref label ("" = the artifact's own name). Kept off
  // the cache key so renamed duplicates still share one artifact.
  auto add_ref = [&](TopologyArtifact art, const std::string& display_name) {
    ref_names_.push_back(display_name.empty() ? art.topo.name : display_name);
    const auto [it, inserted] =
        topo_index.emplace(art.key, static_cast<int>(utopos_.size()));
    if (inserted) utopos_.push_back(std::move(art));
    topo_refs_.push_back(it->second);
  };
  auto built = [](TopologySource src, topologies::NamedTopology nt,
                  std::string key) {
    TopologyArtifact art;
    art.source = src;
    art.key = std::move(key);
    art.topo = std::move(nt);
    return art;
  };

  for (const auto& ts : spec_.topologies) {
    switch (ts.source) {
      case TopologySource::kBaseline: {
        auto nt = topologies::make_spec(ts.baseline);
        const std::string key = "baseline:" + nt.spec;
        add_ref(built(ts.source, std::move(nt), key), ts.name);
        break;
      }
      case TopologySource::kCatalog: {
        const auto& cat = topologies::catalog(ts.catalog_routers);
        const std::string prefix =
            "catalog:" + std::to_string(ts.catalog_routers) + ":";
        if (!ts.name.empty()) {
          if (ts.include_baselines)
            throw std::invalid_argument(
                "study: catalog row selector '" + ts.name +
                "' cannot combine with include_baselines");
          add_ref(built(ts.source, topologies::find(cat, ts.name),
                        prefix + ts.name),
                  "");
        } else {
          for (const auto& row : cat)
            add_ref(built(ts.source, row, prefix + row.name), "");
          if (ts.include_baselines) {
            // Parametric rows are baseline artifacts (matching their cache
            // key), however they were reached.
            for (const auto& row :
                 topologies::baseline_catalog(ts.catalog_routers))
              add_ref(built(TopologySource::kBaseline, row,
                            "baseline:" + row.spec),
                      "");
          }
        }
        break;
      }
      case TopologySource::kExplicit: {
        topologies::NamedTopology nt;
        nt.graph = topo::DiGraph::from_string(ts.adjacency);
        if (nt.graph.num_nodes() != ts.rows * ts.cols)
          throw std::invalid_argument(
              "study: explicit adjacency has " +
              std::to_string(nt.graph.num_nodes()) + " nodes but layout is " +
              std::to_string(ts.rows) + "x" + std::to_string(ts.cols));
        nt.layout = topo::Layout{ts.rows, ts.cols, 2.0};
        nt.link_class = link_class_from_string(ts.link_class);
        nt.name = "explicit-" + std::to_string(nt.graph.num_nodes());
        const std::string key = "explicit:" + std::to_string(ts.rows) + "x" +
                                std::to_string(ts.cols) + ":" + ts.link_class +
                                ":" + ts.adjacency;
        add_ref(built(ts.source, std::move(nt), key), ts.name);
        break;
      }
      case TopologySource::kSynthesize: {
        for (const auto& obj : ts.objectives) {
          TopologyArtifact art;
          art.source = ts.source;
          auto& cfg = art.synth_cfg;
          const int rows = ts.rows > 0 ? ts.rows : 4;
          const int cols = ts.cols > 0 ? ts.cols : 5;
          cfg.layout = topo::Layout{rows, cols, 2.0};
          cfg.link_class = link_class_from_string(ts.link_class);
          cfg.radix = ts.radix;
          cfg.symmetric_links = ts.symmetric_links;
          cfg.objective = objective_from_string(obj);
          cfg.diameter_bound = ts.diameter_bound;
          cfg.min_cut_bandwidth = ts.min_cut_bandwidth;
          cfg.load_weight = ts.load_weight;
          cfg.time_limit_s = ts.time_limit_s;
          cfg.seed = ts.synth_seed;
          cfg.restarts = ts.restarts;
          cfg.max_moves = ts.max_moves;
          art.key = "synth:obj=" + obj + ";grid=" + std::to_string(rows) +
                    "x" + std::to_string(cols) + ";class=" + ts.link_class +
                    ";radix=" + std::to_string(ts.radix) +
                    ";sym=" + (ts.symmetric_links ? "1" : "0") +
                    ";diam=" + std::to_string(ts.diameter_bound) +
                    ";mincut=" + fmt_double(ts.min_cut_bandwidth) +
                    ";lw=" + fmt_double(ts.load_weight) +
                    ";t=" + fmt_double(ts.time_limit_s) +
                    ";seed=" + std::to_string(ts.synth_seed) +
                    ";restarts=" + std::to_string(ts.restarts) +
                    ";moves=" + std::to_string(ts.max_moves) +
                    ";lm=" + std::to_string(ts.landmark_sources);
          auto& nt = art.topo;
          nt.layout = cfg.layout;
          nt.link_class = cfg.link_class;
          nt.machine_generated = true;
          nt.is_netsmith = true;
          nt.name = "NS-" + obj + "-" + topo::to_string(cfg.link_class) +
                    "-" + std::to_string(cfg.layout.n());
          std::string display = ts.name;
          if (!display.empty() && ts.objectives.size() > 1)
            display += "-" + obj;
          add_ref(std::move(art), display);
        }
        break;
      }
    }
  }

  stats_.topology_refs = static_cast<int>(topo_refs_.size());
  stats_.unique_topologies = static_cast<int>(utopos_.size());
  stats_.topology_cache_hits = stats_.topology_refs - stats_.unique_topologies;

  // Plan grid: refs x seeds, deduped on (topology key, build parameters).
  std::map<std::string, int> plan_index;
  for (int ref = 0; ref < stats_.topology_refs; ++ref) {
    const int u = topo_refs_[ref];
    const auto policy = policy_for(utopos_[u]);
    for (std::uint64_t seed : spec_.seeds) {
      const std::string key =
          utopos_[u].key + "|policy=" + core::to_string(policy) +
          ";vcs=" + std::to_string(spec_.num_vcs) +
          ";paths=" + std::to_string(spec_.max_paths_per_flow) +
          ";seed=" + std::to_string(seed) +
          (spec_.chiplet_system ? ";chiplet" : "");
      const auto [it, inserted] =
          plan_index.emplace(key, static_cast<int>(uplans_.size()));
      if (inserted) {
        PlanArtifact p;
        p.key = key;
        p.topology = u;
        p.seed = seed;
        uplans_.push_back(std::move(p));
      }
      plan_refs_.push_back(it->second);
    }
  }
  stats_.plan_refs = static_cast<int>(plan_refs_.size());
  stats_.unique_plans = static_cast<int>(uplans_.size());
  stats_.plan_cache_hits = stats_.plan_refs - stats_.unique_plans;

  // Sweeps: unique plans x traffic scenarios, dense grid (uplan * T + t).
  const int T = static_cast<int>(spec_.traffic.size());
  for (int p = 0; p < stats_.unique_plans; ++p) {
    for (int t = 0; t < T; ++t) {
      USweep s;
      s.plan = p;
      s.traffic = t;
      usweeps_.push_back(std::move(s));
    }
  }
  stats_.sweep_jobs = static_cast<int>(usweeps_.size());
  stats_.power_jobs = spec_.power.enabled ? stats_.unique_topologies : 0;

  // Resilience: unique plans x traffic x fault scenarios, dense grid.
  const int C = static_cast<int>(spec_.faults.size());
  for (int p = 0; p < stats_.unique_plans; ++p) {
    for (int t = 0; t < T; ++t) {
      for (int c = 0; c < C; ++c) {
        UResilience r;
        r.plan = p;
        r.traffic = t;
        r.scenario = c;
        uresil_.push_back(std::move(r));
      }
    }
  }
  stats_.resilience_jobs = static_cast<int>(uresil_.size());

  stats_.jobs_total = stats_.unique_topologies + stats_.unique_plans +
                      stats_.sweep_jobs + stats_.power_jobs +
                      stats_.resilience_jobs;
  upower_.assign(static_cast<std::size_t>(utopos_.size()), power::PowerArea{});
}

// ------------------------------------------------------------ job bodies --

bool Study::restored(CacheKind kind, const std::string& key,
                     const std::function<bool(const std::string&)>& restore) {
  if (!opts_.cache) return false;
  std::string payload;
  if (opts_.cache->load(kCacheKindNames[kind], key, payload) &&
      restore(payload)) {
    cache_hits_[kind].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  cache_misses_[kind].fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Study::stored(CacheKind kind, const std::string& key,
                   const std::function<std::string()>& payload) {
  if (!opts_.cache) return;
  opts_.cache->store(kCacheKindNames[kind], key, payload());
  cache_stores_.fetch_add(1, std::memory_order_relaxed);
}

void Study::run_topology_job(TopologyArtifact& t) {
  // The analytic toggle changes what the job computes but is not part of
  // the canonical topology key (reports embed the key), so it rides on the
  // cache key instead.
  const std::string key =
      t.key + (spec_.analytic ? ";analytic=1" : ";analytic=0");
  const auto restore = [&](const std::string& payload) {
    return restore_topology_artifact(payload, spec_.analytic, t);
  };
  if (!restored(kTopologyCache, key, restore)) {
    if (t.source == TopologySource::kSynthesize) {
      t.synth = core::anneal_synthesize(t.synth_cfg);
      t.topo.graph = t.synth.graph;
      t.synthesized = true;
    }
    if (spec_.analytic) {
      const auto& g = t.topo.graph;
      t.avg_hops = topo::average_hops(g);
      t.diameter = topo::diameter(g);
      t.bisection_bw = topo::bisection_bandwidth(g);
      // The sparsest-cut heuristic packs partitions into a 64-bit mask; past
      // that the cut bound is simply not reported (reads as 0) rather than
      // capping the whole analytic block at n = 64.
      if (g.num_nodes() <= 64) t.cut_bound = routing::cut_bound(g);
      if (t.topo.extra_edge_delay.rows() > 0 && g.num_directed_edges() > 0) {
        long extra = 0;
        for (const auto& [i, j] : g.edges())
          extra += t.topo.extra_edge_delay(i, j);
        t.avg_extra_edge_delay =
            static_cast<double>(extra) / g.num_directed_edges();
      }
    }
    stored(kTopologyCache, key,
           [&] { return topology_artifact_payload(t, spec_.analytic); });
  }
  // Report determinism: syntheses_run counts synthesize jobs resolved,
  // however the artifact was produced, so cached and recomputed studies
  // stamp identical provenance. A throwing anneal never gets here.
  if (t.source == TopologySource::kSynthesize) synth_count_.fetch_add(1);
}

void Study::run_plan_job(PlanArtifact& p) {
  const auto& t = utopos_[static_cast<std::size_t>(p.topology)];
  const auto policy = policy_for(t);
  // A restored plan built under another policy, VC budget, path cap or
  // system shape would change report rows, so it counts as a miss like
  // any other corrupt payload, and must not leave has_system set.
  const auto restore = [&](const std::string& payload) {
    if (restore_plan_artifact(payload, t.topo.layout, p) &&
        p.plan.policy == policy && p.plan.num_vcs == spec_.num_vcs &&
        p.plan.max_paths_per_flow == spec_.max_paths_per_flow &&
        p.has_system == spec_.chiplet_system)
      return true;
    p.has_system = false;
    return false;
  };
  if (restored(kPlanCache, p.key, restore)) return;
  if (spec_.chiplet_system) {
    p.system = system::build_chiplet_system(t.topo.graph, t.topo.layout);
    p.has_system = true;
  }
  p.plan = core::plan_network(p.has_system ? p.system.graph : t.topo.graph,
                              t.topo.layout, policy, spec_.num_vcs, p.seed,
                              spec_.max_paths_per_flow);
  stored(kPlanCache, p.key, [&] { return plan_artifact_payload(p); });
}

std::string Study::sweep_cache_key(const USweep& s) const {
  const auto& p = uplans_[static_cast<std::size_t>(s.plan)];
  const auto& ts = spec_.traffic[static_cast<std::size_t>(s.traffic)];
  const auto& sw = spec_.sweep;
#if defined(_OPENMP)
  const int omp_width = omp_get_max_threads();
#else
  const int omp_width = 1;
#endif
  // ts.name is presentation-only (report row labels) and deliberately not
  // part of the key; omp width is, because adaptive truncation and the
  // omp_threads provenance field both depend on it.
  return p.key + "|traffic=" + ts.kind +
         ";ctrl=" + std::to_string(ts.ctrl_flits) +
         ";data=" + std::to_string(ts.data_flits) +
         ";frac=" + fmt_double(ts.data_fraction) +
         "|sweep=points=" + std::to_string(sw.points) +
         ";max=" + fmt_double(sw.max_rate) +
         ";adaptive=" + (sw.adaptive ? "1" : "0") +
         ";warmup=" + std::to_string(sw.warmup) +
         ";measure=" + std::to_string(sw.measure) +
         ";drain=" + std::to_string(sw.drain) +
         ";buf=" + std::to_string(sw.buf_flits) +
         ";io=" + std::to_string(sw.io_flits_per_cycle) +
         ";rd=" + std::to_string(sw.router_delay) +
         ";ld=" + std::to_string(sw.link_delay) +
         ";simseed=" + std::to_string(sw.sim_seed) +
         ";omp=" + std::to_string(omp_width);
}

sim::SweepResult Study::sweep(int plan, int traffic,
                              const fault::FaultPlan* faults) const {
  const auto& p = uplans_[static_cast<std::size_t>(plan)];
  const auto& t = utopos_[static_cast<std::size_t>(p.topology)];
  const auto& ts = spec_.traffic[static_cast<std::size_t>(traffic)];

  sim::SimConfig cfg = make_sim_config(spec_);
  cfg.extra_edge_delay =
      p.has_system ? p.system.extra_delay : t.topo.extra_edge_delay;
  cfg.faults = faults;

  sim::TrafficConfig tc;
  double max_rate = spec_.sweep.max_rate;
  if (ts.kind == "tornado") {
    const auto pattern = core::tornado_pattern(p.plan.graph.num_nodes());
    tc = sim::traffic_from_pattern(pattern, /*injection_rate=*/0.01);
    if (max_rate <= 0.0) {
      // The uniform-traffic auto bound does not apply; cap by the pattern's
      // routed channel-load bound instead (mirrors sweep_to_saturation).
      const double bound =
          routing::analyze_pattern(p.plan.table, pattern).throughput_bound();
      const double rate = bound > 0.0 ? std::min(1.0, 1.6 * bound) : 0.5;
      const double avg_flits =
          ts.ctrl_flits + ts.data_fraction * (ts.data_flits - ts.ctrl_flits);
      max_rate = rate / std::max(1.0, avg_flits);
    }
  } else if (ts.kind == "memory") {
    tc.kind = sim::TrafficKind::kMemory;
    tc.mc_nodes =
        p.has_system ? p.system.mc_routers : sim::mc_nodes(t.topo.layout);
  } else if (ts.kind == "shuffle") {
    tc.kind = sim::TrafficKind::kShuffle;
  } else {
    tc.kind = sim::TrafficKind::kCoherence;
  }
  tc.ctrl_flits = ts.ctrl_flits;
  tc.data_flits = ts.data_flits;
  tc.data_fraction = ts.data_fraction;

  sim::SweepOptions opt;
  opt.adaptive = spec_.sweep.adaptive && faults == nullptr;
  return sim::sweep_to_saturation(p.plan, tc, cfg,
                                  topo::clock_ghz(t.topo.link_class),
                                  spec_.sweep.points, max_rate, opt);
}

void Study::run_sweep_job(USweep& s) {
  // Only a cache needs the key, and it must be built here on the pool
  // worker, whose OpenMP width it reads.
  const std::string key = opts_.cache ? sweep_cache_key(s) : std::string();
  const auto restore = [&](const std::string& payload) {
    return restore_sweep_artifact(payload, s.result);
  };
  if (restored(kSweepCache, key, restore)) return;
  s.result = sweep(s.plan, s.traffic, nullptr);
  stored(kSweepCache, key, [&] { return sweep_artifact_payload(s.result); });
}

void Study::run_resilience_job(UResilience& r) {
  const auto& p = uplans_[static_cast<std::size_t>(r.plan)];
  const auto& sw = spec_.sweep;
  // Expand the scenario against this plan over the simulated horizon.
  // Throws on invalid explicit events or repairs exceeding the VC budget;
  // the DAG driver records the job as failed.
  r.fplan = fault::prepare_fault_plan(
      p.plan, spec_.faults[static_cast<std::size_t>(r.scenario)],
      sw.warmup + sw.measure + sw.drain);
  r.result = sweep(r.plan, r.traffic, &r.fplan);
}

// -------------------------------------------------------------- execution --

void Study::run_jobs() {
  std::vector<Job> jobs(static_cast<std::size_t>(stats_.jobs_total));
  const int UT = stats_.unique_topologies;
  const int UP = stats_.unique_plans;
  const int US = stats_.sweep_jobs;
  // Every job body runs under a lifecycle span (one track per pool worker in
  // the trace) and adds its wall time to the shared busy clock, from which
  // the post-DAG flush derives pool utilization. run_dag_on returns only
  // after every job body ran, so capturing busy_us by reference is safe.
  std::atomic<long long> busy_us{0};
  // Fills job `id`; `dep` is its one dependency (-1: none).
  const auto add_job = [&](int id, std::string label, int dep,
                           const char* span_name, int index, auto body) {
    Job& j = jobs[static_cast<std::size_t>(id)];
    j.label = std::move(label);
    j.fn = [&busy_us, span_name, index, body] {
      const double t0 = obs::now_us();
      {
        obs::Span span(span_name);
        span.arg("index", index);
        body();
      }
      busy_us.fetch_add(static_cast<long long>(obs::now_us() - t0),
                        std::memory_order_relaxed);
    };
    if (dep >= 0) {
      j.pending = 1;
      jobs[static_cast<std::size_t>(dep)].dependents.push_back(id);
    }
  };
  // Job ids: [0, UT) topologies, [UT, UT+UP) plans, then sweeps, then power,
  // then resilience. Artifacts are not moved while the DAG runs, so bodies
  // hold pointers to them.
  for (int i = 0; i < UT; ++i) {
    TopologyArtifact* t = &utopos_[static_cast<std::size_t>(i)];
    add_job(i, "topology:" + t->key, -1, "study/topology", i,
            [this, t] { run_topology_job(*t); });
  }
  for (int i = 0; i < UP; ++i) {
    PlanArtifact* p = &uplans_[static_cast<std::size_t>(i)];
    add_job(UT + i, "plan:" + p->key, p->topology, "study/plan", i,
            [this, p] { run_plan_job(*p); });
  }
  for (int i = 0; i < US; ++i) {
    USweep* s = &usweeps_[static_cast<std::size_t>(i)];
    add_job(UT + UP + i,
            "sweep:" + uplans_[static_cast<std::size_t>(s->plan)].key + "+" +
                spec_.traffic[static_cast<std::size_t>(s->traffic)].label(),
            UT + s->plan, "study/sweep", i, [this, s] { run_sweep_job(*s); });
  }
  for (int i = 0; i < stats_.power_jobs; ++i) {
    const TopologyArtifact* t = &utopos_[static_cast<std::size_t>(i)];
    power::PowerArea* out = &upower_[static_cast<std::size_t>(i)];
    add_job(UT + UP + US + i, "power:" + t->key, i, "study/power", i,
            [this, t, out] {
              *out = power::estimate(t->topo.graph, t->topo.layout,
                                     topo::clock_ghz(t->topo.link_class),
                                     spec_.power.flits_per_node_cycle,
                                     spec_.num_vcs);
            });
  }
  const int base_resil = UT + UP + US + stats_.power_jobs;
  for (int i = 0; i < stats_.resilience_jobs; ++i) {
    UResilience* r = &uresil_[static_cast<std::size_t>(i)];
    std::string label =
        "resilience:" + uplans_[static_cast<std::size_t>(r->plan)].key + "+" +
        spec_.traffic[static_cast<std::size_t>(r->traffic)].label() + "+" +
        spec_.faults[static_cast<std::size_t>(r->scenario)].label();
    add_job(base_resil + i, std::move(label), UT + r->plan, "study/resilience",
            i, [this, r] { run_resilience_job(*r); });
  }

  // Without an executor, run on a local pool: opts.threads wide, else
  // spec.threads (<= 0 = hardware concurrency), capped at one worker per job.
  std::optional<SharedPool> local;
  JobExecutor* exec = opts_.executor;
  if (exec == nullptr) {
    int width = opts_.threads >= 0 ? opts_.threads : spec_.threads;
    if (width <= 0)
      width = static_cast<int>(std::thread::hardware_concurrency());
    local.emplace(std::min<int>(width, std::max(1, stats_.jobs_total)));
    exec = &*local;
  }

  obs::WallTimer wall;
  run_dag_on(jobs, *exec, opts_.on_job_done);
  stats_.syntheses_run = synth_count_.load();

  // Failure provenance, in job-id order (deterministic across widths: which
  // jobs fail does not depend on scheduling, only on their inputs).
  for (const auto& j : jobs) {
    if (j.error)
      failed_jobs_.push_back({j.label, error_message(j.error), false});
    else if (j.skip)
      failed_jobs_.push_back({j.label, j.skip_reason, true});
  }
  stats_.failed_jobs = static_cast<int>(failed_jobs_.size());

  if (obs::metrics_enabled()) {
    obs::counter("study.jobs_run")
        .add(static_cast<std::uint64_t>(stats_.jobs_total));
    obs::counter("study.topology_cache_hits")
        .add(static_cast<std::uint64_t>(stats_.topology_cache_hits));
    obs::counter("study.plan_cache_hits")
        .add(static_cast<std::uint64_t>(stats_.plan_cache_hits));
    obs::counter("study.syntheses_run")
        .add(static_cast<std::uint64_t>(stats_.syntheses_run));
    const double wall_s = wall.seconds();
    const double busy_s =
        static_cast<double>(busy_us.load(std::memory_order_relaxed)) * 1e-6;
    obs::gauge("study.pool_busy_s").set(busy_s);
    obs::gauge("study.pool_wall_s").set(wall_s);
    // Width of the pool the jobs actually ran on; unknown (0) skips both.
    const int width = exec->width();
    if (width > 0) {
      obs::gauge("study.pool_width").set(width);
      if (wall_s > 0.0)
        obs::gauge("study.pool_utilization").set(busy_s / (wall_s * width));
    }
  }
}

// --------------------------------------------------------------- assembly --

Report Study::assemble() const {
  Report rep;
  rep.spec = spec_;
  rep.stats = stats_;
#if defined(_OPENMP)
  rep.omp_max_threads = omp_get_max_threads();
#else
  rep.omp_max_threads = 1;
#endif

  const int S = static_cast<int>(spec_.seeds.size());
  const int T = static_cast<int>(spec_.traffic.size());

  for (int ref = 0; ref < stats_.topology_refs; ++ref) {
    const auto& t = utopos_[static_cast<std::size_t>(topo_refs_[ref])];
    TopologyRow row;
    row.name = ref_names_[static_cast<std::size_t>(ref)];
    row.key = t.key;
    row.factory_spec = t.topo.spec;
    row.source = to_string(t.source);
    row.link_class = topo::to_string(t.topo.link_class);
    row.clock_ghz = topo::clock_ghz(t.topo.link_class);
    row.routers = t.topo.graph.num_nodes();
    row.duplex_links = t.topo.graph.duplex_links();
    row.adjacency = t.topo.graph.to_string();
    row.is_netsmith = t.topo.is_netsmith;
    row.parametric = t.topo.parametric;
    row.avg_hops = t.avg_hops;
    row.diameter = t.diameter;
    row.bisection_bw = t.bisection_bw;
    row.cut_bound = t.cut_bound;
    row.avg_extra_edge_delay = t.avg_extra_edge_delay;
    row.synthesized = t.synthesized;
    if (t.synthesized) {
      row.objective = objective_to_string(t.synth_cfg.objective);
      row.objective_value = t.synth.objective_value;
      row.bound = t.synth.bound;
      row.moves = t.synth.moves;
      row.trace = t.synth.trace;
    }
    rep.topologies.push_back(std::move(row));
  }

  for (int ref = 0; ref < stats_.topology_refs; ++ref) {
    for (int s = 0; s < S; ++s) {
      const auto& p =
          uplans_[static_cast<std::size_t>(plan_refs_[ref * S + s])];
      PlanRow row;
      row.topology = ref;
      row.key = p.key;
      row.policy = core::to_string(p.plan.policy);
      row.num_vcs = p.plan.num_vcs;
      row.seed = p.plan.seed;
      row.max_paths_per_flow = p.plan.max_paths_per_flow;
      row.max_channel_load = p.plan.max_channel_load;
      row.routed_bound = p.plan.max_channel_load > 0.0
                             ? 1.0 / p.plan.max_channel_load
                             : 0.0;
      row.vc_layers = p.plan.vc_layers;
      row.ndbt_fallback_flows = p.plan.ndbt_fallback_flows;
      row.chiplet_system = p.has_system;
      row.system_routers = p.has_system ? p.system.graph.num_nodes() : 0;
      rep.plans.push_back(std::move(row));
    }
  }

  for (int ref = 0; ref < stats_.topology_refs; ++ref) {
    for (int s = 0; s < S; ++s) {
      const int uplan = plan_refs_[ref * S + s];
      for (int k = 0; k < T; ++k) {
        const auto& sw = usweeps_[static_cast<std::size_t>(uplan) * T + k];
        SweepRow row;
        row.plan = ref * S + s;
        row.traffic = spec_.traffic[static_cast<std::size_t>(k)].label();
        row.zero_load_latency_cycles = sw.result.zero_load_latency_cycles;
        row.zero_load_latency_ns = sw.result.zero_load_latency_ns;
        row.saturation_pkt_node_cycle = sw.result.saturation_pkt_node_cycle;
        row.saturation_pkt_node_ns = sw.result.saturation_pkt_node_ns;
        row.omp_threads = sw.result.omp_threads;
        for (const auto& pt : sw.result.points) {
          SweepPointRow pr;
          pr.offered_pkt_node_cycle = pt.offered_pkt_node_cycle;
          pr.accepted_pkt_node_cycle = pt.stats.accepted;
          pr.accepted_pkt_node_ns = pt.accepted_pkt_node_ns;
          pr.latency_cycles = pt.stats.avg_latency_cycles;
          pr.latency_ns = pt.latency_ns;
          pr.saturated = pt.stats.saturated;
          row.points.push_back(pr);
        }
        rep.sweeps.push_back(std::move(row));
      }
    }
  }

  const int C = static_cast<int>(spec_.faults.size());
  for (int ref = 0; ref < stats_.topology_refs; ++ref) {
    for (int s = 0; s < S; ++s) {
      const int uplan = plan_refs_[ref * S + s];
      for (int k = 0; k < T; ++k) {
        const auto& base = usweeps_[static_cast<std::size_t>(uplan) * T + k];
        for (int c = 0; c < C; ++c) {
          const auto& ur = uresil_[(static_cast<std::size_t>(uplan) * T + k) *
                                       C + c];
          const auto& sc = spec_.faults[static_cast<std::size_t>(c)];
          ResilienceRow row;
          row.plan = ref * S + s;
          row.traffic = spec_.traffic[static_cast<std::size_t>(k)].label();
          row.scenario = sc.label();
          row.key = sc.canonical_key();
          row.events = static_cast<int>(ur.fplan.events.size());
          row.links_down = ur.fplan.max_links_down;
          row.routers_down = ur.fplan.max_routers_down;
          row.lossy = sc.lossy;
          row.repair = sc.repair;
          row.flows_rerouted = ur.fplan.flows_rerouted;
          row.flows_unroutable = ur.fplan.flows_unroutable;
          row.saturation_pkt_node_cycle = ur.result.saturation_pkt_node_cycle;
          row.saturation_pkt_node_ns = ur.result.saturation_pkt_node_ns;
          row.baseline_saturation_pkt_node_cycle =
              base.result.saturation_pkt_node_cycle;
          row.baseline_saturation_pkt_node_ns =
              base.result.saturation_pkt_node_ns;
          for (const auto& pt : ur.result.points) {
            ResiliencePointRow pr;
            pr.offered_pkt_node_cycle = pt.offered_pkt_node_cycle;
            pr.accepted_pkt_node_cycle = pt.stats.accepted;
            pr.delivered_fraction = pt.stats.delivered_fraction;
            pr.latency_p50_cycles = pt.stats.latency_p50_cycles;
            pr.latency_p99_cycles = pt.stats.latency_p99_cycles;
            pr.flits_dropped = pt.stats.flits_dropped;
            pr.packets_dropped = pt.stats.packets_dropped;
            pr.packets_unroutable = pt.stats.packets_unroutable;
            pr.saturated = pt.stats.saturated;
            row.points.push_back(pr);
          }
          rep.resilience.push_back(std::move(row));
        }
      }
    }
  }
  rep.failed_jobs = failed_jobs_;

  if (spec_.power.enabled) {
    for (int ref = 0; ref < stats_.topology_refs; ++ref) {
      const auto& pa = upower_[static_cast<std::size_t>(topo_refs_[ref])];
      PowerRow row;
      row.topology = ref;
      row.dynamic_mw = pa.dynamic_mw;
      row.leakage_mw = pa.leakage_mw;
      row.router_area_mm2 = pa.router_area_mm2;
      row.wire_area_mm2 = pa.wire_area_mm2;
      rep.power.push_back(row);
    }
  }

  if (obs::metrics_enabled())
    rep.metrics = obs::metrics_to_json(obs::snapshot_metrics());
  return rep;
}

Report Study::run() {
  if (ran_) throw std::logic_error("study: run() already called");
  ran_ = true;
  obs::Span span("study/run");
  span.arg("name", spec_.name);
  span.arg("jobs", stats_.jobs_total);
  run_jobs();
  return assemble();
}

ArtifactCacheStats Study::artifact_cache_stats() const {
  ArtifactCacheStats s;
  s.topology_hits = cache_hits_[kTopologyCache];
  s.topology_misses = cache_misses_[kTopologyCache];
  s.plan_hits = cache_hits_[kPlanCache];
  s.plan_misses = cache_misses_[kPlanCache];
  s.sweep_hits = cache_hits_[kSweepCache];
  s.sweep_misses = cache_misses_[kSweepCache];
  s.stores = cache_stores_;
  return s;
}

const PlanArtifact& Study::plan_for(int topology_ref, int seed_index) const {
  const int S = static_cast<int>(spec_.seeds.size());
  if (topology_ref < 0 || topology_ref >= stats_.topology_refs ||
      seed_index < 0 || seed_index >= S)
    throw std::out_of_range("study: plan_for(" + std::to_string(topology_ref) +
                            ", " + std::to_string(seed_index) +
                            ") is outside the grid");
  return uplans_[static_cast<std::size_t>(
      plan_refs_[static_cast<std::size_t>(topology_ref) * S + seed_index])];
}

Report run_experiment(const ExperimentSpec& spec, StudyOptions opts) {
  Study study(spec, opts);
  return study.run();
}

}  // namespace netsmith::api
