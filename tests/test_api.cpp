// Experiment API coverage: spec JSON round-trip, Study artifact caching
// (one synthesis per unique topology key), the per-kind traffic a Study
// sends to a pluggable ArtifactCache, plan provenance, and Report
// determinism across runner thread counts.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/artifact_cache.hpp"
#include "api/report.hpp"
#include "api/study.hpp"

namespace netsmith::api {
namespace {

// A spec touching every field with non-default values.
ExperimentSpec full_spec() {
  ExperimentSpec spec;
  spec.name = "round trip \"quoted\"";
  TopologySpec synth;
  synth.source = TopologySource::kSynthesize;
  synth.name = "mini";
  synth.rows = 3;
  synth.cols = 3;
  synth.link_class = "small";
  synth.objectives = {"latop", "scop"};
  synth.radix = 3;
  synth.symmetric_links = true;
  synth.diameter_bound = 5;
  synth.min_cut_bandwidth = 0.125;
  synth.load_weight = 2.5;
  synth.time_limit_s = 0.75;
  synth.synth_seed = 99;
  synth.restarts = 2;
  synth.max_moves = 500;
  TopologySpec base;
  base.source = TopologySource::kBaseline;
  base.baseline = "folded_torus:rows=3,cols=4";
  TopologySpec cat;
  cat.source = TopologySource::kCatalog;
  cat.catalog_routers = 20;
  cat.name = "Kite-small";
  TopologySpec cat_all;
  cat_all.source = TopologySource::kCatalog;
  cat_all.catalog_routers = 30;
  cat_all.include_baselines = true;
  TopologySpec expl;
  expl.source = TopologySource::kExplicit;
  expl.name = "tiny-ring";
  expl.adjacency = "4:0>1,1>0,1>2,2>1,2>3,3>2,3>0,0>3";
  expl.rows = 2;
  expl.cols = 2;
  expl.link_class = "small";
  spec.topologies = {synth, base, cat, cat_all, expl};
  spec.routing = "mclb";
  spec.num_vcs = 4;
  spec.max_paths_per_flow = 9;
  spec.chiplet_system = true;
  spec.seeds = {3, 17};
  spec.analytic = false;
  spec.traffic = {TrafficSpec{"coh", "coherence", 2, 11, 0.75},
                  TrafficSpec{"", "memory"}};
  spec.sweep.points = 5;
  spec.sweep.max_rate = 0.35;
  spec.sweep.adaptive = false;
  spec.sweep.warmup = 123;
  spec.sweep.measure = 456;
  spec.sweep.drain = 789;
  spec.sweep.buf_flits = 5;
  spec.sweep.io_flits_per_cycle = 1;
  spec.sweep.router_delay = 3;
  spec.sweep.link_delay = 2;
  spec.sweep.sim_seed = 21;
  spec.power.enabled = true;
  spec.power.flits_per_node_cycle = 0.0625;
  fault::FaultScenarioSpec targeted;
  targeted.name = "cut two";
  targeted.k = 2;
  targeted.fail_at = 100;
  targeted.recover_at = 900;
  targeted.lossy = true;
  fault::FaultScenarioSpec random;
  random.mode = "random";
  random.link_mtbf = 5000.5;
  random.link_mttr = 250;
  random.router_mtbf = 1e5;
  random.router_mttr = 300.25;
  random.seed = 42;
  random.repair = false;
  fault::FaultScenarioSpec script;
  script.name = "script";
  script.mode = "explicit";
  script.events = {{10, fault::FaultEventKind::kLinkDown, 1, 2},
                   {15, fault::FaultEventKind::kRouterDown, 3, -1},
                   {40, fault::FaultEventKind::kLinkUp, 1, 2},
                   {60, fault::FaultEventKind::kRouterUp, 3, -1}};
  spec.faults = {targeted, random, script};
  spec.threads = 3;
  return spec;
}

TEST(SpecRoundTrip, ParseSerializeExact) {
  const ExperimentSpec spec = full_spec();
  const std::string json = serialize(spec);
  const ExperimentSpec back = parse_spec(json);
  EXPECT_TRUE(back == spec);
  // Serialization is canonical: a second cycle is byte-identical.
  EXPECT_EQ(serialize(back), json);
}

// The canonical bytes: tests/golden/full_spec.json was written by the
// hand-written serializer the member lists replaced, so a dropped, renamed,
// reordered or re-typed key fails here.
TEST(SpecRoundTrip, CanonicalBytesMatchGolden) {
  std::ifstream in(NETSMITH_SOURCE_DIR "/tests/golden/full_spec.json");
  ASSERT_TRUE(in) << "tests/golden/full_spec.json";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(serialize(full_spec()), golden);
}

TEST(SpecRoundTrip, DefaultsFillIn) {
  const auto spec = parse_spec(
      R"({"topologies": [{"source": "baseline", "baseline": "mesh:rows=3,cols=3"}]})");
  EXPECT_EQ(spec.num_vcs, 6);
  EXPECT_EQ(spec.max_paths_per_flow, 48);
  EXPECT_EQ(spec.routing, "auto");
  ASSERT_EQ(spec.seeds.size(), 1u);
  EXPECT_EQ(spec.seeds[0], 7u);
  EXPECT_EQ(spec.sweep.points, 10);
  EXPECT_FALSE(spec.power.enabled);
  EXPECT_TRUE(parse_spec(serialize(spec)) == spec);
}

TEST(SpecParse, RejectsMalformed) {
  const char* ok =
      R"({"topologies": [{"source": "baseline", "baseline": "mesh:rows=3,cols=3"}]})";
  EXPECT_NO_THROW(parse_spec(ok));
  // Unknown key.
  EXPECT_THROW(
      parse_spec(
          R"({"topologies": [{"source": "baseline", "baseline": "m", "typo": 1}]})"),
      std::invalid_argument);
  EXPECT_THROW(parse_spec(R"({"topologies": [], "zzz": 1})"),
               std::invalid_argument);
  // Structural problems.
  EXPECT_THROW(parse_spec(R"({"topologies": []})"), std::invalid_argument);
  EXPECT_THROW(parse_spec(R"({"topologies": [{"source": "explicit"}]})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_spec(
          R"({"schema_version": 99, "topologies": [{"source": "baseline", "baseline": "m"}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_spec(
          R"({"routing": "magic", "topologies": [{"source": "baseline", "baseline": "m"}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_spec(
          R"({"topologies": [{"source": "synthesize", "objectives": ["bogus"]}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_spec(
          R"({"traffic": [{"kind": "warp"}], "topologies": [{"source": "baseline", "baseline": "m"}]})"),
      std::invalid_argument);
  // Not JSON at all.
  EXPECT_THROW(parse_spec("not json"), std::invalid_argument);
}

// A retired option stays in the schema as a reserved field that must be 0,
// so reports keep embedding the spec unchanged; any other value fails with
// a message that names the field.
TEST(SpecParse, ReservedFieldMustBeZero) {
  const auto spec_with = [](int v) {
    return R"({"topologies": [{"source": "synthesize", "landmark_sources": )" +
           std::to_string(v) + "}]}";
  };
  EXPECT_NO_THROW(parse_spec(spec_with(0)));
  for (const int v : {4, -1}) {
    try {
      parse_spec(spec_with(v));
      ADD_FAILURE() << "value " << v << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("landmark_sources"),
                std::string::npos)
          << e.what();
    }
  }
}

// One synthesis per unique topology key, however often the grid references
// it: the same synthesize entry listed twice shares one artifact, and the
// seed grid multiplies plans, not syntheses.
TEST(Study, ArtifactCacheSharesSyntheses) {
  ExperimentSpec spec;
  spec.name = "cache";
  TopologySpec synth;
  synth.source = TopologySource::kSynthesize;
  synth.rows = 3;
  synth.cols = 4;
  synth.link_class = "small";
  synth.radix = 3;
  synth.objectives = {"latop"};
  synth.restarts = 1;
  synth.max_moves = 300;  // move-budgeted: deterministic and fast
  synth.time_limit_s = 30.0;
  spec.topologies = {synth, synth};  // same key twice
  spec.seeds = {7, 11};
  spec.analytic = false;

  Study study(spec, StudyOptions{2});
  const Report report = study.run();
  const auto& st = study.stats();
  EXPECT_EQ(st.topology_refs, 2);
  EXPECT_EQ(st.unique_topologies, 1);
  EXPECT_EQ(st.topology_cache_hits, 1);
  EXPECT_EQ(st.syntheses_run, 1);  // the tentpole cache guarantee
  EXPECT_EQ(st.plan_refs, 4);      // 2 refs x 2 seeds
  EXPECT_EQ(st.unique_plans, 2);   // deduped to unique topology x seed
  EXPECT_EQ(st.plan_cache_hits, 2);
  EXPECT_EQ(st.sweep_jobs, 0);

  // Rows still appear per grid reference, sharing the cached artifacts.
  ASSERT_EQ(report.topologies.size(), 2u);
  EXPECT_EQ(report.topologies[0].key, report.topologies[1].key);
  EXPECT_EQ(report.topologies[0].adjacency, report.topologies[1].adjacency);
  EXPECT_TRUE(report.topologies[0].synthesized);
  ASSERT_EQ(report.plans.size(), 4u);
  EXPECT_EQ(report.plans[0].key, report.plans[2].key);
  EXPECT_EQ(report.plans[0].seed, 7u);
  EXPECT_EQ(report.plans[1].seed, 11u);
}

// Display-name overrides are per-row presentation: renamed duplicates still
// share one artifact, and each report row keeps its own name.
TEST(Study, RenamedDuplicatesShareArtifactKeepNames) {
  ExperimentSpec spec;
  TopologySpec a;
  a.source = TopologySource::kBaseline;
  a.baseline = "mesh:rows=3,cols=3";
  a.name = "A";
  TopologySpec b = a;
  b.name = "B";
  spec.topologies = {a, b};
  spec.analytic = false;

  Study study(spec);
  const Report report = study.run();
  EXPECT_EQ(study.stats().unique_topologies, 1);
  ASSERT_EQ(report.topologies.size(), 2u);
  EXPECT_EQ(report.topologies[0].name, "A");
  EXPECT_EQ(report.topologies[1].name, "B");
  EXPECT_EQ(report.topologies[0].key, report.topologies[1].key);
}

TEST(SpecRoundTrip, FullRangeSeeds) {
  ExperimentSpec spec;
  TopologySpec mesh;
  mesh.source = TopologySource::kBaseline;
  mesh.baseline = "mesh:rows=3,cols=3";
  spec.topologies = {mesh};
  spec.seeds = {0, 1ull << 63, ~0ull};  // above INT64_MAX included
  TopologySpec synth;
  synth.source = TopologySource::kSynthesize;
  synth.synth_seed = 0x9E3779B97F4A7C15ull;
  spec.topologies.push_back(synth);
  EXPECT_TRUE(parse_spec(serialize(spec)) == spec);
  // A raw decimal uint64 token parses too (not just the canonical form).
  const auto s = parse_spec(
      R"({"seeds": [18446744073709551615], "topologies": [{"source": "baseline", "baseline": "mesh:rows=3,cols=3"}]})");
  ASSERT_EQ(s.seeds.size(), 1u);
  EXPECT_EQ(s.seeds[0], ~0ull);
}

TEST(SpecParse, CatalogNameExcludesBaselines) {
  EXPECT_THROW(
      parse_spec(
          R"({"topologies": [{"source": "catalog", "catalog_routers": 20, "name": "Kite-small", "include_baselines": true}]})"),
      std::invalid_argument);
}

TEST(Study, PlanProvenanceAndPolicy) {
  ExperimentSpec spec;
  TopologySpec mesh;
  mesh.source = TopologySource::kBaseline;
  mesh.baseline = "mesh:rows=3,cols=4";
  spec.topologies = {mesh};
  spec.num_vcs = 4;
  spec.max_paths_per_flow = 13;
  spec.seeds = {5};
  spec.analytic = false;

  Study study(spec);
  const Report report = study.run();
  ASSERT_EQ(report.plans.size(), 1u);
  const auto& plan = report.plans[0];
  // Mesh is an expert design: paper policy under "auto" is NDBT.
  EXPECT_EQ(plan.policy, "ndbt");
  EXPECT_EQ(plan.num_vcs, 4);
  EXPECT_EQ(plan.seed, 5u);
  EXPECT_EQ(plan.max_paths_per_flow, 13);
  // plan_network filled the provenance on the artifact itself too.
  const auto& art = study.plan_for(0);
  EXPECT_EQ(art.plan.policy, core::RoutingPolicy::kNdbt);
  EXPECT_EQ(art.plan.num_vcs, 4);
  EXPECT_EQ(art.plan.seed, 5u);
  EXPECT_EQ(art.plan.max_paths_per_flow, 13);

  ExperimentSpec forced = spec;
  forced.routing = "mclb";
  const Report r2 = Study(forced).run();
  EXPECT_EQ(r2.plans[0].policy, "mclb");
}

// A fixed spec produces a byte-identical report JSON at any Study
// thread-pool width (jobs write only their own slots; assembly is in grid
// order).
TEST(Study, ReportDeterministicAcrossThreadCounts) {
  ExperimentSpec spec;
  spec.name = "determinism";
  TopologySpec mesh;
  mesh.source = TopologySource::kBaseline;
  mesh.baseline = "mesh:rows=3,cols=4";
  TopologySpec torus;
  torus.source = TopologySource::kBaseline;
  torus.baseline = "folded_torus:rows=3,cols=4";
  spec.topologies = {mesh, torus};
  spec.seeds = {7, 9};
  spec.analytic = true;
  spec.traffic = {TrafficSpec{"", "coherence"}, TrafficSpec{"", "memory"}};
  spec.sweep.points = 3;
  spec.sweep.warmup = 200;
  spec.sweep.measure = 600;
  spec.sweep.drain = 2000;
  spec.power.enabled = true;

  const std::string serial =
      report_to_json(Study(spec, StudyOptions{1}).run());
  const std::string wide = report_to_json(Study(spec, StudyOptions{4}).run());
  EXPECT_EQ(serial, wide);

  // And the sweep rows carry the OpenMP provenance they ran with.
  const Report r = Study(spec, StudyOptions{2}).run();
  ASSERT_EQ(r.sweeps.size(), 8u);  // 2 topologies x 2 seeds x 2 traffic
  for (const auto& sw : r.sweeps) {
    EXPECT_GE(sw.omp_threads, 1);
    EXPECT_EQ(sw.omp_threads, r.omp_max_threads);
  }
}

TEST(Report, EmbeddedSpecRoundTrips) {
  ExperimentSpec spec;
  TopologySpec expl;
  expl.source = TopologySource::kExplicit;
  expl.adjacency = "4:0>1,1>0,1>2,2>1,2>3,3>2,3>0,0>3";
  expl.rows = 2;
  expl.cols = 2;
  expl.link_class = "small";
  spec.topologies = {expl};
  spec.analytic = true;

  const std::string json = report_to_json(Study(spec).run());
  // A report with no resilience rows or failed jobs stamps the legacy
  // version so fault-free output stays byte-compatible.
  EXPECT_EQ(report_schema_version(json), kReportSchemaVersion - 1);
  EXPECT_TRUE(spec_from_report(json) == spec);
}

// plan_for checks both grid indices: in a one-seed study (0, 1) is not
// topology 1's plan, and a ref past the end is not memory past the grid.
TEST(Study, PlanForRejectsIndicesOutsideTheGrid) {
  ExperimentSpec spec;
  TopologySpec a;
  a.source = TopologySource::kBaseline;
  a.baseline = "mesh:rows=3,cols=3";
  TopologySpec b = a;
  b.baseline = "mesh:rows=3,cols=4";
  spec.topologies = {a, b};
  spec.analytic = false;
  Study study(spec);
  study.run();
  EXPECT_EQ(study.plan_for(1, 0).topology, 1);
  const auto message = [&](int ref, int seed) -> std::string {
    try {
      study.plan_for(ref, seed);
    } catch (const std::out_of_range& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_NE(message(0, 1).find("plan_for(0, 1)"), std::string::npos)
      << message(0, 1);
  EXPECT_NE(message(2, 0).find("plan_for(2, 0)"), std::string::npos)
      << message(2, 0);
  EXPECT_NE(message(-1, 0).find("plan_for(-1, 0)"), std::string::npos);
  EXPECT_NE(message(0, -1).find("plan_for(0, -1)"), std::string::npos);
}

TEST(Study, RunTwiceThrows) {
  ExperimentSpec spec;
  TopologySpec mesh;
  mesh.source = TopologySource::kBaseline;
  mesh.baseline = "mesh:rows=3,cols=3";
  spec.topologies = {mesh};
  spec.analytic = false;
  Study study(spec);
  study.run();
  EXPECT_THROW(study.run(), std::logic_error);
}

TEST(Study, UnknownBaselineThrowsAtExpansion) {
  ExperimentSpec spec;
  TopologySpec bad;
  bad.source = TopologySource::kBaseline;
  bad.baseline = "warpgate:rows=3";
  spec.topologies = {bad};
  EXPECT_THROW(Study s(spec), std::invalid_argument);
}

// Map-backed cache that logs every call in order: "load <kind> <key>" or
// "store <kind> <key>". A sweep key's trailing OpenMP width is masked to
// "W" so the log does not depend on the machine.
class LoggingCache : public ArtifactCache {
 public:
  bool load(const std::string& kind, const std::string& key,
            std::string& payload) override {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back("load " + kind + " " + masked(key));
    const auto it = entries_.find(kind + "|" + key);
    if (it == entries_.end()) return false;
    payload = it->second;
    return true;
  }
  void store(const std::string& kind, const std::string& key,
             const std::string& payload) override {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back("store " + kind + " " + masked(key));
    entries_[kind + "|" + key] = payload;
  }
  // The calls since the last take_log().
  std::vector<std::string> take_log() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(log_, {});
  }

 private:
  static std::string masked(const std::string& key) {
    const auto at = key.rfind(";omp=");
    return at == std::string::npos ? key : key.substr(0, at) + ";omp=W";
  }
  std::mutex mu_;
  std::vector<std::string> log_;
  std::map<std::string, std::string> entries_;
};

// One move-budgeted synthesis and one baseline, two traffic classes and
// one targeted fault scenario, on a one-worker pool so the job order (and
// so the call log) is fixed.
ExperimentSpec cache_traffic_spec() {
  ExperimentSpec spec;
  spec.name = "cache-traffic";
  TopologySpec synth;
  synth.source = TopologySource::kSynthesize;
  synth.rows = 3;
  synth.cols = 3;
  synth.link_class = "small";
  synth.radix = 3;
  synth.objectives = {"latop"};
  synth.restarts = 1;
  synth.max_moves = 200;
  synth.time_limit_s = 30.0;
  TopologySpec mesh;
  mesh.source = TopologySource::kBaseline;
  mesh.baseline = "mesh:rows=3,cols=3";
  spec.topologies = {synth, mesh};
  spec.num_vcs = 2;
  spec.max_paths_per_flow = 8;
  spec.traffic = {TrafficSpec{"", "coherence"}, TrafficSpec{"", "tornado"}};
  spec.faults = {fault::FaultScenarioSpec{}};  // targeted, k = 1
  spec.sweep.points = 2;
  spec.sweep.warmup = 50;
  spec.sweep.measure = 100;
  spec.sweep.drain = 50;
  spec.threads = 1;
  return spec;
}

// The keys cache_traffic_spec() looks up, in job order, for a VC budget
// and a measure window.
struct CacheKeys {
  std::vector<std::string> topology, plan, sweep;
};

CacheKeys cache_keys(int num_vcs, int measure) {
  const std::string synth =
      "synth:obj=latop;grid=3x3;class=small;radix=3;sym=0;diam=0;mincut=0;"
      "lw=1;t=30;seed=1;restarts=1;moves=200;lm=0";
  const std::string mesh = "baseline:mesh:rows=3,cols=3";
  const std::string plan_tail =
      ";vcs=" + std::to_string(num_vcs) + ";paths=8;seed=7";
  const std::string plans[] = {synth + "|policy=mclb" + plan_tail,
                               mesh + "|policy=ndbt" + plan_tail};
  CacheKeys k;
  k.topology = {synth + ";analytic=1", mesh + ";analytic=1"};
  k.plan = {plans[0], plans[1]};
  for (const auto& plan : plans)
    for (const char* traffic : {"coherence", "tornado"})
      k.sweep.push_back(plan + "|traffic=" + traffic +
                        ";ctrl=1;data=9;frac=0.5|sweep=points=2;max=0;"
                        "adaptive=1;warmup=50;measure=" +
                        std::to_string(measure) +
                        ";drain=50;buf=8;io=2;rd=2;ld=1;simseed=1;omp=W");
  return k;
}

// The call log of one run: every key loaded in job order, each followed by
// its store where that kind misses.
std::vector<std::string> cache_calls(const CacheKeys& k, bool topology_miss,
                                     bool plan_miss, bool sweep_miss) {
  std::vector<std::string> calls;
  const auto add = [&](const std::string& kind,
                       const std::vector<std::string>& keys, bool miss) {
    for (const auto& key : keys) {
      calls.push_back("load " + kind + " " + key);
      if (miss) calls.push_back("store " + kind + " " + key);
    }
  };
  add(kTopologyArtifactKind, k.topology, topology_miss);
  add(kPlanArtifactKind, k.plan, plan_miss);
  add(kSweepArtifactKind, k.sweep, sweep_miss);
  return calls;
}

// "topology hits/misses plan hits/misses sweep hits/misses stores".
std::string stats_line(const ArtifactCacheStats& s) {
  return "topology " + std::to_string(s.topology_hits) + "/" +
         std::to_string(s.topology_misses) + " plan " +
         std::to_string(s.plan_hits) + "/" + std::to_string(s.plan_misses) +
         " sweep " + std::to_string(s.sweep_hits) + "/" +
         std::to_string(s.sweep_misses) + " stores " +
         std::to_string(s.stores);
}

// Each cached job makes one load and, on a miss, one store after it
// computes; resilience jobs never touch the cache; a key changes exactly
// when an input its artifact depends on changes.
TEST(Study, CacheTrafficPerKind) {
  LoggingCache cache;
  StudyOptions opts;
  opts.cache = &cache;
  const ExperimentSpec spec = cache_traffic_spec();

  // Cold: every job misses and stores.
  Study cold(spec, opts);
  const Report cold_report = cold.run();
  const std::string cold_json = report_to_json(cold_report);
  EXPECT_TRUE(cold.failed_jobs().empty());
  EXPECT_EQ(cold_report.resilience.size(), 4u);
  EXPECT_EQ(cold.stats().syntheses_run, 1);
  EXPECT_EQ(stats_line(cold.artifact_cache_stats()),
            "topology 0/2 plan 0/2 sweep 0/4 stores 8");
  EXPECT_EQ(cache.take_log(), cache_calls(cache_keys(2, 100), true, true, true));

  // Warm rerun: everything hits, nothing is stored, same bytes.
  Study warm(spec, opts);
  EXPECT_EQ(report_to_json(warm.run()), cold_json);
  EXPECT_EQ(warm.stats().syntheses_run, 1);
  EXPECT_EQ(stats_line(warm.artifact_cache_stats()),
            "topology 2/0 plan 2/0 sweep 4/0 stores 0");
  EXPECT_EQ(cache.take_log(),
            cache_calls(cache_keys(2, 100), false, false, false));

  // A sweep window is a sweep input only.
  ExperimentSpec measure = spec;
  measure.sweep.measure = 120;
  Study remeasured(measure, opts);
  remeasured.run();
  EXPECT_EQ(stats_line(remeasured.artifact_cache_stats()),
            "topology 2/0 plan 2/0 sweep 0/4 stores 4");
  EXPECT_EQ(cache.take_log(),
            cache_calls(cache_keys(2, 120), false, false, true));

  // The VC budget is a plan input, and so reaches every sweep key.
  ExperimentSpec vcs = spec;
  vcs.num_vcs = 3;
  Study revc(vcs, opts);
  revc.run();
  EXPECT_EQ(stats_line(revc.artifact_cache_stats()),
            "topology 2/0 plan 0/2 sweep 0/4 stores 6");
  EXPECT_EQ(cache.take_log(),
            cache_calls(cache_keys(3, 100), false, true, true));

  // Resilience jobs make no calls: without the fault scenario a fresh cache
  // sees exactly the cold log.
  LoggingCache fresh;
  StudyOptions fresh_opts;
  fresh_opts.cache = &fresh;
  ExperimentSpec fault_free = spec;
  fault_free.faults.clear();
  Study(fault_free, fresh_opts).run();
  EXPECT_EQ(fresh.take_log(),
            cache_calls(cache_keys(2, 100), true, true, true));

  // syntheses_run counts a synthesize job once it resolved, never when its
  // anneal threw: a 3x3 grid at radix 3 has no diameter-1 topology.
  ExperimentSpec failing = spec;
  failing.topologies = {spec.topologies[0]};
  failing.topologies[0].diameter_bound = 1;
  Study plain(failing);
  plain.run();
  EXPECT_EQ(plain.stats().syntheses_run, 0);
  ASSERT_FALSE(plain.failed_jobs().empty());
  EXPECT_FALSE(plain.failed_jobs()[0].skipped);
  Study failed(failing, fresh_opts);
  failed.run();
  EXPECT_EQ(failed.stats().syntheses_run, 0);
  EXPECT_EQ(stats_line(failed.artifact_cache_stats()),
            "topology 0/1 plan 0/0 sweep 0/0 stores 0");
  EXPECT_EQ(fresh.take_log(),
            std::vector<std::string>{
                "load topology synth:obj=latop;grid=3x3;class=small;radix=3;"
                "sym=0;diam=1;mincut=0;lw=1;t=30;seed=1;restarts=1;moves=200;"
                "lm=0;analytic=1"});
}

}  // namespace
}  // namespace netsmith::api
