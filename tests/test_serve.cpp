// Serving layer: persistent content-addressed artifact store (LRU, disk
// format, corruption handling), artifact payload round-trips, executor-
// backed studies on a shared pool, and the daemon's socket protocol.
//
// The contracts under test:
//  - store round-trip: stored payloads come back bit-exact, from memory and
//    from a fresh instance reading disk; corrupted or truncated entries
//    read as misses (never crash) and are rewritten by the next store
//  - LRU: the in-memory budget is respected, evicted entries survive on
//    disk
//  - warm study: a second identical run against the same store restores
//    every artifact (misses == 0, zero annealer invocations) and assembles
//    a byte-identical report
//  - serve protocol: reports stream back byte-identical to what the Study
//    produced, repeated specs answer from cache, malformed requests yield
//    structured errors without killing the connection, and concurrent
//    clients share pool and store safely

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/artifact_io.hpp"
#include "api/report.hpp"
#include "api/spec.hpp"
#include "api/study.hpp"
#include "core/plan.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "system/chiplet.hpp"
#include "topologies/registry.hpp"
#include "util/json.hpp"

namespace netsmith {
namespace {

namespace fs = std::filesystem;
using util::JsonValue;

std::string temp_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "netsmith_serve_" + tag +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Deterministic across independent runs: no synthesized topology, so the
// report carries no wall-clock synthesis trace. Small enough that a full
// study is a few milliseconds.
api::ExperimentSpec baseline_spec() {
  api::ExperimentSpec spec;
  spec.name = "serve-test";
  api::TopologySpec mesh;
  mesh.source = api::TopologySource::kBaseline;
  mesh.baseline = "mesh:rows=3,cols=3";
  api::TopologySpec ring;
  ring.source = api::TopologySource::kExplicit;
  ring.name = "ring";
  ring.adjacency = "4:0>1,1>0,1>2,2>1,2>3,3>2,3>0,0>3";
  ring.rows = 2;
  ring.cols = 2;
  ring.link_class = "small";
  spec.topologies = {mesh, ring};
  spec.traffic = {api::TrafficSpec{"", "coherence"}};
  spec.sweep.points = 3;
  spec.sweep.warmup = 50;
  spec.sweep.measure = 100;
  spec.sweep.drain = 50;
  spec.threads = 2;
  return spec;
}

// Adds a (tiny) synthesized topology: exercises the annealer-skip contract
// and the synthesis-provenance round-trip (including the wall-clock trace,
// which only a cached run can reproduce bit-exactly).
api::ExperimentSpec synth_spec() {
  api::ExperimentSpec spec = baseline_spec();
  spec.name = "serve-test-synth";
  api::TopologySpec synth;
  synth.source = api::TopologySource::kSynthesize;
  synth.name = "mini";
  synth.rows = 2;
  synth.cols = 2;
  synth.link_class = "small";
  synth.objectives = {"latop"};
  synth.radix = 3;
  synth.time_limit_s = 1.0;
  synth.restarts = 1;
  synth.max_moves = 300;
  synth.synth_seed = 11;
  spec.topologies.push_back(synth);
  return spec;
}

// ----------------------------------------------------------------- store --

TEST(ArtifactStore, MemoryRoundTrip) {
  serve::ArtifactStore store(serve::StoreOptions{"", 1 << 20});
  std::string payload;
  EXPECT_FALSE(store.load("topology", "k1", payload));
  store.store("topology", "k1", "hello artifact");
  ASSERT_TRUE(store.load("topology", "k1", payload));
  EXPECT_EQ(payload, "hello artifact");
  const serve::StoreStats s = store.stats();
  EXPECT_EQ(s.mem_hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.stores, 1);
  EXPECT_EQ(s.disk_hits, 0);
  // Memory-only: nothing maps to a disk path.
  EXPECT_TRUE(store.path_for("topology", "k1").empty());
}

TEST(ArtifactStore, DiskRoundTripAcrossInstances) {
  const std::string dir = temp_dir("disk");
  const std::string big(10000, 'x');
  {
    serve::ArtifactStore store(serve::StoreOptions{dir, 1 << 20});
    store.store("plan", "some|plan;key=1", big);
    store.store("sweep", "other key", "payload two");
  }
  serve::ArtifactStore fresh(serve::StoreOptions{dir, 1 << 20});
  std::string payload;
  ASSERT_TRUE(fresh.load("plan", "some|plan;key=1", payload));
  EXPECT_EQ(payload, big);
  ASSERT_TRUE(fresh.load("sweep", "other key", payload));
  EXPECT_EQ(payload, "payload two");
  EXPECT_EQ(fresh.stats().disk_hits, 2);
  // Promoted into memory: a reload never touches disk again.
  ASSERT_TRUE(fresh.load("plan", "some|plan;key=1", payload));
  EXPECT_EQ(fresh.stats().mem_hits, 1);
  // Same hash bucket, different key (collision discipline): a different
  // key never aliases.
  EXPECT_FALSE(fresh.load("plan", "some|plan;key=2", payload));
  fs::remove_all(dir);
}

TEST(ArtifactStore, CorruptedEntryIsMissAndRewritten) {
  const std::string dir = temp_dir("corrupt");
  serve::ArtifactStore writer(serve::StoreOptions{dir, 1 << 20});
  writer.store("topology", "victim", "precious payload bytes");
  const std::string path = writer.path_for("topology", "victim");
  ASSERT_TRUE(fs::exists(path));

  // Bit-flip one payload byte in place.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    char c;
    f.seekg(-3, std::ios::end);
    f.get(c);
    f.seekp(-3, std::ios::end);
    f.put(static_cast<char>(c ^ 0x40));
  }
  serve::ArtifactStore reader(serve::StoreOptions{dir, 1 << 20});
  std::string payload;
  EXPECT_FALSE(reader.load("topology", "victim", payload));
  EXPECT_EQ(reader.stats().corrupt, 1);
  // The next store rewrites the same path; the entry heals.
  reader.store("topology", "victim", "precious payload bytes");
  serve::ArtifactStore reader2(serve::StoreOptions{dir, 1 << 20});
  ASSERT_TRUE(reader2.load("topology", "victim", payload));
  EXPECT_EQ(payload, "precious payload bytes");

  // Truncation (simulating a torn write under the final name).
  fs::resize_file(path, fs::file_size(path) / 2);
  serve::ArtifactStore reader3(serve::StoreOptions{dir, 1 << 20});
  EXPECT_FALSE(reader3.load("topology", "victim", payload));
  EXPECT_EQ(reader3.stats().corrupt, 1);

  // Garbage file.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "not an artifact at all";
  }
  serve::ArtifactStore reader4(serve::StoreOptions{dir, 1 << 20});
  EXPECT_FALSE(reader4.load("topology", "victim", payload));
  EXPECT_EQ(reader4.stats().corrupt, 1);
  fs::remove_all(dir);
}

TEST(ArtifactStore, LruRespectsByteBudget) {
  const std::string dir = temp_dir("lru");
  // Budget fits ~3 of the 1000-byte payloads.
  serve::ArtifactStore store(serve::StoreOptions{dir, 3500});
  const std::string payload(1000, 'p');
  for (int i = 0; i < 8; ++i)
    store.store("sweep", "key" + std::to_string(i), payload + char('0' + i));
  serve::StoreStats s = store.stats();
  EXPECT_LE(s.mem_bytes, 3500);
  EXPECT_EQ(s.evictions, 8 - s.mem_entries);
  EXPECT_GT(s.evictions, 0);
  // Evicted entries still load — from disk — and bytes are intact.
  std::string got;
  ASSERT_TRUE(store.load("sweep", "key0", got));
  EXPECT_EQ(got, payload + '0');
  EXPECT_GE(store.stats().disk_hits, 1);
  // An oversized payload is stored to disk but never pinned in memory.
  store.store("sweep", "huge", std::string(10000, 'h'));
  EXPECT_LE(store.stats().mem_bytes, 3500);
  ASSERT_TRUE(store.load("sweep", "huge", got));
  EXPECT_EQ(got.size(), 10000u);
  fs::remove_all(dir);
}

// ---------------------------------------------------- payload round-trip --

TEST(ArtifactPayloads, MalformedPayloadsAreMisses) {
  api::TopologyArtifact t;
  sim::SweepResult r;
  api::PlanArtifact p;
  EXPECT_FALSE(api::restore_topology_artifact("", false, t));
  EXPECT_FALSE(api::restore_topology_artifact("{not json", false, t));
  EXPECT_FALSE(api::restore_topology_artifact("{\"artifact\":\"plan\"}",
                                              false, t));
  EXPECT_FALSE(api::restore_plan_artifact("{\"artifact\":\"plan\"}",
                                          topo::Layout::noi_4x5(), p));
  EXPECT_FALSE(api::restore_sweep_artifact("[1,2,3]", r));
  EXPECT_FALSE(api::restore_sweep_artifact(
      "{\"artifact\":\"sweep\",\"schema\":999}", r));
}

TEST(ArtifactPayloads, SweepRoundTripIsExact) {
  api::ExperimentSpec spec = baseline_spec();
  api::Study study(spec);
  const api::Report rep = study.run();
  ASSERT_TRUE(rep.failed_jobs.empty());
  // Re-run with a memory store: the second study restores sweeps from the
  // first study's payloads and must reproduce every report row bit-exactly.
  serve::ArtifactStore store(serve::StoreOptions{"", 1 << 20});
  api::StudyOptions with_cache;
  with_cache.cache = &store;
  const api::Report cold = api::run_experiment(spec, with_cache);
  const api::Report warm = api::run_experiment(spec, with_cache);
  EXPECT_EQ(api::report_to_json(rep), api::report_to_json(cold));
  EXPECT_EQ(api::report_to_json(cold), api::report_to_json(warm));
}

// A plan artifact over a 20-router catalog row, optionally wrapped into the
// chiplet full system first (as a chiplet_system study plans it).
api::PlanArtifact catalog_plan(const std::string& row,
                               core::RoutingPolicy policy, bool chiplet) {
  const auto& t = topologies::find(topologies::catalog(20), row);
  api::PlanArtifact p;
  p.seed = 7;
  if (chiplet) {
    p.system = system::build_chiplet_system(t.graph, t.layout);
    p.has_system = true;
  }
  p.plan = core::plan_network(chiplet ? p.system.graph : t.graph, t.layout,
                              policy, 6, p.seed);
  return p;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ArtifactPayloads, PlanRoundTripIsExact) {
  const struct {
    const char* row;
    core::RoutingPolicy policy;
    bool chiplet;
  } cases[] = {{"NS-LatOp-small-20", core::RoutingPolicy::kMclb, false},
               {"Kite-small", core::RoutingPolicy::kNdbt, false},
               {"Kite-small", core::RoutingPolicy::kNdbt, true}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.row) + (c.chiplet ? " (chiplet)" : ""));
    const api::PlanArtifact orig = catalog_plan(c.row, c.policy, c.chiplet);
    const topo::Layout layout =
        topologies::find(topologies::catalog(20), c.row).layout;
    const std::string payload = api::plan_artifact_payload(orig);
    EXPECT_EQ(payload.find('\n'), std::string::npos) << "compact envelope";

    api::PlanArtifact got;
    got.seed = orig.seed;
    ASSERT_TRUE(api::restore_plan_artifact(payload, layout, got));
    const auto& a = orig.plan;
    const auto& b = got.plan;
    EXPECT_EQ(a.graph, b.graph);
    const int n = a.table.num_nodes();
    ASSERT_EQ(b.table.num_nodes(), n);
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d)
        ASSERT_TRUE(std::ranges::equal(a.table.path(s, d), b.table.path(s, d)))
            << s << "->" << d;
    EXPECT_EQ(a.vc_map.vc, b.vc_map.vc);
    EXPECT_EQ(std::count(b.vc_map.vc.begin(), b.vc_map.vc.end(), -1), n)
        << "absent s == d flows keep their -1 sentinel";
    EXPECT_EQ(a.vc_map.num_vcs, b.vc_map.num_vcs);
    EXPECT_EQ(a.vc_map.num_layers, b.vc_map.num_layers);
    EXPECT_EQ(a.vc_map.layer_of_vc, b.vc_map.layer_of_vc);
    EXPECT_TRUE(bits_equal(a.vc_map.weight_of_vc, b.vc_map.weight_of_vc));
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.num_vcs, b.num_vcs);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.max_paths_per_flow, b.max_paths_per_flow);
    EXPECT_EQ(std::memcmp(&a.max_channel_load, &b.max_channel_load,
                          sizeof(double)),
              0);
    EXPECT_EQ(a.vc_layers, b.vc_layers);
    EXPECT_EQ(a.ndbt_fallback_flows, b.ndbt_fallback_flows);
    ASSERT_EQ(got.has_system, orig.has_system);
    if (orig.has_system) {
      EXPECT_EQ(got.system.graph, orig.system.graph);
      EXPECT_EQ(got.system.extra_delay, orig.system.extra_delay);
      EXPECT_EQ(got.system.noi_n, orig.system.noi_n);
      EXPECT_EQ(got.system.num_cores, orig.system.num_cores);
      EXPECT_EQ(got.system.core_routers, orig.system.core_routers);
      EXPECT_EQ(got.system.mc_routers, orig.system.mc_routers);
      EXPECT_EQ(got.system.noi_layout.rows, orig.system.noi_layout.rows);
      EXPECT_EQ(got.system.noi_layout.cols, orig.system.noi_layout.cols);
      EXPECT_EQ(got.system.noi_layout.pitch_mm,
                orig.system.noi_layout.pitch_mm);
    }
    // Re-serializing the restored plan reproduces the payload bytes.
    EXPECT_EQ(api::plan_artifact_payload(got), payload);

    // An entry written by a schema-1 build reads as a miss (and heals).
    JsonValue old = JsonValue::parse(payload);
    old.set("schema", JsonValue::integer(1));
    api::PlanArtifact stale;
    stale.seed = orig.seed;
    EXPECT_FALSE(
        api::restore_plan_artifact(old.dump_compact(), layout, stale));
  }
}

// ------------------------------------------------------------ warm study --

TEST(WarmStudy, SecondRunIsAllHitsAndByteIdentical) {
  const std::string dir = temp_dir("warm");
  const api::ExperimentSpec spec = synth_spec();
  std::string first_json, second_json;
  {
    serve::ArtifactStore store(serve::StoreOptions{dir, 1 << 20});
    api::StudyOptions opts;
    opts.cache = &store;
    api::Study study(spec, opts);
    first_json = api::report_to_json(study.run());
    const api::ArtifactCacheStats cs = study.artifact_cache_stats();
    EXPECT_EQ(cs.hits(), 0);
    EXPECT_GT(cs.misses(), 0);
    EXPECT_GT(cs.stores, 0);
  }
  {
    // Fresh store instance: everything must come from disk.
    serve::ArtifactStore store(serve::StoreOptions{dir, 1 << 20});
    api::StudyOptions opts;
    opts.cache = &store;
    api::Study study(spec, opts);
    second_json = api::report_to_json(study.run());
    const api::ArtifactCacheStats cs = study.artifact_cache_stats();
    EXPECT_EQ(cs.misses(), 0) << "warm run recomputed artifacts";
    EXPECT_EQ(cs.stores, 0);
    EXPECT_EQ(cs.topology_hits, 3);
    // The annealer itself never ran: all restores came from the store.
    EXPECT_EQ(store.stats().misses + store.stats().corrupt, 0);
  }
  // Byte-identical report, including the synthesis provenance trace.
  EXPECT_EQ(first_json, second_json);
  fs::remove_all(dir);
}

TEST(WarmStudy, StatsStaySchemaIdentical) {
  // syntheses_run counts resolved synthesize jobs whether the annealer ran
  // or a cached artifact was restored — the report is provenance-stable.
  const std::string dir = temp_dir("stats");
  const api::ExperimentSpec spec = synth_spec();
  serve::ArtifactStore store(serve::StoreOptions{dir, 1 << 20});
  api::StudyOptions opts;
  opts.cache = &store;
  api::Study cold(spec, opts);
  cold.run();
  api::Study warm(spec, opts);
  warm.run();
  EXPECT_EQ(cold.stats().syntheses_run, warm.stats().syntheses_run);
  EXPECT_EQ(warm.artifact_cache_stats().misses(), 0);
  fs::remove_all(dir);
}

// ------------------------------------------------------- shared executor --

TEST(SharedPoolStudy, MatchesInternalPoolReport) {
  const api::ExperimentSpec spec = baseline_spec();
  const std::string internal_json =
      api::report_to_json(api::run_experiment(spec));

  serve::SharedPool pool(4);
  api::StudyOptions opts;
  opts.executor = &pool;
  std::atomic<int> progress_calls{0};
  int last_done = 0, last_total = 0;
  opts.on_job_done = [&](const std::string&, int done, int total) {
    progress_calls.fetch_add(1);
    last_done = done;  // serialized under the DAG lock
    last_total = total;
  };
  api::Study study(spec, opts);
  const int jobs = study.stats().jobs_total;
  const std::string executor_json = api::report_to_json(study.run());

  EXPECT_EQ(executor_json, internal_json);
  EXPECT_EQ(progress_calls.load(), jobs);
  EXPECT_EQ(last_done, jobs);
  EXPECT_EQ(last_total, jobs);
}

TEST(SharedPoolStudy, ConcurrentStudiesShareStoreAndPool) {
  const std::string dir = temp_dir("concurrent");
  const api::ExperimentSpec spec = baseline_spec();
  serve::ArtifactStore store(serve::StoreOptions{dir, 1 << 20});
  serve::SharedPool pool(4);
  // Warm the store once so concurrent runs exercise the hit path.
  {
    api::StudyOptions opts;
    opts.cache = &store;
    opts.executor = &pool;
    api::run_experiment(spec, opts);
  }
  constexpr int kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<api::ArtifactCacheStats> stats(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      api::StudyOptions opts;
      opts.cache = &store;
      opts.executor = &pool;
      api::Study study(spec, opts);
      reports[static_cast<std::size_t>(i)] =
          api::report_to_json(study.run());
      stats[static_cast<std::size_t>(i)] = study.artifact_cache_stats();
    });
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(reports[static_cast<std::size_t>(i)], reports[0]);
    EXPECT_EQ(stats[static_cast<std::size_t>(i)].misses(), 0)
        << "client " << i << " recomputed despite a warm shared store";
  }
  fs::remove_all(dir);
}

// The pool-width gauges describe the executor the jobs ran on, not the
// study's own (here ignored) thread option.
TEST(SharedPoolStudy, PoolWidthComesFromTheExecutor) {
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  api::SharedPool pool(3);
  api::StudyOptions opts;
  opts.threads = 1;
  opts.executor = &pool;
  api::run_experiment(baseline_spec(), opts);
  double width = -1.0;
  for (const auto& [name, value] : obs::snapshot_metrics().gauges)
    if (name == "study.pool_width") width = value;
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(width, 3.0);
}

// Test-only executor that explores DAG schedules: submitted tasks queue up
// and run one at a time on the executor's own thread (never inline), each
// pick drawn uniformly from the queue by a seeded generator.
class ShuffledExecutor final : public api::JobExecutor {
 public:
  explicit ShuffledExecutor(std::uint64_t seed)
      : rng_(seed), worker_([this] { loop(); }) {}
  ~ShuffledExecutor() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  void submit(std::function<void()> task) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  std::size_t queued() {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      const std::size_t pick = rng_() % queue_.size();
      std::swap(queue_[pick], queue_.back());
      std::function<void()> task = std::move(queue_.back());
      queue_.pop_back();
      lk.unlock();
      task();
      lk.lock();
    }
  }

  std::mt19937_64 rng_;
  std::vector<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread worker_;  // last: starts after every other member exists
};

// Any execution order the driver permits assembles the local-pool report
// byte for byte, including failure and skip provenance, retires every job
// exactly once and leaves nothing queued behind.
TEST(SharedPoolStudy, SeededSchedulesMatchLocalPoolReport) {
  api::ExperimentSpec failing = baseline_spec();
  failing.name = "serve-test-failing";
  failing.num_vcs = 1;  // balance_vcs cannot honor 1 VC for the mesh plan
  failing.routing = "mclb";
  fault::FaultScenarioSpec cut;
  cut.name = "cut-1";
  cut.mode = "targeted";
  cut.k = 1;
  failing.faults = {cut};

  for (const api::ExperimentSpec& spec : {baseline_spec(), failing}) {
    const api::Report local = api::run_experiment(spec);
    const std::string local_json = api::report_to_json(local);
    if (spec.name == failing.name) {
      ASSERT_FALSE(local.failed_jobs.empty());
      ASSERT_FALSE(local.failed_jobs.front().skipped);
      ASSERT_TRUE(local.failed_jobs.back().skipped);
    }
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      ShuffledExecutor exec(seed);
      api::StudyOptions opts;
      opts.executor = &exec;
      int calls = 0, last_done = 0;
      opts.on_job_done = [&](const std::string&, int done, int) {
        ++calls;  // serialized under the DAG lock
        last_done = done;
      };
      api::Study study(spec, opts);
      const std::string json = api::report_to_json(study.run());
      EXPECT_EQ(exec.queued(), 0u) << spec.name << " seed " << seed;
      EXPECT_EQ(json, local_json) << spec.name << " seed " << seed;
      EXPECT_EQ(calls, study.stats().jobs_total);
      EXPECT_EQ(last_done, study.stats().jobs_total);
    }
  }
}

// --------------------------------------------------------------- daemon ---

class ServeClient {
 public:
  explicit ServeClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // The daemon binds asynchronously; retry briefly.
    for (int i = 0; i < 100; ++i) {
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::close(fd_);
    fd_ = -1;
  }
  ~ServeClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  bool send(const std::string& line) { return serve::write_line(fd_, line); }
  // Raw bytes, no newline; false (never SIGPIPE) if the daemon hung up.
  bool send_raw(const std::string& bytes) {
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  // Next non-empty event line parsed as JSON; null value on EOF.
  JsonValue next_event() {
    if (!reader_) reader_ = std::make_unique<serve::LineReader>(fd_);
    std::string line;
    while (reader_->next(line))
      if (!line.empty()) return JsonValue::parse(line);
    return JsonValue::null();
  }
  // Reads events until `kind` (skipping progress etc.); null on EOF.
  JsonValue wait_for(const std::string& kind) {
    for (;;) {
      JsonValue ev = next_event();
      if (ev.is_null()) return ev;
      const JsonValue* e = ev.find("event");
      if (e && e->as_string() == kind) return ev;
      if (e && e->as_string() == "error") return ev;  // fail fast
    }
  }

 private:
  int fd_ = -1;
  std::unique_ptr<serve::LineReader> reader_;
};

std::string run_request(const api::ExperimentSpec& spec) {
  JsonValue req = JsonValue::object();
  req.set("op", JsonValue::string("run"));
  req.set("spec", api::spec_to_json(spec));
  return req.dump_compact();
}

// ------------------------------------------------------- request fuzz --

// parse_request runs on untrusted socket bytes. Every truncation and
// single-byte substitution of a well-formed ping / stats / run line (the
// run line carrying specs/smoke.json) must either parse or throw
// std::invalid_argument, the one failure the daemon turns into an error
// event; the intact lines parse back to their op and spec.
TEST(ServeProtocol, RequestParserSurvivesTruncationAndMutation) {
  std::ifstream in(NETSMITH_SOURCE_DIR "/specs/smoke.json");
  ASSERT_TRUE(in) << "specs/smoke.json";
  const std::string spec_text((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  const JsonValue spec = JsonValue::parse(spec_text);
  JsonValue run = JsonValue::object();
  run.set("op", JsonValue::string("run"));
  run.set("spec", spec);
  const std::pair<std::string, std::string> lines[] = {
      {"ping", "{\"op\":\"ping\"}"},
      {"stats", "{\"op\":\"stats\"}"},
      {"run", run.dump_compact()}};

  std::mt19937_64 rng(17);
  int parsed = 0, rejected = 0;
  for (const auto& [op, good] : lines) {
    SCOPED_TRACE(op);
    const serve::Request req = serve::parse_request(good);
    EXPECT_EQ(req.op, op);
    if (op == "run") {
      EXPECT_EQ(req.spec.dump_compact(), spec.dump_compact());
      EXPECT_EQ(api::spec_from_json(req.spec), api::parse_spec(spec_text));
    }

    std::vector<std::string> variants;
    const std::size_t step = good.size() / 64 + 1;
    for (std::size_t cut = 0; cut < good.size(); cut += step)
      variants.push_back(good.substr(0, cut));
    const char subs[] = {'0', '9', '-', ' ', ';', ',', '"', '}', '\0'};
    for (int k = 0; k < 64; ++k) {
      const std::size_t pos = rng() % good.size();
      for (char c : subs) {
        if (good[pos] == c) continue;
        std::string v = good;
        v[pos] = c;
        variants.push_back(std::move(v));
      }
    }
    for (const auto& v : variants) {
      try {
        serve::parse_request(v);
        ++parsed;
      } catch (const std::invalid_argument&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "threw " << e.what() << " on: " << v;
      } catch (...) {
        ADD_FAILURE() << "threw a non-exception on: " << v;
      }
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 100);
}

// The socket is the daemon's only front end: without a path there is
// nothing to serve (an empty path would otherwise bind an anonymous
// abstract socket no client can name).
TEST(ServeDaemon, StartRequiresSocketPath) {
  serve::ServerOptions opts;
  opts.threads = 1;
  serve::Server server(opts);
  EXPECT_THROW(server.start(), std::runtime_error);
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = temp_dir("daemon");
    socket_ = dir_ + "/serve.sock";
    serve::ServerOptions opts;
    opts.socket_path = socket_;
    opts.cache_dir = dir_ + "/cache";
    opts.threads = 4;
    server_ = std::make_unique<serve::Server>(opts);
    server_->start();
  }
  void TearDown() override {
    server_->request_stop();
    server_->wait();
    server_.reset();
    fs::remove_all(dir_);
  }
  std::string dir_, socket_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeDaemonTest, PingStatsAndShutdownOps) {
  ServeClient c(socket_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send("{\"op\":\"ping\"}"));
  EXPECT_EQ(c.wait_for("pong").at("event").as_string(), "pong");
  ASSERT_TRUE(c.send("{\"op\":\"stats\"}"));
  const JsonValue stats = c.wait_for("stats");
  EXPECT_EQ(stats.at("event").as_string(), "stats");
  EXPECT_GE(stats.at("requests").as_int(), 2);
  ASSERT_TRUE(c.send("{\"op\":\"shutdown\"}"));
  EXPECT_EQ(c.wait_for("accepted").at("op").as_string(), "shutdown");
}

TEST_F(ServeDaemonTest, MalformedRequestsKeepConnectionAlive) {
  ServeClient c(socket_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send("this is not json"));
  JsonValue err = c.next_event();
  ASSERT_FALSE(err.is_null());
  EXPECT_EQ(err.at("event").as_string(), "error");
  EXPECT_NE(err.at("message").as_string().find("malformed"),
            std::string::npos);
  ASSERT_TRUE(c.send("{\"op\":\"frobnicate\"}"));
  err = c.next_event();
  EXPECT_EQ(err.at("event").as_string(), "error");
  // A run with an invalid spec also answers in-band.
  ASSERT_TRUE(c.send("{\"op\":\"run\",\"spec\":{\"topologies\":[]}}"));
  err = c.next_event();
  EXPECT_EQ(err.at("event").as_string(), "error");
  // The connection survived all three.
  ASSERT_TRUE(c.send("{\"op\":\"ping\"}"));
  EXPECT_EQ(c.wait_for("pong").at("event").as_string(), "pong");
}

TEST_F(ServeDaemonTest, OversizedRequestIsRejectedAndDaemonSurvives) {
  {
    ServeClient c(socket_);
    ASSERT_TRUE(c.ok());
    // One byte past the cap and no newline: the daemon reads all of it,
    // answers in-band, then hangs up.
    ASSERT_TRUE(c.send_raw(std::string(serve::kMaxRequestBytes + 1, 'x')));
    const JsonValue err = c.next_event();
    ASSERT_FALSE(err.is_null());
    EXPECT_EQ(err.at("event").as_string(), "error");
    EXPECT_NE(err.at("message").as_string().find("exceeds"),
              std::string::npos);
    EXPECT_TRUE(c.next_event().is_null());
  }
  // A line exactly at the cap is still read (and rejected as bad JSON).
  ServeClient at_cap(socket_);
  ASSERT_TRUE(at_cap.ok());
  ASSERT_TRUE(at_cap.send(std::string(serve::kMaxRequestBytes, 'x')));
  const JsonValue bad = at_cap.next_event();
  ASSERT_FALSE(bad.is_null());
  EXPECT_NE(bad.at("message").as_string().find("malformed"),
            std::string::npos);
  // The daemon still serves new connections.
  ServeClient c(socket_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send("{\"op\":\"ping\"}"));
  EXPECT_EQ(c.wait_for("pong").at("event").as_string(), "pong");
}

// Finished handlers are joined as new clients arrive: a daemon that has
// served many short connections holds threads only for the live ones.
TEST_F(ServeDaemonTest, FinishedConnectionThreadsAreReaped) {
  for (int i = 0; i < 64; ++i) {
    ServeClient c(socket_);
    ASSERT_TRUE(c.ok()) << "cycle " << i;
    ASSERT_TRUE(c.send("{\"op\":\"ping\"}"));
    ASSERT_EQ(c.wait_for("pong").at("event").as_string(), "pong")
        << "cycle " << i;
  }
  ServeClient c(socket_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.send("{\"op\":\"ping\"}"));
  EXPECT_EQ(c.wait_for("pong").at("event").as_string(), "pong");
  // The live client, plus the few closed ones whose handlers had not yet
  // flagged themselves done when the next client was accepted.
  EXPECT_LE(server_->connection_threads(), 8u);
}

// At most kMaxConnections clients are served at once. One more is answered
// in-band and closed without a handler thread; the clients already
// connected keep being served, and once some of them hang up a new client
// is accepted again.
TEST_F(ServeDaemonTest, ConnectionsBeyondTheCapAreRefused) {
  std::vector<std::unique_ptr<ServeClient>> idle;
  for (std::size_t i = 0; i < serve::kMaxConnections; ++i) {
    idle.push_back(std::make_unique<ServeClient>(socket_));
    ASSERT_TRUE(idle.back()->ok()) << "client " << i;
  }
  {
    // Accepted in connection order, so this one arrives at the cap.
    ServeClient extra(socket_);
    ASSERT_TRUE(extra.ok());
    const JsonValue err = extra.next_event();
    ASSERT_FALSE(err.is_null());
    EXPECT_EQ(err.at("event").as_string(), "error");
    EXPECT_NE(err.at("message").as_string().find("connections"),
              std::string::npos);
    EXPECT_TRUE(extra.next_event().is_null());
  }
  EXPECT_EQ(server_->connection_threads(), serve::kMaxConnections);
  ASSERT_TRUE(idle.front()->send("{\"op\":\"ping\"}"));
  EXPECT_EQ(idle.front()->wait_for("pong").at("event").as_string(), "pong");

  idle.resize(idle.size() - 4);
  // The closed clients' handlers finish on their own; a refused attempt
  // (error, then EOF) is retried. send_raw never raises SIGPIPE.
  std::string last = "none";
  for (int attempt = 0; attempt < 100 && last != "pong"; ++attempt) {
    ServeClient c(socket_);
    ASSERT_TRUE(c.ok());
    c.send_raw("{\"op\":\"ping\"}\n");
    const JsonValue ev = c.next_event();
    last = ev.is_null() ? "eof" : ev.at("event").as_string();
    if (last != "pong")
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(last, "pong");
}

TEST_F(ServeDaemonTest, RepeatedSpecIsWarmAndByteIdentical) {
  const api::ExperimentSpec spec = synth_spec();
  ServeClient c(socket_);
  ASSERT_TRUE(c.ok());

  ASSERT_TRUE(c.send(run_request(spec)));
  const JsonValue accepted = c.wait_for("accepted");
  ASSERT_FALSE(accepted.is_null());
  EXPECT_GT(accepted.at("jobs").as_int(), 0);
  const JsonValue first = c.wait_for("report");
  ASSERT_EQ(first.at("event").as_string(), "report");
  EXPECT_FALSE(first.at("partial").as_bool());
  EXPECT_GT(first.at("cache").at("misses").as_int(), 0);

  // Same connection, same spec: answered entirely from the store.
  ASSERT_TRUE(c.send(run_request(spec)));
  const JsonValue second = c.wait_for("report");
  ASSERT_EQ(second.at("event").as_string(), "report");
  EXPECT_EQ(second.at("cache").at("misses").as_int(), 0)
      << "warm daemon recomputed artifacts";
  EXPECT_EQ(second.at("cache").at("stores").as_int(), 0);

  // Byte-identical reports, wall-clock synthesis trace included.
  EXPECT_EQ(first.at("report").as_string(), second.at("report").as_string());

  // And identical to what the library produces directly against the same
  // persistent store (this is what `netsmith_run --cache` does).
  serve::ArtifactStore store(
      serve::StoreOptions{dir_ + "/cache", 64ull << 20});
  api::StudyOptions opts;
  opts.cache = &store;
  EXPECT_EQ(first.at("report").as_string(),
            api::report_to_json(api::run_experiment(spec, opts)));
}

TEST_F(ServeDaemonTest, ConcurrentClientsGetIdenticalReports) {
  const api::ExperimentSpec spec = baseline_spec();
  // Prime the store so every client is warm.
  {
    ServeClient c(socket_);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.send(run_request(spec)));
    ASSERT_EQ(c.wait_for("report").at("event").as_string(), "report");
  }
  constexpr int kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<long> misses(kClients, -1);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      ServeClient c(socket_);
      if (!c.ok() || !c.send(run_request(spec))) return;
      const JsonValue rep = c.wait_for("report");
      if (rep.is_null() || rep.at("event").as_string() != "report") return;
      reports[static_cast<std::size_t>(i)] = rep.at("report").as_string();
      misses[static_cast<std::size_t>(i)] =
          rep.at("cache").at("misses").as_int();
    });
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(reports[static_cast<std::size_t>(i)].empty())
        << "client " << i << " got no report";
    EXPECT_EQ(reports[static_cast<std::size_t>(i)], reports[0]);
    EXPECT_EQ(misses[static_cast<std::size_t>(i)], 0)
        << "client " << i << " was not served from the shared store";
  }
}

}  // namespace
}  // namespace netsmith
