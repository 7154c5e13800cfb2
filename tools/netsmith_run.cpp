// netsmith_run: execute a declarative experiment spec and emit the report.
//
//   netsmith_run <spec.json> [--out PATH] [--threads N]
//   netsmith_run <spec.json> --validate
//
//   --out PATH    write the JSON report to PATH (default: stdout)
//   --threads N   Study thread-pool override (0 = hardware concurrency)
//   --validate    parse + round-trip the spec and exit without running
//   --trace PATH  record trace spans and write Chrome trace_event JSON
//                 (load in chrome://tracing or https://ui.perfetto.dev)
//   --metrics     collect the obs counter/gauge/histogram registry; the
//                 snapshot lands in the report's "metrics" block
//   --cache DIR   persistent artifact store (shared with netsmith_serve):
//                 topology/plan/sweep artifacts are looked up before
//                 computing and persisted after, so a repeated spec is
//                 answered almost entirely from disk. Reports are
//                 byte-identical with and without the cache.
//
// The report is schema-versioned and embeds the spec verbatim; after
// writing, the tool re-parses its own output (spec_from_report) and checks
// it equals the input spec, so a zero exit status certifies the round-trip.
// A human-readable summary goes to stderr; only JSON touches stdout.
//
// Exit status: 0 = success, 1 = error (no report), 2 = usage, 3 = the report
// was written but is partial — some jobs failed or were skipped (listed on
// stderr and in the report's provenance.failed_jobs).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "api/report.hpp"
#include "api/study.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/store.hpp"

using namespace netsmith;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: netsmith_run <spec.json> [--out PATH] [--threads N] "
               "[--validate] [--trace PATH] [--metrics] [--cache DIR]\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path, out_path, trace_path, cache_dir;
  int threads = -1;
  bool validate_only = false;
  bool metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--cache") && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--validate")) {
      validate_only = true;
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--metrics")) {
      metrics = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (spec_path.empty()) {
      spec_path = argv[i];
    } else {
      return usage();
    }
  }
  if (spec_path.empty()) return usage();

  try {
    const std::string text = read_file(spec_path);
    const api::ExperimentSpec spec = api::parse_spec(text);
    if (api::parse_spec(api::serialize(spec)) != spec)
      throw std::runtime_error("spec does not round-trip (parser bug)");
    if (validate_only) {
      std::fprintf(stderr, "netsmith_run: %s is valid (schema %d, %zu "
                   "topologies, round-trip OK)\n",
                   spec_path.c_str(), api::spec_schema_version(spec),
                   spec.topologies.size());
      return 0;
    }

    obs::WallTimer timer;
    if (metrics) obs::set_metrics_enabled(true);
    if (!trace_path.empty()) obs::set_trace_enabled(true);
    serve::ArtifactStore cache(
        serve::StoreOptions{cache_dir, serve::StoreOptions{}.lru_bytes});
    api::StudyOptions sopts;
    sopts.threads = threads;
    if (!cache_dir.empty()) sopts.cache = &cache;
    api::Study study(spec, sopts);
    const api::Report report = study.run();
    const std::string json = api::report_to_json(report);

    if (!trace_path.empty()) {
      obs::write_trace(trace_path);
      std::fprintf(stderr, "netsmith_run: trace -> %s\n", trace_path.c_str());
    }

    // Self-check: the emitted report's embedded spec must parse back to the
    // exact input spec.
    if (api::spec_from_report(json) != spec)
      throw std::runtime_error("report spec does not round-trip");

    if (out_path.empty()) {
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) throw std::runtime_error("cannot write " + out_path);
      out << json;
    }

    const auto& st = study.stats();
    std::fprintf(stderr,
                 "netsmith_run: %s: %d topologies (%d unique, %d synthesized),"
                 " %d plans (%d unique), %d sweeps, %d resilience rows,"
                 " %d power rows in %.1f s [schema %d, spec round-trip OK]%s%s\n",
                 spec.name.c_str(), st.topology_refs, st.unique_topologies,
                 st.syntheses_run, st.plan_refs, st.unique_plans,
                 st.sweep_jobs, st.resilience_jobs, st.power_jobs,
                 timer.seconds(), api::report_schema_version(report),
                 out_path.empty() ? "" : " -> ",
                 out_path.c_str());

    if (!cache_dir.empty()) {
      const api::ArtifactCacheStats cs = study.artifact_cache_stats();
      std::fprintf(stderr,
                   "netsmith_run: cache %s: %ld hits (%ld topology, %ld plan,"
                   " %ld sweep), %ld misses, %ld stored\n",
                   cache_dir.c_str(), cs.hits(), cs.topology_hits,
                   cs.plan_hits, cs.sweep_hits, cs.misses(), cs.stores);
    }

    // Partial report: the study degraded instead of aborting. Surface every
    // failure and exit 3 so scripts can tell "complete" from "degraded".
    if (!report.failed_jobs.empty()) {
      std::fprintf(stderr,
                   "netsmith_run: WARNING: %zu job(s) failed or were skipped;"
                   " the report is partial:\n",
                   report.failed_jobs.size());
      for (const auto& f : report.failed_jobs)
        std::fprintf(stderr, "  %s %s: %s\n",
                     f.skipped ? "[skipped]" : "[failed] ", f.job.c_str(),
                     f.reason.c_str());
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netsmith_run: %s\n", e.what());
    return 1;
  }
}
