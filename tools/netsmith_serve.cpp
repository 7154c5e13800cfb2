// netsmith_serve: memory-resident study daemon. Accepts ExperimentSpec jobs
// over a Unix-domain socket (newline-delimited JSON, see src/serve/
// protocol.hpp), runs them on one shared thread pool, and answers repeated specs from a persistent content-addressed
// artifact store — a warm identical spec performs zero synthesis, planning
// or simulation work.
//
//   netsmith_serve --socket PATH [--cache DIR] [--lru-mb N] [--threads N]
//                  [--metrics]
//
//   --socket PATH  Unix socket to listen on (required; removed on exit)
//   --cache DIR    persist artifacts under DIR (default: memory-only)
//   --lru-mb N     in-memory LRU budget in MiB (default 64)
//   --threads N    shared pool width (0 = hardware concurrency)
//   --metrics      enable the obs registry (off by default so served
//                  reports stay byte-identical to netsmith_run's, whose
//                  metrics block is {} unless --metrics is passed there too)
//
// SIGINT/SIGTERM (or a client "shutdown" op) drain and exit.
//
// Exit status: 0 = clean shutdown, 1 = startup error, 2 = usage.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/metrics.hpp"
#include "serve/server.hpp"

using namespace netsmith;

namespace {

serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server) g_server->request_stop();
}

int usage() {
  std::fprintf(stderr,
               "usage: netsmith_serve --socket PATH [--cache DIR] "
               "[--lru-mb N] [--threads N] [--metrics]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opts;
  bool metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--socket") && i + 1 < argc) {
      opts.socket_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--cache") && i + 1 < argc) {
      opts.cache_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--lru-mb") && i + 1 < argc) {
      opts.lru_bytes = static_cast<std::size_t>(std::atol(argv[++i])) << 20;
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      opts.threads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--metrics")) {
      metrics = true;
    } else {
      return usage();
    }
  }
  if (opts.socket_path.empty()) return usage();

  if (metrics) obs::set_metrics_enabled(true);
  try {
    serve::Server server(opts);
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);  // dead clients surface as write errors
    server.start();
    std::fprintf(stderr, "netsmith_serve: listening on %s (cache: %s)\n",
                 opts.socket_path.c_str(),
                 opts.cache_dir.empty() ? "memory-only"
                                        : opts.cache_dir.c_str());
    server.wait();
    const serve::StoreStats s = server.store().stats();
    std::fprintf(stderr,
                 "netsmith_serve: exiting after %ld request(s); store: "
                 "%ld mem hits, %ld disk hits, %ld misses, %ld corrupt, "
                 "%ld stores, %ld evictions\n",
                 server.requests_handled(), s.mem_hits, s.disk_hits, s.misses,
                 s.corrupt, s.stores, s.evictions);
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    g_server = nullptr;
    std::fprintf(stderr, "netsmith_serve: %s\n", e.what());
    return 1;
  }
}
