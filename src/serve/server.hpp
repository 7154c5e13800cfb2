#pragma once
// netsmith serve daemon: a memory-resident study service. One process holds
// a SharedPool (the job executor every request's Study runs on) and an
// ArtifactStore (persistent, content-addressed), so concurrent requests
// share compute fairly and repeated specs are answered from cache — a warm
// identical spec performs zero synthesis/plan/sweep work.
//
// Front end: a Unix-domain socket (ServerOptions::socket_path) speaking a
// newline-delimited JSON protocol (serve/protocol.hpp), one
// connection-handler thread per client, progress events streamed as jobs
// retire.
//
// Deadlock rule: pool tasks never block on other tasks. The Study's DAG
// driver only ever submits ready jobs, and the thread that waits for a
// study to finish is a connection handler, never a pool worker — so N
// concurrent studies share one pool of any width.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "api/executor.hpp"
#include "serve/store.hpp"
#include "util/json.hpp"

namespace netsmith::serve {

// The daemon's executor, also named from the serve layer.
using api::SharedPool;

// Largest request line the daemon reads, in bytes. Specs are small (an
// explicit degree-8 adjacency for 4096 routers is about 0.3 MiB); a longer
// line is answered with an error event and its connection closed, so one
// client cannot make the daemon buffer without bound.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{4} << 20;

// Most client connections the daemon serves at once, each on its own handler
// thread. One more is answered with an error event and closed at once,
// without a thread, so clients cannot make the daemon spawn without bound.
inline constexpr std::size_t kMaxConnections = 64;

struct ServerOptions {
  std::string socket_path;  // required: the daemon's one front end
  std::string cache_dir;    // empty = memory-only store
  std::size_t lru_bytes = 64ull << 20;
  int threads = 0;  // SharedPool width; 0 = hardware concurrency
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket and launches the listener thread. Throws
  // std::runtime_error when socket_path is empty or cannot be bound.
  void start();
  // Blocks until request_stop() (e.g. from a signal handler or a client
  // "shutdown" op), then joins every thread. The socket file is unlinked.
  void wait();
  // Async-signal-unfriendly parts (joins) happen in wait(); this only flags
  // and wakes, so it is safe to call from anywhere including handlers.
  void request_stop();
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  ArtifactStore& store() { return store_; }
  long requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }
  // Connection-handler threads not yet joined: live clients plus finished
  // handlers the accept loop has not reaped yet.
  std::size_t connection_threads() {
    std::lock_guard<std::mutex> lk(conn_mu_);
    return conns_.size();
  }

 private:
  void accept_loop();
  // Joins every connection thread that has finished; caller holds conn_mu_.
  void reap_finished_connections();
  void handle_connection(int fd);
  void handle_run(int fd, const util::JsonValue& spec_json);

  ServerOptions opts_;
  ArtifactStore store_;
  SharedPool pool_;
  std::atomic<bool> stop_{false};
  std::atomic<long> requests_{0};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  // One handler thread per accepted client. A handler flags `done` as its
  // last act; the accept loop joins flagged ones before adding a new one,
  // so a long-lived daemon holds threads only for its live clients.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conn_mu_;
  std::list<Connection> conns_;  // stable addresses for the handlers
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool started_ = false;
};

}  // namespace netsmith::serve
