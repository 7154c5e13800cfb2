#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "api/report.hpp"
#include "api/spec.hpp"
#include "api/study.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace netsmith::serve {

using util::JsonValue;

// ---------------------------------------------------------------- Server --

namespace {

void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      store_(StoreOptions{opts_.cache_dir, opts_.lru_bytes}),
      pool_(opts_.threads) {}

Server::~Server() {
  if (started_) {
    request_stop();
    wait();
  }
}

void Server::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.empty() ||
      opts_.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("serve: socket path empty or too long: '" +
                             opts_.socket_path + "'");
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(opts_.socket_path.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("serve: socket(): " +
                             std::string(std::strerror(errno)));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + opts_.socket_path +
                             ": " + err);
  }
  // accept() honors SO_RCVTIMEO; the loop wakes periodically to observe a
  // stop request instead of parking forever.
  set_recv_timeout(listen_fd_, 200);
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lk(stop_mu_);
  stop_cv_.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lk(stop_mu_);
    stop_cv_.wait(lk, [this] { return stop_requested(); });
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (auto& c : conns_) c.thread.join();
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
  }
  started_ = false;
}

void Server::reap_finished_connections() {
  conns_.remove_if([](Connection& c) {
    if (!c.done.load(std::memory_order_acquire)) return false;
    c.thread.join();
    return true;
  });
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stop_requested()) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED)
        continue;
      return;  // listener is gone; wait() reaps us
    }
    set_recv_timeout(fd, 500);
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      reap_finished_connections();
      if (conns_.size() < kMaxConnections) {
        Connection& conn = conns_.emplace_back();
        conn.thread = std::thread([this, fd, &conn] {
          handle_connection(fd);
          ::close(fd);
          conn.done.store(true, std::memory_order_release);
        });
        continue;
      }
    }
    // At the cap: answered like an oversized line, with no handler thread.
    write_line(fd, error_event("daemon already serves " +
                               std::to_string(kMaxConnections) +
                               " connections; closing the connection"));
    ::close(fd);
  }
}

void Server::handle_connection(int fd) {
  LineReader reader(fd, [this] { return stop_requested(); },
                    kMaxRequestBytes);
  std::string line;
  while (reader.next(line)) {
    if (line.empty()) continue;
    obs::Span span("serve/request");
    requests_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.requests").inc();
    Request req;
    try {
      req = parse_request(line);
    } catch (const std::exception& e) {
      obs::counter("serve.requests_bad").inc();
      // Protocol errors are answered, not fatal: the connection stays open
      // so one bad line cannot wedge a client's session.
      if (!write_line(fd, error_event(e.what()))) return;
      continue;
    }
    span.arg("op", req.op);
    if (req.op == "ping") {
      if (!write_line(fd, pong_event())) return;
    } else if (req.op == "stats") {
      if (!write_line(fd, stats_event(store_.stats(),
                                      requests_.load(std::memory_order_relaxed))))
        return;
    } else if (req.op == "shutdown") {
      write_line(fd, accepted_event("shutdown", "", -1));
      request_stop();
      return;
    } else {  // "run"
      handle_run(fd, req.spec);
    }
  }
  if (reader.overflowed()) {
    // The rest of the line is unread, so the stream cannot resync: answer,
    // then let the caller close the connection.
    requests_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.requests").inc();
    obs::counter("serve.requests_bad").inc();
    write_line(fd, error_event("request line exceeds " +
                               std::to_string(kMaxRequestBytes) +
                               " bytes; closing the connection"));
  }
}

void Server::handle_run(int fd, const JsonValue& spec_json) {
  // Progress events are produced under the study's DAG bookkeeping lock on
  // pool workers; they must never block on the client socket. The callback
  // only enqueues — this handler thread owns every socket write.
  struct ProgressQueue {
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::string> lines;
    bool done = false;
  } prog;

  api::ExperimentSpec spec;
  std::unique_ptr<api::Study> study;
  try {
    spec = api::spec_from_json(spec_json);
    api::StudyOptions sopts;
    sopts.cache = &store_;
    sopts.executor = &pool_;
    sopts.on_job_done = [&prog](const std::string& label, int done,
                                int total) {
      {
        std::lock_guard<std::mutex> lk(prog.m);
        prog.lines.push_back(progress_event(label, done, total));
      }
      prog.cv.notify_one();
    };
    study = std::make_unique<api::Study>(spec, sopts);
  } catch (const std::exception& e) {
    write_line(fd, error_event(e.what()));
    return;
  }
  if (!write_line(fd, accepted_event("run", spec.name,
                                     study->stats().jobs_total)))
    return;

  api::Report report;
  std::string run_error;
  std::thread runner([&] {
    try {
      report = study->run();
    } catch (const std::exception& e) {
      run_error = e.what();
      if (run_error.empty()) run_error = "study failed";
    }
    {
      std::lock_guard<std::mutex> lk(prog.m);
      prog.done = true;
    }
    prog.cv.notify_one();
  });

  // Drain progress until the study retires. A dead client stops the writes
  // but never the study: cache population must finish either way.
  bool io_ok = true;
  {
    std::unique_lock<std::mutex> lk(prog.m);
    for (;;) {
      prog.cv.wait(lk, [&] { return prog.done || !prog.lines.empty(); });
      while (!prog.lines.empty()) {
        const std::string ev = std::move(prog.lines.front());
        prog.lines.pop_front();
        lk.unlock();
        if (io_ok) io_ok = write_line(fd, ev);
        lk.lock();
      }
      if (prog.done) break;
    }
  }
  runner.join();

  if (!run_error.empty()) {
    write_line(fd, error_event(run_error));
    return;
  }
  if (!io_ok) return;
  write_line(fd, report_event(api::report_to_json(report),
                              !report.failed_jobs.empty(),
                              study->artifact_cache_stats(), store_.stats()));
}

}  // namespace netsmith::serve
