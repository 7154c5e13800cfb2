#include "serve/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace netsmith::serve {

using util::JsonValue;

Request parse_request(const std::string& line) {
  JsonValue root;
  try {
    root = JsonValue::parse(line);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("malformed request JSON: ") +
                                e.what());
  }
  if (!root.is_object())
    throw std::invalid_argument("request must be a JSON object");
  const JsonValue* op = root.find("op");
  if (!op || op->type() != JsonValue::Type::kString)
    throw std::invalid_argument("request missing string field \"op\"");
  Request req;
  req.op = op->as_string();
  if (req.op == "run") {
    const JsonValue* spec = root.find("spec");
    if (!spec || !spec->is_object())
      throw std::invalid_argument("\"run\" request missing object \"spec\"");
    req.spec = *spec;
  } else if (req.op != "ping" && req.op != "stats" && req.op != "shutdown") {
    throw std::invalid_argument("unknown op \"" + req.op + "\"");
  }
  return req;
}

std::string accepted_event(const std::string& op, const std::string& name,
                           int jobs_total) {
  JsonValue e = JsonValue::object();
  e.set("event", JsonValue::string("accepted"));
  e.set("op", JsonValue::string(op));
  if (!name.empty()) e.set("name", JsonValue::string(name));
  if (jobs_total >= 0) e.set("jobs", JsonValue::integer(jobs_total));
  return e.dump_compact();
}

std::string progress_event(const std::string& label, int done, int total) {
  JsonValue e = JsonValue::object();
  e.set("event", JsonValue::string("progress"));
  e.set("done", JsonValue::integer(done));
  e.set("total", JsonValue::integer(total));
  e.set("label", JsonValue::string(label));
  return e.dump_compact();
}

util::JsonValue cache_stats_json(const api::ArtifactCacheStats& s) {
  JsonValue v = JsonValue::object();
  v.set("topology_hits", JsonValue::integer(s.topology_hits));
  v.set("topology_misses", JsonValue::integer(s.topology_misses));
  v.set("plan_hits", JsonValue::integer(s.plan_hits));
  v.set("plan_misses", JsonValue::integer(s.plan_misses));
  v.set("sweep_hits", JsonValue::integer(s.sweep_hits));
  v.set("sweep_misses", JsonValue::integer(s.sweep_misses));
  v.set("stores", JsonValue::integer(s.stores));
  v.set("hits", JsonValue::integer(s.hits()));
  v.set("misses", JsonValue::integer(s.misses()));
  return v;
}

util::JsonValue store_stats_json(const StoreStats& s) {
  JsonValue v = JsonValue::object();
  v.set("mem_hits", JsonValue::integer(s.mem_hits));
  v.set("disk_hits", JsonValue::integer(s.disk_hits));
  v.set("misses", JsonValue::integer(s.misses));
  v.set("corrupt", JsonValue::integer(s.corrupt));
  v.set("stores", JsonValue::integer(s.stores));
  v.set("evictions", JsonValue::integer(s.evictions));
  v.set("write_errors", JsonValue::integer(s.write_errors));
  v.set("mem_bytes", JsonValue::integer(s.mem_bytes));
  v.set("mem_entries", JsonValue::integer(s.mem_entries));
  return v;
}

std::string report_event(const std::string& report_json, bool partial,
                         const api::ArtifactCacheStats& cache,
                         const StoreStats& store) {
  JsonValue e = JsonValue::object();
  e.set("event", JsonValue::string("report"));
  e.set("partial", JsonValue::boolean(partial));
  e.set("cache", cache_stats_json(cache));
  e.set("store", store_stats_json(store));
  e.set("report", JsonValue::string(report_json));
  return e.dump_compact();
}

std::string error_event(const std::string& message) {
  JsonValue e = JsonValue::object();
  e.set("event", JsonValue::string("error"));
  e.set("message", JsonValue::string(message));
  return e.dump_compact();
}

std::string pong_event() {
  JsonValue e = JsonValue::object();
  e.set("event", JsonValue::string("pong"));
  return e.dump_compact();
}

std::string stats_event(const StoreStats& store, long requests_handled) {
  JsonValue e = JsonValue::object();
  e.set("event", JsonValue::string("stats"));
  e.set("requests", JsonValue::integer(requests_handled));
  e.set("store", store_stats_json(store));
  return e.dump_compact();
}

bool write_line(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool LineReader::next(std::string& line) {
  for (;;) {
    if (overflow_) return false;
    const std::size_t nl = buf_.find('\n', scanned_);
    const std::size_t len = nl == std::string::npos ? buf_.size() : nl;
    if (max_line_ > 0 && len > max_line_) {
      overflow_ = true;
      return false;
    }
    if (nl != std::string::npos) {
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      scanned_ = 0;
      return true;
    }
    scanned_ = buf_.size();
    if (eof_) {
      if (buf_.empty()) return false;
      line = std::move(buf_);
      buf_.clear();
      scanned_ = 0;
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0) {
      eof_ = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (stop_ && stop_()) eof_ = true;  // shutdown while client is idle
    } else if (errno != EINTR) {
      eof_ = true;  // read error: surface whatever is buffered, then stop
    }
  }
}

}  // namespace netsmith::serve
