#pragma once
// Wire protocol for the netsmith serve daemon: newline-delimited JSON over a
// Unix-domain stream socket. Every message — request or response — is one
// complete JSON document on one line (JsonValue::dump_compact), so framing
// is just line splitting and a client can stream events with a line reader.
//
// Requests:
//   {"op":"run","spec":{...ExperimentSpec...}}
//   {"op":"ping"}            liveness probe
//   {"op":"stats"}           store/request counters without running anything
//   {"op":"shutdown"}        ask the daemon to exit after draining
//
// Response events for "run" (in order):
//   {"event":"accepted","op":"run","name":...,"jobs":N}
//   {"event":"progress","done":k,"total":N,"label":...}   (per job)
//   {"event":"report","partial":bool,"report":"<json text>",
//    "cache":{...},"store":{...}}
// The report rides as an escaped STRING, not an embedded object: the client
// recovers the exact bytes report_to_json produced, so a served report can
// be byte-compared against netsmith_run output. "cache" is this study's
// artifact-cache traffic (api::ArtifactCacheStats); a fully warm request
// shows misses == 0 there. "store" is the daemon-lifetime StoreStats.
//
// Any failure produces {"event":"error","message":...} and the connection
// stays open for the next request; protocol errors never kill the daemon.
// The one exception is a request line over the daemon's size cap
// (kMaxRequestBytes in serve/server.hpp): it is answered with an error
// event, then that connection is closed, since the rest of the line was
// never read.

#include <cstddef>
#include <functional>
#include <string>

#include "api/artifact_cache.hpp"
#include "serve/store.hpp"
#include "util/json.hpp"

namespace netsmith::serve {

struct Request {
  std::string op;        // "run" | "ping" | "stats" | "shutdown"
  util::JsonValue spec;  // op == "run" only
};

// Parses one request line; throws std::invalid_argument with a client-facing
// message on malformed JSON, missing/unknown op, or a missing spec.
Request parse_request(const std::string& line);

// Event builders. Each returns one complete line WITHOUT the trailing
// newline; write_line appends it.
std::string accepted_event(const std::string& op, const std::string& name,
                           int jobs_total);
std::string progress_event(const std::string& label, int done, int total);
std::string report_event(const std::string& report_json, bool partial,
                         const api::ArtifactCacheStats& cache,
                         const StoreStats& store);
std::string error_event(const std::string& message);
std::string pong_event();
std::string stats_event(const StoreStats& store, long requests_handled);

util::JsonValue cache_stats_json(const api::ArtifactCacheStats& s);
util::JsonValue store_stats_json(const StoreStats& s);

// ---------------------------------------------------------- socket I/O ---

// Writes `line` plus '\n'; retries on partial writes / EINTR. False on a
// closed or broken peer (callers treat that as "client went away").
bool write_line(int fd, const std::string& line);

// Incremental line splitter over a blocking fd. When the fd carries an
// SO_RCVTIMEO, each timeout invokes `stop` (if set); a true return abandons
// the read — this is how daemon connection handlers notice a shutdown while
// parked on an idle client. Each read's bytes are scanned for '\n' once, so
// a long line costs linear time.
class LineReader {
 public:
  // max_line > 0 caps a line's length in bytes (excluding the '\n'); 0
  // reads lines of any length.
  explicit LineReader(int fd, std::function<bool()> stop = {},
                      std::size_t max_line = 0)
      : fd_(fd), stop_(std::move(stop)), max_line_(max_line) {}
  // Next complete line (without '\n'); false on EOF, read error or an
  // over-long line (see overflowed). A final unterminated chunk before EOF
  // is returned as a line.
  bool next(std::string& line);
  // True once a line longer than max_line was met. The reader stops there:
  // the rest of that line is never read, so the stream cannot be resumed.
  bool overflowed() const { return overflow_; }

 private:
  int fd_;
  std::function<bool()> stop_;
  std::size_t max_line_;
  std::string buf_;
  std::size_t scanned_ = 0;  // prefix of buf_ known to hold no '\n'
  bool eof_ = false;
  bool overflow_ = false;
};

}  // namespace netsmith::serve
