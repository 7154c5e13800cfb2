#pragma once
// Pluggable artifact cache: the Study runner's hook for keeping expensive
// artifacts (synthesized topologies, routed plans, finished sweeps) alive
// beyond one process run.
//
// Within a single Study, artifact sharing is structural — the grid expansion
// dedups on canonical keys, so each unique artifact is produced once. An
// ArtifactCache extends that sharing across Study instances and across
// processes. Topology, plan and sweep jobs share one cache-through rule
// (Study::restored / Study::stored): one load() under the job's canonical key
// plus the evaluation inputs outside it (the analytic toggle, the OpenMP
// sweep width), and on a miss one store() after the job computes. Resilience
// jobs never call the cache. The serve daemon's persistent store
// (serve/store.hpp) is the production implementation.
//
// Contract:
//  - load() returns true and fills `payload` on a hit; false on a miss.
//    A corrupt, truncated or otherwise unusable entry MUST read as a miss,
//    never an error — the runner recomputes and re-stores.
//  - store() is best-effort: failures must be swallowed (a cache that
//    cannot persist degrades to recompute-every-time, it does not abort
//    studies).
//  - Both methods must be safe to call concurrently from many threads.
//
// Determinism: payloads restore every report-visible field bit-exactly, so
// a Study resolving all jobs from cache assembles a report byte-identical
// to the run that populated the cache (see artifact_io.hpp).

#include <string>

namespace netsmith::api {

// Artifact kinds, used as the cache namespace (and as subdirectories by the
// on-disk store).
inline constexpr const char* kTopologyArtifactKind = "topology";
inline constexpr const char* kPlanArtifactKind = "plan";
inline constexpr const char* kSweepArtifactKind = "sweep";

class ArtifactCache {
 public:
  virtual ~ArtifactCache() = default;

  // True + payload filled on hit; false on miss (including corrupt entries).
  virtual bool load(const std::string& kind, const std::string& key,
                    std::string& payload) = 0;

  // Best-effort persist; must not throw.
  virtual void store(const std::string& kind, const std::string& key,
                     const std::string& payload) = 0;
};

// Per-Study cache traffic, split by artifact kind. A fully warm run has
// misses == 0 for every kind and ran zero syntheses — the serve layer
// returns these counters with every response so clients can assert reuse.
struct ArtifactCacheStats {
  long topology_hits = 0;
  long topology_misses = 0;
  long plan_hits = 0;
  long plan_misses = 0;
  long sweep_hits = 0;
  long sweep_misses = 0;
  long stores = 0;  // artifacts serialized and handed to store()

  long hits() const { return topology_hits + plan_hits + sweep_hits; }
  long misses() const { return topology_misses + plan_misses + sweep_misses; }
};

}  // namespace netsmith::api
