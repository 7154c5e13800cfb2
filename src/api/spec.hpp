#pragma once
// Declarative experiment descriptions: everything a figure bench, ablation
// or service request needs to say about an evaluation, as one value type
// with an exact JSON round-trip (parse(serialize(spec)) == spec).
//
// A spec names WHAT to evaluate — topology sources, routing policy, VC
// budget, traffic scenarios, sweep windows, power model, seeds — and the
// Study runner (api/study.hpp) expands it into a job DAG and executes it.
// Schema versioning: kSpecSchemaVersion is embedded in every serialized
// spec and report; parse rejects documents from a different major schema.

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "fault/model.hpp"
#include "sim/network.hpp"
#include "sim/sweep.hpp"
#include "util/json.hpp"

namespace netsmith::api {

// v2 added the `faults` block. Serialization stamps v1 when the block is
// empty (see spec_schema_version), so faultless specs — and the reports
// embedding them — stay byte-identical with pre-fault builds; the parser
// accepts both versions.
inline constexpr int kSpecSchemaVersion = 2;
inline constexpr int kSpecMinSchemaVersion = 1;

// --------------------------------------------------------------- topology --

enum class TopologySource {
  kSynthesize,  // run the NetSmith annealer with the given config
  kBaseline,    // registry factory spec, e.g. "dragonfly:routers=48"
  kExplicit,    // literal adjacency "n:i>j,..." on a rows x cols grid
  kCatalog,     // frozen paper catalog rows (20/30/48), by name or all
};

// One topology source. Grid axes: a synthesize entry expands to one
// topology per listed objective; a catalog entry with an empty name expands
// to every row of that catalog (plus the parametric baselines on request).
struct TopologySpec {
  TopologySource source = TopologySource::kBaseline;
  std::string name;  // display-name override; catalog: row selector

  // kBaseline
  std::string baseline;  // "family:key=value,..." (topologies::make_spec)

  // kCatalog
  int catalog_routers = 20;
  bool include_baselines = false;

  // kExplicit
  std::string adjacency;  // topo::DiGraph::to_string form
  int rows = 0, cols = 0;
  std::string link_class = "medium";  // small|medium|large

  // kSynthesize (mirrors core::SynthesisConfig; layout is rows/cols above,
  // defaulting to 4x5 when unset)
  std::vector<std::string> objectives = {"latop"};  // grid axis
  int radix = 4;
  bool symmetric_links = false;
  int diameter_bound = 0;
  double min_cut_bandwidth = 0.0;
  double load_weight = 1.0;
  double time_limit_s = 2.0;
  std::uint64_t synth_seed = 1;
  int restarts = 3;
  // > 0: move-budgeted deterministic annealing (bit-reproducible reports);
  // 0: wall-clock budget (time_limit_s).
  long max_moves = 0;
  // Reserved, must be 0: the retired landmark scoring mode's sample size.
  // Kept so reports still embed it and synthesized topology keys keep their
  // `;lm=0` suffix; validate() rejects any other value.
  int landmark_sources = 0;

  bool operator==(const TopologySpec&) const = default;
};

// ---------------------------------------------------------------- traffic --

struct TrafficSpec {
  std::string name;  // row label in reports; empty = use `kind`
  // coherence|memory|shuffle|tornado (tornado: core::tornado_pattern as
  // kCustom traffic, rates capped by the pattern's routed bound).
  std::string kind = "coherence";

  const std::string& label() const { return name.empty() ? kind : name; }
  int ctrl_flits = 1;
  int data_flits = 9;
  double data_fraction = 0.5;

  bool operator==(const TrafficSpec&) const = default;
};

// ------------------------------------------------------------------ sweep --

// Injection-sweep and simulator windows (sim::SimConfig + sweep shape).
struct SweepSpec {
  int points = 10;
  double max_rate = 0.0;  // packets/node/cycle; 0 = analytic auto bound
  bool adaptive = true;
  long warmup = 2000;
  long measure = 6000;
  long drain = 24000;
  int buf_flits = 8;
  int io_flits_per_cycle = 2;
  int router_delay = 2;
  int link_delay = 1;
  std::uint64_t sim_seed = 1;

  bool operator==(const SweepSpec&) const = default;
};

// ------------------------------------------------------------------ power --

struct PowerSpec {
  bool enabled = false;
  double flits_per_node_cycle = 0.25;  // activity for the DSENT-lite model

  bool operator==(const PowerSpec&) const = default;
};

// ------------------------------------------------------------- experiment --

struct ExperimentSpec {
  std::string name = "experiment";
  std::vector<TopologySpec> topologies;

  // Routing + plan construction.
  std::string routing = "auto";  // auto (paper policy) | mclb | ndbt
  int num_vcs = 6;
  int max_paths_per_flow = 48;
  // Wrap each NoI into the 84-router chiplet full system before planning.
  bool chiplet_system = false;
  // Plan seeds: grid axis (plan_network's RNG drives NDBT path selection
  // and VC layer assignment).
  std::vector<std::uint64_t> seeds = {7};

  // What to evaluate. `analytic` adds per-plan graph/bound metrics (Fig. 1);
  // each TrafficSpec adds one injection sweep per plan (Figs. 6/10/11).
  bool analytic = true;
  std::vector<TrafficSpec> traffic;
  SweepSpec sweep;
  PowerSpec power;

  // Resilience scenarios (fault/model.hpp): each entry evaluates every
  // plan x traffic combination under that fault schedule, adding rows to the
  // Report's `resilience` block. Empty = no fault evaluation (and the spec
  // serializes exactly as schema v1 did).
  std::vector<fault::FaultScenarioSpec> faults;

  // Study thread-pool width (0 = hardware concurrency). Not part of the
  // result: reports are identical across thread counts.
  int threads = 0;

  bool operator==(const ExperimentSpec&) const = default;
};

// ------------------------------------------------------------------- JSON --

// Schema version a serialization of `spec` carries: v1 until the spec uses
// a v2 feature (a non-empty faults block).
int spec_schema_version(const ExperimentSpec& spec);

// Serializes with every field present (canonical full form), schema-stamped.
std::string serialize(const ExperimentSpec& spec);

// Parses a spec document. Strict: unknown keys, malformed values and schema
// mismatches throw std::invalid_argument with the offending key.
ExperimentSpec parse_spec(const std::string& json_text);

// DOM forms, for embedding a spec inside a larger document (reports carry
// their spec verbatim for provenance).
util::JsonValue spec_to_json(const ExperimentSpec& spec);
ExperimentSpec spec_from_json(const util::JsonValue& root);

// ------------------------------------------------- enum <-> string helpers --

const char* to_string(TopologySource s);
TopologySource topology_source_from_string(const std::string& s);

// Conversions used by the Study runner (throw std::invalid_argument on
// unknown names).
core::Objective objective_from_string(const std::string& s);
const char* objective_to_string(core::Objective o);
topo::LinkClass link_class_from_string(const std::string& s);

// Simulator window from the sweep + experiment knobs (extra_edge_delay is
// plan-specific and filled by the Study).
sim::SimConfig make_sim_config(const ExperimentSpec& spec);

}  // namespace netsmith::api
