#include "api/spec.hpp"

#include <concepts>
#include <ranges>
#include <stdexcept>
#include <type_traits>

#include "util/json.hpp"

namespace netsmith::api {

using util::JsonValue;

// ------------------------------------------------- enum <-> string helpers --

const char* to_string(TopologySource s) {
  switch (s) {
    case TopologySource::kSynthesize: return "synthesize";
    case TopologySource::kBaseline: return "baseline";
    case TopologySource::kExplicit: return "explicit";
    case TopologySource::kCatalog: return "catalog";
  }
  return "baseline";
}

TopologySource topology_source_from_string(const std::string& s) {
  if (s == "synthesize") return TopologySource::kSynthesize;
  if (s == "baseline") return TopologySource::kBaseline;
  if (s == "explicit") return TopologySource::kExplicit;
  if (s == "catalog") return TopologySource::kCatalog;
  throw std::invalid_argument("spec: unknown topology source '" + s + "'");
}

core::Objective objective_from_string(const std::string& s) {
  if (s == "latop") return core::Objective::kLatOp;
  if (s == "scop") return core::Objective::kSCOp;
  if (s == "pattern") return core::Objective::kPattern;
  if (s == "channel_load") return core::Objective::kChannelLoad;
  if (s == "latload") return core::Objective::kLatLoad;
  throw std::invalid_argument("spec: unknown objective '" + s + "'");
}

const char* objective_to_string(core::Objective o) {
  switch (o) {
    case core::Objective::kLatOp: return "latop";
    case core::Objective::kSCOp: return "scop";
    case core::Objective::kPattern: return "pattern";
    case core::Objective::kChannelLoad: return "channel_load";
    case core::Objective::kLatLoad: return "latload";
  }
  return "latop";
}

topo::LinkClass link_class_from_string(const std::string& s) {
  if (s == "small") return topo::LinkClass::kSmall;
  if (s == "medium") return topo::LinkClass::kMedium;
  if (s == "large") return topo::LinkClass::kLarge;
  throw std::invalid_argument("spec: unknown link class '" + s + "'");
}

sim::SimConfig make_sim_config(const ExperimentSpec& spec) {
  sim::SimConfig c;
  c.num_vcs = spec.num_vcs;
  c.buf_flits = spec.sweep.buf_flits;
  c.router_delay = spec.sweep.router_delay;
  c.link_delay = spec.sweep.link_delay;
  c.io_flits_per_cycle = spec.sweep.io_flits_per_cycle;
  c.warmup = spec.sweep.warmup;
  c.measure = spec.sweep.measure;
  c.drain = spec.sweep.drain;
  c.seed = spec.sweep.sim_seed;
  return c;
}

// ---------------------------------------------------------- member lists ---
//
// Each spec record's JSON form is described once: members(rec, io) calls
// io("key", rec.field) for every member, in serialization order. The writer
// turns each call into one JSON member, the reader fills the field when its
// key is present (an absent key keeps the struct default), and the
// unknown-key check matches a document's keys against the same list. The
// member's C++ type picks its JSON form (json_value / ObjReader::read);
// range and structure checks are validate(rec, where), run after reading.

namespace {

// members() takes a record the reader fills or, const, one the writer and
// the unknown-key check only look at.
template <class T, class Rec>
concept RecordOf = std::same_as<std::remove_const_t<T>, Rec>;

// The one tagged member: `faults` is written only when non-empty, so a
// faultless spec keeps the exact v1 byte layout (reports embed specs
// verbatim, so this preserves report bytes too).
constexpr bool kOmitIfEmpty = true;

void members(RecordOf<TopologySpec> auto& t, auto&& io) {
  io("source", t.source);
  io("name", t.name);
  io("baseline", t.baseline);
  io("catalog_routers", t.catalog_routers);
  io("include_baselines", t.include_baselines);
  io("adjacency", t.adjacency);
  io("rows", t.rows);
  io("cols", t.cols);
  io("link_class", t.link_class);
  io("objectives", t.objectives);
  io("radix", t.radix);
  io("symmetric_links", t.symmetric_links);
  io("diameter_bound", t.diameter_bound);
  io("min_cut_bandwidth", t.min_cut_bandwidth);
  io("load_weight", t.load_weight);
  io("time_limit_s", t.time_limit_s);
  io("synth_seed", t.synth_seed);
  io("restarts", t.restarts);
  io("max_moves", t.max_moves);
  io("landmark_sources", t.landmark_sources);
}

void members(RecordOf<TrafficSpec> auto& t, auto&& io) {
  io("name", t.name);
  io("kind", t.kind);
  io("ctrl_flits", t.ctrl_flits);
  io("data_flits", t.data_flits);
  io("data_fraction", t.data_fraction);
}

void members(RecordOf<SweepSpec> auto& s, auto&& io) {
  io("points", s.points);
  io("max_rate", s.max_rate);
  io("adaptive", s.adaptive);
  io("warmup", s.warmup);
  io("measure", s.measure);
  io("drain", s.drain);
  io("buf_flits", s.buf_flits);
  io("io_flits_per_cycle", s.io_flits_per_cycle);
  io("router_delay", s.router_delay);
  io("link_delay", s.link_delay);
  io("sim_seed", s.sim_seed);
}

void members(RecordOf<PowerSpec> auto& p, auto&& io) {
  io("enabled", p.enabled);
  io("flits_per_node_cycle", p.flits_per_node_cycle);
}

void members(RecordOf<fault::FaultEvent> auto& e, auto&& io) {
  io("cycle", e.cycle);
  io("kind", e.kind);
  io("a", e.a);
  io("b", e.b);
}

void members(RecordOf<fault::FaultScenarioSpec> auto& f, auto&& io) {
  io("name", f.name);
  io("mode", f.mode);
  io("k", f.k);
  io("fail_at", f.fail_at);
  io("recover_at", f.recover_at);
  io("link_mtbf", f.link_mtbf);
  io("link_mttr", f.link_mttr);
  io("router_mtbf", f.router_mtbf);
  io("router_mttr", f.router_mttr);
  io("seed", f.seed);
  io("lossy", f.lossy);
  io("repair", f.repair);
  io("events", f.events);
}

void members(RecordOf<ExperimentSpec> auto& s, auto&& io) {
  // Not a field: stamped from spec_schema_version, range-checked when read.
  long schema = spec_schema_version(s);
  io("schema_version", schema);
  if (schema < kSpecMinSchemaVersion || schema > kSpecSchemaVersion)
    throw std::invalid_argument(
        "spec: schema_version " + std::to_string(schema) +
        " unsupported (this build speaks " +
        std::to_string(kSpecMinSchemaVersion) + ".." +
        std::to_string(kSpecSchemaVersion) + ")");
  io("name", s.name);
  io("topologies", s.topologies);
  io("routing", s.routing);
  io("num_vcs", s.num_vcs);
  io("max_paths_per_flow", s.max_paths_per_flow);
  io("chiplet_system", s.chiplet_system);
  io("seeds", s.seeds);
  io("analytic", s.analytic);
  io("traffic", s.traffic);
  io("sweep", s.sweep);
  io("power", s.power);
  io("faults", s.faults, kOmitIfEmpty);
  io("threads", s.threads);
}

// ------------------------------------------------------------ validation ---

void validate(const TopologySpec& t, const std::string& at) {
  if (t.objectives.empty())
    throw std::invalid_argument("spec: objectives must not be empty");
  for (const auto& o : t.objectives) objective_from_string(o);

  // Range checks: reject values no synthesis/catalog run can honour.
  if (t.radix < 1)
    throw std::invalid_argument("spec: radix must be >= 1 in " + at);
  if (t.restarts < 1)
    throw std::invalid_argument("spec: restarts must be >= 1 in " + at);
  if (t.time_limit_s < 0 || t.max_moves < 0 || t.min_cut_bandwidth < 0 ||
      t.diameter_bound < 0)
    throw std::invalid_argument(
        "spec: time_limit_s, max_moves, min_cut_bandwidth and diameter_bound "
        "must be >= 0 in " + at);
  if (t.landmark_sources != 0)
    throw std::invalid_argument(
        "spec: landmark_sources is reserved and must be 0 (landmark scoring "
        "was removed; every synthesis scores all sources) in " + at);

  // Per-source structural validation.
  switch (t.source) {
    case TopologySource::kBaseline:
      if (t.baseline.empty())
        throw std::invalid_argument("spec: baseline source needs 'baseline'");
      break;
    case TopologySource::kExplicit:
      if (t.adjacency.empty() || t.rows <= 0 || t.cols <= 0)
        throw std::invalid_argument(
            "spec: explicit source needs adjacency + rows + cols");
      link_class_from_string(t.link_class);
      break;
    case TopologySource::kSynthesize:
      link_class_from_string(t.link_class);
      break;
    case TopologySource::kCatalog:
      if (t.catalog_routers != 20 && t.catalog_routers != 30 &&
          t.catalog_routers != 48)
        throw std::invalid_argument(
            "spec: catalog_routers must be 20, 30 or 48");
      if (!t.name.empty() && t.include_baselines)
        throw std::invalid_argument(
            "spec: catalog 'name' selects a single row and cannot combine "
            "with include_baselines");
      break;
  }
}

void validate(const TrafficSpec& t, const std::string& at) {
  if (t.kind != "coherence" && t.kind != "memory" && t.kind != "shuffle" &&
      t.kind != "tornado")
    throw std::invalid_argument("spec: unknown traffic kind '" + t.kind + "'");
  if (t.ctrl_flits < 1 || t.data_flits < 1)
    throw std::invalid_argument(
        "spec: ctrl_flits and data_flits must be >= 1 in " + at);
  if (t.data_fraction < 0.0 || t.data_fraction > 1.0)
    throw std::invalid_argument("spec: data_fraction must be in [0, 1] in " +
                                at);
}

void validate(const SweepSpec& s, const std::string&) {
  if (s.points <= 0)
    throw std::invalid_argument("spec: sweep.points must be positive");
  if (s.measure <= 0)
    throw std::invalid_argument("spec: sweep.measure must be positive");
  if (s.warmup < 0 || s.drain < 0)
    throw std::invalid_argument("spec: sweep.warmup and sweep.drain must be >= 0");
  if (s.max_rate < 0)
    throw std::invalid_argument("spec: sweep.max_rate must be >= 0");
  if (s.buf_flits < 1 || s.io_flits_per_cycle < 1)
    throw std::invalid_argument(
        "spec: sweep.buf_flits and sweep.io_flits_per_cycle must be >= 1");
  if (s.router_delay < 0 || s.link_delay < 0 ||
      s.router_delay + s.link_delay < 1)
    throw std::invalid_argument(
        "spec: sweep.router_delay and sweep.link_delay must be >= 0 and sum "
        "to >= 1");
}

void validate(const PowerSpec&, const std::string&) {}

void validate(const fault::FaultEvent& e, const std::string& at) {
  if (e.cycle < 0)
    throw std::invalid_argument("spec: event cycle must be >= 0 in " + at);
  const bool link = e.kind == fault::FaultEventKind::kLinkDown ||
                    e.kind == fault::FaultEventKind::kLinkUp;
  if (e.a < 0 || (link && e.b < 0))
    throw std::invalid_argument(
        "spec: event endpoints must name routers (a" +
        std::string(link ? " and b" : "") + " >= 0) in " + at);
}

void validate(const fault::FaultScenarioSpec& f, const std::string& at) {
  if (f.mode != "targeted" && f.mode != "random" && f.mode != "explicit")
    throw std::invalid_argument(
        "spec: mode must be targeted|random|explicit in " + at);
  if (f.k < 0)
    throw std::invalid_argument("spec: k must be >= 0 in " + at);
  if (f.fail_at < 0)
    throw std::invalid_argument("spec: fail_at must be >= 0 in " + at);
  if (f.recover_at >= 0 && f.recover_at <= f.fail_at)
    throw std::invalid_argument(
        "spec: recover_at must be > fail_at (or < 0 for permanent) in " + at);
  if (f.link_mtbf < 0 || f.link_mttr < 0 || f.router_mtbf < 0 ||
      f.router_mttr < 0)
    throw std::invalid_argument("spec: MTBF/MTTR must be >= 0 in " + at);
  if (f.mode == "explicit" && f.events.empty())
    throw std::invalid_argument("spec: explicit mode needs events in " + at);
}

void validate(const ExperimentSpec& spec, const std::string&) {
  if (spec.topologies.empty())
    throw std::invalid_argument("spec: needs at least one topology");
  if (spec.routing != "auto" && spec.routing != "mclb" &&
      spec.routing != "ndbt")
    throw std::invalid_argument("spec: routing must be auto|mclb|ndbt");
  if (spec.seeds.empty())
    throw std::invalid_argument("spec: seeds must not be empty");
  if (spec.num_vcs < 1 || spec.max_paths_per_flow < 1)
    throw std::invalid_argument(
        "spec: num_vcs and max_paths_per_flow must be positive");
  if (spec.threads < 0)
    throw std::invalid_argument("spec: threads must be >= 0");
}

// ----------------------------------------------------------------- writer ---

template <class T>
JsonValue json_value(const T& v);

// One JSON member per io call.
struct JsonWriter {
  JsonValue out = JsonValue::object();

  template <class T>
  void operator()(const char* key, const T& field, bool omit_if_empty = false) {
    if constexpr (std::ranges::range<T>)
      if (omit_if_empty && field.empty()) return;
    out.set(key, json_value(field));
  }
};

template <class T>
JsonValue json_value(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::boolean(v);
  } else if constexpr (std::is_integral_v<T>) {
    return JsonValue::integer(static_cast<long long>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    return JsonValue::number(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return JsonValue::string(v);
  } else if constexpr (std::is_enum_v<T>) {
    return JsonValue::string(to_string(v));
  } else if constexpr (std::ranges::range<T>) {
    JsonValue a = JsonValue::array();
    for (const auto& e : v) a.push_back(json_value(e));
    return a;
  } else {
    JsonWriter w;
    members(v, w);
    return std::move(w.out);
  }
}

// ----------------------------------------------------------------- reader ---

// Strict-object cursor: fills each member whose key is present, then checks
// that the members found account for every key of the object (catches typos
// in hand-written specs). `path` locates the object in the document, e.g.
// "faults[0].events[2]"; the root's is empty and reads as "spec".
class ObjReader {
 public:
  ObjReader(const JsonValue& v, std::string path)
      : obj_(v), path_(std::move(path)) {
    if (!v.is_object())
      throw std::invalid_argument("spec: " + where() + " must be an object");
  }

  // Reads, checks and validates one record.
  template <class Rec>
  static void read_record(const JsonValue& v, std::string path, Rec& rec) {
    ObjReader r(v, std::move(path));
    members(rec, r);
    r.finish(rec);
    validate(rec, r.where());
  }

  std::string where() const { return path_.empty() ? "spec" : path_; }

  template <class T>
  void operator()(const char* key, T& field, bool /*omit_if_empty*/ = false) {
    const JsonValue* v = obj_.find(key);
    if (!v) return;
    ++found_;
    read(*v, key, field);
  }

 private:
  template <class T>
  void read(const JsonValue& v, const char* key, T& out, int index = -1) {
    if constexpr (std::is_same_v<T, bool>) {
      out = typed(key, [&] { return v.as_bool(); });
    } else if constexpr (std::is_integral_v<T>) {
      // Also the uint64_t seeds: JsonValue::as_u64 is this same cast.
      out = static_cast<T>(typed(key, [&] { return v.as_int(); }));
    } else if constexpr (std::is_same_v<T, double>) {
      out = typed(key, [&] { return v.as_double(); });
    } else if constexpr (std::is_same_v<T, std::string>) {
      out = typed(key, [&] { return v.as_string(); });
    } else if constexpr (std::is_same_v<T, TopologySource>) {
      out = topology_source_from_string(
          typed(key, [&] { return v.as_string(); }));
    } else if constexpr (std::is_same_v<T, fault::FaultEventKind>) {
      out = fault::fault_event_kind_from_string(
          typed(key, [&] { return v.as_string(); }));
    } else if constexpr (std::ranges::range<T>) {
      const auto& items = typed(key, [&]() -> const auto& { return v.items(); });
      out.clear();
      for (std::size_t i = 0; i < items.size(); ++i)
        read(items[i], key, out.emplace_back(), static_cast<int>(i));
    } else {
      std::string path = path_.empty() ? key : path_ + "." + key;
      if (index >= 0) path += "[" + std::to_string(index) + "]";
      read_record(v, std::move(path), out);
    }
  }

  // Wraps a type-mismatched value in an error naming the full path to the
  // bad key, so "spec: bad value for 'warmup' in sweep" instead of a bare
  // json type error.
  template <class Fn>
  auto typed(const char* key, Fn fn) const -> decltype(fn()) {
    try {
      return fn();
    } catch (const std::exception& e) {
      throw std::invalid_argument(std::string("spec: bad value for '") + key +
                                  "' in " + where() + ": " + e.what());
    }
  }

  // Every member found once (the JSON parser rejects duplicate keys), so a
  // shortfall means a key outside the member list; name the first.
  template <class Rec>
  void finish(const Rec& rec) const {
    if (found_ == obj_.members().size()) return;
    for (const auto& [key, v] : obj_.members()) {
      bool known = false;
      members(rec, [&](const char* k, auto&&...) { known = known || key == k; });
      if (!known)
        throw std::invalid_argument("spec: unknown key '" + key + "' in " +
                                    where());
    }
  }

  const JsonValue& obj_;
  std::string path_;
  std::size_t found_ = 0;
};

}  // namespace

int spec_schema_version(const ExperimentSpec& spec) {
  return spec.faults.empty() ? kSpecMinSchemaVersion : kSpecSchemaVersion;
}

JsonValue spec_to_json(const ExperimentSpec& spec) { return json_value(spec); }

std::string serialize(const ExperimentSpec& spec) {
  return spec_to_json(spec).dump();
}

ExperimentSpec spec_from_json(const JsonValue& root) {
  ExperimentSpec spec;
  ObjReader::read_record(root, "", spec);
  return spec;
}

ExperimentSpec parse_spec(const std::string& json_text) {
  try {
    return spec_from_json(JsonValue::parse(json_text));
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("spec: ") + e.what());
  }
}

}  // namespace netsmith::api
