// Parser-hardening fuzz for the artifact-restore path (api/artifact_io):
// real payloads of all three kinds — a pre-built and a synthesized topology,
// an MCLB plan, an NDBT plan, a chiplet-system plan and sweeps — are
// truncated at many offsets, mutated one byte at a time and re-stamped with
// foreign artifact/schema fields. The contract under test:
//  - restore_* never throws, whatever the bytes;
//  - a restore that reports success leaves an artifact the simulator can
//    consume: every route starts and ends right and walks the plan's own
//    graph, every VC id is in [-1, num_vcs), and sizes agree;
//  - the VC-map fields a report copies agree with the map itself, and a
//    Study counts a plan built for another policy, VC budget, path cap or
//    system shape as a miss;
//  - the one-pass table decoder accepts exactly what the split-then-parse
//    decoder it replaced accepts, with the same routes.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "api/artifact_cache.hpp"
#include "api/artifact_io.hpp"
#include "api/report.hpp"
#include "api/spec.hpp"
#include "api/study.hpp"
#include "core/plan.hpp"
#include "routing/channel_load.hpp"
#include "routing/repair.hpp"
#include "topologies/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace netsmith::api {
namespace {

using util::JsonValue;

// Captures every payload a Study hands to its cache, per kind and key;
// never hits, so each job runs and stores once.
class RecordingCache : public ArtifactCache {
 public:
  bool load(const std::string&, const std::string&, std::string&) override {
    return false;
  }
  void store(const std::string& kind, const std::string& key,
             const std::string& payload) override {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[kind][key] = payload;
  }
  std::map<std::string, std::string>& kind(const std::string& k) {
    return entries_[k];
  }
  const std::map<std::string, std::map<std::string, std::string>>& entries()
      const {
    return entries_;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::map<std::string, std::string>> entries_;
};

TopologySpec catalog_row(const char* name) {
  TopologySpec t;
  t.source = TopologySource::kCatalog;
  t.catalog_routers = 20;
  t.name = name;
  return t;
}

// Kite-small routes NDBT under "auto"; the synthesized 2x2 routes MCLB.
ExperimentSpec base_spec() {
  ExperimentSpec spec;
  spec.name = "artifact-fuzz";
  TopologySpec synth;
  synth.source = TopologySource::kSynthesize;
  synth.name = "mini";
  synth.rows = 2;
  synth.cols = 2;
  synth.link_class = "small";
  synth.radix = 3;
  synth.restarts = 1;
  synth.max_moves = 200;
  synth.synth_seed = 5;
  spec.topologies = {catalog_row("Kite-small"), synth};
  spec.traffic = {TrafficSpec{"", "coherence"}};
  spec.sweep.points = 2;
  spec.sweep.warmup = 50;
  spec.sweep.measure = 100;
  spec.sweep.drain = 50;
  spec.threads = 1;
  return spec;
}

struct Corpus {
  // Each payload with the expanded slot it restores into.
  std::vector<std::pair<std::string, TopologyArtifact>> topologies;
  // Plans also carry the layout plan_network was given.
  std::vector<std::tuple<std::string, PlanArtifact, topo::Layout>> plans;
  std::vector<std::string> sweeps;
};

void collect(const ExperimentSpec& spec, Corpus& c) {
  RecordingCache cache;
  StudyOptions opts;
  opts.cache = &cache;
  Study study(spec, opts);
  study.run();
  ASSERT_TRUE(study.failed_jobs().empty());
  for (const auto& t : study.topology_artifacts())
    c.topologies.emplace_back(
        cache.kind(kTopologyArtifactKind)
            .at(t.key + (spec.analytic ? ";analytic=1" : ";analytic=0")),
        t);
  for (const auto& p : study.plan_artifacts()) {
    PlanArtifact slot;
    slot.key = p.key;
    slot.topology = p.topology;
    slot.seed = p.seed;
    c.plans.emplace_back(
        cache.kind(kPlanArtifactKind).at(p.key), slot,
        study.topology_artifacts()[static_cast<std::size_t>(p.topology)]
            .topo.layout);
  }
  for (const auto& [key, payload] : cache.kind(kSweepArtifactKind))
    c.sweeps.push_back(payload);
}

ExperimentSpec chiplet_spec() {
  ExperimentSpec chiplet = base_spec();
  chiplet.name = "artifact-fuzz-chiplet";
  chiplet.topologies = {catalog_row("Kite-small")};
  chiplet.traffic.clear();
  chiplet.chiplet_system = true;
  return chiplet;
}

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus out;
    collect(base_spec(), out);
    collect(chiplet_spec(), out);
    return out;
  }();
  return c;
}

// Truncations at ~64 offsets, then single-byte substitutions at 64 seeded
// positions, each with bytes that are structural in the envelope
// (quotes, braces, commas) or in the packed lists (';', ' ', '-', digits),
// or a NUL byte.
std::vector<std::string> variants(const std::string& good, std::uint64_t seed) {
  std::vector<std::string> out;
  const std::size_t step = good.size() / 64 + 1;
  for (std::size_t cut = 0; cut < good.size(); cut += step)
    out.push_back(good.substr(0, cut));
  out.push_back(good.substr(0, good.size() - 1));
  out.push_back(good + "x");
  const char subs[] = {'0', '1', '9', '-', ' ', ';', ',', '"', '}', '\0'};
  util::Rng rng(seed);
  for (int k = 0; k < 64; ++k) {
    const std::size_t pos = rng() % good.size();
    for (char c : subs) {
      if (good[pos] == c) continue;
      std::string v = good;
      v[pos] = c;
      out.push_back(std::move(v));
    }
  }
  return out;
}

// The payload with its self-description re-stamped (or removed when `v` is
// null-typed).
std::string restamp(const std::string& good, const char* field, JsonValue v) {
  JsonValue doc = JsonValue::parse(good);
  if (v.is_null()) {
    JsonValue stripped = JsonValue::object();
    for (const auto& [k, x] : doc.members())
      if (k != field) stripped.set(k, x);
    return stripped.dump_compact();
  }
  doc.set(field, std::move(v));
  return doc.dump_compact();
}

std::vector<std::string> foreign_stamps(const std::string& good) {
  std::vector<std::string> out;
  for (const char* kind :
       {kTopologyArtifactKind, kPlanArtifactKind, kSweepArtifactKind, "x"})
    out.push_back(restamp(good, "artifact", JsonValue::string(kind)));
  out.push_back(restamp(good, "artifact", JsonValue::integer(2)));
  out.push_back(restamp(good, "artifact", JsonValue::null()));
  for (long long s : {1LL, 3LL, -1LL, 0LL})
    out.push_back(restamp(good, "schema", JsonValue::integer(s)));
  out.push_back(restamp(good, "schema", JsonValue::string("2")));
  out.push_back(restamp(good, "schema", JsonValue::number(2.5)));
  out.push_back(restamp(good, "schema", JsonValue::null()));
  return out;
}

void expect_usable_plan(const PlanArtifact& p, const std::string& what) {
  const auto& plan = p.plan;
  const int n = plan.graph.num_nodes();
  ASSERT_EQ(plan.table.num_nodes(), n) << what;
  EXPECT_TRUE(plan.table.consistent_with(plan.graph)) << what;
  ASSERT_EQ(plan.vc_map.vc.size(), static_cast<std::size_t>(n) * n) << what;
  for (int v : plan.vc_map.vc) {
    ASSERT_GE(v, -1) << what;
    ASSERT_LT(v, plan.vc_map.num_vcs) << what;
  }
  EXPECT_EQ(plan.vc_map.layer_of_vc.size(),
            static_cast<std::size_t>(plan.vc_map.num_vcs))
      << what;
  EXPECT_EQ(plan.vc_map.weight_of_vc.size(), plan.vc_map.layer_of_vc.size())
      << what;
  if (p.has_system) {
    EXPECT_EQ(p.system.graph.num_nodes(), n) << what;
  }
}

// Each restore_as_* feeds `bytes` into a fresh copy of `slot` and checks the
// never-throws / usable-on-success contract.
void restore_as_topology(const std::string& bytes, const TopologyArtifact& slot,
                         const std::string& what) {
  TopologyArtifact t = slot;
  bool ok = false;
  EXPECT_NO_THROW(ok = restore_topology_artifact(bytes, true, t)) << what;
  if (!ok) return;
  if (t.source == TopologySource::kSynthesize)
    EXPECT_EQ(t.topo.graph.num_nodes(), t.synth_cfg.layout.n()) << what;
  else
    EXPECT_EQ(t.topo.graph, slot.topo.graph) << what;
}

void restore_as_plan(const std::string& bytes, const PlanArtifact& slot,
                     const topo::Layout& layout, const std::string& what) {
  PlanArtifact p = slot;
  bool ok = false;
  EXPECT_NO_THROW(ok = restore_plan_artifact(bytes, layout, p)) << what;
  if (ok) expect_usable_plan(p, what);
}

void restore_as_sweep(const std::string& bytes, const std::string& what) {
  sim::SweepResult r;
  EXPECT_NO_THROW(restore_sweep_artifact(bytes, r)) << what;
}

// Every restore entry point, every slot: for payloads of a foreign kind.
void restore_all(const std::string& bytes, const std::string& what) {
  for (const auto& [payload, slot] : corpus().topologies)
    restore_as_topology(bytes, slot, what);
  for (const auto& [payload, slot, layout] : corpus().plans)
    restore_as_plan(bytes, slot, layout, what);
  restore_as_sweep(bytes, what);
}

TEST(ArtifactFuzz, CorpusCoversEveryKind) {
  const Corpus& c = corpus();
  ASSERT_EQ(c.topologies.size(), 3u);  // Kite-small, synthesized, chiplet
  ASSERT_EQ(c.plans.size(), 3u);
  ASSERT_FALSE(c.sweeps.empty());
  bool synthesized = false, chiplet = false;
  std::map<core::RoutingPolicy, int> policies;
  for (const auto& [payload, slot] : c.topologies) {
    TopologyArtifact t = slot;
    ASSERT_TRUE(restore_topology_artifact(payload, true, t));
    synthesized |= t.synthesized;
  }
  for (const auto& [payload, slot, layout] : c.plans) {
    PlanArtifact p = slot;
    ASSERT_TRUE(restore_plan_artifact(payload, layout, p));
    expect_usable_plan(p, "unmodified");
    chiplet |= p.has_system;
    ++policies[p.plan.policy];
  }
  for (const auto& payload : c.sweeps) {
    sim::SweepResult r;
    ASSERT_TRUE(restore_sweep_artifact(payload, r));
  }
  EXPECT_TRUE(synthesized);
  EXPECT_TRUE(chiplet);
  EXPECT_GT(policies[core::RoutingPolicy::kMclb], 0);
  EXPECT_GT(policies[core::RoutingPolicy::kNdbt], 0);
}

// Mutations go to the payload's own restore (its own slot); re-stamped and
// unmodified payloads go to every entry point.
TEST(ArtifactFuzz, TopologyPayloadsNeverThrow) {
  std::uint64_t seed = 1;
  for (const auto& [good, slot] : corpus().topologies) {
    for (const auto& v : variants(good, seed++))
      restore_as_topology(v, slot, "topology variant");
    restore_all(good, "topology payload");
    for (const auto& v : foreign_stamps(good)) restore_all(v, "topology stamp");
  }
}

TEST(ArtifactFuzz, PlanPayloadsNeverThrow) {
  std::uint64_t seed = 100;
  for (const auto& [good, slot, layout] : corpus().plans) {
    for (const auto& v : variants(good, seed++))
      restore_as_plan(v, slot, layout, "plan variant");
    restore_all(good, "plan payload");
    for (const auto& v : foreign_stamps(good)) restore_all(v, "plan stamp");
  }
}

TEST(ArtifactFuzz, SweepPayloadsNeverThrow) {
  std::uint64_t seed = 200;
  for (const auto& good : corpus().sweeps) {
    for (const auto& v : variants(good, seed++))
      restore_as_sweep(v, "sweep variant");
    restore_all(good, "sweep payload");
    for (const auto& v : foreign_stamps(good)) restore_all(v, "sweep stamp");
  }
}

// Splits a packed list on `sep` (keeping empty fields).
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out(1);
  for (char ch : s) {
    if (ch == sep)
      out.emplace_back();
    else
      out.back() += ch;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

// Targeted range checks: a hop or VC id just outside its range is a miss
// (an out-of-range intermediate hop used to reach the graph's adjacency
// lookup unchecked); the edge of the range still restores.
// max_channel_load of an n-router plan whose busiest link carries k flows:
// k / (n-1) under MCLB, the sum of k terms 1 / (n-1) under NDBT.
double derived_load(bool mclb, int n, long k) {
  if (mclb) return static_cast<double>(k) / (n - 1);
  double sum = 0.0;
  for (long i = 0; i < k; ++i) sum += 1.0 / (n - 1);
  return sum;
}

TEST(ArtifactFuzz, OutOfRangeHopsAndVcsAreMisses) {
  int hop_checked = 0;
  for (const auto& [good, slot, layout] : corpus().plans) {
    const JsonValue doc = JsonValue::parse(good);
    const int n = std::stoi(doc.at("graph").as_string());
    const int num_vcs =
        static_cast<int>(doc.at("vc_map").at("num_vcs").as_int());
    const auto routes = split(doc.at("table").as_string(), ';');
    ASSERT_EQ(routes.size(), static_cast<std::size_t>(n) * n);
    // First route with an intermediate hop (the 2x2 plan may have none).
    std::size_t f = 0;
    while (f < routes.size() && split(routes[f], ' ').size() < 3) ++f;
    if (f < routes.size()) {
      ++hop_checked;
      auto with_hop = [&](const std::string& hop) {
        auto r = routes;
        auto hops = split(r[f], ' ');
        hops[1] = hop;
        r[f] = join(hops, ' ');
        JsonValue d = doc;
        d.set("table", JsonValue::string(join(r, ';')));
        return d.dump_compact();
      };
      for (const std::string& bad :
           {std::to_string(n), std::to_string(n + 7), std::string("-1"),
            std::string("99999999999"), std::string("1x"), std::string("")}) {
        PlanArtifact p = slot;
        EXPECT_FALSE(restore_plan_artifact(with_hop(bad), layout, p))
            << "hop " << bad;
      }
    }

    auto with_vc = [&](const std::string& vc) {
      auto vcs = split(doc.at("vc_map").at("vc").as_string(), ' ');
      vcs[1] = vc;  // flow (0, 1): present
      JsonValue d = doc;
      JsonValue m = doc.at("vc_map");
      m.set("vc", JsonValue::string(join(vcs, ' ')));
      d.set("vc_map", std::move(m));
      return d.dump_compact();
    };
    for (const std::string& bad : {std::to_string(num_vcs), std::string("-2"),
                                  std::string("+1"), std::string("")}) {
      PlanArtifact p = slot;
      EXPECT_FALSE(restore_plan_artifact(with_vc(bad), layout, p))
          << "vc " << bad;
    }
    PlanArtifact edge = slot;
    ASSERT_TRUE(restore_plan_artifact(with_vc(std::to_string(num_vcs - 1)),
                                      layout, edge));
    expect_usable_plan(edge, "vc at num_vcs - 1");

    // The VC map must agree with the num_vcs / vc_layers a report copies,
    // and put exactly the routed (s != d) flows on a VC. Each edit below
    // keeps every array length right, so only these checks can catch it.
    const int layers = static_cast<int>(doc.at("vc_layers").as_int());
    auto with_top = [&](const char* field, long long v) {
      JsonValue d = doc;
      d.set(field, JsonValue::integer(v));
      return d.dump_compact();
    };
    auto with_map = [&](const char* field, JsonValue v) {
      JsonValue d = doc;
      JsonValue m = doc.at("vc_map");
      m.set(field, std::move(v));
      d.set("vc_map", std::move(m));
      return d.dump_compact();
    };
    auto with_layer_of_vc0 = [&](long long layer) {
      JsonValue lov = doc.at("vc_map").at("layer_of_vc");
      JsonValue out = JsonValue::array();
      for (std::size_t i = 0; i < lov.items().size(); ++i)
        out.push_back(i == 0 ? JsonValue::integer(layer) : lov.items()[i]);
      return with_map("layer_of_vc", std::move(out));
    };
    const struct {
      std::string payload;
      const char* what;
    } bad[] = {
        {with_top("num_vcs", num_vcs + 1), "num_vcs + 1"},
        {with_top("num_vcs", num_vcs - 1), "num_vcs - 1"},
        {with_top("vc_layers", layers + 1), "vc_layers + 1"},
        {with_map("num_layers", JsonValue::integer(layers + 1)),
         "vc_map.num_layers + 1"},
        {with_layer_of_vc0(layers), "layer_of_vc[0] = num_layers"},
        {with_layer_of_vc0(-1), "layer_of_vc[0] = -1"},
        {with_vc("-1"), "routed flow (0, 1) on no VC"},
        {[&] {
           auto vcs = split(doc.at("vc_map").at("vc").as_string(), ' ');
           vcs[0] = "0";  // flow (0, 0): absent
           return with_map("vc", JsonValue::string(join(vcs, ' ')));
         }(),
         "s == d flow (0, 0) on VC 0"},
    };
    for (const auto& b : bad) {
      PlanArtifact p = slot;
      EXPECT_FALSE(restore_plan_artifact(b.payload, layout, p)) << b.what;
    }

    // max_channel_load and ndbt_fallback_flows are copied into reports, so
    // only values the plan's own formulas produce restore: the busiest link
    // carries k of the n(n-1) routed flows, at load k / (n-1) under MCLB or
    // the sum of k terms 1 / (n-1) under NDBT. Kite-small's NDBT plan has
    // max_channel_load 1; rewritten to 0.5 it used to restore.
    const bool mclb = doc.at("policy").as_string() == "mclb";
    const double load = doc.at("max_channel_load").as_double();
    const long flows = static_cast<long>(n) * (n - 1);
    const auto formula = [&](long k) { return derived_load(mclb, n, k); };
    const long k = std::lround(load * (n - 1));
    ASSERT_EQ(formula(k), load);
    auto with_load = [&](double v) {
      JsonValue d = doc;
      d.set("max_channel_load", JsonValue::number(v));
      return d.dump_compact();
    };
    std::vector<std::pair<std::string, std::string>> derived = {
        {with_load(std::nextafter(load, 2 * load)), "load + 1 ulp"},
        {with_load(std::nextafter(load, 0.0)), "load - 1 ulp"},
        {with_load(0.0), "load 0"},
        {with_load(-load), "negative load"},
        {with_load(formula(flows + 1)), "load of more flows than routed"},
        {with_top("ndbt_fallback_flows", mclb ? 1 : -1),
         "fallback flows out of range"},
        {with_top("ndbt_fallback_flows", flows + 1),
         "more fallback flows than routed"},
    };
    if ((n - 1) % 2 == 1) derived.emplace_back(with_load(0.5), "load 0.5");
    // The NDBT fallback count is recounted exactly: Kite-small's plan has 76
    // fallback flows, and rewritten to 3 or to 75 it used to restore.
    if (!mclb) {
      const int fallbacks =
          static_cast<int>(doc.at("ndbt_fallback_flows").as_int());
      ASSERT_GT(fallbacks, 3);
      derived.emplace_back(with_top("ndbt_fallback_flows", 3),
                           "fallback flows rewritten to 3");
      derived.emplace_back(with_top("ndbt_fallback_flows", fallbacks - 1),
                           "one fallback flow fewer");
    }
    for (const auto& [payload, what] : derived) {
      PlanArtifact p = slot;
      EXPECT_FALSE(restore_plan_artifact(payload, layout, p)) << what;
    }
    // A plausible value is not proof: another formula value still restores.
    PlanArtifact other = slot;
    EXPECT_TRUE(restore_plan_artifact(
        with_load(formula(k < flows ? k + 1 : k - 1)), layout, other));
  }
  EXPECT_GE(hop_checked, 2);
}

// Both directions of the duplex link carrying the most uniform-traffic load
// under `t` (first in edge order on a tie).
std::vector<std::pair<int, int>> busiest_duplex_link(
    const topo::DiGraph& g, const routing::RoutingTable& t) {
  const auto load = routing::analyze_uniform(t).load;
  double best = -1.0;
  std::vector<std::pair<int, int>> down;
  for (const auto& [u, v] : g.edges())
    if (u < v && g.has_edge(v, u) && load(u, v) + load(v, u) > best) {
      best = load(u, v) + load(v, u);
      down = {{u, v}, {v, u}};
    }
  return down;
}

// The derived-field check accepts every real plan: the 20-, 30- and
// 48-router catalogs and baselines, each under both routing policies. The
// plans' payloads (tables, VC maps, derived fields) and, per 48-router plan,
// the table route repair leaves with the busiest duplex link down are folded
// into one FNV-1a digest, recorded from the ragged path-set implementation
// that preceded the flat one: any change to a route, a VC or a fault repair
// of these plans fails here.
TEST(ArtifactFuzz, EveryCatalogPlanRestores) {
  std::uint64_t digest = 14695981039346656037ull;
  const auto fold = [&digest](const std::string& bytes) {
    for (const unsigned char c : bytes) {
      digest ^= c;
      digest *= 1099511628211ull;
    }
    digest ^= '\n';
    digest *= 1099511628211ull;
  };
  int plans = 0, repairs = 0;
  for (const int routers : {20, 30, 48}) {
    std::vector<topologies::NamedTopology> rows = topologies::catalog(routers);
    for (const auto& t : topologies::baseline_catalog(routers))
      rows.push_back(t);
    for (const auto& t : rows)
      for (const auto policy :
           {core::RoutingPolicy::kMclb, core::RoutingPolicy::kNdbt}) {
        PlanArtifact a;
        a.seed = 1;
        a.plan = core::plan_network(t.graph, t.layout, policy, 6, a.seed);
        const std::string payload = plan_artifact_payload(a);
        fold(payload);
        PlanArtifact back;
        back.seed = a.seed;
        ASSERT_TRUE(restore_plan_artifact(payload, t.layout, back))
            << t.name << " " << core::to_string(policy);
        EXPECT_EQ(back.plan.max_channel_load, a.plan.max_channel_load);
        ++plans;
        if (routers == 48) {
          const auto down = busiest_duplex_link(t.graph, a.plan.table);
          ASSERT_FALSE(down.empty()) << t.name;
          const auto r = routing::repair_routes(t.graph, a.plan.table, down);
          EXPECT_GT(r.flows_affected, 0) << t.name;
          fold(pack_table(r.table));
          ++repairs;
        }
      }
  }
  EXPECT_GE(plans, 80);
  EXPECT_GE(repairs, 20);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(std::string(hex), "f062260c9b8c7eb8");
}

// The split-then-parse decoder unpack_table replaced, kept as its oracle:
// count the ';'-separated routes, then decode each route's space-separated
// hops with std::from_chars.
bool split_decode(std::string_view text, int n,
                  std::vector<std::vector<int>>& out) {
  const auto flows = static_cast<std::size_t>(n) * n;
  if (static_cast<std::size_t>(std::count(text.begin(), text.end(), ';')) +
          1 !=
      flows)
    return false;
  out.assign(flows, {});
  std::size_t pos = 0;
  for (auto& route : out) {
    const std::size_t stop = std::min(text.find(';', pos), text.size());
    const std::string_view r = text.substr(pos, stop - pos);
    pos = stop + 1;
    if (r.empty()) continue;
    route.resize(static_cast<std::size_t>(std::count(r.begin(), r.end(), ' ')) +
                 1);
    const char* p = r.data();
    const char* const end = p + r.size();
    for (std::size_t k = 0; k < route.size(); ++k) {
      if (k && (p == end || *p++ != ' ')) return false;
      const auto [next, ec] = std::from_chars(p, end, route[k]);
      if (ec != std::errc() || route[k] < 0 || route[k] >= n) return false;
      p = next;
    }
    if (p != end) return false;
  }
  return true;
}

// The one-pass decoder accepts exactly the tables the split decoder does,
// with the same routes: on every corpus table, its truncations and byte
// substitutions, and the malformed tokens named in its contract.
TEST(ArtifactFuzz, UnpackTableMatchesSplitDecoder) {
  std::uint64_t seed = 300;
  int accepted = 0, rejected = 0;
  for (const auto& [good, slot, layout] : corpus().plans) {
    const JsonValue doc = JsonValue::parse(good);
    const int n = std::stoi(doc.at("graph").as_string());
    const std::string table = doc.at("table").as_string();
    std::vector<std::string> inputs = variants(table, seed++);
    inputs.push_back(table);
    for (const char* bad : {"+1", "1x", " ", "  ", "-1", "x"}) {
      for (const std::size_t at : {std::size_t{0}, table.find(' '),
                                   table.find(';'), table.size()}) {
        std::string v = table;
        v.insert(std::min(at, v.size()), bad);
        inputs.push_back(std::move(v));
      }
    }
    inputs.push_back(table + ";");
    inputs.push_back(";" + table);
    inputs.push_back(table.substr(0, table.rfind(';')));
    for (const auto& in : inputs) {
      std::vector<std::vector<int>> want;
      routing::RoutingTable got;
      const bool ok = split_decode(in, n, want);
      ASSERT_EQ(unpack_table(in, n, got), ok) << in;
      (ok ? accepted : rejected)++;
      if (!ok) continue;
      for (int f = 0; f < n * n; ++f)
        ASSERT_TRUE(std::ranges::equal(got.path(f / n, f % n),
                                       want[static_cast<std::size_t>(f)]))
            << in << " flow " << f;
    }
    routing::RoutingTable t;
    EXPECT_FALSE(unpack_table(table, n + 1, t)) << "route count";
  }
  EXPECT_GT(accepted, 3);
  EXPECT_GT(rejected, 100);
}

// Serves fixed payloads per (kind, key) and drops stores.
class ServingCache : public ArtifactCache {
 public:
  using Entries = std::map<std::string, std::map<std::string, std::string>>;
  explicit ServingCache(Entries entries) : entries_(std::move(entries)) {}
  bool load(const std::string& kind, const std::string& key,
            std::string& payload) override {
    const auto k = entries_.find(kind);
    if (k == entries_.end()) return false;
    const auto it = k->second.find(key);
    if (it == k->second.end()) return false;
    payload = it->second;
    return true;
  }
  void store(const std::string&, const std::string&,
             const std::string&) override {}

 private:
  Entries entries_;
};

// Runs `spec` once, recording every payload, then again serving the
// recording with each plan payload passed through `edit`. The edited
// payloads still restore on their own, but describe a plan built for
// another spec, so the Study must count every plan a miss, recompute it and
// assemble the recorded report.
void expect_plans_missed(const ExperimentSpec& spec,
                         const std::function<void(JsonValue&)>& edit) {
  RecordingCache recorded;
  std::string cold;
  std::vector<std::pair<PlanArtifact, topo::Layout>> slots;
  {
    StudyOptions opts;
    opts.cache = &recorded;
    Study study(spec, opts);
    cold = report_to_json(study.run());
    for (const auto& p : study.plan_artifacts()) {
      PlanArtifact slot;
      slot.key = p.key;
      slot.topology = p.topology;
      slot.seed = p.seed;
      slots.emplace_back(
          std::move(slot),
          study.topology_artifacts()[static_cast<std::size_t>(p.topology)]
              .topo.layout);
    }
  }
  ASSERT_FALSE(slots.empty());
  ServingCache::Entries served = recorded.entries();
  auto& plans = served[kPlanArtifactKind];
  for (const auto& [slot, layout] : slots) {
    JsonValue doc = JsonValue::parse(plans.at(slot.key));
    edit(doc);
    plans.at(slot.key) = doc.dump_compact();
    PlanArtifact p = slot;
    EXPECT_TRUE(restore_plan_artifact(plans.at(slot.key), layout, p))
        << slot.key;
  }
  ServingCache cache(std::move(served));
  StudyOptions opts;
  opts.cache = &cache;
  Study study(spec, opts);
  EXPECT_EQ(report_to_json(study.run()), cold);
  const ArtifactCacheStats cs = study.artifact_cache_stats();
  EXPECT_EQ(cs.plan_hits, 0);
  EXPECT_EQ(cs.plan_misses, static_cast<long>(slots.size()));
}

TEST(ArtifactFuzz, PlansForAnotherSpecAreStudyMisses) {
  const ExperimentSpec spec = base_spec();
  expect_plans_missed(spec, [&](JsonValue& d) {
    d.set("max_paths_per_flow",
          JsonValue::integer(spec.max_paths_per_flow + 1));
  });
  // One more VC, idle: every size and range check still holds.
  expect_plans_missed(spec, [&](JsonValue& d) {
    d.set("num_vcs", JsonValue::integer(spec.num_vcs + 1));
    JsonValue m = d.at("vc_map");
    m.set("num_vcs", JsonValue::integer(spec.num_vcs + 1));
    JsonValue lov = m.at("layer_of_vc");
    lov.push_back(JsonValue::integer(0));
    m.set("layer_of_vc", std::move(lov));
    JsonValue w = m.at("weight_of_vc");
    w.push_back(JsonValue::number(0.0));
    m.set("weight_of_vc", std::move(w));
    d.set("vc_map", std::move(m));
  });
  // The other routing policy: the Kite-small plan is NDBT, the synthesized
  // one MCLB. The derived fields are rewritten to what the other policy's
  // formulas give for the same busiest link, so the payload stays plausible.
  expect_plans_missed(spec, [](JsonValue& d) {
    const bool to_mclb = d.at("policy").as_string() != "mclb";
    const int n = std::stoi(d.at("graph").as_string());
    const long k =
        std::lround(d.at("max_channel_load").as_double() * (n - 1));
    d.set("policy", JsonValue::string(to_mclb ? "mclb" : "ndbt"));
    d.set("max_channel_load", JsonValue::number(derived_load(to_mclb, n, k)));
    if (to_mclb) d.set("ndbt_fallback_flows", JsonValue::integer(0));
  });
  // A chiplet-system plan that lost its system block.
  expect_plans_missed(chiplet_spec(), [](JsonValue& d) {
    JsonValue stripped = JsonValue::object();
    for (const auto& [k, x] : d.members())
      if (k != "system") stripped.set(k, x);
    d = std::move(stripped);
  });
}

}  // namespace
}  // namespace netsmith::api
