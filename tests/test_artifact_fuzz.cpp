// Parser-hardening fuzz for the artifact-restore path (api/artifact_io):
// real payloads of all three kinds — a pre-built and a synthesized topology,
// an MCLB plan, an NDBT plan, a chiplet-system plan and sweeps — are
// truncated at many offsets, mutated one byte at a time and re-stamped with
// foreign artifact/schema fields. The contract under test:
//  - restore_* never throws, whatever the bytes;
//  - a restore that reports success leaves an artifact the simulator can
//    consume: every route starts and ends right and walks the plan's own
//    graph, every VC id is in [-1, num_vcs), and sizes agree.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/artifact_cache.hpp"
#include "api/artifact_io.hpp"
#include "api/spec.hpp"
#include "api/study.hpp"
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
  std::vector<std::pair<std::string, PlanArtifact>> plans;
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
    c.plans.emplace_back(cache.kind(kPlanArtifactKind).at(p.key), slot);
  }
  for (const auto& [key, payload] : cache.kind(kSweepArtifactKind))
    c.sweeps.push_back(payload);
}

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus out;
    collect(base_spec(), out);
    ExperimentSpec chiplet = base_spec();
    chiplet.name = "artifact-fuzz-chiplet";
    chiplet.topologies = {catalog_row("Kite-small")};
    chiplet.traffic.clear();
    chiplet.chiplet_system = true;
    collect(chiplet, out);
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
                     const std::string& what) {
  PlanArtifact p = slot;
  bool ok = false;
  EXPECT_NO_THROW(ok = restore_plan_artifact(bytes, p)) << what;
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
  for (const auto& [payload, slot] : corpus().plans)
    restore_as_plan(bytes, slot, what);
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
  for (const auto& [payload, slot] : c.plans) {
    PlanArtifact p = slot;
    ASSERT_TRUE(restore_plan_artifact(payload, p));
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
  for (const auto& [good, slot] : corpus().plans) {
    for (const auto& v : variants(good, seed++))
      restore_as_plan(v, slot, "plan variant");
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
TEST(ArtifactFuzz, OutOfRangeHopsAndVcsAreMisses) {
  int hop_checked = 0;
  for (const auto& [good, slot] : corpus().plans) {
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
        EXPECT_FALSE(restore_plan_artifact(with_hop(bad), p)) << "hop " << bad;
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
      EXPECT_FALSE(restore_plan_artifact(with_vc(bad), p)) << "vc " << bad;
    }
    PlanArtifact edge = slot;
    ASSERT_TRUE(
        restore_plan_artifact(with_vc(std::to_string(num_vcs - 1)), edge));
    expect_usable_plan(edge, "vc at num_vcs - 1");
  }
  EXPECT_GE(hop_checked, 2);
}

}  // namespace
}  // namespace netsmith::api
