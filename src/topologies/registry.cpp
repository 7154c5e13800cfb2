#include "topologies/registry.hpp"

#include <stdexcept>
#include <utility>

#include "topo/builders.hpp"
#include "topologies/baselines/cmesh.hpp"
#include "topologies/baselines/dragonfly.hpp"
#include "topologies/baselines/hammingmesh.hpp"
#include "topologies/baselines/physical.hpp"
#include "topologies/expert.hpp"

namespace netsmith::topologies {

namespace {

NamedTopology make_entry(std::string name, const topo::Layout& layout,
                         topo::LinkClass cls, topo::DiGraph g, bool machine,
                         bool netsmith_gen) {
  NamedTopology t;
  t.name = std::move(name);
  t.layout = layout;
  t.link_class = cls;
  t.graph = std::move(g);
  t.machine_generated = machine;
  t.is_netsmith = netsmith_gen;
  return t;
}

NamedTopology ns(const std::string& name, const topo::Layout& layout,
                 topo::LinkClass cls) {
  return make_entry(name, layout, cls, frozen(name), true, true);
}

topo::Layout noi_layout(int routers) {
  switch (routers) {
    case 20: return topo::Layout::noi_4x5();
    case 30: return topo::Layout::noi_6x5();
    case 48: return topo::Layout::noi_8x6();
  }
  throw std::invalid_argument("no standard NoI layout for " +
                              std::to_string(routers) + " routers");
}

topo::LinkClass parse_class(const std::string& s) {
  if (s == "small") return topo::LinkClass::kSmall;
  if (s == "medium") return topo::LinkClass::kMedium;
  if (s == "large") return topo::LinkClass::kLarge;
  throw std::invalid_argument("unknown link class '" + s + "'");
}

// Finishes a parametric entry: derives the clocking class and wire retiming
// from the generated graph + layout (baselines::classify_links).
NamedTopology finish_parametric(std::string name, std::string spec,
                                const topo::Layout& layout,
                                topo::DiGraph graph) {
  const auto phys = baselines::classify_links(graph, layout);
  NamedTopology t;
  t.name = std::move(name);
  t.layout = layout;
  t.link_class = phys.link_class;
  t.graph = std::move(graph);
  t.parametric = true;
  t.spec = std::move(spec);
  t.extra_edge_delay = phys.extra_edge_delay;
  return t;
}

// ------------------------------------------------- built-in factories -----

// Presence-tested "routers" shortcut: positive when given (and then explicit
// structural params are rejected as conflicting), 0 when absent.
int opt_routers(const Params& p, const std::string& family,
                std::initializer_list<const char*> structural) {
  if (!p.count("routers")) return 0;
  const int r = param_int(p, "routers", 0);
  if (r <= 0)
    throw std::invalid_argument(family + ": routers must be positive");
  for (const char* key : structural)
    if (p.count(key))
      throw std::invalid_argument(family + ": routers= conflicts with explicit " +
                                  key + "=");
  return r;
}

NamedTopology make_dragonfly(const Params& p) {
  baselines::DragonflyParams dp;
  const int routers = opt_routers(p, "dragonfly", {"group_size", "groups"});
  if (routers > 0) {
    dp = baselines::dragonfly_for_routers(routers);
  } else {
    dp.group_size = param_int(p, "group_size", dp.group_size);
    dp.groups = param_int(p, "groups", dp.groups);
  }
  const auto lay = baselines::dragonfly_layout(dp);
  return finish_parametric(
      "Dragonfly-" + std::to_string(lay.n()),
      "dragonfly:group_size=" + std::to_string(dp.group_size) +
          ",groups=" + std::to_string(dp.groups),
      lay, baselines::build_dragonfly(dp));
}

NamedTopology make_cmesh(const Params& p) {
  baselines::CMeshParams cp;
  // concentration / express_stride are tuning knobs and compose with either
  // sizing form; only the grid shape conflicts with routers=.
  const int routers = opt_routers(p, "cmesh", {"rows", "cols"});
  if (routers > 0) {
    cp = baselines::cmesh_for_routers(routers);
  } else {
    cp.rows = param_int(p, "rows", cp.rows);
    cp.cols = param_int(p, "cols", cp.cols);
  }
  cp.concentration = param_int(p, "concentration", cp.concentration);
  cp.express_stride = param_int(p, "express_stride", cp.express_stride);
  const auto lay = baselines::cmesh_layout(cp);
  return finish_parametric(
      "CMesh-" + std::to_string(lay.n()),
      "cmesh:rows=" + std::to_string(cp.rows) +
          ",cols=" + std::to_string(cp.cols) +
          ",concentration=" + std::to_string(cp.concentration) +
          ",express_stride=" + std::to_string(cp.express_stride),
      lay, baselines::build_cmesh(cp));
}

NamedTopology make_hammingmesh(const Params& p) {
  baselines::HammingMeshParams hp;
  const int routers = opt_routers(
      p, "hammingmesh", {"board_rows", "board_cols", "grid_rows", "grid_cols"});
  if (routers > 0) {
    hp = baselines::hammingmesh_for_routers(routers);
  } else {
    hp.board_rows = param_int(p, "board_rows", hp.board_rows);
    hp.board_cols = param_int(p, "board_cols", hp.board_cols);
    hp.grid_rows = param_int(p, "grid_rows", hp.grid_rows);
    hp.grid_cols = param_int(p, "grid_cols", hp.grid_cols);
  }
  const auto lay = baselines::hammingmesh_layout(hp);
  return finish_parametric(
      "HammingMesh-" + std::to_string(lay.n()),
      "hammingmesh:board_rows=" + std::to_string(hp.board_rows) +
          ",board_cols=" + std::to_string(hp.board_cols) +
          ",grid_rows=" + std::to_string(hp.grid_rows) +
          ",grid_cols=" + std::to_string(hp.grid_cols),
      lay, baselines::build_hammingmesh(hp));
}

topo::Layout grid_params(const Params& p, int def_rows, int def_cols) {
  const int rows = param_int(p, "rows", def_rows);
  const int cols = param_int(p, "cols", def_cols);
  if (rows < 2 || cols < 2)
    throw std::invalid_argument("registry: grid needs rows, cols >= 2 (got " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols) + ")");
  return topo::Layout{rows, cols, 2.0};
}

NamedTopology with_spec(NamedTopology t, std::string spec) {
  t.spec = std::move(spec);
  return t;
}

NamedTopology make_mesh(const Params& p) {
  const auto lay = grid_params(p, 4, 5);
  return with_spec(
      make_entry("Mesh-" + std::to_string(lay.n()), lay,
                 topo::LinkClass::kSmall, topo::build_mesh(lay), false, false),
      "mesh:rows=" + std::to_string(lay.rows) +
          ",cols=" + std::to_string(lay.cols));
}

NamedTopology make_folded_torus(const Params& p) {
  const auto lay = grid_params(p, 4, 5);
  return with_spec(
      make_entry("FoldedTorus-" + std::to_string(lay.n()), lay,
                 topo::LinkClass::kMedium, topo::build_folded_torus(lay),
                 false, false),
      "folded_torus:rows=" + std::to_string(lay.rows) +
          ",cols=" + std::to_string(lay.cols));
}

NamedTopology make_kite(const Params& p) {
  const int routers = param_int(p, "routers", 20);
  const auto cls = parse_class(param_str(p, "size", "small"));
  return with_spec(make_entry("Kite-" + topo::to_string(cls),
                              noi_layout(routers), cls, kite(routers, cls),
                              false, false),
                   "kite:routers=" + std::to_string(routers) +
                       ",size=" + topo::to_string(cls));
}

NamedTopology make_butter_donut(const Params& p) {
  const int routers = param_int(p, "routers", 20);
  return with_spec(make_entry("ButterDonut", noi_layout(routers),
                              topo::LinkClass::kLarge, butter_donut(routers),
                              false, false),
                   "butter_donut:routers=" + std::to_string(routers));
}

NamedTopology make_double_butterfly(const Params& p) {
  const int routers = param_int(p, "routers", 20);
  return with_spec(make_entry("DoubleButterfly", noi_layout(routers),
                              topo::LinkClass::kLarge,
                              double_butterfly(routers), false, false),
                   "double_butterfly:routers=" + std::to_string(routers));
}

NamedTopology make_lpbt_power(const Params& p) {
  const int routers = param_int(p, "routers", 20);
  return with_spec(make_entry("LPBT-Power", noi_layout(routers),
                              topo::LinkClass::kSmall,
                              lpbt_power_small(routers), true, false),
                   "lpbt_power:routers=" + std::to_string(routers));
}

NamedTopology make_lpbt_hops(const Params& p) {
  const int routers = param_int(p, "routers", 20);
  const auto cls = parse_class(param_str(p, "size", "small"));
  return with_spec(make_entry("LPBT-Hops-" + topo::to_string(cls),
                              noi_layout(routers), cls,
                              lpbt_hops(routers, cls), true, false),
                   "lpbt_hops:routers=" + std::to_string(routers) +
                       ",size=" + topo::to_string(cls));
}

NamedTopology make_frozen(const Params& p) {
  const std::string name = param_str(p, "name", "");
  if (name.empty())
    throw std::invalid_argument("frozen: requires name=<frozen entry>");
  auto g = frozen(name);
  // Frozen entries use the standard NoI grid for their size; their class is
  // whatever their links need.
  const auto lay = noi_layout(g.num_nodes());
  const auto phys = baselines::classify_links(g, lay);
  const bool netsmith_gen = name.rfind("NS-", 0) == 0;
  const bool machine = netsmith_gen || name.rfind("LPBT-", 0) == 0;
  auto t = make_entry(name, lay, phys.link_class, std::move(g), machine,
                      netsmith_gen);
  t.extra_edge_delay = phys.extra_edge_delay;
  t.spec = "frozen:name=" + name;
  return t;
}

// ----------------------------------------------------- factory registry ---

using Factory = NamedTopology (*)(const Params&);

// The fixed family table. Magic-static initialization is thread-safe and the
// table is never mutated afterwards, so lookups take no lock.
const std::map<std::string, Factory>& families() {
  static const std::map<std::string, Factory> table = {
      {"dragonfly", make_dragonfly},
      {"cmesh", make_cmesh},
      {"hammingmesh", make_hammingmesh},
      {"mesh", make_mesh},
      {"torus", make_folded_torus},
      {"folded_torus", make_folded_torus},
      {"kite", make_kite},
      {"butter_donut", make_butter_donut},
      {"double_butterfly", make_double_butterfly},
      {"lpbt_power", make_lpbt_power},
      {"lpbt_hops", make_lpbt_hops},
      {"frozen", make_frozen},
  };
  return table;
}

}  // namespace

std::vector<std::string> factory_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : families()) names.push_back(name);
  return names;
}

NamedTopology make(const std::string& family, const Params& params) {
  const auto it = families().find(family);
  if (it == families().end())
    throw std::invalid_argument("registry: no factory family '" + family +
                                "'");
  return it->second(params);
}

NamedTopology make_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  Params params;
  if (colon != std::string::npos) {
    std::size_t pos = colon + 1;
    while (pos < spec.size()) {
      auto comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string kv = spec.substr(pos, comma - pos);
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument("registry: bad spec fragment '" + kv +
                                    "' in '" + spec + "'");
      params[kv.substr(0, eq)] = kv.substr(eq + 1);
      pos = comma + 1;
    }
  }
  return make(family, params);
}

int param_int(const Params& p, const std::string& key, int fallback) {
  const auto it = p.find(key);
  if (it == p.end()) return fallback;
  try {
    std::size_t used = 0;
    const int v = std::stoi(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("registry: param " + key + "='" + it->second +
                                "' is not an integer");
  }
}

std::string param_str(const Params& p, const std::string& key,
                      const std::string& fallback) {
  const auto it = p.find(key);
  return it == p.end() ? fallback : it->second;
}

// --------------------------------------------------------- catalogs -------

namespace {

// The Table II rows for 20 or 30 routers, or the 48-router scalability set.
std::vector<NamedTopology> build_catalog(int routers) {
  using topo::LinkClass;
  std::vector<NamedTopology> cat;
  if (routers == 48) {
    const auto lay = topo::Layout::noi_8x6();
    // Expert baselines that scale by rule (paper SV-E: Kite-Large and LPBT
    // do not scale; Kite-like-48 entries are short-budget symmetric searches
    // that stand in for the missing published designs — see EXPERIMENTS.md).
    cat.push_back(make_entry("Mesh-48", lay, LinkClass::kSmall, topo::build_mesh(lay), false, false));
    cat.push_back(make_entry("Kite-like-small-48", lay, LinkClass::kSmall, frozen("Kite-like-small-48"), false, false));
    cat.push_back(make_entry("FoldedTorus-48", lay, LinkClass::kMedium, topo::build_folded_torus(lay), false, false));
    cat.push_back(make_entry("Kite-like-medium-48", lay, LinkClass::kMedium, frozen("Kite-like-medium-48"), false, false));
    cat.push_back(make_entry("Kite-like-large-48", lay, LinkClass::kLarge, frozen("Kite-like-large-48"), false, false));
    cat.push_back(ns("NS-LatOp-small-48", lay, LinkClass::kSmall));
    cat.push_back(ns("NS-LatOp-medium-48", lay, LinkClass::kMedium));
    cat.push_back(ns("NS-LatOp-large-48", lay, LinkClass::kLarge));
    return cat;
  }
  if (routers == 20) {
    const auto lay = topo::Layout::noi_4x5();
    // --- Small (Table II top block).
    cat.push_back(make_entry("Kite-small", lay, LinkClass::kSmall, kite(20, LinkClass::kSmall), false, false));
    cat.push_back(make_entry("LPBT-Power", lay, LinkClass::kSmall, lpbt_power_small(20), true, false));
    cat.push_back(make_entry("LPBT-Hops-small", lay, LinkClass::kSmall, lpbt_hops(20, LinkClass::kSmall), true, false));
    cat.push_back(ns("NS-LatOp-small-20", lay, LinkClass::kSmall));
    cat.push_back(ns("NS-SCOp-small-20", lay, LinkClass::kSmall));
    // --- Medium.
    cat.push_back(make_entry("FoldedTorus", lay, LinkClass::kMedium, topo::build_folded_torus(lay), false, false));
    cat.push_back(make_entry("Kite-medium", lay, LinkClass::kMedium, kite(20, LinkClass::kMedium), false, false));
    cat.push_back(make_entry("LPBT-Hops-medium", lay, LinkClass::kMedium, lpbt_hops(20, LinkClass::kMedium), true, false));
    cat.push_back(ns("NS-LatOp-medium-20", lay, LinkClass::kMedium));
    cat.push_back(ns("NS-SCOp-medium-20", lay, LinkClass::kMedium));
    // --- Large.
    cat.push_back(make_entry("ButterDonut", lay, LinkClass::kLarge, butter_donut(20), false, false));
    cat.push_back(make_entry("DoubleButterfly", lay, LinkClass::kLarge, double_butterfly(20), false, false));
    cat.push_back(make_entry("Kite-large", lay, LinkClass::kLarge, kite(20, LinkClass::kLarge), false, false));
    cat.push_back(ns("NS-LatOp-large-20", lay, LinkClass::kLarge));
    cat.push_back(ns("NS-SCOp-large-20", lay, LinkClass::kLarge));
    return cat;
  }
  const auto lay = topo::Layout::noi_6x5();
  cat.push_back(make_entry("Kite-small", lay, LinkClass::kSmall, kite(30, LinkClass::kSmall), false, false));
  cat.push_back(ns("NS-LatOp-small-30", lay, LinkClass::kSmall));
  cat.push_back(make_entry("FoldedTorus", lay, LinkClass::kMedium, topo::build_folded_torus(lay), false, false));
  cat.push_back(make_entry("Kite-medium", lay, LinkClass::kMedium, kite(30, LinkClass::kMedium), false, false));
  cat.push_back(ns("NS-LatOp-medium-30", lay, LinkClass::kMedium));
  cat.push_back(make_entry("ButterDonut", lay, LinkClass::kLarge, butter_donut(30), false, false));
  cat.push_back(make_entry("DoubleButterfly", lay, LinkClass::kLarge, double_butterfly(30), false, false));
  cat.push_back(make_entry("Kite-large", lay, LinkClass::kLarge, kite(30, LinkClass::kLarge), false, false));
  cat.push_back(ns("NS-LatOp-large-30", lay, LinkClass::kLarge));
  return cat;
}

}  // namespace

// Each set is built once, on first use, and shared read-only afterwards.
const std::vector<NamedTopology>& catalog(int routers) {
  if (routers == 20) {
    static const std::vector<NamedTopology> cat = build_catalog(20);
    return cat;
  }
  if (routers == 30) {
    static const std::vector<NamedTopology> cat = build_catalog(30);
    return cat;
  }
  if (routers == 48) {
    static const std::vector<NamedTopology> cat = build_catalog(48);
    return cat;
  }
  throw std::invalid_argument("catalog: only 20-, 30- and 48-router sets exist");
}

const std::vector<NamedTopology>& baseline_catalog(int routers) {
  const auto build = [](int r) {
    const Params p{{"routers", std::to_string(r)}};
    return std::vector<NamedTopology>{make("dragonfly", p), make("cmesh", p),
                                      make("hammingmesh", p)};
  };
  if (routers == 20) {
    static const std::vector<NamedTopology> cat = build(20);
    return cat;
  }
  if (routers == 30) {
    static const std::vector<NamedTopology> cat = build(30);
    return cat;
  }
  if (routers == 48) {
    static const std::vector<NamedTopology> cat = build(48);
    return cat;
  }
  throw std::invalid_argument(
      "baseline_catalog: only 20-, 30- and 48-router sets exist");
}

NamedTopology find(const std::vector<NamedTopology>& cat,
                   const std::string& name) {
  for (const auto& t : cat)
    if (t.name == name) return t;
  throw std::invalid_argument("registry: no topology named '" + name + "'");
}

}  // namespace netsmith::topologies
