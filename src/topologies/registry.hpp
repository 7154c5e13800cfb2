#pragma once
// Topology registry: the paper's frozen catalog plus a parametric factory.
//
// The catalog side is everything Table II and the figures evaluate, grouped
// by router count and link-length class. The NS-* entries are NetSmith
// outputs generated by this repo's synthesizer (fixed seeds) and frozen for
// reproducibility; `regenerate` knobs in the benches re-run the synthesis
// live.
//
// The factory side maps (family name + params) to a NamedTopology, so
// benches, tools, and sweeps can instantiate baseline families at arbitrary
// scale instead of only the frozen set. Built-in families cover the
// generator-exact experts (mesh, torus, folded_torus), the reconstructed
// experts (kite, butter_donut, double_butterfly, lpbt_power, lpbt_hops), the
// frozen table itself (frozen:name=...), and the parametric baselines
// (dragonfly, cmesh, hammingmesh). The family table is fixed.

#include <map>
#include <string>
#include <vector>

#include "topo/graph.hpp"
#include "topo/layout.hpp"
#include "util/matrix.hpp"

namespace netsmith::topologies {

struct NamedTopology {
  std::string name;
  topo::Layout layout;
  topo::LinkClass link_class;  // clocking class (longest link)
  topo::DiGraph graph;
  bool machine_generated = false;  // NS-* / LPBT-*
  bool is_netsmith = false;        // NS-*
  // Scalable generator family (Dragonfly / CMesh / HammingMesh) rather than
  // a frozen/reconstructed design; these route
  // with MCLB and may carry extra_edge_delay.
  bool parametric = false;
  // Canonical "family:key=value,..." factory spec (make_spec round-trips
  // it); set on every factory-built entry, empty for fixed-catalog rows.
  std::string spec;
  // Extra per-edge pipeline cycles for wires beyond the Kite taxonomy's
  // large-class reach (parametric families may place longer interposer
  // wires); empty when every link fits the class. Feeds
  // sim::SimConfig::extra_edge_delay.
  util::Matrix<int> extra_edge_delay;
};

// ------------------------------------------------------------- catalogs ---

// The frozen sets are built once, on first use, and returned by reference
// to the shared read-only table; callers copy the rows they keep.

// All Table II rows for 20 or 30 routers, in paper order, or the 48-router
// (8x6) scalability study set (paper SV-E, Fig. 11); throws
// std::invalid_argument for any other count.
const std::vector<NamedTopology>& catalog(int routers);

// The parametric baseline families (Dragonfly, CMesh, HammingMesh) at the
// standard router counts (20, 30 or 48), ready to run head-to-head against
// the catalog sets. Built from the factories on first use per count; throws
// std::invalid_argument for any other count.
const std::vector<NamedTopology>& baseline_catalog(int routers);

// Lookup by exact name; throws if absent.
NamedTopology find(const std::vector<NamedTopology>& cat, const std::string& name);

// -------------------------------------------------- parametric factory ----

using Params = std::map<std::string, std::string>;

// The built-in family names, sorted.
std::vector<std::string> factory_names();

// Instantiates a family; throws std::invalid_argument on unknown family or
// bad params.
NamedTopology make(const std::string& family, const Params& params = {});

// Spec-string form "family:key=value,key=value" (params optional), for CLI
// and bench use, e.g. "dragonfly:group_size=4,groups=5" or "cmesh:routers=30".
NamedTopology make_spec(const std::string& spec);

// Param-lookup helpers for factories: parse-or-default, throwing
// std::invalid_argument on malformed values.
int param_int(const Params& p, const std::string& key, int fallback);
std::string param_str(const Params& p, const std::string& key,
                      const std::string& fallback);

}  // namespace netsmith::topologies
