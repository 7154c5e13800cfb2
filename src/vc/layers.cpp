#include "vc/layers.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace netsmith::vc {

namespace {

struct FlowRef {
  int s, d;
};

VcAssignment try_assign(const routing::RoutingTable& rt, const topo::DiGraph& g,
                        std::vector<FlowRef> order, int max_layers) {
  const int n = rt.num_nodes();
  const LinkIds ids(g);
  VcAssignment a;
  a.layer.assign(static_cast<std::size_t>(n) * n, -1);

  std::vector<FlowRef> pending = std::move(order);
  int layer = 0;
  while (!pending.empty()) {
    if (layer >= max_layers) {
      a.num_layers = -1;  // signal failure
      return a;
    }
    Cdg cdg(ids.count());
    std::vector<FlowRef> deferred;
    for (const auto& f : pending) {
      const auto inserted = cdg.add_path(rt.path(f.s, f.d), ids);
      // The layer's CDG is acyclic before every insertion (a cycle-closing
      // path is rolled back below), so the incremental check is exact.
      if (cdg.closes_cycle(inserted)) {
        // This path closes a cycle in the current layer: defer it. This is
        // the DFSSSP move of peeling the cycle-forming route into a new VC.
        cdg.remove_deps(inserted);
        deferred.push_back(f);
      } else {
        a.layer[static_cast<std::size_t>(f.s) * n + f.d] = layer;
      }
    }
    pending = std::move(deferred);
    ++layer;
  }
  a.num_layers = layer;
  return a;
}

}  // namespace

VcAssignment assign_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, util::Rng& rng,
                           int restarts, int max_layers) {
  obs::Span span("vc/assign_layers");
  const int n = rt.num_nodes();
  std::vector<FlowRef> flows;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d && rt.path(s, d).size() >= 2) flows.push_back({s, d});

  VcAssignment best;
  best.num_layers = -1;
  int tried = 0;
  for (int r = 0; r < restarts; ++r) {
    ++tried;
    std::vector<FlowRef> order = flows;
    if (r > 0) rng.shuffle(order);
    const auto a = try_assign(rt, g, std::move(order), max_layers);
    if (a.num_layers < 0) continue;
    if (best.num_layers < 0 || a.num_layers < best.num_layers) best = a;
    if (best.num_layers == 1) break;
  }
  span.arg("flows", static_cast<long>(flows.size()));
  span.arg("layers", best.num_layers);
  span.arg("restarts", tried);
  if (best.num_layers < 0)
    throw std::runtime_error("assign_layers: exceeded max_layers");
  return best;
}

bool verify_acyclic(const VcAssignment& a, const routing::RoutingTable& rt,
                    const topo::DiGraph& g) {
  const int n = rt.num_nodes();
  const LinkIds ids(g);
  for (int layer = 0; layer < a.num_layers; ++layer) {
    Cdg cdg(ids.count());
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        if (a.layer[static_cast<std::size_t>(s) * n + d] != layer) continue;
        cdg.add_path(rt.path(s, d), ids);
      }
    if (cdg.has_cycle()) return false;
  }
  return true;
}

}  // namespace netsmith::vc
