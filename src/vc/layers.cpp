#include "vc/layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace netsmith::vc {

namespace {

struct FlowRef {
  int s, d;
};

// One greedy pass over `pending`, in order: each layer takes every flow whose
// path keeps the layer's CDG acyclic and defers the rest to the next layer.
// Returns num_layers == -1 when more than max_layers would be needed.
VcAssignment try_assign(const routing::RoutingTable& rt, const LinkIds& ids,
                        OrderedCdg& cdg, std::vector<FlowRef> pending,
                        int max_layers) {
  const int n = rt.num_nodes();
  VcAssignment a;
  a.layer.assign(static_cast<std::size_t>(n) * n, -1);

  std::vector<FlowRef> deferred;
  int layer = 0;
  while (!pending.empty()) {
    if (layer >= max_layers) {
      a.num_layers = -1;  // signal failure
      return a;
    }
    cdg.clear();
    deferred.clear();
    const bool last = layer + 1 == max_layers;
    for (const auto& f : pending) {
      // A path that closes a cycle in the current layer was rolled back:
      // defer it. This is the DFSSSP move of peeling the cycle-forming route
      // into a new VC. The last allowed layer has no next layer to defer to,
      // so its first deferral already fails the pass.
      if (cdg.add_path(rt.path(f.s, f.d), ids)) {
        a.layer[static_cast<std::size_t>(f.s) * n + f.d] = layer;
      } else if (last) {
        a.num_layers = -1;
        return a;
      } else {
        deferred.push_back(f);
      }
    }
    std::swap(pending, deferred);
    ++layer;
  }
  a.num_layers = layer;
  return a;
}

}  // namespace

VcAssignment assign_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, util::Rng& rng) {
  obs::Span span("vc/assign_layers");
  const int n = rt.num_nodes();
  std::vector<FlowRef> flows;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d && rt.path(s, d).size() >= 2) flows.push_back({s, d});

  const LinkIds ids(g);
  OrderedCdg cdg(g, ids);
  std::vector<FlowRef> order;
  VcAssignment best;
  best.num_layers = -1;
  int tried = 0, capped = 0;
  for (int r = 0; r < kLayerRestarts; ++r) {
    if (r > 0 && best.num_layers == 2) {
      // Two layers cannot be beaten: a deferral means the whole route set's
      // CDG has a cycle, so no order fits one layer. The skipped restart
      // still draws its shuffle (a shuffle's draws depend only on the
      // length), leaving rng where the full loop would.
      rng.shuffle(order);
      continue;
    }
    ++tried;
    order = flows;
    if (r > 0) rng.shuffle(order);
    // Only a strictly smaller count replaces the best, so a restart may stop
    // as soon as it would need best layers.
    const int cap = best.num_layers < 0
                        ? kMaxLayers
                        : std::min(kMaxLayers, best.num_layers - 1);
    auto a = try_assign(rt, ids, cdg, order, cap);
    if (a.num_layers < 0) {
      if (cap < kMaxLayers) ++capped;
      continue;
    }
    best = std::move(a);
    if (best.num_layers == 1) break;
  }
  span.arg("flows", static_cast<long>(flows.size()));
  span.arg("layers", best.num_layers);
  span.arg("restarts", tried);
  span.arg("capped", capped);
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
