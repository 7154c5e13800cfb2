#include "routing/ndbt.hpp"

#include <algorithm>
#include <vector>

namespace netsmith::routing {

int x_direction_changes(std::span<const int> p, const topo::Layout& layout) {
  int changes = 0;
  int last_sign = 0;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const int dx = layout.col(p[i + 1]) - layout.col(p[i]);
    if (dx == 0) continue;
    const int sign = dx > 0 ? 1 : -1;
    if (last_sign != 0 && sign != last_sign) ++changes;
    last_sign = sign;
  }
  return changes;
}

bool double_backs_x(std::span<const int> p, const topo::Layout& layout) {
  return x_direction_changes(p, layout) > 0;
}

int count_double_backs(const RoutingTable& t, const topo::Layout& layout) {
  const int n = t.num_nodes();
  std::vector<int> col(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) col[static_cast<std::size_t>(v)] = layout.col(v);
  // A route changes x direction iff it has both a +x and a -x hop; testing
  // that per hop needs no branch on the hop's sign.
  int count = 0;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      const std::span<const int> p = t.path(s, d);
      bool east = false, west = false;
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        const int dx = col[static_cast<std::size_t>(p[i + 1])] -
                       col[static_cast<std::size_t>(p[i])];
        east |= dx > 0;
        west |= dx < 0;
      }
      count += east && west;
    }
  return count;
}

NdbtFilterResult ndbt_filter(const PathSet& ps, const topo::Layout& layout) {
  NdbtFilterResult result;
  result.paths.clear(ps.num_nodes());
  std::vector<int> changes;
  for (int f = 0; f < ps.num_flows(); ++f) {
    const int pb = ps.path_begin[f], pe = ps.path_begin[f + 1];
    changes.clear();
    for (int p = pb; p < pe; ++p)
      changes.push_back(x_direction_changes(ps.nodes_of(p), layout));
    // The legal paths when there are any, else the fallback: the paths with
    // the fewest direction changes.
    const int best = *std::min_element(changes.begin(), changes.end());
    if (best > 0) ++result.flows_without_legal_path;
    for (int p = pb; p < pe; ++p)
      if (changes[p - pb] == best) result.paths.add_path(ps.nodes_of(p));
    result.paths.close_flow(ps.flow_s[f], ps.flow_d[f]);
  }
  return result;
}

}  // namespace netsmith::routing
