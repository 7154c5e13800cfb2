#include "routing/ndbt.hpp"

#include <algorithm>
#include <limits>
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
  const int n = ps.num_nodes();
  NdbtFilterResult result;
  result.paths = PathSet(n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const auto& all = ps.at(s, d);
      if (all.empty()) continue;
      auto& keep = result.paths.at(s, d);
      for (const auto& p : all)
        if (!double_backs_x(p, layout)) keep.push_back(p);
      if (keep.empty()) {
        // Fallback: minimal direction changes.
        int best = std::numeric_limits<int>::max();
        for (const auto& p : all)
          best = std::min(best, x_direction_changes(p, layout));
        for (const auto& p : all)
          if (x_direction_changes(p, layout) == best) keep.push_back(p);
        ++result.flows_without_legal_path;
      }
    }
  }
  return result;
}

}  // namespace netsmith::routing
