// Regenerates paper Table II: topology metrics (# links, diameter, average
// hops, bisection bandwidth) for the 20- and 30-router NoI catalogs.

#include <cstdio>
#include <iostream>

#include "topo/cuts.hpp"
#include "topo/metrics.hpp"
#include "topologies/registry.hpp"
#include "util/table.hpp"

using namespace netsmith;

namespace {

void block(int routers) {
  std::printf("== Table II: %d routers ==\n", routers);
  util::TablePrinter table(
      {"class", "topology", "#links", "diam", "avg hops", "bis BW"});
  for (const auto& t : topologies::catalog(routers)) {
    table.add_row({topo::to_string(t.link_class), t.name,
                   util::TablePrinter::fmt(t.graph.duplex_links(), 0),
                   std::to_string(topo::diameter(t.graph)),
                   util::TablePrinter::fmt(topo::average_hops(t.graph), 2),
                   std::to_string(topo::bisection_bandwidth(t.graph))});
  }
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf(
      "NetSmith reproduction — Table II (topology metrics)\n"
      "Expert rows are metric-matched reconstructions; NS rows are this\n"
      "repo's synthesizer outputs (frozen seeds). See EXPERIMENTS.md.\n\n");
  block(20);
  block(30);
  return 0;
}
