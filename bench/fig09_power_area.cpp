// Regenerates paper Fig. 9: NoI power and area relative to mesh, via the
// DSENT-lite model. Activity corresponds to a fixed traffic level; each
// topology runs at its class clock.

#include <cstdio>
#include <iostream>

#include "power/dsent_lite.hpp"
#include "topo/builders.hpp"
#include "topologies/registry.hpp"
#include "util/table.hpp"

using namespace netsmith;

int main() {
  const auto lay = topo::Layout::noi_4x5();
  constexpr double kActivity = 0.25;  // flits/node/cycle (moderate load)
  constexpr int kVcs = 6;

  const auto mesh = power::estimate(topo::build_mesh(lay), lay, 3.6, kActivity,
                                    kVcs);

  std::printf(
      "NetSmith reproduction — Fig. 9 (power & area relative to mesh)\n"
      "Stacked power = dynamic + leakage; area split router vs wire.\n\n");

  util::TablePrinter table({"class", "topology", "dyn", "leak", "total pwr",
                            "router area", "wire area", "total area"});
  auto row = [&](const std::string& cls, const std::string& name,
                 const power::PowerArea& pa) {
    table.add_row({cls, name,
                   util::TablePrinter::fmt(pa.dynamic_mw / mesh.dynamic_mw, 2),
                   util::TablePrinter::fmt(pa.leakage_mw / mesh.leakage_mw, 2),
                   util::TablePrinter::fmt(pa.total_power_mw() / mesh.total_power_mw(), 2),
                   util::TablePrinter::fmt(pa.router_area_mm2 / mesh.router_area_mm2, 2),
                   util::TablePrinter::fmt(pa.wire_area_mm2 / mesh.wire_area_mm2, 2),
                   util::TablePrinter::fmt(pa.total_area_mm2() / mesh.total_area_mm2(), 2)});
  };

  row("small", "Mesh (baseline)", mesh);
  // Catalog rows, then the parametric baselines.
  auto rows = topologies::catalog(20);
  const auto& baselines = topologies::baseline_catalog(20);
  rows.insert(rows.end(), baselines.begin(), baselines.end());
  for (const auto& t : rows) {
    const auto pa = power::estimate(t.graph, t.layout,
                                    topo::clock_ghz(t.link_class), kActivity,
                                    kVcs);
    row(topo::to_string(t.link_class), t.name, pa);
  }
  table.print(std::cout);

  std::printf(
      "\nExpected shape (paper Fig. 9): leakage roughly flat across\n"
      "topologies (same router count, similar link counts); wire area\n"
      "dominates; large NS topologies show lower dynamic power than small\n"
      "ones thanks to the slower clock (paper: ~17%% lower dynamic, ~7%%\n"
      "lower total); NetSmith's aggressive port usage costs extra wire.\n");
  return 0;
}
