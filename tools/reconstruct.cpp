// Offline tool: reconstructs expert-designed topologies (Kite, Butter Donut,
// Double Butterfly, LPBT outputs) whose adjacency the source papers publish
// only as figures. Searches symmetric link sets under the correct layout /
// link-class / radix rules until the published Table II metrics (#links,
// diameter, average hops, bisection bandwidth) match exactly, then emits
// FrozenEntry lines for src/topologies/frozen_data.inc.
//
// Usage: reconstruct [time_limit_per_target_s]

#include <array>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "topo/builders.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"
#include "util/rng.hpp"

using namespace netsmith;

namespace {

struct Target {
  std::string name;
  topo::Layout lay;
  topo::LinkClass cls;
  int links;   // full-duplex links
  int diam;
  double avg;  // Table II average hops (2 decimals)
  int bis;     // Table II bisection bandwidth
};

struct Searcher {
  const Target& t;
  util::Rng rng;
  int n;
  std::vector<std::pair<int, int>> duplex_candidates;  // i<j class-valid both ways

  explicit Searcher(const Target& target, std::uint64_t seed)
      : t(target), rng(seed), n(target.lay.n()) {
    for (const auto& [i, j] : topo::valid_links(target.lay, target.cls))
      if (i < j) duplex_candidates.emplace_back(i, j);
  }

  // Score: distance of total hops from the 2-decimal band around t.avg,
  // plus diameter mismatch. Zero score == analytic-metrics candidate.
  double score(const topo::DiGraph& g, int* out_diam) {
    const auto dist = topo::apsp_bfs(g);
    const long N = static_cast<long>(n) * (n - 1);
    long total = 0;
    int diam = 0;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const int d = dist(i, j);
        if (d >= topo::kUnreachable) return 1e7;
        total += d;
        diam = std::max(diam, d);
      }
    *out_diam = diam;
    const double lo = (t.avg - 0.005) * N, hi = (t.avg + 0.005) * N;
    double s = 0.0;
    if (total < lo) s += lo - total;
    else if (total > hi) s += total - hi;
    s += 40.0 * std::abs(diam - t.diam);
    return s;
  }

  bool removable(const topo::DiGraph& g, int i, int j) {
    return g.has_edge(i, j) && g.has_edge(j, i);
  }
  bool addable(const topo::DiGraph& g, int i, int j, int radix = 4) {
    return !g.has_edge(i, j) && g.out_degree(i) < radix &&
           g.in_degree(i) < radix && g.out_degree(j) < radix &&
           g.in_degree(j) < radix;
  }

  // Degree-preserving double-edge swap: (a,b),(c,d) -> (a,c),(b,d) or
  // (a,d),(b,c). Essential when the target link count saturates the class's
  // degree budget (e.g. 38 small-class links on 4x5), where single rewires
  // have no legal addition and the space would otherwise freeze.
  bool try_swap(topo::DiGraph& g, std::array<std::pair<int, int>, 2>* removed,
                std::array<std::pair<int, int>, 2>* added) {
    const auto& e1 = rng.pick(duplex_candidates);
    const auto& e2 = rng.pick(duplex_candidates);
    if (!removable(g, e1.first, e1.second) || !removable(g, e2.first, e2.second))
      return false;
    const int a = e1.first, b = e1.second, c = e2.first, d = e2.second;
    if (a == c || a == d || b == c || b == d) return false;
    int na1, nb1, na2, nb2;
    if (rng.bernoulli(0.5)) {
      na1 = a; nb1 = c; na2 = b; nb2 = d;
    } else {
      na1 = a; nb1 = d; na2 = b; nb2 = c;
    }
    auto valid = [&](int x, int y) {
      return topo::link_allowed(t.lay, x, y, t.cls) && !g.has_edge(x, y);
    };
    if (!valid(na1, nb1) || !valid(na2, nb2)) return false;
    g.remove_edge(a, b); g.remove_edge(b, a);
    g.remove_edge(c, d); g.remove_edge(d, c);
    g.add_duplex(na1, nb1);
    g.add_duplex(na2, nb2);
    (*removed)[0] = {a, b};
    (*removed)[1] = {c, d};
    (*added)[0] = {na1, nb1};
    (*added)[1] = {na2, nb2};
    return true;
  }

  topo::DiGraph initial() {
    topo::DiGraph g(n);
    auto cands = duplex_candidates;
    rng.shuffle(cands);
    for (const auto& [i, j] : cands) {
      if (static_cast<int>(g.duplex_links()) >= t.links) break;
      if (addable(g, i, j)) g.add_duplex(i, j);
    }
    // Greedy fill can jam below the target when the class is nearly
    // saturated (e.g. 38 of max 40 small-class links): repair by randomly
    // removing a blocking link and retrying additions.
    long guard = 0;
    while (static_cast<int>(g.duplex_links()) < t.links && guard++ < 200000) {
      bool added = false;
      for (int k = 0; k < 24 && !added; ++k) {
        const auto& c = rng.pick(duplex_candidates);
        if (addable(g, c.first, c.second)) {
          g.add_duplex(c.first, c.second);
          added = true;
        }
      }
      if (!added) {
        const auto& r = rng.pick(duplex_candidates);
        if (removable(g, r.first, r.second)) {
          g.remove_edge(r.first, r.second);
          g.remove_edge(r.second, r.first);
        }
      }
    }
    return g;
  }

  // Returns true on exact match; otherwise *out holds the closest-bisection
  // zero-score candidate found (if any) and *achieved_bis its bisection.
  bool run(double budget_s, topo::DiGraph* out, int* achieved_bis) {
    obs::WallTimer timer;
    std::set<std::string> checked;
    bool have_any = false;
    int best_gap = 1 << 20;

    auto check_candidate = [&](const topo::DiGraph& g) -> bool {
      const std::string key = g.to_string();
      if (checked.count(key)) return false;
      checked.insert(key);
      const int bis = topo::bisection_bandwidth(g);
      const int gap = std::abs(bis - t.bis);
      if (!have_any || gap < best_gap) {
        have_any = true;
        best_gap = gap;
        *out = g;
        *achieved_bis = bis;
      }
      return gap == 0;
    };

    while (timer.seconds() < budget_s) {
      topo::DiGraph g = initial();
      if (static_cast<int>(g.duplex_links()) != t.links) continue;
      int diam = 0;
      double cur = score(g, &diam);
      double temp_hi = 30.0, temp_lo = 0.3;
      const double inner_budget = std::min(10.0, budget_s / 6.0);
      obs::WallTimer inner;
      long plateau_steps = 0;
      while (inner.seconds() < inner_budget && timer.seconds() < budget_s) {
        const double frac = inner.seconds() / inner_budget;
        const double temp = temp_hi * std::pow(temp_lo / temp_hi, frac);

        // Move: degree-preserving double swap (works even when the link
        // budget saturates the class) or single rewire.
        int move_kind = 0;  // 1 = rewire, 2 = swap
        std::pair<int, int> rem1, add1;
        std::array<std::pair<int, int>, 2> sw_rm, sw_ad;
        if (rng.bernoulli(0.6)) {
          if (!try_swap(g, &sw_rm, &sw_ad)) continue;
          move_kind = 2;
        } else {
          const auto& rem = rng.pick(duplex_candidates);
          if (!removable(g, rem.first, rem.second)) continue;
          g.remove_edge(rem.first, rem.second);
          g.remove_edge(rem.second, rem.first);
          const auto& add = rng.pick(duplex_candidates);
          if (!addable(g, add.first, add.second) ||
              (add.first == rem.first && add.second == rem.second)) {
            g.add_duplex(rem.first, rem.second);
            continue;
          }
          g.add_duplex(add.first, add.second);
          move_kind = 1;
          rem1 = rem;
          add1 = add;
        }

        auto undo = [&]() {
          if (move_kind == 1) {
            g.remove_edge(add1.first, add1.second);
            g.remove_edge(add1.second, add1.first);
            g.add_duplex(rem1.first, rem1.second);
          } else {
            for (const auto& [x, y] : sw_ad) {
              g.remove_edge(x, y);
              g.remove_edge(y, x);
            }
            for (const auto& [x, y] : sw_rm) g.add_duplex(x, y);
          }
        };

        int nd = 0;
        const double cand = score(g, &nd);
        // Plateau mode: once inside the metric band, only walk within it so
        // every visited state is a bisection candidate.
        const bool accept =
            cur == 0.0
                ? cand == 0.0
                : (cand <= cur || rng.uniform() < std::exp((cur - cand) / temp));
        if (accept) {
          cur = cand;
          diam = nd;
          if (cur == 0.0) {
            ++plateau_steps;
            if (check_candidate(g)) return true;
            // Kick out of exhausted plateaus.
            if (plateau_steps > 20000) break;
          }
        } else {
          undo();
        }
      }
    }
    return false;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const double budget = argc > 1 ? std::atof(argv[1]) : 90.0;
  const auto l45 = topo::Layout::noi_4x5();
  const auto l65 = topo::Layout::noi_6x5();
  using LC = topo::LinkClass;

  const std::vector<Target> targets = {
      {"Kite-small-20", l45, LC::kSmall, 38, 4, 2.38, 8},
      {"LPBT-Power-small-20", l45, LC::kSmall, 33, 5, 2.59, 4},
      {"LPBT-Hops-small-20", l45, LC::kSmall, 34, 6, 2.74, 4},
      {"Kite-medium-20", l45, LC::kMedium, 40, 4, 2.25, 8},
      {"LPBT-Hops-medium-20", l45, LC::kMedium, 38, 4, 2.33, 7},
      {"ButterDonut-20", l45, LC::kLarge, 36, 4, 2.32, 8},
      {"DoubleButterfly-20", l45, LC::kLarge, 32, 4, 2.59, 8},
      {"Kite-large-20", l45, LC::kLarge, 36, 5, 2.27, 8},
      {"Kite-small-30", l65, LC::kSmall, 58, 5, 2.91, 10},
      {"Kite-medium-30", l65, LC::kMedium, 60, 5, 2.66, 10},
      {"ButterDonut-30", l65, LC::kLarge, 44, 10, 3.71, 8},
      {"DoubleButterfly-30", l65, LC::kLarge, 48, 5, 2.90, 8},
      {"Kite-large-30", l65, LC::kLarge, 56, 5, 2.69, 10},
  };

  // Optional filter: only reconstruct targets whose name contains argv[2].
  const std::string filter = argc > 2 ? argv[2] : "";

  for (const auto& t : targets) {
    if (!filter.empty() && t.name.find(filter) == std::string::npos) continue;
    Searcher s(t, 0xABCD1234 + std::hash<std::string>{}(t.name));
    topo::DiGraph g;
    int bis = -1;
    if (s.run(budget, &g, &bis)) {
      std::printf("    {\"%s\",\n     \"%s\"},\n", t.name.c_str(),
                  g.to_string().c_str());
    } else if (bis >= 0) {
      std::printf("// CLOSEST (bis=%d, target %d): %s\n    {\"%s\",\n     \"%s\"},\n",
                  bis, t.bis, t.name.c_str(), t.name.c_str(),
                  g.to_string().c_str());
    } else {
      std::printf("// FAILED: %s (links=%d diam=%d avg=%.2f bis=%d)\n",
                  t.name.c_str(), t.links, t.diam, t.avg, t.bis);
    }
    std::fflush(stdout);
  }
  return 0;
}
