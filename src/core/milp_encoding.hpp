#pragma once
// Exact MILP encoding of NetSmith's Table I for the in-tree solver.
//
// This is the paper's formulation made concrete: connectivity map M (C1-C3,
// C9), one-hop distances O folded into big-M rows (C4), shortest-path
// distances D via the triangle-inequality/min encoding (C5) with indicator
// variables selecting each pair's predecessor, radix rows (C2), optional
// diameter bound (C8), and either the total-hops objective (O1) or the
// exhaustively enumerated sparsest-cut objective (O2 via C6/C7).
//
// The encoding is exact but sized for small instances (n <= ~10): the D/min
// construction uses O(n^3) indicator binaries, and the sparsest-cut rows
// enumerate all 2^(n-1) partitions. Tests use it to verify that the anytime
// annealer reaches the true optimum on small layouts.

#include "core/config.hpp"
#include "lp/milp.hpp"

namespace netsmith::core {

struct MilpEncoding {
  lp::Model model;
  // Var ids: m_var[i*n+j] for (i,j) in the valid link set, else -1.
  std::vector<int> m_var;
  std::vector<int> d_var;  // d_var[i*n+j], -1 on diagonal
  int b_var = -1;          // sparsest-cut bandwidth variable (SCOp only)
  int n = 0;
};

MilpEncoding encode_latop(const topo::Layout& layout, topo::LinkClass cls,
                          int radix, int diameter_bound,
                          bool symmetric_links = false);

// SCOp: maximize B subject to every partition's bandwidth >= B (C6/C7 as
// row generation done eagerly — all partitions enumerated up front).
MilpEncoding encode_scop(const topo::Layout& layout, topo::LinkClass cls,
                         int radix, int diameter_bound,
                         bool symmetric_links = false);

// Reads the connectivity map out of a MILP solution.
topo::DiGraph decode_topology(const MilpEncoding& enc,
                              const std::vector<double>& x);

// Exact synthesis through the encoding above (kLatOp / kSCOp; n <= ~10).
// Throws on larger layouts and on the anneal-only objectives. Returns the
// proven-optimal topology (or the best within the MILP limits; a
// non-positive opts.time_limit_s takes cfg.time_limit_s).
SynthesisResult synthesize_exact(const SynthesisConfig& cfg,
                                 const lp::MilpOptions& opts = {});

}  // namespace netsmith::core
