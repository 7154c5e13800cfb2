#pragma once
// NetSmith public facade: topology synthesis plus the full post-synthesis
// pipeline (core/plan.hpp: shortest-path enumeration -> MCLB routing ->
// deadlock-free VC allocation), mirroring how the paper deploys generated
// topologies.

#include <string>

#include "core/anneal.hpp"
#include "core/config.hpp"
#include "core/milp_encoding.hpp"
#include "core/plan.hpp"

namespace netsmith::core {

// Anytime synthesis (the default backend at paper scales).
SynthesisResult synthesize(const SynthesisConfig& cfg);

// Exact synthesis through the MILP encoding; n <= ~10. Throws on larger
// layouts. Returns the proven-optimal topology (or best within limits).
SynthesisResult synthesize_exact(const SynthesisConfig& cfg,
                                 const lp::MilpOptions& opts = {});

}  // namespace netsmith::core
