// Replay of the sim and analysis layers, one public call at a time.
//
// The in-place spans (timed_app.hpp) time the kernel runs. What the
// library does with a trace afterwards — hand it off, vectorize it,
// partition and cost its regions, run the pipeline model, assemble the
// report — and the non-kernel work of the static analysis happen inside
// library calls the benchmark cannot wrap. The replay re-executes exactly
// the inputs the decorators saw, through the same public functions, and
// times each one.
#pragma once

#include <cstddef>
#include <vector>

#include "apps/app.hpp"
#include "timed_app.hpp"

namespace pb {

struct SimLayers {
    Span handoff;   // TpContext::take_program(false)
    Span vectorize; // sim::vectorize
    Span regions;   // cost_regions + cost_region / region_signature
    Span pipeline;  // run_pipeline
    Span assemble;  // assemble_regions, less its run_pipeline call
    std::size_t trace_instrs = 0;
    std::size_t simd_instrs = 0;
    std::size_t region_count = 0;
    /// Every replayed assemble_regions report equals sim::simulate of the
    /// same program.
    bool reports_match = true;
};

/// Replays `runs` on `app` (undecorated). Every run is vectorized, as the
/// engines (CastAwareOptions::simd) and the benchmark's own simulations
/// are. Engine runs that took the delta-cost path re-costed only part of
/// their regions and checked the others' signatures: `splice_frac`
/// (EvalStats regions skipped / total) weights the two region walks for
/// them; benchmark simulations cost in full. `verify` also compares every
/// assembled report with sim::simulate of the same program
/// (SimLayers::reports_match).
[[nodiscard]] SimLayers replay_sim(tp::apps::App& app,
                                   const std::vector<TracedRun>& runs,
                                   double splice_frac, bool verify = false);

/// Non-kernel time of analysis::derive_warm_start for each epsilon: the
/// call's wall time less the kernel runs inside it (already booked in
/// place as capture_run / derive_kernel).
[[nodiscard]] Span replay_derive(const tp::apps::App& app,
                                 const std::vector<double>& epsilons,
                                 const std::vector<unsigned>& input_sets);

struct ImpactLayers {
    Span capture_handoff; // capture_trace less its kernel run and prepare
    Span build;           // build_region_impact
};

/// Replays each region-impact capture (one per recorded input set).
[[nodiscard]] ImpactLayers replay_region_impact(
    const tp::apps::App& app, const std::vector<unsigned>& capture_sets);

} // namespace pb
