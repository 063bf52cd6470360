// Entry points of the static precision-dataflow analysis: sound per-signal
// precision bounds derived before any tuning trial runs.
//
// For each requested input set the analysis captures one binary64 shadow
// reference execution (signal_flow.hpp), propagates first-order rounding
// error through it (error_model.hpp), and inverts the model at the output
// taps for the requested epsilon. Each signal's per-set bound combines
//
//   * a RIGOROUS representability floor — output elements stored in the
//     signal's arrays can never be closer to the golden values than the
//     trial format's nearest representable, whatever every other signal
//     does — with
//   * a CALIBRATED model bound — the precision where the propagated
//     variance estimate alone exceeds the quality budget. The raw
//     first-order estimate can over-shoot by orders of magnitude on
//     feedback recursions (an IIR state loop compounds partials
//     multiplicatively over the whole sample stream), so before use it is
//     pinned to reality: one rounded probe execution per input set (the
//     staircase config) measures the model's over-prediction factor at a
//     real operating point, every coefficient is deflated by that factor,
//     and DeriveOptions::margin_bits absorbs the residual non-linearity.
//     Deflation only ever loosens the bound.
//
// The derivation splits in two. Everything above except the final
// inversion is independent of epsilon: a BoundsBasis holds one input
// set's capture-derived calibration (golden norm, tapped golden values,
// per-signal variance totals, probe verdict). invert_bounds maps bases to
// bounds for one epsilon and is cheap by comparison, so a caller serving
// several epsilons — a chained sweep, a long-lived service engine — keeps
// the bases (tuning::EvalEngine::bounds_basis memoizes one per input set)
// and pays only the inversion per request. analyze() and both
// derive_warm_start overloads go through the same two steps.
//
// The final lower bound is the MINIMUM over input sets. That direction is
// what keeps the bound invisible to the search result: the greedy phase
// probes each input set separately, so a bound must stay at or below
// EVERY set's per-signal minimum for the clamped bisections to land on
// exactly the precisions the unbounded search finds. The soundness
// contract is therefore: loose is allowed, excluding the true minimum is
// not — derive_warm_start prunes trials (EvalStats::
// trials_skipped_by_bounds), it never changes tuned signals.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/range_analysis.hpp"
#include "analysis/signal_flow.hpp"
#include "apps/app.hpp"
#include "tuning/search.hpp"
#include "types/type_system.hpp"

namespace tp::tuning {
class EvalEngine;
} // namespace tp::tuning

namespace tp::analysis {

struct DeriveOptions {
    /// Input sets to capture; the bound is the minimum over them. Use the
    /// sets the search will run on (SearchOptions::input_sets).
    std::vector<unsigned> input_sets{0, 1, 2};
    /// Type system whose trial formats the representability floors are
    /// computed against; match the search's.
    TypeSystem type_system{TypeSystemKind::V2};
    /// Bits subtracted from the model bound (never from the rigorous
    /// floor) to absorb the first-order propagation's estimation error.
    int margin_bits = 2;
    /// Range-enclosure inflation (see static_signal_ranges).
    double range_inflation = 4.0;
};

/// The analysis verdict for one signal.
struct SignalBound {
    std::string name;
    /// Sound lower bound on the tuned precision (kMin..kMax): what
    /// derive_warm_start hands the search.
    int lower_bits = kMinPrecisionBits;
    /// The rigorous representability component alone.
    int representability_floor = kMinPrecisionBits;
    /// The margin-deflated model component alone.
    int model_bits = kMinPrecisionBits;
    /// Propagated relative error coefficient (worst set): estimated
    /// rel-RMS at precision p is error_coefficient * 2^-p.
    double error_coefficient = 0.0;
    /// Narrowest exponent width representing the signal's static range.
    int exp_floor_bits = 1;
};

struct AppAnalysis {
    std::string app;
    double epsilon = 0.0;
    std::vector<SignalBound> signals; // SignalId order
    /// Signal DAG of the first captured input set.
    SignalFlowGraph flow;
    /// Static range enclosures, hulled over the captured input sets.
    std::vector<StaticRange> ranges;
    /// Instruction-level + signal-level diagnostics.
    LintReport lint;

    /// Human-readable table (one line per signal) plus the lint report.
    [[nodiscard]] std::string to_string() const;
};

/// The epsilon-free part of one input set's bound derivation.
struct BoundsBasis {
    /// L2 norm of the golden output: the quality metric's denominator.
    double golden_norm = 0.0;
    /// Per signal, the golden output elements its output taps land on
    /// (the representability floor's sample).
    std::vector<std::vector<double>> tapped_golden;
    /// Per signal, the propagated output variance summed over the taps:
    /// the squared relative-error coefficient times golden_norm^2.
    std::vector<double> var_total;
    /// The model's over-prediction factor measured by the staircase probe
    /// (>= 1; every model coefficient is divided by it).
    double deflate = 1.0;
    /// The probe could not calibrate the model (unavailable, or no error
    /// observed where some was predicted): the floor stands alone.
    bool drop_model = false;
};

/// One shadow capture, error model and staircase probe of `app` on
/// `input_set`, calibrated against `golden` (the set's binary64 reference
/// output). No tuning trials; `app`'s prepared workload is clobbered.
[[nodiscard]] BoundsBasis build_bounds_basis(apps::App& app, unsigned input_set,
                                             const std::vector<double>& golden);

/// The epsilon-dependent inversion: per-signal bounds (named from
/// `table`, SignalId order) as the MIN over `bases` of each set's
/// max(representability floor, margin-deflated model bound). A pure
/// function; no bases yields every signal at kMinPrecisionBits.
/// exp_floor_bits is left at its default — ranges are analyze()'s.
[[nodiscard]] std::vector<SignalBound> invert_bounds(
    const apps::SignalTable& table,
    const std::vector<std::shared_ptr<const BoundsBasis>>& bases,
    double epsilon, TypeSystem type_system, int margin_bits);

/// The full three-pass analysis. Costs |input_sets| shadow executions,
/// |input_sets| golden runs and |input_sets| rounded calibration probes
/// and no tuning trials; `app`'s prepared workload is clobbered.
[[nodiscard]] AppAnalysis analyze(apps::App& app, double epsilon,
                                  const DeriveOptions& options = {});

/// The bounds alone, folded into a search warm start: neutral seeds (the
/// search's usual kMaxPrecisionBits start), the derived lower bounds, no
/// upper bounds. Plug into SearchOptions::warm_start — or let
/// SearchOptions::static_bounds do it — to prune probe bisections on a
/// cold, never-tuned app. Bounds-only: no ranges, flow graph or lint,
/// but the same kernel runs as analyze().
[[nodiscard]] tuning::WarmStart derive_warm_start(
    apps::App& app, double epsilon, const std::vector<unsigned>& input_sets,
    TypeSystem type_system = TypeSystem{TypeSystemKind::V2});

/// The same warm start from `engine`'s memoized bases
/// (EvalEngine::bounds_basis): the first request for an input set builds
/// its basis, every later one — any epsilon — pays only the inversion.
[[nodiscard]] tuning::WarmStart derive_warm_start(
    tuning::EvalEngine& engine, double epsilon,
    const std::vector<unsigned>& input_sets,
    TypeSystem type_system = TypeSystem{TypeSystemKind::V2});

} // namespace tp::analysis
