// The benchmark's three workloads (perfbench/METRICS.md has the metric
// definitions and what each layer metric should move).
//
//   tune_sweep     — per app, on a fresh serial engine: a chained
//                    sweep_search over the paper's three epsilons with
//                    static bounds, then the tuned bindings simulated
//                    (SIMD) against the binary32 scalar baseline.
//   cast_aware     — per app, on a fresh serial engine: cast_aware_search
//                    at epsilon 1e-2 (delta costing on), then simulated.
//   service_stream — an open-loop seeded request stream into one
//                    TuningService with a cache budget below the working
//                    set, followed by a serial direct-call replay of the
//                    same requests that every result is checked against.
//
// With tracing off a run measures the end-to-end metrics. With tracing on
// it runs the same work through TimedApp decorators and the layer replay
// (replay.hpp) and reports the per-layer metrics instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "json.hpp"
#include "schedule.hpp"

namespace pb {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

struct WorkloadReport {
    std::vector<Metric> metrics; // end-to-end, or per-layer when tracing
    std::size_t attempted = 0;   // operations and output checks
    std::size_t failed = 0;
    std::vector<std::string> failures; // the first few, for the log
    double traced_wall_s = 0.0;        // traced runs: what the spans cover
    /// Facts about the run for the report (inputs, sample counts).
    tp::bench::Json info = tp::bench::Json::object();
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadReport run_workload(const RunOptions& options);

} // namespace pb
