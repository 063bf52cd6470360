// Seeded inputs of the benchmark workloads.
//
// The benchmark's only source of variation is its --seed argument. From it
// this file derives the three input sets every search runs on (an app's
// prepare() accepts any unsigned and seeds its generator from it) and the
// open-loop arrival schedule of the service workload. Same seed, same
// inputs; the library never sees the seed itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// The `index`-th triple of distinct input-set indices derived from
/// `seed` (a run may use several triples).
[[nodiscard]] std::vector<unsigned> input_sets_for(std::uint64_t seed,
                                                   std::size_t index);

enum class RequestKind { kInteractive, kSweep, kCastAware };

[[nodiscard]] const char* kind_name(RequestKind kind) noexcept;

/// One request of the service stream, due `due_s` seconds after the
/// stream starts.
struct Arrival {
    double due_s = 0.0;
    RequestKind kind = RequestKind::kInteractive;
    std::string app;
    double epsilon = 0.0; // interactive and cast-aware requests
    /// Part of the warm-up at the stream's start: served and checked like
    /// every other request, left out of the latency metrics.
    bool warmup = false;
};

/// The requirement of every cast-aware pass: the cast_aware workload's and
/// the stream's cast-aware requests.
inline constexpr double kCastAwareEpsilon = 1e-2;

/// How many requests of each class every app sends; fixed by the
/// benchmark, not by the seed, so the seed moves the interleaving and the
/// input sets but not the mix. The rate and the epsilons are constants of
/// schedule.cpp: the rate is absolute, so every commit measured sees the
/// same load.
struct StreamShape {
    std::size_t interactive_per_app = 0; // whole rounds of the epsilon grid
    std::size_t sweeps_per_app = 0;
    std::size_t cast_aware_per_app = 0;
};

/// The stream of `seconds` seconds of traffic (counts scale with it; at
/// least one measured round after the warm-up).
[[nodiscard]] StreamShape stream_shape(double seconds);

/// Seeded open-loop schedule at a constant rate, in rounds: every app asks
/// for every requirement of a log-spaced grid over [1e-3, 1e-1] once per
/// round in a fixed order, sweeps join evenly spaced rounds, and the seed
/// interleaves the apps within a round. The first round is the warm-up and
/// carries the cast-aware passes.
[[nodiscard]] std::vector<Arrival> arrival_schedule(std::uint64_t seed,
                                                    const StreamShape& shape);

/// FNV-1a over every field of every arrival — two schedules are equal
/// exactly when their digests are (for the benchmark's report).
[[nodiscard]] std::uint64_t schedule_digest(const std::vector<Arrival>& schedule);

} // namespace pb
