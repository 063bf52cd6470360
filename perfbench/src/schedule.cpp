#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace pb {

namespace {

// Distinct streams of one seed, so the input sets and the schedule do not
// share random draws.
constexpr std::uint64_t kInputSetStream = 0x1A5E75ULL;
constexpr std::uint64_t kScheduleStream = 0x5C4EDULL;

/// Requests per second into the service, constant spacing.
constexpr double kRatePerS = 40.0;
/// Interactive requirements: kEpsSteps log-spaced epsilons from kEpsLo to
/// kEpsHi — the round values users ask for, so that after warm-up most
/// requests repeat a cached search. Each app asks for each of them equally
/// often.
constexpr double kEpsLo = 1e-3;
constexpr double kEpsHi = 1e-1;
constexpr std::size_t kEpsSteps = 5;
/// Requests per app and second of traffic, by class.
constexpr double kInteractivePerAppPerS = 1.8;
constexpr double kSweepsPerAppPerS = 1.0 / 3.0;
constexpr double kCastAwarePerAppPerS = 1.0 / 30.0;

void mix(std::uint64_t& h, std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xFFU)) * 1099511628211ULL;
    }
}

} // namespace

std::vector<unsigned> input_sets_for(std::uint64_t seed, std::size_t index) {
    tp::util::Xoshiro256 rng{(seed ^ kInputSetStream) +
                             0x9E3779B97F4A7C15ULL * index};
    std::vector<unsigned> sets;
    while (sets.size() < 3) {
        const auto set = static_cast<unsigned>(rng() >> 40); // < 2^24
        if (std::find(sets.begin(), sets.end(), set) == sets.end()) {
            sets.push_back(set);
        }
    }
    return sets;
}

const char* kind_name(RequestKind kind) noexcept {
    switch (kind) {
        case RequestKind::kInteractive: return "interactive";
        case RequestKind::kSweep: return "sweep";
        case RequestKind::kCastAware: return "cast_aware";
    }
    return "?";
}

StreamShape stream_shape(double seconds) {
    const auto per_app = [seconds](double rate) {
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(rate * seconds)));
    };
    StreamShape shape;
    // Whole rounds of the epsilon grid, at least one after the warm-up.
    shape.interactive_per_app =
        kEpsSteps * std::max<std::size_t>(
                        2, per_app(kInteractivePerAppPerS / static_cast<double>(kEpsSteps)));
    shape.sweeps_per_app = per_app(kSweepsPerAppPerS);
    shape.cast_aware_per_app = per_app(kCastAwarePerAppPerS);
    return shape;
}

std::vector<Arrival> arrival_schedule(std::uint64_t seed,
                                      const StreamShape& shape) {
    tp::util::Xoshiro256 rng{seed ^ kScheduleStream};
    const std::vector<std::string>& apps = tp::apps::app_names();
    const double log_lo = std::log10(kEpsLo);
    const double step =
        (std::log10(kEpsHi) - log_lo) / static_cast<double>(kEpsSteps - 1);

    // The stream is a sequence of rounds. In every round each app asks for
    // every requirement once, in a fixed order, and some rounds add one
    // sweep per app; the seed interleaves the apps' requests within the
    // round. Each app's engine therefore sees the same request sequence
    // on every seed (only its input sets differ), while the service sees
    // a different interleaving. Round 0 is the warm-up and carries the
    // cast-aware passes, whose large reports flush an app's cache once.
    const std::size_t rounds = std::max<std::size_t>(
        1, (shape.interactive_per_app + kEpsSteps - 1) / kEpsSteps);
    const std::size_t measured_rounds = rounds - 1;
    std::vector<std::size_t> sweeps_in_round(rounds, 0);
    for (std::size_t j = 0; j < shape.sweeps_per_app; ++j) {
        const std::size_t r =
            measured_rounds == 0
                ? 0
                : 1 + ((2 * j + 1) * measured_rounds) / (2 * shape.sweeps_per_app);
        ++sweeps_in_round[r];
    }

    std::vector<Arrival> schedule;
    for (std::size_t r = 0; r < rounds; ++r) {
        const bool warmup = r == 0;
        std::vector<std::vector<Arrival>> queue(apps.size());
        std::vector<std::size_t> labels;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            for (std::size_t k = 0; k < kEpsSteps; ++k) {
                const double eps =
                    std::pow(10.0, log_lo + step * static_cast<double>(k));
                queue[a].push_back(
                    Arrival{0.0, RequestKind::kInteractive, apps[a], eps, warmup});
            }
            for (std::size_t i = 0; i < sweeps_in_round[r]; ++i) {
                queue[a].push_back(
                    Arrival{0.0, RequestKind::kSweep, apps[a], 0.0, warmup});
            }
            for (std::size_t i = 0; warmup && i < shape.cast_aware_per_app; ++i) {
                queue[a].push_back(Arrival{0.0, RequestKind::kCastAware, apps[a],
                                           kCastAwareEpsilon, warmup});
            }
            labels.insert(labels.end(), queue[a].size(), a);
        }
        // Fisher-Yates with the portable generator (std::shuffle's use of
        // the engine is implementation-defined).
        for (std::size_t i = labels.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
            std::swap(labels[i - 1], labels[j]);
        }
        std::vector<std::size_t> next(apps.size(), 0);
        for (const std::size_t a : labels) schedule.push_back(queue[a][next[a]++]);
    }
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        schedule[i].due_s = static_cast<double>(i) / kRatePerS;
    }
    return schedule;
}

std::uint64_t schedule_digest(const std::vector<Arrival>& schedule) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const Arrival& a : schedule) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &a.due_s, sizeof bits);
        mix(h, bits);
        mix(h, static_cast<std::uint64_t>(a.kind));
        mix(h, a.warmup ? 1U : 0U);
        for (const char c : a.app) mix(h, static_cast<unsigned char>(c));
        std::memcpy(&bits, &a.epsilon, sizeof bits);
        mix(h, bits);
    }
    return h;
}

} // namespace pb
