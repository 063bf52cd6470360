// Wall-clock helpers shared by the benchmark's sources.
#pragma once

#include <chrono>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

inline double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

} // namespace pb
