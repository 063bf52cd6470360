// Supports the paper's Section III-A performance claim: FlexFloat's
// compute-on-native-then-re-round strategy "produces binaries that are
// fast to execute", unlike SoftFloat-style emulation which performs every
// operation in (integer) software. Since the arithmetic-backend seam
// (flexfloat/arith_backend.hpp) landed, hardware-mappable formats
// additionally re-round with one FPU conversion instead of the integer
// sanitize; this bench measures all three tiers — raw hardware FP, the
// FlexFloat fast path, and the forced-emulated path — plus softfloat, on
// two micro-kernels:
//
//   dot — accumulating dot product; a serial dependence through the
//         accumulator makes it LATENCY-bound, the worst case for the extra
//         convert in the fast path's add chain;
//   map — independent per-element fma-shaped update (out = x * y + x)
//         into a persistent output vector; THROUGHPUT-bound, where the
//         fast path's per-op cost shows directly.
//
// Harness-based (no Google Benchmark dependency — ROADMAP open item):
// each kernel is warmed up once, then re-run until a minimum wall time has
// accumulated; the per-element time is total elapsed over total elements.
// Results are printed and written to BENCH_flexfloat_overhead.json (CI
// artifact), including each series' resolved backend and the fast path's
// speedup over forced emulation.
//
// A second section, app_kernels, times what those per-op costs add up to
// in the tuning loop: the median wall time of one untraced App::run (the
// compute-only path of sim/context.hpp — every tuning trial is one) per
// registered app, on uniform binary32 and on the app's epsilon = 1e-2
// tuned binding (V2 type system, three input sets), workload preparation
// excluded. It is the per-app kernel-time record speedup work is checked
// against.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "flexfloat/arith_backend.hpp"
#include "flexfloat/flexfloat.hpp"
#include "flexfloat/flexfloat_dyn.hpp"
#include "harness.hpp"
#include "json.hpp"
#include "sim/context.hpp"
#include "softfloat/softfloat.hpp"
#include "tuning/search.hpp"
#include "types/type_system.hpp"
#include "util/random.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kN = 1024;
/// Each kernel is timed for at least this long; long enough to swamp the
/// clock granularity, short enough that the slowest backend (softfloat,
/// ~40x native) keeps the bench under a few seconds.
constexpr double kMinSeconds = 0.05;

/// Defeats dead-code elimination of the measured loops without an
/// optimizer-visible data dependency on the timing path.
volatile double g_sink = 0.0;

/// Tells the optimizer "memory was read here", so stores into the map
/// kernels' output vectors cannot be dropped.
inline void clobber_memory() { asm volatile("" ::: "memory"); }

std::vector<double> make_inputs(std::uint64_t seed) {
    tp::util::Xoshiro256 rng{seed};
    std::vector<double> xs(kN);
    for (double& x : xs) x = rng.uniform(0.5, 2.0);
    return xs;
}

struct Measurement {
    std::string series;  // e.g. "flexfloat_binary32"
    std::string kernel;  // "dot" | "map"
    std::string backend; // resolved: "hardware", "native_f32", "emulated", ...
    double ns_per_element = 0.0;
    double speedup_vs_emulated = 0.0; // fast path vs its forced twin; 0 = n/a
    std::size_t iterations = 0;
};

/// Runs `kernel` (one pass over kN elements returning a result double)
/// until kMinSeconds has elapsed and reports ns per element.
template <typename Kernel>
Measurement measure(std::string series, std::string kernel_name,
                    std::string backend, Kernel kernel) {
    g_sink = kernel(); // warm-up: faults, caches, lazy init
    std::size_t iterations = 0;
    double elapsed = 0.0;
    const auto start = Clock::now();
    do {
        g_sink = kernel();
        ++iterations;
        elapsed = tp::bench::seconds_since(start);
    } while (elapsed < kMinSeconds);
    Measurement m;
    m.series = std::move(series);
    m.kernel = std::move(kernel_name);
    m.backend = std::move(backend);
    m.iterations = iterations;
    m.ns_per_element =
        1e9 * elapsed / (static_cast<double>(iterations) * static_cast<double>(kN));
    return m;
}

/// Measures `kernel` on the resolved backend and again under a forced
/// emulated scope, records the speedup on the fast series, and appends
/// both measurements.
template <typename Kernel>
void measure_both_backends(std::vector<Measurement>& results,
                           const std::string& series,
                           const std::string& kernel_name, tp::FpFormat format,
                           Kernel kernel) {
    Measurement emulated;
    {
        const tp::arith::ScopedForceEmulated scope;
        emulated = measure(series + "_forced_emulated", kernel_name,
                           "emulated", kernel);
    }
    Measurement fast =
        measure(series, kernel_name,
                std::string{tp::name_of(tp::arith::resolve(format))}, kernel);
    fast.speedup_vs_emulated = emulated.ns_per_element / fast.ns_per_element;
    results.push_back(std::move(fast));
    results.push_back(std::move(emulated));
}

// --- raw hardware FP (the speed-of-light reference) -------------------------

template <typename T>
void measure_raw_native(std::vector<Measurement>& results,
                        const std::string& series,
                        const std::vector<double>& xs,
                        const std::vector<double>& ys) {
    std::vector<T> fx(kN), fy(kN), out(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        fx[i] = static_cast<T>(xs[i]);
        fy[i] = static_cast<T>(ys[i]);
    }
    results.push_back(measure(series, "dot", "hardware", [&fx, &fy] {
        T acc{};
        for (std::size_t i = 0; i < kN; ++i) acc += fx[i] * fy[i];
        return static_cast<double>(acc);
    }));
    results.push_back(measure(series, "map", "hardware", [&fx, &fy, &out] {
        for (std::size_t i = 0; i < kN; ++i) out[i] = fx[i] * fy[i] + fx[i];
        clobber_memory();
        return static_cast<double>(out[kN - 1]);
    }));
}

// --- flexfloat<E, M>: fast path vs forced emulation -------------------------

template <int E, int M>
void measure_flexfloat(std::vector<Measurement>& results, const char* name,
                       const std::vector<double>& xs,
                       const std::vector<double>& ys) {
    using FF = tp::flexfloat<E, M>;
    std::vector<FF> fx(kN), fy(kN), out(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        fx[i] = xs[i];
        fy[i] = ys[i];
    }
    const std::string series = std::string{"flexfloat_"} + name;
    measure_both_backends(results, series, "dot", FF::format(), [&fx, &fy] {
        FF acc = 0.0;
        for (std::size_t i = 0; i < kN; ++i) acc += fx[i] * fy[i];
        return static_cast<double>(acc);
    });
    measure_both_backends(results, series, "map", FF::format(),
                          [&fx, &fy, &out] {
                              for (std::size_t i = 0; i < kN; ++i) {
                                  out[i] = fx[i] * fy[i] + fx[i];
                              }
                              clobber_memory();
                              return static_cast<double>(out[kN - 1]);
                          });
}

void measure_flexfloat_dyn(std::vector<Measurement>& results,
                           const std::vector<double>& xs,
                           const std::vector<double>& ys) {
    std::vector<tp::FlexFloatDyn> fx, fy, out;
    for (std::size_t i = 0; i < kN; ++i) {
        fx.emplace_back(xs[i], tp::kBinary16);
        fy.emplace_back(ys[i], tp::kBinary16);
        out.emplace_back(0.0, tp::kBinary16);
    }
    measure_both_backends(results, "flexfloat_dyn_binary16", "dot",
                          tp::kBinary16, [&fx, &fy] {
                              tp::FlexFloatDyn acc{0.0, tp::kBinary16};
                              for (std::size_t i = 0; i < kN; ++i) {
                                  acc += fx[i] * fy[i];
                              }
                              return acc.value();
                          });
    measure_both_backends(results, "flexfloat_dyn_binary16", "map",
                          tp::kBinary16, [&fx, &fy, &out] {
                              for (std::size_t i = 0; i < kN; ++i) {
                                  out[i] = fx[i] * fy[i] + fx[i];
                              }
                              clobber_memory();
                              return out[kN - 1].value();
                          });
}

void measure_softfloat(std::vector<Measurement>& results,
                       const std::vector<double>& xs,
                       const std::vector<double>& ys) {
    const tp::FpFormat f = tp::kBinary16;
    std::vector<std::uint64_t> fx(kN), fy(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        fx[i] = tp::encode(xs[i], f);
        fy[i] = tp::encode(ys[i], f);
    }
    results.push_back(measure("softfloat_binary16", "dot", "softfloat",
                              [&fx, &fy, f] {
                                  std::uint64_t acc = 0;
                                  for (std::size_t i = 0; i < kN; ++i) {
                                      acc = tp::softfloat::add(
                                          acc, tp::softfloat::mul(fx[i], fy[i], f),
                                          f);
                                  }
                                  return tp::decode(acc, f);
                              }));
}

// --- whole-app kernels: untraced App::run ------------------------------------

/// Each app kernel is timed for at least this long and at least
/// kMinKernelRuns times; the median run is reported.
constexpr double kMinKernelSeconds = 0.1;
constexpr std::size_t kMinKernelRuns = 11;

struct KernelTiming {
    std::string app;
    std::string binding; // "binary32" | "tuned_eps1e-2"
    double median_us = 0.0;
    std::size_t runs = 0;
};

KernelTiming time_kernel(tp::apps::App& app, const std::string& binding,
                         const tp::apps::TypeConfig& config) {
    const auto run_once = [&app, &config] {
        app.prepare(0);
        tp::sim::TpContext ctx{tp::sim::TpContext::Config{.trace = false}};
        const auto start = Clock::now();
        const std::vector<double> out = app.run(ctx, config);
        const double seconds = tp::bench::seconds_since(start);
        g_sink = out.empty() ? 0.0 : out.front();
        return seconds;
    };
    (void)run_once(); // warm-up
    std::vector<double> samples;
    double total = 0.0;
    while (total < kMinKernelSeconds || samples.size() < kMinKernelRuns) {
        samples.push_back(run_once());
        total += samples.back();
    }
    const auto mid =
        samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    return KernelTiming{std::string{app.name()}, binding, 1e6 * *mid,
                        samples.size()};
}

std::vector<KernelTiming> measure_app_kernels() {
    std::vector<KernelTiming> timings;
    for (const std::string& name : tp::apps::app_names()) {
        auto app = tp::apps::make_app(name);
        auto options =
            tp::bench::bench_search_options(1e-2, tp::TypeSystemKind::V2);
        options.static_bounds = true; // same binding, fewer trials
        const tp::apps::TypeConfig tuned =
            tp::tuning::distributed_search(*app, options).type_config();
        timings.push_back(
            time_kernel(*app, "binary32", app->uniform_config(tp::kBinary32)));
        timings.push_back(time_kernel(*app, "tuned_eps1e-2", tuned));
    }
    return timings;
}

} // namespace

int main() {
    const auto xs = make_inputs(1);
    const auto ys = make_inputs(2);

    std::vector<Measurement> results;
    measure_raw_native<double>(results, "native_double", xs, ys);
    measure_raw_native<float>(results, "native_float", xs, ys);
#if TP_NATIVE_F16
    measure_raw_native<_Float16>(results, "native_float16", xs, ys);
#endif
    measure_flexfloat<11, 52>(results, "binary64", xs, ys);
    measure_flexfloat<8, 23>(results, "binary32", xs, ys);
    measure_flexfloat<5, 10>(results, "binary16", xs, ys);
    measure_flexfloat<8, 7>(results, "binary16alt", xs, ys);
    measure_flexfloat<5, 2>(results, "binary8", xs, ys);
    measure_flexfloat_dyn(results, xs, ys);
    measure_softfloat(results, xs, ys);

    // The classic reference point: raw single-precision hardware, per kernel.
    const auto native_ns = [&results](const std::string& kernel) {
        for (const Measurement& m : results) {
            if (m.series == "native_float" && m.kernel == kernel) {
                return m.ns_per_element;
            }
        }
        return 0.0;
    };

    std::printf("# FlexFloat emulation overhead — %zu-element kernels, "
                "min %.0f ms per series\n",
                kN, 1e3 * kMinSeconds);
    std::printf("# dot = latency-bound accumulation, map = throughput-bound "
                "element-wise mul+add\n\n");
    std::printf("%-36s %-4s %12s %11s %11s  %s\n", "series", "krnl",
                "ns/element", "vs native", "vs emul", "backend");
    auto backends = tp::bench::Json::array();
    for (const Measurement& m : results) {
        const double slowdown = m.ns_per_element / native_ns(m.kernel);
        char speedup[32] = "-";
        if (m.speedup_vs_emulated > 0.0) {
            std::snprintf(speedup, sizeof speedup, "%.2fx",
                          m.speedup_vs_emulated);
        }
        std::printf("%-36s %-4s %12.2f %10.1fx %11s  %s\n", m.series.c_str(),
                    m.kernel.c_str(), m.ns_per_element, slowdown, speedup,
                    m.backend.c_str());
        auto entry = tp::bench::Json::object()
                         .field("series", m.series)
                         .field("kernel", m.kernel)
                         .field("resolved_backend", m.backend)
                         .field("ns_per_element", m.ns_per_element)
                         .field("slowdown_vs_native_float", slowdown)
                         .field("iterations", m.iterations);
        if (m.speedup_vs_emulated > 0.0) {
            entry.field("speedup_vs_emulated", m.speedup_vs_emulated);
        }
        backends.item_raw(entry.str(2));
    }

    std::printf("\n# untraced App::run, median per run (input set 0, "
                "min %.0f ms and %zu runs per row)\n\n",
                1e3 * kMinKernelSeconds, kMinKernelRuns);
    std::printf("%-8s %-14s %12s %6s\n", "app", "binding", "median_us",
                "runs");
    auto kernels = tp::bench::Json::array();
    for (const KernelTiming& t : measure_app_kernels()) {
        std::printf("%-8s %-14s %12.1f %6zu\n", t.app.c_str(),
                    t.binding.c_str(), t.median_us, t.runs);
        kernels.item_raw(tp::bench::Json::object()
                             .field("app", t.app)
                             .field("binding", t.binding)
                             .field("median_run_us", t.median_us)
                             .field("runs", t.runs)
                             .str(2));
    }

    const auto doc = tp::bench::Json::object()
                         .field("bench", "bench_flexfloat_overhead")
                         .field("elements", kN)
                         .field("min_seconds_per_series", kMinSeconds)
                         .field("native_f16_available", bool(TP_NATIVE_F16))
                         .raw("backends", backends.str(2))
                         .raw("app_kernels", kernels.str(2))
                         .str();
    std::ofstream out{"BENCH_flexfloat_overhead.json"};
    out << doc << "\n";
    std::printf("\nwrote BENCH_flexfloat_overhead.json\n");
    return 0;
}
