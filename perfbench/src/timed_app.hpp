// In-place spans around the app layer, recorded from outside the library.
//
// TimedApp decorates an apps::App: it forwards clone/prepare/run and times
// each call. EvalEngine snapshots its prototype with clone(), and every
// clone of a TimedApp is a TimedApp sharing the prototype's ledger, so the
// library's real searches run through the decorator unchanged — results
// are bit-identical to the plain app's (tests/selftest.cpp).
//
// Each run is booked by the context it executes in:
//   * binary64 shadow (a static-analysis capture)  -> capture_run
//   * traced (the platform model needs the trace)  -> traced_run, and the
//     (input set, binding) is kept so the replay (replay.hpp) can time the
//     sim layers the library runs on the trace afterwards
//   * untraced, every signal binary64              -> golden_run
//   * untraced otherwise                           -> trial_run
// A clone whose first run is a shadow capture belongs to the static
// analysis (analysis::derive_warm_start clones the prototype and captures
// first; engine clones always run a trial, golden or traced run first):
// its prepares and non-shadow runs are booked to `derive_kernel` instead.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "apps/app.hpp"

namespace pb {

/// Call count and busy time of one span kind.
struct Span {
    std::size_t calls = 0;
    double busy_s = 0.0;

    void add(double seconds) noexcept {
        ++calls;
        busy_s += seconds;
    }
    Span& operator+=(const Span& other) noexcept {
        calls += other.calls;
        busy_s += other.busy_s;
        return *this;
    }
};

/// One traced kernel run, as the replay needs it.
struct TracedRun {
    unsigned input_set = 0;
    tp::apps::TypeConfig config;
    bool from_engine = true; // an EvalEngine report, not a bench simulation
};

/// Everything the decorators of one app saw. Shared by a TimedApp and all
/// its clones; every member is guarded by `mutex`.
struct AppLedger {
    std::mutex mutex;
    Span prepare;     // prepare() on engine / benchmark instances
    Span trial_run;
    Span golden_run;
    Span traced_run;
    Span capture_run;   // every shadow run
    Span derive_kernel; // prepares + other runs on static-analysis clones
    std::size_t analysis_clones = 0;
    std::vector<TracedRun> traced;
    /// Input set of each shadow run on an engine instance (the region
    /// impact captures of EvalEngine::report_delta).
    std::vector<unsigned> impact_captures;

    /// Drops everything recorded so far.
    void reset();
};

/// Marks the traced runs the benchmark itself starts (bench::simulate_app)
/// on the current thread, so the replay costs their regions in full rather
/// than as an engine's delta-costed probe. RAII; restores the previous
/// marking.
class BenchSimulation {
public:
    BenchSimulation();
    ~BenchSimulation();
    BenchSimulation(const BenchSimulation&) = delete;
    BenchSimulation& operator=(const BenchSimulation&) = delete;

private:
    bool previous_;
};

class TimedApp final : public tp::apps::App {
public:
    TimedApp(std::unique_ptr<tp::apps::App> inner,
             std::shared_ptr<AppLedger> ledger);

    [[nodiscard]] std::string_view name() const override {
        return inner_->name();
    }
    [[nodiscard]] std::unique_ptr<tp::apps::App> clone() const override;
    void prepare(unsigned input_set) override;
    std::vector<double> run(tp::sim::TpContext& ctx,
                            const tp::apps::TypeConfig& config) override;

private:
    enum class Role { kUnknown, kEngine, kAnalysis };

    TimedApp(const TimedApp& other);

    std::unique_ptr<tp::apps::App> inner_;
    std::shared_ptr<AppLedger> ledger_;
    unsigned input_set_ = 0;
    Role role_ = Role::kUnknown;
    Span pending_prepare_; // booked once the role is known
};

} // namespace pb
