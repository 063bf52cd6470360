#include "timed_app.hpp"

#include <algorithm>

#include "clock.hpp"

namespace pb {

namespace {

thread_local bool t_bench_simulation = false;

bool all_binary64(const tp::apps::TypeConfig& config) {
    return std::all_of(config.formats().begin(), config.formats().end(),
                       [](tp::FpFormat f) { return f == tp::kBinary64; });
}

} // namespace

void AppLedger::reset() {
    const std::lock_guard<std::mutex> lock{mutex};
    prepare = trial_run = golden_run = traced_run = capture_run = derive_kernel = {};
    analysis_clones = 0;
    traced.clear();
    impact_captures.clear();
}

BenchSimulation::BenchSimulation() : previous_(t_bench_simulation) {
    t_bench_simulation = true;
}

BenchSimulation::~BenchSimulation() { t_bench_simulation = previous_; }

TimedApp::TimedApp(std::unique_ptr<tp::apps::App> inner,
                   std::shared_ptr<AppLedger> ledger)
    : App(inner->signals()), inner_(std::move(inner)), ledger_(std::move(ledger)) {}

// Shares the signal table (App's copy) and the ledger; the inner app is
// deep-copied like any clone.
TimedApp::TimedApp(const TimedApp& other)
    : App(other),
      inner_(other.inner_->clone()),
      ledger_(other.ledger_),
      input_set_(other.input_set_) {}

std::unique_ptr<tp::apps::App> TimedApp::clone() const {
    return std::unique_ptr<TimedApp>(new TimedApp(*this));
}

void TimedApp::prepare(unsigned input_set) {
    const Clock::time_point t0 = Clock::now();
    inner_->prepare(input_set);
    const double dt = seconds_between(t0, Clock::now());
    input_set_ = input_set;
    if (role_ == Role::kUnknown) {
        // The role is decided by the first run; hold the time until then.
        pending_prepare_.add(dt);
        return;
    }
    const std::lock_guard<std::mutex> lock{ledger_->mutex};
    (role_ == Role::kAnalysis ? ledger_->derive_kernel : ledger_->prepare)
        .add(dt);
}

std::vector<double> TimedApp::run(tp::sim::TpContext& ctx,
                                  const tp::apps::TypeConfig& config) {
    const Clock::time_point t0 = Clock::now();
    std::vector<double> out = inner_->run(ctx, config);
    const double dt = seconds_between(t0, Clock::now());

    const std::lock_guard<std::mutex> lock{ledger_->mutex};
    if (role_ == Role::kUnknown) {
        role_ = ctx.shadow() ? Role::kAnalysis : Role::kEngine;
        if (role_ == Role::kAnalysis) ++ledger_->analysis_clones;
        (role_ == Role::kAnalysis ? ledger_->derive_kernel : ledger_->prepare) +=
            pending_prepare_;
        pending_prepare_ = {};
    }
    if (ctx.shadow()) {
        ledger_->capture_run.add(dt);
        if (role_ == Role::kEngine) {
            ledger_->impact_captures.push_back(input_set_);
        }
    } else if (role_ == Role::kAnalysis) {
        ledger_->derive_kernel.add(dt);
    } else if (ctx.tracing()) {
        ledger_->traced_run.add(dt);
        ledger_->traced.push_back(TracedRun{input_set_, config, !t_bench_simulation});
    } else if (all_binary64(config)) {
        ledger_->golden_run.add(dt);
    } else {
        ledger_->trial_run.add(dt);
    }
    return out;
}

} // namespace pb
