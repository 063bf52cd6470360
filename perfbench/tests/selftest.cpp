// Self-tests of the benchmark: the traced run measures the same program,
// its layer times account for the traced wall, and the seed alone fixes
// the inputs. Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "apps/app.hpp"
#include "replay.hpp"
#include "schedule.hpp"
#include "timed_app.hpp"
#include "tuning/cast_aware.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"
#include "workloads.hpp"

namespace {

using tp::tuning::CastAwareResult;
using tp::tuning::EvalEngine;

constexpr std::uint64_t kSeed = 7;

std::unique_ptr<tp::apps::App> decorated(const std::string& name,
                                         std::shared_ptr<pb::AppLedger> ledger) {
    return std::make_unique<pb::TimedApp>(tp::apps::make_app(name), std::move(ledger));
}

tp::tuning::CastAwareOptions cast_options(const std::vector<unsigned>& sets) {
    tp::tuning::CastAwareOptions options;
    options.search.epsilon = 1e-2;
    options.search.input_sets = sets;
    options.cost_input_set = sets.front();
    return options;
}

void expect_same(const CastAwareResult& a, const CastAwareResult& b) {
    EXPECT_EQ(a.base, b.base);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.base_energy_pj, b.base_energy_pj);
    EXPECT_EQ(a.tuned_energy_pj, b.tuned_energy_pj);
    EXPECT_EQ(a.base_casts, b.base_casts);
    EXPECT_EQ(a.tuned_casts, b.tuned_casts);
    EXPECT_EQ(a.moves_accepted, b.moves_accepted);
    EXPECT_EQ(a.eval_stats, b.eval_stats);
}

std::map<std::string, double> metrics_of(const pb::WorkloadReport& report) {
    std::map<std::string, double> out;
    for (const pb::Metric& m : report.metrics) out[m.name] = m.value;
    return out;
}

pb::WorkloadReport traced_run(const std::string& workload) {
    return pb::run_workload(pb::RunOptions{workload, kSeed, 2.0, true});
}

// --- the decorator does not change what is measured -------------------------

TEST(TimedApp, SweepWithStaticBoundsIsBitIdentical) {
    const std::vector<unsigned> sets = pb::input_sets_for(kSeed, 0);
    tp::tuning::SearchOptions base;
    base.input_sets = sets;
    base.static_bounds = true;
    for (const std::string& name : tp::apps::app_names()) {
        SCOPED_TRACE(name);
        auto plain = tp::apps::make_app(name);
        auto timed = decorated(name, std::make_shared<pb::AppLedger>());
        EvalEngine plain_engine{*plain, {}};
        EvalEngine timed_engine{*timed, {}};
        EXPECT_EQ(tp::tuning::sweep_search(plain_engine, base, {1e-3, 1e-2, 1e-1}),
                  tp::tuning::sweep_search(timed_engine, base, {1e-3, 1e-2, 1e-1}));
        EXPECT_EQ(plain_engine.stats(), timed_engine.stats());
    }
}

TEST(TimedApp, CastAwareIsBitIdentical) {
    const std::vector<unsigned> sets = pb::input_sets_for(kSeed, 0);
    for (const std::string& name : tp::apps::app_names()) {
        SCOPED_TRACE(name);
        auto plain = tp::apps::make_app(name);
        auto timed = decorated(name, std::make_shared<pb::AppLedger>());
        expect_same(tp::tuning::cast_aware_search(*plain, cast_options(sets)),
                    tp::tuning::cast_aware_search(*timed, cast_options(sets)));
    }
}

TEST(TimedApp, BooksRunsToTheEnginesCounters) {
    // Kernel runs the engine makes land in trial_run / golden_run; the
    // static analysis' own runs land in derive_kernel / capture_run.
    const std::vector<unsigned> sets = pb::input_sets_for(kSeed, 0);
    auto ledger = std::make_shared<pb::AppLedger>();
    auto timed = decorated("pca", ledger);
    EvalEngine engine{*timed, {}};
    tp::tuning::SearchOptions base;
    base.input_sets = sets;
    base.static_bounds = true;
    (void)tp::tuning::sweep_search(engine, base, {1e-3, 1e-2, 1e-1});
    const tp::tuning::EvalStats stats = engine.stats();
    EXPECT_EQ(ledger->trial_run.calls, stats.kernel_runs);
    EXPECT_EQ(ledger->golden_run.calls, stats.golden_runs);
    EXPECT_EQ(ledger->analysis_clones, 3U); // one derive per epsilon
    EXPECT_EQ(ledger->capture_run.calls, 3U * sets.size());
    EXPECT_TRUE(ledger->traced.empty());
}

// --- the replay reproduces the library's simulation -------------------------

TEST(Replay, AssembledReportEqualsSimulate) {
    const std::vector<unsigned> sets = pb::input_sets_for(kSeed, 0);
    for (const std::string name : {"pca", "svm", "jacobi"}) {
        SCOPED_TRACE(name);
        auto ledger = std::make_shared<pb::AppLedger>();
        auto timed = decorated(name, ledger);
        (void)tp::tuning::cast_aware_search(*timed, cast_options(sets));
        ASSERT_FALSE(ledger->traced.empty());
        auto plain = tp::apps::make_app(name);
        const pb::SimLayers layers =
            pb::replay_sim(*plain, ledger->traced, 0.0, /*verify=*/true);
        EXPECT_TRUE(layers.reports_match);
        EXPECT_EQ(layers.vectorize.calls, ledger->traced.size());
        EXPECT_GT(layers.region_count, 0U);
    }
}

// --- layer times account for the traced wall --------------------------------

void expect_layers_add_up(const pb::WorkloadReport& report) {
    ASSERT_EQ(report.failed, 0U);
    const auto m = metrics_of(report);
    double covered = 0.0;
    for (const char* name :
         {"apps.prepare.busy_s", "apps.trial_run.busy_s", "apps.golden_run.busy_s",
          "sim.traced_run.busy_s", "sim.vectorize.busy_s", "sim.regions.busy_s",
          "sim.pipeline.busy_s", "sim.assemble.busy_s", "analysis.capture.busy_s",
          "analysis.derive.busy_s", "analysis.region_impact.busy_s"}) {
        ASSERT_EQ(m.count(name), 1U) << name;
        EXPECT_GE(m.at(name), 0.0) << name;
        covered += m.at(name);
    }
    const double wall = report.traced_wall_s;
    const double residual = m.at("search.residual_s");
    EXPECT_NEAR(covered + residual, wall, 1e-9 * wall);
    // Spans lie inside the wall; the replayed ones are estimates, so allow
    // a little overshoot, but the spans must explain most of the wall.
    EXPECT_GT(residual, -0.05 * wall);
    EXPECT_LT(residual, 0.25 * wall);
}

TEST(Layers, AddUpToTracedWallOnTuneSweep) {
    const pb::WorkloadReport report = traced_run("tune_sweep");
    expect_layers_add_up(report);
    const auto m = metrics_of(report);
    EXPECT_EQ(m.at("analysis.derive.calls"), 27.0); // 9 apps x 3 epsilons
    EXPECT_EQ(m.at("apps.trial_run.calls"), m.at("engine.kernel_runs"));
}

TEST(Layers, AddUpToTracedWallOnCastAware) {
    const pb::WorkloadReport report = traced_run("cast_aware");
    expect_layers_add_up(report);
    const auto m = metrics_of(report);
    EXPECT_GT(m.at("sim.vectorize.busy_s"), 0.0);
    EXPECT_EQ(m.at("analysis.derive.calls"), 0.0);
}

TEST(Layers, AddUpToTracedWallOnServiceStream) {
    const pb::WorkloadReport report = traced_run("service_stream");
    expect_layers_add_up(report);
    EXPECT_GT(metrics_of(report).at("svc.service_s_p50"), 0.0);
}

// --- seed handling ------------------------------------------------------------

TEST(Seed, SameSeedSameInputsDifferentSeedDifferentInputs) {
    const pb::StreamShape shape = pb::stream_shape(10.0);
    const auto a = pb::arrival_schedule(kSeed, shape);
    const auto b = pb::arrival_schedule(kSeed, shape);
    const auto c = pb::arrival_schedule(kSeed + 1, shape);
    EXPECT_EQ(pb::schedule_digest(a), pb::schedule_digest(b));
    EXPECT_NE(pb::schedule_digest(a), pb::schedule_digest(c));
    ASSERT_EQ(a.size(), c.size()); // the mix is fixed, the order is not
    EXPECT_EQ(pb::input_sets_for(kSeed, 0), pb::input_sets_for(kSeed, 0));
    EXPECT_NE(pb::input_sets_for(kSeed, 0), pb::input_sets_for(kSeed + 1, 0));
    EXPECT_NE(pb::input_sets_for(kSeed, 0), pb::input_sets_for(kSeed, 1));
}

TEST(Seed, ScheduleHasTheFixedMix) {
    const pb::StreamShape shape = pb::stream_shape(10.0);
    std::map<std::pair<std::string, pb::RequestKind>, std::size_t> count;
    double last_due = 0.0;
    for (const pb::Arrival& a : pb::arrival_schedule(kSeed, shape)) {
        ++count[{a.app, a.kind}];
        EXPECT_GE(a.due_s, last_due);
        last_due = a.due_s;
        if (a.kind == pb::RequestKind::kInteractive) {
            EXPECT_GE(a.epsilon, 1e-3 * (1 - 1e-12));
            EXPECT_LE(a.epsilon, 1e-1 * (1 + 1e-12));
        }
    }
    for (const std::string& app : tp::apps::app_names()) {
        EXPECT_EQ((count[{app, pb::RequestKind::kInteractive}]), shape.interactive_per_app);
        EXPECT_EQ((count[{app, pb::RequestKind::kSweep}]), shape.sweeps_per_app);
        EXPECT_EQ((count[{app, pb::RequestKind::kCastAware}]), shape.cast_aware_per_app);
    }
}

} // namespace
