#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "clock.hpp"
#include "harness.hpp"
#include "json.hpp"
#include "replay.hpp"
#include "timed_app.hpp"
#include "tuning/cast_aware.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"
#include "tuning/service.hpp"
#include "util/statistics.hpp"

namespace pb {

namespace {

using tp::apps::App;
using tp::tuning::CastAwareResult;
using tp::tuning::EvalEngine;
using tp::tuning::EvalStats;
using tp::tuning::TuningResult;
using tp::util::geometric_mean;

// --- fixed workload parameters ---------------------------------------------
// Constants, not measurements: a commit under test and its parent see the
// same work whatever their speed.

/// Passes a run makes per second of --seconds (at least kMinPasses).
constexpr double kTuneSweepPassesPerSecond = 0.5;
constexpr double kCastAwarePassesPerSecond = 0.4;
constexpr std::size_t kMinPasses = 3;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Latency limits of within_slo_frac: a pass workload's nine requests
/// from the pass start, a service interactive request from its due time.
/// The service's limit lies between the two modes of its latencies: a
/// request served from the cache is answered in about 0.2 ms (95% within
/// 0.5 ms), one that searches takes several ms. The share inside is
/// therefore steady (about 0.77) and falls by more than its bound once a
/// hit's latency grows about fourfold (perfbench/METRICS.md). The pass
/// limit sits far above any pass seen (1.0-1.1 s, 2.8 s on a host slowed
/// 2.5-fold): a pass near it would flip the reading between 8/9 and 1.
constexpr double kPassSlo_s = 10.0;
constexpr double kInteractiveSlo_s = 1e-3;
/// The service: sub-streams per run (each with its own input sets and a
/// fresh service, so one run averages over several inputs), workers and
/// per-app cache budget. The stream's rate and mix are in schedule.cpp.
constexpr std::size_t kServiceStreams = 3;
constexpr unsigned kServiceWorkers = 3;
constexpr std::size_t kServiceCacheBudgetBytes = 1024 * 1024;

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

constexpr double kPercentiles[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// Nearest-rank index of percentile `p` among `n` sorted samples.
std::size_t rank_index(double p, std::size_t n) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return rank == 0 ? 0 : rank - 1;
}

/// The highest of a few standard percentiles that still has at least ten
/// of `n` samples beyond it (the median when none has).
double tail_percentile(std::size_t n) {
    for (const double p : kPercentiles) {
        if (n - (rank_index(p, n) + 1) >= 10) return p;
    }
    return 50.0;
}

double percentile(std::vector<double> xs, double p) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    return xs[rank_index(p, xs.size())];
}

/// Geometric mean over apps of each app's percentile `p`. App latencies
/// differ by orders of magnitude, so a percentile of the pooled samples
/// sits in the gap between two apps' clusters and jumps between them from
/// run to run; this aggregate moves smoothly with every app.
double app_geomean_of(const std::vector<std::vector<double>>& per_app, double p) {
    std::vector<double> values;
    for (const auto& xs : per_app) {
        if (!xs.empty()) values.push_back(percentile(xs, p));
    }
    return values.empty() ? 0.0 : geometric_mean(values);
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Counts operations and output checks, and keeps the first failures.
struct Outcomes {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        if (failures.size() < 20) failures.push_back(what);
    }
};

bool same_cast_result(const CastAwareResult& a, const CastAwareResult& b) {
    // eval_stats depends on the cache state the pass ran against; every
    // other field is part of the determinism contract.
    return a.base == b.base && a.config == b.config &&
           a.base_energy_pj == b.base_energy_pj &&
           a.tuned_energy_pj == b.tuned_energy_pj &&
           a.base_casts == b.base_casts && a.tuned_casts == b.tuned_casts &&
           a.moves_accepted == b.moves_accepted;
}

tp::tuning::CastAwareOptions cast_options(double epsilon,
                                          const std::vector<unsigned>& sets) {
    tp::tuning::CastAwareOptions options;
    options.search.epsilon = epsilon;
    options.search.input_sets = sets;
    options.cost_input_set = sets.front();
    return options;
}

/// Every tuned binding meets its epsilon on every input set, checked on a
/// private engine with memoization off.
bool meets_everywhere(const App& app, const tp::apps::TypeConfig& config,
                      double epsilon, const std::vector<unsigned>& sets) {
    EvalEngine checker{app, EvalEngine::Options{.threads = 1, .memoize = false}};
    return std::all_of(sets.begin(), sets.end(), [&](unsigned set) {
        return checker.meets(set, config, epsilon);
    });
}

struct Ratios {
    std::vector<double> energy;
    std::vector<double> cycles;
    std::vector<double> mem_accesses;

    void add(const tp::sim::RunReport& tuned, const tp::sim::RunReport& base) {
        energy.push_back(tuned.energy.total() / base.energy.total());
        cycles.push_back(static_cast<double>(tuned.cycles) /
                         static_cast<double>(base.cycles));
        mem_accesses.push_back(static_cast<double>(tuned.mem_accesses) /
                               static_cast<double>(base.mem_accesses));
    }
};

std::vector<std::unique_ptr<App>> decorate(
    const std::vector<std::unique_ptr<App>>& apps,
    std::vector<std::shared_ptr<AppLedger>>& ledgers) {
    std::vector<std::unique_ptr<App>> out;
    ledgers.clear();
    for (const auto& app : apps) {
        ledgers.push_back(std::make_shared<AppLedger>());
        out.push_back(std::make_unique<TimedApp>(app->clone(), ledgers.back()));
    }
    return out;
}

/// Latency samples of one run, per app (setup.apps order).
struct Latencies {
    std::vector<std::vector<double>> interactive;
    std::vector<std::vector<double>> sweep_class;
    std::size_t interactive_failed = 0; // count as misses of the limit
    /// Tail over the pooled samples (pass workloads: a few samples per app
    /// but smooth completion times) or per app (the service).
    bool pooled_tail = false;

    Latencies(std::size_t apps, bool pooled)
        : interactive(apps), sweep_class(apps), pooled_tail(pooled) {}
};

/// The highest interactive percentile with at least ten samples beyond it:
/// over the pooled samples, or per app and then the geometric mean.
double interactive_tail(const Latencies& lat, tp::bench::Json& info) {
    std::vector<double> pooled;
    std::size_t fewest = 0;
    for (const auto& xs : lat.interactive) {
        pooled.insert(pooled.end(), xs.begin(), xs.end());
        if (!xs.empty() && (fewest == 0 || xs.size() < fewest)) fewest = xs.size();
    }
    const double p = tail_percentile(lat.pooled_tail ? pooled.size() : fewest);
    info.field("interactive_tail_percentile", p)
        .field("interactive_tail_over", lat.pooled_tail ? "pooled samples" : "each app");
    return lat.pooled_tail ? percentile(pooled, p) : app_geomean_of(lat.interactive, p);
}

// --- per-layer accounting ---------------------------------------------------

/// Share of the delta-costed regions that were spliced rather than re-costed.
double splice_frac_of(const EvalStats& s) {
    const std::size_t total = s.regions_recosted + s.regions_skipped_by_impact;
    return total == 0 ? 0.0
                      : static_cast<double>(s.regions_skipped_by_impact) /
                            static_cast<double>(total);
}

/// Everything a traced run learned about the layers, summed over apps.
struct LayerTotals {
    Span prepare;
    Span trial_run;
    Span golden_run;
    Span traced_run;
    Span capture_run;
    Span derive_kernel;
    std::size_t derive_calls = 0;
    SimLayers sim;
    Span derive_rest;
    ImpactLayers impact;
    EvalStats engine;
    std::size_t cache_bytes_peak = 0;
    std::size_t program_runs = 0;
    double traced_wall_s = 0.0;   // the traced work the spans cover
    double trace_overhead_frac = 0.0; // traced vs untraced wall, less one
    // service only
    double queue_depth_max = 0.0;
    double queue_depth_mean = 0.0;
    double service_s_p50 = 0.0;
    double queue_wait_s_p50 = 0.0;
    double queue_wait_s_tail = 0.0;
    double request_hit_rate = 0.0;
    double generator_lag_s_max = 0.0;
    // latencies of the untraced work (see Latencies)
    double interactive_p50_s = 0.0;
    double interactive_tail_s = 0.0;
    double sweep_class_p50_s = 0.0;

    void set_latencies(const Latencies& lat, tp::bench::Json& info) {
        interactive_p50_s = app_geomean_of(lat.interactive, 50.0);
        interactive_tail_s = interactive_tail(lat, info);
        sweep_class_p50_s = app_geomean_of(lat.sweep_class, 50.0);
    }

    void add_in_place(AppLedger& ledger) {
        const std::lock_guard<std::mutex> lock{ledger.mutex};
        prepare += ledger.prepare;
        trial_run += ledger.trial_run;
        golden_run += ledger.golden_run;
        traced_run += ledger.traced_run;
        capture_run += ledger.capture_run;
        derive_kernel += ledger.derive_kernel;
        derive_calls += ledger.analysis_clones;
    }

    void add_sim(const SimLayers& s) {
        sim.handoff += s.handoff;
        sim.vectorize += s.vectorize;
        sim.regions += s.regions;
        sim.pipeline += s.pipeline;
        sim.assemble += s.assemble;
        sim.trace_instrs += s.trace_instrs;
        sim.simd_instrs += s.simd_instrs;
        sim.region_count += s.region_count;
    }

    void add_impact(const ImpactLayers& i) {
        impact.capture_handoff += i.capture_handoff;
        impact.build += i.build;
    }

    /// Busy time of every span, in-place and replayed; with the residual
    /// it adds up to the traced wall.
    [[nodiscard]] double covered_s() const {
        return prepare.busy_s + trial_run.busy_s + golden_run.busy_s +
               traced_run.busy_s + sim.handoff.busy_s + sim.vectorize.busy_s +
               sim.regions.busy_s + sim.pipeline.busy_s + sim.assemble.busy_s +
               capture_run.busy_s + impact.capture_handoff.busy_s +
               derive_kernel.busy_s + derive_rest.busy_s + impact.build.busy_s;
    }

    [[nodiscard]] std::vector<Metric> metrics(double ops_failed_frac) const {
        const auto count = [](std::size_t n) { return static_cast<double>(n); };
        return {
            {"apps.prepare.calls", count(prepare.calls), "count"},
            {"apps.prepare.busy_s", prepare.busy_s, "s"},
            {"apps.trial_run.calls", count(trial_run.calls), "count"},
            {"apps.trial_run.busy_s", trial_run.busy_s, "s"},
            {"apps.golden_run.calls", count(golden_run.calls), "count"},
            {"apps.golden_run.busy_s", golden_run.busy_s, "s"},
            {"sim.traced_run.calls", count(traced_run.calls), "count"},
            {"sim.traced_run.busy_s", traced_run.busy_s + sim.handoff.busy_s, "s"},
            {"sim.trace.instrs", count(sim.trace_instrs), "count"},
            {"sim.vectorize.busy_s", sim.vectorize.busy_s, "s"},
            {"sim.vectorize.simd_instrs", count(sim.simd_instrs), "count"},
            {"sim.regions.busy_s", sim.regions.busy_s, "s"},
            {"sim.regions.count", count(sim.region_count), "count"},
            {"sim.pipeline.busy_s", sim.pipeline.busy_s, "s"},
            {"sim.assemble.busy_s", sim.assemble.busy_s, "s"},
            {"analysis.capture.calls", count(capture_run.calls), "count"},
            {"analysis.capture.busy_s",
             capture_run.busy_s + impact.capture_handoff.busy_s, "s"},
            {"analysis.derive.calls", count(derive_calls), "count"},
            {"analysis.derive.busy_s", derive_kernel.busy_s + derive_rest.busy_s,
             "s"},
            {"analysis.region_impact.busy_s", impact.build.busy_s, "s"},
            {"engine.trials", count(engine.trials), "count"},
            {"engine.kernel_runs", count(engine.kernel_runs), "count"},
            {"engine.cache_hits", count(engine.cache_hits), "count"},
            {"engine.hit_rate", engine.hit_rate(), "fraction"},
            {"engine.golden_runs", count(engine.golden_runs), "count"},
            {"engine.evictions", count(engine.evictions), "count"},
            {"engine.cache_bytes_peak", count(cache_bytes_peak), "bytes"},
            {"engine.trials_skipped_by_bounds",
             count(engine.trials_skipped_by_bounds), "count"},
            {"engine.regions_recosted", count(engine.regions_recosted), "count"},
            {"engine.regions_skipped_by_impact",
             count(engine.regions_skipped_by_impact), "count"},
            {"engine.splice_frac", splice_frac_of(engine), "fraction"},
            {"search.program_runs", count(program_runs), "count"},
            {"search.residual_s", traced_wall_s - covered_s(), "s"},
            {"svc.queue_depth_max", queue_depth_max, "count"},
            {"svc.queue_depth_mean", queue_depth_mean, "count"},
            {"svc.service_s_p50", service_s_p50, "s"},
            {"svc.queue_wait_s_p50", queue_wait_s_p50, "s"},
            {"svc.queue_wait_s_tail", queue_wait_s_tail, "s"},
            {"svc.request_hit_rate", request_hit_rate, "fraction"},
            {"svc.generator_lag_s_max", generator_lag_s_max, "s"},
            {"interactive_p50_s", interactive_p50_s, "s"},
            {"interactive_tail_s", interactive_tail_s, "s"},
            {"sweep_class_p50_s", sweep_class_p50_s, "s"},
            {"trace_overhead_frac", trace_overhead_frac, "fraction"},
            {"ops_failed_frac", ops_failed_frac, "fraction"},
        };
    }
};

// --- tune_sweep and cast_aware ---------------------------------------------

enum class PassKind { kTuneSweep, kCastAware };

/// A pass workload's inputs: several seeded input-set triples (a run
/// cycles through them, so one run averages over several inputs), the
/// apps, and each triple's binary32 scalar baselines (on its first set).
struct PassSetup {
    std::vector<std::vector<unsigned>> triples;
    std::vector<std::unique_ptr<App>> apps;
    std::vector<std::vector<tp::sim::RunReport>> baselines; // [triple][app]
};

PassSetup set_up_pass(std::uint64_t seed, std::size_t triples) {
    PassSetup setup;
    setup.apps = tp::apps::make_all_apps();
    for (std::size_t t = 0; t < triples; ++t) {
        setup.triples.push_back(input_sets_for(seed, t));
        std::vector<tp::sim::RunReport> baselines;
        for (const auto& app : setup.apps) {
            baselines.push_back(tp::bench::simulate_baseline(
                *app, setup.triples.back().front()));
        }
        setup.baselines.push_back(std::move(baselines));
    }
    return setup;
}

/// One app's operation within a pass.
struct AppOp {
    double op_s = 0.0;
    double done_s = 0.0; // completion, from the pass start
    std::vector<TuningResult> results;   // the sweep, or the cast-aware base
    std::optional<CastAwareResult> cast;
    std::vector<tp::sim::RunReport> tuned; // each binding, simulated
    EvalStats stats;
    std::size_t cache_bytes = 0;
    std::string error;
};

struct Pass {
    std::size_t triple = 0;
    double wall_s = 0.0;
    std::vector<AppOp> ops;
};

Pass run_pass(PassKind kind, const std::vector<std::unique_ptr<App>>& apps,
              const PassSetup& setup, std::size_t triple) {
    const std::vector<unsigned>& sets = setup.triples[triple];
    Pass pass;
    pass.triple = triple;
    const Clock::time_point t0 = Clock::now();
    for (const auto& app : apps) {
        AppOp op;
        const Clock::time_point t_app = Clock::now();
        try {
            std::vector<tp::apps::TypeConfig> bindings;
            {
                EvalEngine engine{*app, EvalEngine::Options{.threads = 1}};
                if (kind == PassKind::kTuneSweep) {
                    tp::tuning::SearchOptions base;
                    base.input_sets = sets;
                    base.static_bounds = true;
                    op.results = tp::tuning::sweep_search(
                        engine, base, tp::bench::kEpsilons, true);
                    for (const TuningResult& r : op.results) {
                        bindings.push_back(r.type_config());
                    }
                } else {
                    op.cast = tp::tuning::cast_aware_search(
                        engine, cast_options(kCastAwareEpsilon, sets));
                    op.results.push_back(op.cast->base);
                    bindings.push_back(op.cast->config);
                }
                op.stats = engine.stats();
                op.cache_bytes = engine.cache_bytes();
            }
            const BenchSimulation mark;
            for (const tp::apps::TypeConfig& binding : bindings) {
                op.tuned.push_back(tp::bench::simulate_app(
                    *app, binding, /*simd=*/true, sets.front()));
            }
        } catch (const std::exception& e) {
            op.error = e.what();
        }
        op.op_s = since(t_app);
        op.done_s = since(t0);
        pass.ops.push_back(std::move(op));
    }
    pass.wall_s = since(t0);
    return pass;
}

/// Every operation succeeded and equals the same operation in the first
/// pass over its triple (traced passes included: a decorated app must
/// return the plain app's bits); the first pass over each triple meets
/// the output checks.
void check_passes(PassKind kind, const PassSetup& setup,
                  const std::vector<Pass>& passes, Outcomes& outcomes) {
    std::vector<const Pass*> first(setup.triples.size(), nullptr);
    for (const Pass& pass : passes) {
        const Pass*& ref = first[pass.triple];
        const bool is_first = ref == nullptr;
        if (is_first) ref = &pass;
        for (std::size_t a = 0; a < pass.ops.size(); ++a) {
            const AppOp& op = pass.ops[a];
            const AppOp& base = ref->ops[a];
            const App& app = *setup.apps[a];
            const std::string name{app.name()};
            bool same = op.error.empty() && op.results == base.results &&
                        op.tuned == base.tuned;
            if (same && op.cast) same = same_cast_result(*op.cast, *base.cast);
            outcomes.check(same, name + ": operation failed or differs from "
                                        "the first pass over its inputs " +
                                     op.error);
            if (!is_first || !op.error.empty()) continue;
            const std::vector<unsigned>& sets = setup.triples[pass.triple];
            for (const TuningResult& r : op.results) {
                outcomes.check(
                    meets_everywhere(app, r.type_config(), r.epsilon, sets),
                    name + ": tuned result misses its epsilon");
            }
            if (kind == PassKind::kCastAware) {
                outcomes.check(meets_everywhere(app, op.cast->config,
                                                kCastAwareEpsilon, sets),
                               name + ": cast-aware binding misses its epsilon");
                outcomes.check(op.cast->tuned_energy_pj <= op.cast->base_energy_pj,
                               name + ": cast-aware energy above its base");
            }
        }
    }
}

std::size_t passes_for(PassKind kind, double seconds) {
    const double rate = kind == PassKind::kTuneSweep ? kTuneSweepPassesPerSecond
                                                     : kCastAwarePassesPerSecond;
    return std::max(kMinPasses,
                    static_cast<std::size_t>(std::lround(seconds * rate)));
}

template <typename Setup, typename Fn>
Setup set_up_median(Fn&& set_up, double& setup_s) {
    std::vector<double> times;
    std::optional<Setup> kept;
    for (int i = 0; i < kSetups; ++i) {
        kept.reset();
        const Clock::time_point t0 = Clock::now();
        kept.emplace(set_up());
        times.push_back(since(t0));
    }
    setup_s = median(times);
    return std::move(*kept);
}

/// Share of interactive requests within `slo_s`; failures count as misses.
double within_slo_frac(const Latencies& lat, double slo_s, tp::bench::Json& info) {
    std::size_t samples = 0;
    std::size_t within = 0;
    for (const auto& xs : lat.interactive) {
        samples += xs.size();
        within += static_cast<std::size_t>(std::count_if(
            xs.begin(), xs.end(), [slo_s](double s) { return s <= slo_s; }));
    }
    info.field("slo_s", slo_s).field("interactive_samples", samples);
    const std::size_t attempts = samples + lat.interactive_failed;
    return attempts == 0 ? 0.0
                         : static_cast<double>(within) / static_cast<double>(attempts);
}

/// The latencies of `passes`: the nine operations of a pass are nine
/// requests submitted together at its start and served in turn. Their
/// latency is the completion time from the pass start; each one's own
/// time is the sweep-class (bulk) sample.
Latencies pass_latencies(std::size_t apps, const std::vector<const Pass*>& passes) {
    Latencies lat(apps, /*pooled=*/true);
    for (const Pass* pass : passes) {
        for (std::size_t a = 0; a < pass->ops.size(); ++a) {
            const AppOp& op = pass->ops[a];
            if (!op.error.empty()) {
                ++lat.interactive_failed;
                continue;
            }
            lat.interactive[a].push_back(op.done_s);
            lat.sweep_class[a].push_back(op.op_s);
        }
    }
    return lat;
}

std::string sets_json(const std::vector<std::vector<unsigned>>& triples) {
    tp::bench::Json outer = tp::bench::Json::array();
    for (const auto& sets : triples) {
        tp::bench::Json inner = tp::bench::Json::array();
        for (const unsigned s : sets) inner.item(static_cast<double>(s));
        outer.item_raw(inner.str());
    }
    return outer.str();
}

double failed_frac(const Outcomes& outcomes) {
    return outcomes.attempted == 0 ? 0.0
                                   : static_cast<double>(outcomes.failed) /
                                         static_cast<double>(outcomes.attempted);
}

void end_to_end_from_passes(const PassSetup& setup, const std::vector<Pass>& passes,
                            double setup_s, WorkloadReport& report) {
    std::vector<double> walls;
    std::vector<const Pass*> all;
    Ratios ratios;
    std::vector<bool> seen(setup.triples.size(), false);
    for (const Pass& pass : passes) {
        walls.push_back(pass.wall_s);
        all.push_back(&pass);
        if (seen[pass.triple]) continue;
        seen[pass.triple] = true;
        for (std::size_t a = 0; a < pass.ops.size(); ++a) {
            for (const tp::sim::RunReport& tuned : pass.ops[a].tuned) {
                ratios.add(tuned, setup.baselines[pass.triple][a]);
            }
        }
    }
    const Latencies lat = pass_latencies(setup.apps.size(), all);
    std::vector<double> app_medians;
    tp::bench::Json app_info = tp::bench::Json::object();
    for (std::size_t a = 0; a < lat.sweep_class.size(); ++a) {
        if (lat.sweep_class[a].empty()) continue;
        app_medians.push_back(median(lat.sweep_class[a]));
        app_info.field(setup.apps[a]->name(), app_medians.back());
    }
    tp::bench::Json wall_info = tp::bench::Json::array();
    for (const double w : walls) wall_info.item(w);

    auto& m = report.metrics;
    m.push_back({"setup_s", setup_s, "s"});
    m.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
    m.push_back({"pass_s", median(walls), "s"});
    m.push_back({"app_geomean_s", geometric_mean(app_medians), "s"});
    m.push_back({"energy_ratio", geometric_mean(ratios.energy), "ratio"});
    m.push_back({"cycles_ratio", geometric_mean(ratios.cycles), "ratio"});
    m.push_back({"mem_accesses_ratio", geometric_mean(ratios.mem_accesses), "ratio"});
    m.push_back({"within_slo_frac", within_slo_frac(lat, kPassSlo_s, report.info), "fraction"});
    report.info.raw("app_median_s", app_info.str()).raw("pass_walls_s", wall_info.str());
}

WorkloadReport run_pass_workload(PassKind kind, const RunOptions& options) {
    WorkloadReport report;
    const std::size_t n = passes_for(kind, options.seconds);
    // Every triple runs twice: once more than needed to check that a
    // repeat gives the same bits (and, traced, that decoration does not
    // change them).
    const std::size_t pairs = std::max<std::size_t>(1, n / 2);
    double setup_s = 0.0;
    PassSetup setup = set_up_median<PassSetup>(
        [&] { return set_up_pass(options.seed, pairs); }, setup_s);
    report.info.raw("input_sets", sets_json(setup.triples));

    Outcomes outcomes;
    std::vector<Pass> passes;
    if (!options.trace) {
        for (std::size_t i = 0; i < 2 * pairs; ++i) {
            passes.push_back(run_pass(kind, setup.apps, setup, i % pairs));
        }
        check_passes(kind, setup, passes, outcomes);
        end_to_end_from_passes(setup, passes, setup_s, report);
    } else {
        // Untraced and traced passes over the same triple alternate, so
        // both see the same machine state; the traced ones run on
        // decorated apps.
        std::vector<std::shared_ptr<AppLedger>> ledgers;
        const std::vector<std::unique_ptr<App>> timed = decorate(setup.apps, ledgers);
        std::vector<double> untraced;
        std::vector<LayerTotals> traced;
        std::vector<std::size_t> traced_pass; // index into passes
        std::vector<std::vector<AppLedger>> kept; // traced runs per app
        for (std::size_t i = 0; i < pairs; ++i) {
            passes.push_back(run_pass(kind, setup.apps, setup, i));
            untraced.push_back(passes.back().wall_s);

            for (const auto& l : ledgers) l->reset();
            passes.push_back(run_pass(kind, timed, setup, i));
            traced_pass.push_back(passes.size() - 1);
            LayerTotals totals;
            totals.traced_wall_s = passes.back().wall_s;
            std::vector<AppLedger> snapshot(ledgers.size());
            for (std::size_t a = 0; a < ledgers.size(); ++a) {
                totals.add_in_place(*ledgers[a]);
                const std::lock_guard<std::mutex> lock{ledgers[a]->mutex};
                snapshot[a].traced = ledgers[a]->traced;
                snapshot[a].impact_captures = ledgers[a]->impact_captures;
            }
            traced.push_back(std::move(totals));
            kept.push_back(std::move(snapshot));
        }
        check_passes(kind, setup, passes, outcomes);
        std::vector<const Pass*> untraced_passes;
        for (std::size_t i = 0; i < passes.size(); i += 2) untraced_passes.push_back(&passes[i]);

        // The traced pass with the median wall stands for the traced run.
        std::vector<std::size_t> order(traced.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
            return traced[x].traced_wall_s < traced[y].traced_wall_s;
        });
        const std::size_t pick = order[order.size() / 2];
        LayerTotals totals = traced[pick];
        std::vector<double> traced_walls;
        for (const LayerTotals& t : traced) traced_walls.push_back(t.traced_wall_s);
        totals.trace_overhead_frac = median(traced_walls) / median(untraced) - 1.0;
        totals.set_latencies(pass_latencies(setup.apps.size(), untraced_passes),
                             report.info);
        const Pass& pass = passes[traced_pass[pick]];
        for (std::size_t a = 0; a < setup.apps.size(); ++a) {
            const AppOp& op = pass.ops[a];
            totals.engine += op.stats;
            totals.cache_bytes_peak = std::max(totals.cache_bytes_peak, op.cache_bytes);
            for (const TuningResult& r : op.results) totals.program_runs += r.program_runs;
            const AppLedger& ledger = kept[pick][a];
            totals.add_sim(replay_sim(*setup.apps[a], ledger.traced,
                                      splice_frac_of(op.stats)));
            totals.add_impact(replay_region_impact(*setup.apps[a],
                                                   ledger.impact_captures));
            if (kind == PassKind::kTuneSweep) {
                totals.derive_rest += replay_derive(
                    *setup.apps[a], tp::bench::kEpsilons, setup.triples[pass.triple]);
            }
        }
        report.metrics = totals.metrics(failed_frac(outcomes));
        report.traced_wall_s = totals.traced_wall_s;
        report.info.field("traced_wall_s", totals.traced_wall_s);
    }
    report.attempted = outcomes.attempted;
    report.failed = outcomes.failed;
    report.failures = outcomes.failures;
    return report;
}

// --- service_stream ---------------------------------------------------------

struct ServiceSetup {
    std::vector<unsigned> sets;
    std::vector<Arrival> schedule;
    std::vector<std::unique_ptr<App>> apps;
    std::map<std::string, std::size_t, std::less<>> index; // app name -> apps[i]
    std::vector<tp::sim::RunReport> baselines;
    std::unique_ptr<tp::tuning::TuningService> service;
};

/// Sub-stream `k` of the run seeded `seed`: its own input-set triple and
/// arrival order, and a fresh service.
ServiceSetup set_up_service(std::uint64_t seed, std::size_t k, const StreamShape& shape) {
    ServiceSetup setup;
    setup.sets = input_sets_for(seed, k);
    setup.schedule = arrival_schedule(seed * kServiceStreams + k, shape);
    setup.apps = tp::apps::make_all_apps();
    for (std::size_t a = 0; a < setup.apps.size(); ++a) {
        setup.index.emplace(std::string(setup.apps[a]->name()), a);
        setup.baselines.push_back(
            tp::bench::simulate_baseline(*setup.apps[a], setup.sets.front()));
    }
    tp::tuning::TuningService::Options options;
    options.threads = kServiceWorkers;
    options.cache_budget_bytes = kServiceCacheBudgetBytes;
    setup.service = std::make_unique<tp::tuning::TuningService>(options);
    // A long-running service has its engines and goldens; build them here
    // so the stream measures steady-state serving.
    for (const auto& app : setup.apps) {
        tp::tuning::EvalEngine& engine = setup.service->engine(app->name());
        for (const unsigned set : setup.sets) (void)engine.golden(set);
    }
    return setup;
}

tp::tuning::Request make_request(const Arrival& a, const std::vector<unsigned>& sets) {
    using tp::tuning::Priority;
    tp::tuning::Request request;
    switch (a.kind) {
        case RequestKind::kInteractive:
            request.work = tp::tuning::TuningRequest{a.app, a.epsilon, sets, {}};
            request.priority = Priority::kInteractive;
            break;
        case RequestKind::kSweep:
            request.work = tp::tuning::SweepRequest{a.app, tp::bench::kEpsilons,
                                                    sets, {}, true};
            request.priority = Priority::kSweep;
            break;
        case RequestKind::kCastAware:
            request.work = tp::tuning::CastAwareRequest{
                a.app, cast_options(a.epsilon, sets)};
            request.priority = Priority::kNormal;
            break;
    }
    return request;
}

/// The same work as the service's execute_work, called directly.
tp::tuning::RequestResult direct_call(EvalEngine& engine,
                                      const tp::tuning::Request& request) {
    return std::visit(
        [&engine](const auto& r) -> tp::tuning::RequestResult {
            using T = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<T, tp::tuning::TuningRequest>) {
                tp::tuning::SearchOptions options = r.options;
                options.epsilon = r.epsilon;
                options.input_sets = r.input_sets;
                return tp::tuning::distributed_search(engine, options);
            } else if constexpr (std::is_same_v<T, tp::tuning::CastAwareRequest>) {
                return tp::tuning::cast_aware_search(engine, r.options);
            } else {
                tp::tuning::SearchOptions options = r.options;
                options.input_sets = r.input_sets;
                return tp::tuning::sweep_search(engine, options, r.epsilons,
                                                r.warm_start);
            }
        },
        request.work);
}

bool same_result(const tp::tuning::RequestResult& a,
                 const tp::tuning::RequestResult& b) {
    if (a.index() != b.index()) return false;
    if (const auto* cast = std::get_if<CastAwareResult>(&a)) {
        return same_cast_result(*cast, std::get<CastAwareResult>(b));
    }
    if (const auto* one = std::get_if<TuningResult>(&a)) {
        return *one == std::get<TuningResult>(b);
    }
    return std::get<std::vector<TuningResult>>(a) ==
           std::get<std::vector<TuningResult>>(b);
}

struct StreamRun {
    std::vector<tp::tuning::TicketHandle> tickets;
    std::vector<double> latency_s; // from the due time
    std::vector<bool> ok;
    std::vector<std::string> errors;
    double lag_s_max = 0.0;
    double depth_max = 0.0;
    double depth_sum = 0.0; // backlog each arrival found, summed
    std::size_t cache_bytes_peak = 0;
};

StreamRun run_stream(ServiceSetup& setup) {
    StreamRun run;
    tp::tuning::TuningService& service = *setup.service;
    const Clock::time_point t0 = Clock::now();
    std::vector<Clock::time_point> due;
    for (const Arrival& a : setup.schedule) {
        due.push_back(t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(a.due_s)));
        // Spin rather than sleep: a sleeping generator wakes late by a
        // scheduler quantum at random, and that lag would be charged to the
        // request (latency is timed from the due time).
        while (Clock::now() < due.back()) std::this_thread::yield();
        // The backlog this arrival finds.
        const auto depth = static_cast<double>(service.queued());
        run.depth_max = std::max(run.depth_max, depth);
        run.depth_sum += depth;
        run.tickets.push_back(service.submit(make_request(a, setup.sets)));
        run.lag_s_max = std::max(
            run.lag_s_max, seconds_between(due.back(), run.tickets.back().submitted_at()));
        run.cache_bytes_peak =
            std::max(run.cache_bytes_peak, service.engine(a.app).cache_bytes());
    }
    for (std::size_t i = 0; i < run.tickets.size(); ++i) {
        const tp::tuning::TicketHandle& t = run.tickets[i];
        t.wait();
        std::string error;
        try {
            (void)t.get();
        } catch (const std::exception& e) {
            error = e.what();
        }
        run.ok.push_back(error.empty());
        run.errors.push_back(error);
        run.latency_s.push_back(seconds_between(due[i], t.completed_at()));
    }
    for (const auto& app : setup.apps) {
        run.cache_bytes_peak =
            std::max(run.cache_bytes_peak, setup.service->engine(app->name()).cache_bytes());
    }
    return run;
}

struct Replay {
    std::vector<tp::tuning::RequestResult> results;
    std::vector<bool> ok;
    std::vector<double> service_s;
    std::vector<double> per_app_s; // by setup.apps index
    double wall_s = 0.0;
    EvalStats stats;
};

/// Serial direct calls: one engine per app (as the service has) with the
/// same cache budget, its goldens built before the clock starts, serving
/// that app's requests in arrival order. Engines share nothing, so taking
/// the apps one after another leaves every engine's work as in the
/// stream, and the replay's peak memory is one app's at a time.
Replay replay_stream(const ServiceSetup& setup,
                     const std::vector<std::unique_ptr<App>>& apps) {
    const std::size_t n = setup.schedule.size();
    Replay replay;
    replay.results.resize(n);
    replay.ok.assign(n, false);
    replay.service_s.assign(n, 0.0);
    replay.per_app_s.assign(apps.size(), 0.0);
    for (std::size_t index = 0; index < apps.size(); ++index) {
        EvalEngine engine{*apps[index],
                          EvalEngine::Options{.threads = 1,
                                              .cache_budget_bytes =
                                                  kServiceCacheBudgetBytes}};
        for (const unsigned set : setup.sets) (void)engine.golden(set);
        for (std::size_t i = 0; i < n; ++i) {
            const Arrival& a = setup.schedule[i];
            if (setup.index.find(a.app)->second != index) continue;
            const Clock::time_point t0 = Clock::now();
            try {
                replay.results[i] = direct_call(engine, make_request(a, setup.sets));
                replay.ok[i] = true;
            } catch (const std::exception&) {
                replay.ok[i] = false;
            }
            replay.service_s[i] = since(t0);
            replay.per_app_s[index] += replay.service_s[i];
        }
        replay.stats += engine.stats();
    }
    for (const double s : replay.per_app_s) replay.wall_s += s;
    return replay;
}

/// Results, checks and latencies of one sub-stream, folded into the run.
struct ServiceRun {
    Outcomes outcomes;
    std::vector<double> setup_s;
    std::vector<double> replay_s;
    std::vector<std::vector<double>> app_replay_s; // [app][sub-stream]
    double replay_peak_rss_mib = 0.0;
    Latencies lat;
    Ratios ratios;
    EvalStats service_stats;
    EvalStats request_stats;
    LayerTotals totals; // traced runs
    double plain_replay_s = 0.0;
    std::vector<double> service_s;
    std::vector<double> wait_s;
    std::size_t arrivals = 0;
    double depth_sum = 0.0;
    tp::bench::Json streams = tp::bench::Json::array();

    explicit ServiceRun(std::size_t apps)
        : app_replay_s(apps), lat(apps, /*pooled=*/false) {}
};

/// Every request succeeded and equals its direct call; every tuned result
/// meets its epsilon; cast-aware energy never rises.
void check_stream(const ServiceSetup& setup, const StreamRun& stream,
                  const Replay& replay, Outcomes& outcomes) {
    std::map<std::tuple<std::string, double, std::vector<tp::FpFormat>>, bool> checked;
    const auto check_binding = [&](const std::string& app,
                                   const tp::apps::TypeConfig& config, double eps) {
        const auto key = std::make_tuple(app, eps, config.formats());
        auto it = checked.find(key);
        if (it == checked.end()) {
            const App& plain = *setup.apps[setup.index.find(app)->second];
            it = checked.emplace(key, meets_everywhere(plain, config, eps, setup.sets))
                     .first;
        }
        outcomes.check(it->second, app + ": tuned result misses its epsilon");
    };
    for (std::size_t i = 0; i < setup.schedule.size(); ++i) {
        const Arrival& a = setup.schedule[i];
        const bool ok = stream.ok[i] && replay.ok[i];
        outcomes.check(ok && same_result(stream.tickets[i].get(), replay.results[i]),
                       a.app + " " + kind_name(a.kind) +
                           ": failed or differs from the direct call " +
                           stream.errors[i]);
        if (!ok) continue;
        const tp::tuning::RequestResult& r = replay.results[i];
        if (const auto* one = std::get_if<TuningResult>(&r)) {
            check_binding(a.app, one->type_config(), one->epsilon);
        } else if (const auto* many = std::get_if<std::vector<TuningResult>>(&r)) {
            for (const TuningResult& t : *many) {
                check_binding(a.app, t.type_config(), t.epsilon);
            }
        } else {
            const auto& cast = std::get<CastAwareResult>(r);
            check_binding(a.app, cast.base.type_config(), cast.base.epsilon);
            check_binding(a.app, cast.config, a.epsilon);
            outcomes.check(cast.tuned_energy_pj <= cast.base_energy_pj,
                           a.app + ": cast-aware energy above its base");
        }
    }
}

/// The latencies of one sub-stream, warm-up excluded; failed interactive
/// requests count as misses of the latency limit.
void collect_latencies(const ServiceSetup& setup, const StreamRun& stream,
                       Latencies& lat) {
    for (std::size_t i = 0; i < setup.schedule.size(); ++i) {
        const Arrival& a = setup.schedule[i];
        if (a.warmup) continue;
        const std::size_t index = setup.index.find(a.app)->second;
        if (a.kind == RequestKind::kInteractive) {
            if (stream.ok[i]) {
                lat.interactive[index].push_back(stream.latency_s[i]);
            } else {
                ++lat.interactive_failed;
            }
        } else if (a.kind == RequestKind::kSweep && stream.ok[i]) {
            lat.sweep_class[index].push_back(stream.latency_s[i]);
        }
    }
}

/// Tuned / binary32 platform ratios of one sub-stream's interactive results.
void collect_ratios(const ServiceSetup& setup, const StreamRun& stream, Ratios& ratios) {
    std::map<std::pair<std::size_t, std::vector<tp::FpFormat>>, tp::sim::RunReport> sims;
    for (std::size_t i = 0; i < setup.schedule.size(); ++i) {
        const Arrival& a = setup.schedule[i];
        if (a.kind != RequestKind::kInteractive || !stream.ok[i]) continue;
        const std::size_t index = setup.index.find(a.app)->second;
        const tp::apps::TypeConfig config =
            std::get<TuningResult>(stream.tickets[i].get()).type_config();
        auto it = sims.find({index, config.formats()});
        if (it == sims.end()) {
            it = sims.emplace(std::make_pair(index, config.formats()),
                              tp::bench::simulate_app(*setup.apps[index], config, true,
                                                      setup.sets.front()))
                     .first;
        }
        ratios.add(it->second, setup.baselines[index]);
    }
}

/// The decorated replay of one sub-stream, folded into the layer totals.
void collect_layers(const ServiceSetup& setup, const StreamRun& stream,
                    const Replay& replay, ServiceRun& run) {
    std::vector<std::shared_ptr<AppLedger>> ledgers;
    const std::vector<std::unique_ptr<App>> timed = decorate(setup.apps, ledgers);
    const Replay traced = replay_stream(setup, timed);
    for (std::size_t i = 0; i < setup.schedule.size(); ++i) {
        run.outcomes.check(traced.ok[i] && replay.ok[i] &&
                               same_result(traced.results[i], replay.results[i]),
                           setup.schedule[i].app +
                               ": decorated replay differs from the plain one");
    }
    LayerTotals& totals = run.totals;
    totals.traced_wall_s += traced.wall_s;
    run.plain_replay_s += replay.wall_s;
    totals.cache_bytes_peak = std::max(totals.cache_bytes_peak, stream.cache_bytes_peak);
    for (std::size_t a = 0; a < setup.apps.size(); ++a) {
        totals.add_in_place(*ledgers[a]);
        const std::lock_guard<std::mutex> lock{ledgers[a]->mutex};
        totals.add_sim(replay_sim(*setup.apps[a], ledgers[a]->traced,
                                  splice_frac_of(traced.stats)));
        totals.add_impact(
            replay_region_impact(*setup.apps[a], ledgers[a]->impact_captures));
    }
    for (const auto& r : replay.results) {
        if (const auto* one = std::get_if<TuningResult>(&r)) {
            totals.program_runs += one->program_runs;
        } else if (const auto* many = std::get_if<std::vector<TuningResult>>(&r)) {
            for (const TuningResult& t : *many) totals.program_runs += t.program_runs;
        } else {
            totals.program_runs += std::get<CastAwareResult>(r).base.program_runs;
        }
    }
    for (std::size_t i = 0; i < setup.schedule.size(); ++i) {
        if (setup.schedule[i].warmup) continue; // as the latency metrics
        run.service_s.push_back(replay.service_s[i]);
        run.wait_s.push_back(stream.latency_s[i] - replay.service_s[i]);
    }
    totals.queue_depth_max = std::max(totals.queue_depth_max, stream.depth_max);
    totals.generator_lag_s_max = std::max(totals.generator_lag_s_max, stream.lag_s_max);
}

WorkloadReport run_service_workload(const RunOptions& options) {
    WorkloadReport report;
    const StreamShape shape =
        stream_shape(options.seconds / static_cast<double>(kServiceStreams));
    ServiceRun run(tp::apps::app_names().size());
    for (std::size_t k = 0; k < kServiceStreams; ++k) {
        const Clock::time_point t0 = Clock::now();
        ServiceSetup setup = set_up_service(options.seed, k, shape);
        run.setup_s.push_back(since(t0));

        // The serial replay runs first: its peak memory is a function of
        // the requests alone, while the concurrent stream's also depends on
        // which large requests happen to overlap.
        const Replay replay = replay_stream(setup, setup.apps);
        if (k == 0) run.replay_peak_rss_mib = peak_rss_mib();
        run.replay_s.push_back(replay.wall_s);
        for (std::size_t a = 0; a < replay.per_app_s.size(); ++a) {
            run.app_replay_s[a].push_back(replay.per_app_s[a]);
        }

        const StreamRun stream = run_stream(setup);
        run.service_stats += setup.service->stats();
        for (const auto& t : stream.tickets) run.request_stats += t.stats();
        run.arrivals += setup.schedule.size();
        run.depth_sum += stream.depth_sum;
        run.streams.item_raw(
            tp::bench::Json::object()
                .raw("input_sets", sets_json({setup.sets}))
                .field("requests", setup.schedule.size())
                .field("schedule_digest", std::to_string(schedule_digest(setup.schedule)))
                .field("evictions", setup.service->stats().evictions)
                .field("replay_s", replay.wall_s)
                .str());

        check_stream(setup, stream, replay, run.outcomes);
        collect_latencies(setup, stream, run.lat);
        if (options.trace) {
            collect_layers(setup, stream, replay, run);
        } else {
            collect_ratios(setup, stream, run.ratios);
        }
    }
    report.info.raw("streams", run.streams.str())
        .field("service_evictions", run.service_stats.evictions)
        .field("service_hit_rate", run.service_stats.hit_rate());

    if (!options.trace) {
        // Means over the sub-streams, not medians: each sub-stream has its
        // own inputs, so the mean averages over three input triples where
        // a median of three would keep one.
        const auto mean = [](const std::vector<double>& xs) {
            return std::accumulate(xs.begin(), xs.end(), 0.0) /
                   static_cast<double>(xs.size());
        };
        std::vector<double> app_means;
        for (const auto& xs : run.app_replay_s) app_means.push_back(mean(xs));
        auto& m = report.metrics;
        m.push_back({"setup_s", median(run.setup_s), "s"});
        m.push_back({"peak_rss_mb", run.replay_peak_rss_mib, "MiB"});
        m.push_back({"pass_s", mean(run.replay_s), "s"});
        m.push_back({"app_geomean_s", geometric_mean(app_means), "s"});
        m.push_back({"energy_ratio", geometric_mean(run.ratios.energy), "ratio"});
        m.push_back({"cycles_ratio", geometric_mean(run.ratios.cycles), "ratio"});
        m.push_back({"mem_accesses_ratio", geometric_mean(run.ratios.mem_accesses), "ratio"});
        m.push_back({"within_slo_frac", within_slo_frac(run.lat, kInteractiveSlo_s, report.info),
                     "fraction"});
    } else {
        LayerTotals& totals = run.totals;
        // Engine counters are the service's own; the replay's engines only
        // stand in for timing.
        totals.engine = run.service_stats;
        totals.trace_overhead_frac = totals.traced_wall_s / run.plain_replay_s - 1.0;
        totals.queue_depth_mean = run.depth_sum / static_cast<double>(run.arrivals);
        totals.service_s_p50 = median(run.service_s);
        totals.queue_wait_s_p50 = median(run.wait_s);
        totals.queue_wait_s_tail = percentile(run.wait_s, tail_percentile(run.wait_s.size()));
        totals.request_hit_rate = run.request_stats.hit_rate();
        totals.set_latencies(run.lat, report.info);
        report.metrics = totals.metrics(failed_frac(run.outcomes));
        report.traced_wall_s = totals.traced_wall_s;
        report.info.field("traced_wall_s", totals.traced_wall_s);
    }
    report.attempted = run.outcomes.attempted;
    report.failed = run.outcomes.failed;
    report.failures = run.outcomes.failures;
    return report;
}

} // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"tune_sweep", "cast_aware",
                                                "service_stream"};
    return names;
}

WorkloadReport run_workload(const RunOptions& options) {
    if (options.workload == "tune_sweep") {
        return run_pass_workload(PassKind::kTuneSweep, options);
    }
    if (options.workload == "cast_aware") {
        return run_pass_workload(PassKind::kCastAware, options);
    }
    if (options.workload == "service_stream") {
        return run_service_workload(options);
    }
    throw std::invalid_argument("unknown workload: " + options.workload);
}

} // namespace pb
