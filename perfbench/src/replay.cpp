#include "replay.hpp"

#include <algorithm>
#include <memory>

#include "analysis/derive_bounds.hpp"
#include "analysis/region_impact.hpp"
#include "analysis/signal_flow.hpp"
#include "clock.hpp"
#include "fpu/energy_model.hpp"
#include "sim/pipeline.hpp"
#include "sim/platform.hpp"
#include "sim/vectorize.hpp"

namespace pb {

SimLayers replay_sim(tp::apps::App& app, const std::vector<TracedRun>& runs,
                     double splice_frac, bool verify) {
    const tp::fpu::EnergyModel& model = tp::fpu::default_energy_model();
    const tp::sim::CoreParams core{};
    SimLayers out;
    for (const TracedRun& run : runs) {
        app.prepare(run.input_set);
        tp::sim::TpContext ctx;
        (void)app.run(ctx, run.config);

        Clock::time_point t0 = Clock::now();
        tp::sim::TraceProgram program = ctx.take_program(false);
        out.handoff.add(since(t0));
        out.trace_instrs += program.instrs.size();

        t0 = Clock::now();
        tp::sim::vectorize(program);
        out.vectorize.add(since(t0));
        out.simd_instrs += program.groups.size();

        t0 = Clock::now();
        const std::vector<tp::sim::CostRegion> regions =
            tp::sim::cost_regions(program);
        const double partition_s = since(t0);
        std::vector<tp::sim::RegionCost> costs;
        costs.reserve(regions.size());
        double cost_s = 0.0;
        double signature_s = 0.0;
        for (const tp::sim::CostRegion& region : regions) {
            t0 = Clock::now();
            costs.push_back(tp::sim::cost_region(program, region, model, core));
            cost_s += since(t0);
            t0 = Clock::now();
            (void)tp::sim::region_signature(program, region);
            signature_s += since(t0);
        }
        const double spliced = run.from_engine ? splice_frac : 0.0;
        out.regions.add(partition_s + (1.0 - spliced) * cost_s +
                        spliced * signature_s);
        out.region_count += regions.size();

        t0 = Clock::now();
        (void)tp::sim::run_pipeline(program, core.addr_ops_per_access);
        const double pipeline_s = since(t0);
        out.pipeline.add(pipeline_s);

        t0 = Clock::now();
        const tp::sim::RunReport report =
            tp::sim::assemble_regions(program, costs, model, core);
        // assemble_regions runs the pipeline model itself; that part is
        // booked to `pipeline` already.
        out.assemble.add(std::max(0.0, since(t0) - pipeline_s));

        if (verify && !(report == tp::sim::simulate(program, model, core))) {
            out.reports_match = false;
        }
    }
    return out;
}

Span replay_derive(const tp::apps::App& app, const std::vector<double>& epsilons,
                   const std::vector<unsigned>& input_sets) {
    Span out;
    for (const double epsilon : epsilons) {
        auto ledger = std::make_shared<AppLedger>();
        TimedApp probe{app.clone(), ledger};
        const Clock::time_point t0 = Clock::now();
        (void)tp::analysis::derive_warm_start(probe, epsilon, input_sets);
        const double total_s = since(t0);
        const std::lock_guard<std::mutex> lock{ledger->mutex};
        out.add(total_s - ledger->capture_run.busy_s -
                ledger->derive_kernel.busy_s);
    }
    return out;
}

ImpactLayers replay_region_impact(const tp::apps::App& app,
                                  const std::vector<unsigned>& capture_sets) {
    ImpactLayers out;
    for (const unsigned set : capture_sets) {
        auto ledger = std::make_shared<AppLedger>();
        TimedApp probe{app.clone(), ledger};
        Clock::time_point t0 = Clock::now();
        const tp::analysis::CapturedTrace capture =
            tp::analysis::capture_trace(probe, set);
        const double capture_s = since(t0);
        {
            const std::lock_guard<std::mutex> lock{ledger->mutex};
            out.capture_handoff.add(capture_s - ledger->capture_run.busy_s -
                                    ledger->derive_kernel.busy_s);
        }
        t0 = Clock::now();
        (void)tp::analysis::build_region_impact(capture.program,
                                                capture.signal_count);
        out.build.add(since(t0));
    }
    return out;
}

} // namespace pb
