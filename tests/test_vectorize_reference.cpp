// Differential battery for the in-place vectorizer: sim::vectorize() must
// rewrite every trace exactly as the map-based reference pass
// (reference_vectorizer.hpp) does — the same instructions in the same
// order, field by field, and the same SIMD groups. Traces come from the
// real kernels (every app under uniform bindings and every one-signal
// rebinding of its tuned base) and from a seeded random generator that
// reaches shapes the kernels rarely emit.
#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "reference_vectorizer.hpp"
#include "sim/context.hpp"
#include "sim/trace.hpp"
#include "sim/vectorize.hpp"
#include "tuning/search.hpp"
#include "util/random.hpp"

namespace {

using tp::FpFormat;
using tp::FpOp;
using tp::sim::Instr;
using tp::sim::InstrKind;
using tp::sim::TraceProgram;

/// Compares field by field and stops at the first differing instruction,
/// so a divergence reports one position instead of the whole tail.
void expect_same_instrs(const TraceProgram& got, const TraceProgram& want,
                        const std::string& label) {
    ASSERT_EQ(got.instrs.size(), want.instrs.size()) << label;
    for (std::size_t i = 0; i < got.instrs.size(); ++i) {
        const Instr& a = got.instrs[i];
        const Instr& b = want.instrs[i];
        const bool same = a.kind == b.kind && a.op == b.op && a.fmt == b.fmt &&
                          a.fmt2 == b.fmt2 && a.bytes == b.bytes &&
                          a.vectorizable == b.vectorizable &&
                          a.simd_group == b.simd_group && a.stream == b.stream &&
                          a.dst == b.dst && a.src1 == b.src1 && a.src2 == b.src2 &&
                          a.src3 == b.src3;
        if (same) continue;
        const std::string where = label + " instruction " + std::to_string(i);
        EXPECT_EQ(a.kind, b.kind) << where;
        EXPECT_EQ(a.op, b.op) << where;
        EXPECT_EQ(a.fmt, b.fmt) << where;
        EXPECT_EQ(a.fmt2, b.fmt2) << where;
        EXPECT_EQ(a.bytes, b.bytes) << where;
        EXPECT_EQ(a.vectorizable, b.vectorizable) << where;
        EXPECT_EQ(a.simd_group, b.simd_group) << where;
        EXPECT_EQ(a.stream, b.stream) << where;
        EXPECT_EQ(a.dst, b.dst) << where;
        EXPECT_EQ(a.src1, b.src1) << where;
        EXPECT_EQ(a.src2, b.src2) << where;
        EXPECT_EQ(a.src3, b.src3) << where;
        return;
    }
}

void expect_same_groups(const TraceProgram& got, const TraceProgram& want,
                        const std::string& label) {
    ASSERT_EQ(got.groups.size(), want.groups.size()) << label;
    for (std::size_t g = 0; g < got.groups.size(); ++g) {
        ASSERT_TRUE(got.groups[g] == want.groups[g])
            << label << " group " << g + 1 << ": lanes " << got.groups[g].lanes
            << " vs " << want.groups[g].lanes << ", last_index "
            << got.groups[g].last_index << " vs " << want.groups[g].last_index;
    }
}

/// Vectorizes `raw` with both passes and compares the results. Returns
/// the number of groups formed, so batteries can check their coverage.
std::size_t check_against_reference(TraceProgram raw, const std::string& label) {
    TraceProgram reference = raw;
    tp::sim::reference::vectorize(reference);
    tp::sim::vectorize(raw);
    expect_same_instrs(raw, reference, label);
    expect_same_groups(raw, reference, label);
    EXPECT_EQ(raw.value_count, reference.value_count) << label;
    return raw.groups.size();
}

// --- every app, uniform and one-signal bindings -----------------------------

constexpr std::array<FpFormat, 4> kFormats{tp::kBinary8, tp::kBinary16,
                                           tp::kBinary16Alt, tp::kBinary32};

std::string format_label(FpFormat f) {
    std::string label{"e"};
    label += std::to_string(f.exp_bits);
    label += 'm';
    label += std::to_string(f.mant_bits);
    return label;
}

class VectorizeReferenceApps : public ::testing::TestWithParam<std::string> {};

TEST_P(VectorizeReferenceApps, MatchesReferenceOnUniformAndRebound) {
    const auto app = tp::apps::make_app(GetParam());
    const auto traced = [&](const tp::apps::TypeConfig& config) {
        app->prepare(0);
        tp::sim::TpContext ctx;
        (void)app->run(ctx, config);
        return ctx.take_program(false);
    };

    for (const FpFormat f : kFormats) {
        check_against_reference(traced(app->uniform_config(f)),
                                          GetParam() + " uniform " + format_label(f));
    }

    // The cast-aware pass probes one-signal rebindings of a tuned base.
    tp::tuning::SearchOptions options;
    options.epsilon = 1e-2;
    options.type_system = tp::TypeSystem{tp::TypeSystemKind::V2};
    options.input_sets = {0, 1};
    options.max_passes = 2;
    const tp::apps::TypeConfig base =
        tp::tuning::distributed_search(*app, options).type_config();
    check_against_reference(traced(base), GetParam() + " tuned base");
    for (tp::apps::SignalId s = 0; s < base.size(); ++s) {
        for (const FpFormat f : kFormats) {
            if (f == base[s]) continue;
            tp::apps::TypeConfig rebound = base;
            rebound.set(s, f);
            check_against_reference(
                traced(rebound), GetParam() + " signal " + std::to_string(s) +
                                     " -> " + format_label(f));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllApps, VectorizeReferenceApps,
                         ::testing::ValuesIn(tp::apps::app_names()));

// --- seeded random traces ---------------------------------------------------

/// Shape counters over a random battery, so the test can show it reached
/// the cases it is meant to cover.
struct Coverage {
    std::size_t lanes[tp::sim::kMaxSimdLanes + 1] = {};
    std::size_t chained_members = 0; // a member reading its own bucket's key
    std::size_t scalar_fp_flushes = 0;
    std::size_t ends_in_region = 0;
    std::size_t nested_regions = 0;
};

/// One synthetic trace: nested vector regions (a depth counter standing in
/// for nested VectorRegionGuards), every instruction kind, a small format
/// palette per trace so buckets fill, three memory streams, sources drawn
/// from recent values so serial chains form inside buckets, scalar FP
/// instructions between regions, and regions still open at the end.
TraceProgram random_trace(std::uint64_t seed, Coverage& coverage) {
    tp::util::Xoshiro256 rng{seed};
    constexpr std::array<FpFormat, 5> kPalette{tp::kBinary8, tp::kBinary16,
                                               tp::kBinary16Alt, tp::kBinary32,
                                               FpFormat{4, 3}};
    constexpr std::array<FpOp, 9> kOps{FpOp::Add, FpOp::Add, FpOp::Sub, FpOp::Mul,
                                       FpOp::Mul, FpOp::Fma, FpOp::Div, FpOp::Neg,
                                       FpOp::Cmp};
    std::array<FpFormat, 2> formats{};
    for (FpFormat& f : formats) {
        f = kPalette[static_cast<std::size_t>(rng.uniform_int(0, kPalette.size() - 1))];
    }

    TraceProgram program;
    std::vector<std::int32_t> recent; // value ids, newest last
    std::int32_t next_id = 0;
    // Unused leading ids: constants that emit no instruction.
    for (int k = 0; k < 4; ++k) recent.push_back(next_id++);
    const auto pick_src = [&]() -> std::int32_t {
        if (recent.empty() || rng.uniform() < 0.1) return -1;
        const auto window = static_cast<std::int64_t>(std::min<std::size_t>(recent.size(), 6));
        return recent[recent.size() - 1 -
                      static_cast<std::size_t>(rng.uniform_int(0, window - 1))];
    };
    const auto fresh = [&]() {
        recent.push_back(next_id);
        return next_id++;
    };

    int depth = 0;
    const auto length = rng.uniform_int(0, 240);
    for (std::int64_t i = 0; i < length; ++i) {
        const double region_roll = rng.uniform();
        if (region_roll < 0.06) {
            if (depth > 0) ++coverage.nested_regions;
            ++depth;
        } else if (region_roll < 0.10 && depth > 0) {
            --depth;
        }

        Instr instr;
        instr.vectorizable = depth > 0;
        instr.fmt = formats[static_cast<std::size_t>(rng.uniform_int(0, 1))];
        const double kind_roll = rng.uniform();
        if (kind_roll < 0.10) {
            instr.kind = InstrKind::IntAlu;
        } else if (kind_roll < 0.15) {
            instr.kind = InstrKind::Branch;
        } else if (kind_roll < 0.35) {
            instr.kind = InstrKind::Load;
            instr.bytes = static_cast<std::uint8_t>(instr.fmt.storage_bytes());
            instr.stream = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
            instr.dst = fresh();
        } else if (kind_roll < 0.48) {
            instr.kind = InstrKind::Store;
            instr.bytes = static_cast<std::uint8_t>(instr.fmt.storage_bytes());
            instr.stream = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
            instr.src1 = pick_src();
        } else if (kind_roll < 0.92) {
            instr.kind = InstrKind::FpArith;
            instr.op = kOps[static_cast<std::size_t>(rng.uniform_int(0, kOps.size() - 1))];
            const std::size_t sources = tp::sim::fp_op_sources(instr.op);
            if (sources >= 1) instr.src1 = pick_src();
            if (sources >= 2) instr.src2 = pick_src();
            if (sources >= 3) instr.src3 = pick_src();
            if (instr.op == FpOp::Cmp) {
                instr.vectorizable = false; // as TpContext emits compares
            } else {
                instr.dst = fresh();
            }
        } else {
            instr.kind = InstrKind::FpCast;
            instr.fmt2 = formats[static_cast<std::size_t>(rng.uniform_int(0, 1))];
            instr.src1 = pick_src();
            instr.dst = fresh();
        }
        if (!instr.vectorizable &&
            (instr.kind == InstrKind::FpArith || instr.kind == InstrKind::FpCast ||
             instr.kind == InstrKind::Load || instr.kind == InstrKind::Store)) {
            ++coverage.scalar_fp_flushes;
        }
        program.instrs.push_back(instr);
    }
    if (depth > 0 && !program.instrs.empty() && program.instrs.back().vectorizable) {
        ++coverage.ends_in_region;
    }
    program.value_count = static_cast<std::size_t>(next_id);
    return program;
}

/// Members of a multi-lane group never read a value produced inside the
/// same group; count, across the raw traces, vectorizable instructions
/// that read a value produced by an earlier same-key instruction — the
/// serial-chain case the bucket must commit on.
std::size_t chained_members(const TraceProgram& raw) {
    std::vector<std::int32_t> producer(raw.value_count, -1);
    std::size_t chained = 0;
    for (std::size_t i = 0; i < raw.instrs.size(); ++i) {
        const Instr& instr = raw.instrs[i];
        if (instr.vectorizable && instr.kind == InstrKind::FpArith &&
            tp::sim::has_simd_datapath(instr.op)) {
            for (const std::int32_t src : {instr.src1, instr.src2}) {
                if (src < 0 || producer[static_cast<std::size_t>(src)] < 0) continue;
                const Instr& p = raw.instrs[static_cast<std::size_t>(
                    producer[static_cast<std::size_t>(src)])];
                if (p.vectorizable && p.kind == instr.kind && p.op == instr.op &&
                    p.fmt == instr.fmt) {
                    ++chained;
                    break;
                }
            }
        }
        if (instr.dst >= 0) producer[static_cast<std::size_t>(instr.dst)] = static_cast<std::int32_t>(i);
    }
    return chained;
}

TEST(VectorizeReference, RandomTracesMatchReference) {
    Coverage coverage;
    for (std::uint64_t seed = 1; seed <= 600; ++seed) {
        TraceProgram raw = random_trace(seed, coverage);
        coverage.chained_members += chained_members(raw);
        TraceProgram reference = raw;
        tp::sim::reference::vectorize(reference);
        for (const auto& group : reference.groups) {
            ++coverage.lanes[static_cast<std::size_t>(group.lanes)];
        }
        check_against_reference(std::move(raw), "seed " + std::to_string(seed));
        if (HasFatalFailure()) return;
    }
    // The battery reaches every shape it claims to cover.
    EXPECT_GT(coverage.lanes[2], 0u);
    EXPECT_GT(coverage.lanes[3], 0u);
    EXPECT_GT(coverage.lanes[4], 0u);
    EXPECT_GT(coverage.chained_members, 0u);
    EXPECT_GT(coverage.scalar_fp_flushes, 0u);
    EXPECT_GT(coverage.ends_in_region, 0u);
    EXPECT_GT(coverage.nested_regions, 0u);
}

TEST(VectorizeReference, NestedContextRegionsMatchReference) {
    // Real nested guards: the inner region's close must not end the outer
    // one, and a scalar op after both closes flushes what is still open.
    tp::sim::TpContext ctx;
    auto a = ctx.make_array(tp::kBinary8, 16);
    auto b = ctx.make_array(tp::kBinary16, 16);
    {
        const auto outer = ctx.vector_region();
        for (std::size_t i = 0; i < 3; ++i) {
            const auto x = a.load(i);
            {
                const auto inner = ctx.vector_region();
                const auto y = b.load(i);
                b.store(i + 8, y * y);
            }
            a.store(i + 8, x + x);
        }
    }
    const auto s = ctx.constant(1.0, tp::kBinary32);
    (void)(s + s);
    {
        const auto tail = ctx.vector_region();
        for (std::size_t i = 0; i < 3; ++i) (void)a.load(i); // left open
    }
    EXPECT_GT(check_against_reference(ctx.take_program(false), "nested"), 0u);
}

} // namespace
