#include "sim/context.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "flexfloat/stats.hpp"
#include "sim/platform.hpp"
#include "types/encoding.hpp"

namespace {

using tp::sim::InstrKind;
using tp::sim::simulate;
using tp::sim::TpContext;

TEST(Context, ValuesComputeWithFlexFloatSemantics) {
    TpContext ctx;
    const auto a = ctx.constant(0.3, tp::kBinary8);
    EXPECT_EQ(a.to_double(), 0.3125); // sanitized on construction
    const auto b = ctx.constant(0.25, tp::kBinary8);
    EXPECT_EQ((a + b).to_double(), tp::quantize(0.3125 + 0.25, tp::kBinary8));
}

TEST(Context, ConstantEmitsNoInstruction) {
    TpContext ctx;
    (void)ctx.constant(1.0, tp::kBinary32);
    EXPECT_TRUE(ctx.take_program(false).instrs.empty());
}

TEST(Context, ArithmeticEmitsTypedInstr) {
    TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary16);
    const auto b = ctx.constant(2.0, tp::kBinary16);
    (void)(a * b);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 1u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::FpArith);
    EXPECT_EQ(program.instrs[0].op, tp::FpOp::Mul);
    EXPECT_EQ(program.instrs[0].fmt, tp::kBinary16);
    EXPECT_GE(program.instrs[0].dst, 0);
}

TEST(Context, CastEmitsCastInstr) {
    TpContext ctx;
    const auto a = ctx.constant(1.5, tp::kBinary32);
    const auto b = a.cast_to(tp::kBinary8);
    EXPECT_EQ(b.format(), tp::kBinary8);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 1u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::FpCast);
    EXPECT_EQ(program.instrs[0].fmt, tp::kBinary32);
    EXPECT_EQ(program.instrs[0].fmt2, tp::kBinary8);
}

TEST(Context, LoadsAndStoresCarryWidth) {
    TpContext ctx;
    auto arr8 = ctx.make_array(tp::kBinary8, 4);
    auto arr32 = ctx.make_array(tp::kBinary32, 4);
    arr8.set_raw(0, 0.5);
    (void)arr8.load(0);
    const auto v = ctx.constant(1.0, tp::kBinary32);
    arr32.store(1, v);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 2u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::Load);
    EXPECT_EQ(program.instrs[0].bytes, 1);
    EXPECT_EQ(program.instrs[1].kind, InstrKind::Store);
    EXPECT_EQ(program.instrs[1].bytes, 4);
    EXPECT_EQ(arr32.raw(1), 1.0);
}

TEST(Context, StoreQuantizesToElementFormat) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary8, 1);
    const auto v = ctx.constant(0.3, tp::kBinary8);
    arr.store(0, v);
    EXPECT_EQ(arr.raw(0), 0.3125);
}

TEST(Context, SetRawQuantizes) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary16, 1);
    arr.set_raw(0, 1.0 + std::ldexp(1.0, -11));
    EXPECT_EQ(arr.raw(0), 1.0);
}

TEST(Context, UntracedModeStillComputes) {
    TpContext ctx{TpContext::Config{.trace = false}};
    auto arr = ctx.make_array(tp::kBinary16, 2);
    arr.set_raw(0, 1.5);
    const auto x = arr.load(0);
    const auto y = x * x;
    arr.store(1, y);
    EXPECT_EQ(arr.raw(1), 2.25);
    EXPECT_TRUE(ctx.take_program(false).instrs.empty());
}

/// A small kernel touching every per-element entry point: constants,
/// from_int, load, binary/unary/fma arithmetic, compares, casts, stores and
/// loop overhead. Returns the bit patterns of every value it produced.
std::vector<std::uint64_t> exercise_entry_points(TpContext& ctx) {
    std::vector<std::uint64_t> bits;
    const auto keep = [&bits](const tp::sim::TpValue& v) {
        bits.push_back(std::bit_cast<std::uint64_t>(v.to_double()));
    };
    auto arr = ctx.make_array(tp::kBinary16, 4);
    auto narrow = ctx.make_array(tp::kBinary8, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        arr.set_raw(i, 0.3 * static_cast<double>(i + 1));
    }
    const auto k = ctx.constant(1.1, tp::kBinary16);
    for (std::size_t i = 0; i < 4; ++i) {
        ctx.loop_iteration();
        const auto x = arr.load(i);
        const auto n =
            ctx.from_int(static_cast<std::int64_t>(i) + 3, tp::kBinary16);
        const auto y = fma(x, k, n) / (x + k) - sqrt(abs(-x)) * n;
        keep(x);
        keep(n);
        keep(y);
        keep(y < x ? x : y);
        keep(x <= y || x >= k || y > n ? k : y);
        const auto z = y.cast_to(tp::kBinary8);
        keep(z);
        narrow.store(i, z);
        arr.store(i, y);
    }
    for (std::size_t i = 0; i < 4; ++i) {
        bits.push_back(std::bit_cast<std::uint64_t>(arr.raw(i)));
        bits.push_back(std::bit_cast<std::uint64_t>(narrow.raw(i)));
    }
    return bits;
}

TEST(Context, UntracedContextIsComputeOnlyUnlessSomethingIsRecorded) {
    EXPECT_TRUE(TpContext{TpContext::Config{.trace = false}}.compute_only());
    EXPECT_FALSE(TpContext{}.compute_only());
    EXPECT_FALSE((TpContext{TpContext::Config{.trace = false,
                                              .force_emulated = true}}
                      .compute_only()));
    EXPECT_FALSE((TpContext{TpContext::Config{.trace = false,
                                              .binary64_shadow = true}}
                      .compute_only()));
}

TEST(Context, ForceEmulatedToggleOnLiveUntracedContextSwitchesPaths) {
    TpContext reference{TpContext::Config{.trace = true}};
    const auto expected = exercise_entry_points(reference);

    TpContext ctx{TpContext::Config{.trace = false}};
    ASSERT_TRUE(ctx.compute_only());
    EXPECT_EQ(exercise_entry_points(ctx), expected);
    ctx.set_force_emulated(true);
    EXPECT_FALSE(ctx.compute_only());
    EXPECT_TRUE(ctx.force_emulated());
    EXPECT_EQ(exercise_entry_points(ctx), expected);
    ctx.set_force_emulated(false);
    EXPECT_TRUE(ctx.compute_only());
    EXPECT_EQ(exercise_entry_points(ctx), expected);
    EXPECT_TRUE(ctx.take_program(false).instrs.empty());
}

TEST(Context, UntracedContextRecordsStatsWhenEnabled) {
    TpContext ctx{TpContext::Config{.trace = false}};
    // Counts collected with stats on must not depend on tracing.
    const auto collect = [](TpContext& c) {
        tp::thread_stats().reset();
        tp::thread_stats().set_enabled(true);
        const auto bits = exercise_entry_points(c);
        tp::thread_stats().set_enabled(false);
        return std::pair{bits, tp::thread_stats().counts_for(tp::kBinary16)};
    };
    const auto [untraced_bits, untraced] = collect(ctx);
    EXPECT_TRUE(ctx.compute_only()); // stats off again: back on the fast path
    const std::uint64_t untraced_casts = tp::thread_stats().total_casts();
    TpContext traced;
    const auto [traced_bits, counted] = collect(traced);
    const std::uint64_t traced_casts = tp::thread_stats().total_casts();
    tp::thread_stats().reset();

    EXPECT_EQ(untraced_bits, traced_bits);
    EXPECT_EQ(untraced.total(tp::FpOp::Fma), 4u);
    EXPECT_EQ(untraced.total(tp::FpOp::FromInt), 4u);
    EXPECT_EQ(untraced.total(tp::FpOp::Sqrt), 4u);
    EXPECT_GT(untraced.total(tp::FpOp::Cmp), 0u);
    EXPECT_EQ(untraced_casts, 4u);
    EXPECT_EQ(untraced_casts, traced_casts);
    for (std::size_t op = 0; op < tp::kFpOpCount; ++op) {
        EXPECT_EQ(untraced.scalar[op], counted.scalar[op]) << op;
        EXPECT_EQ(untraced.vectorial[op], counted.vectorial[op]) << op;
    }
}

TEST(Context, UntracedRunEmitsNoTraceAndAssignsNoIds) {
    TpContext ctx{TpContext::Config{.trace = false}};
    (void)exercise_entry_points(ctx);
    const auto program = ctx.take_program(false);
    EXPECT_TRUE(program.instrs.empty());
    EXPECT_EQ(program.value_count, 0u);
    EXPECT_TRUE(program.values.empty());
    EXPECT_TRUE(program.output_taps.empty());

    TpContext traced;
    (void)exercise_entry_points(traced);
    const auto traced_program = traced.take_program(false);
    EXPECT_FALSE(traced_program.instrs.empty());
    EXPECT_GT(traced_program.value_count, 0u);
}

TEST(Context, FromIntEmitsConversion) {
    TpContext ctx;
    const auto v = ctx.from_int(7, tp::kBinary16);
    EXPECT_EQ(v.to_double(), 7.0);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 1u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::FpCast);
    EXPECT_EQ(program.instrs[0].op, tp::FpOp::FromInt);
}

TEST(Context, ComparisonEmitsCmp) {
    TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary16);
    const auto b = ctx.constant(2.0, tp::kBinary16);
    EXPECT_TRUE(a < b);
    EXPECT_FALSE(a > b);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 2u);
    EXPECT_EQ(program.instrs[0].op, tp::FpOp::Cmp);
}

TEST(Context, LoopOverheadEmitsIntAndBranch) {
    TpContext ctx;
    ctx.loop_iteration();
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 2u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::IntAlu);
    EXPECT_EQ(program.instrs[1].kind, InstrKind::Branch);
}

TEST(Context, SimulateProducesConsistentReport) {
    TpContext ctx;
    auto a = ctx.make_array(tp::kBinary16, 8);
    auto out = ctx.make_array(tp::kBinary16, 8);
    for (std::size_t i = 0; i < 8; ++i) a.set_raw(i, 0.25 * static_cast<double>(i));
    for (std::size_t i = 0; i < 8; ++i) {
        ctx.loop_iteration();
        const auto x = a.load(i);
        out.store(i, x * x);
    }
    const auto report = simulate(ctx.take_program(false));
    EXPECT_EQ(report.mem_accesses, 16u);
    EXPECT_EQ(report.fp_ops, 8u);
    EXPECT_EQ(report.int_ops, 8u);
    EXPECT_EQ(report.branches, 8u);
    EXPECT_GT(report.cycles, 0u);
    EXPECT_GT(report.energy.total(), 0.0);
    EXPECT_GT(report.energy.fp_ops, 0.0);
    EXPECT_GT(report.energy.memory, 0.0);
    EXPECT_GT(report.energy.other, 0.0);
    // Per-format activity recorded under binary16.
    const auto it = report.per_format.find(tp::kBinary16);
    ASSERT_NE(it, report.per_format.end());
    EXPECT_EQ(it->second.scalar_ops, 8u);
}

TEST(Context, VectorizedRunReducesAccessesAndEnergy) {
    const auto build = [](TpContext& ctx) {
        auto a = ctx.make_array(tp::kBinary8, 32);
        auto b = ctx.make_array(tp::kBinary8, 32);
        auto c = ctx.make_array(tp::kBinary8, 32);
        const auto region = ctx.vector_region();
        for (std::size_t i = 0; i < 32; ++i) {
            const auto x = a.load(i);
            const auto y = b.load(i);
            c.store(i, x + y);
        }
    };
    TpContext scalar_ctx;
    build(scalar_ctx);
    const auto scalar = simulate(scalar_ctx.take_program(false));
    TpContext simd_ctx;
    build(simd_ctx);
    const auto simd = simulate(simd_ctx.take_program(true));
    EXPECT_LT(simd.mem_accesses, scalar.mem_accesses);
    EXPECT_EQ(simd.mem_accesses_vector, simd.mem_accesses);
    EXPECT_LT(simd.energy.total(), scalar.energy.total());
    EXPECT_LT(simd.cycles, scalar.cycles);
}

TEST(Context, TracingContextReservesLastTraceLength) {
    {
        TpContext big;
        big.int_ops(1000);
        EXPECT_EQ(big.take_program(false).instrs.size(), 1000u);
    }
    // The next tracing context on this thread starts at that length...
    TpContext next;
    next.int_ops(1);
    EXPECT_GE(next.take_program(false).instrs.capacity(), 1000u);
    // ...and the one after it at the last length, not the largest one.
    TpContext small;
    small.int_ops(1);
    EXPECT_LT(small.take_program(false).instrs.capacity(), 1000u);
}

} // namespace
