#include "sim/context.hpp"

#include <cmath>

#include <gtest/gtest.h>

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
