#include "sim/pipeline.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "sim/context.hpp"
#include "sim/trace.hpp"

namespace {

using tp::sim::run_pipeline;
using tp::sim::TpContext;
using tp::sim::TraceProgram;

TEST(Pipeline, EmptyTraceZeroCycles) {
    const TraceProgram program;
    const auto result = run_pipeline(program);
    EXPECT_EQ(result.cycles, 0u);
    EXPECT_EQ(result.stall_cycles, 0u);
}

TEST(Pipeline, IndependentIntOpsIssueBackToBack) {
    TpContext ctx;
    ctx.int_ops(10);
    const auto result = run_pipeline(ctx.take_program(false));
    EXPECT_EQ(result.cycles, 10u);
    EXPECT_EQ(result.stall_cycles, 0u);
    EXPECT_EQ(result.issue_slots, 10u);
}

TEST(Pipeline, BranchPaysOneBubble) {
    TpContext ctx;
    ctx.branch(1);
    const auto result = run_pipeline(ctx.take_program(false));
    EXPECT_EQ(result.cycles, 2u);
    EXPECT_EQ(result.stall_cycles, 1u);
}

TEST(Pipeline, DependentFp32OpsStall) {
    // c = a + b; d = c + a: the second add must wait for the first's
    // 2-cycle latency, costing one stall in between.
    TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary32);
    const auto b = ctx.constant(2.0, tp::kBinary32);
    const auto c = a + b;
    const auto d = c + a;
    (void)d;
    const auto result = run_pipeline(ctx.take_program(false));
    // add1 issues @0 (ready @2), add2 issues @2: one stall cycle (@1).
    EXPECT_EQ(result.stall_cycles, 1u);
    EXPECT_EQ(result.cycles, 4u); // add2 result ready at cycle 4
}

TEST(Pipeline, IndependentFp32OpsDoNotStall) {
    TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary32);
    const auto b = ctx.constant(2.0, tp::kBinary32);
    (void)(a + b);
    (void)(a * b);
    (void)(b - a);
    const auto result = run_pipeline(ctx.take_program(false));
    EXPECT_EQ(result.stall_cycles, 0u);
    EXPECT_EQ(result.issue_slots, 3u);
}

TEST(Pipeline, Binary8DependentOpsDoNotStall) {
    // binary8 arithmetic is single cycle, so even a dependence chain
    // issues back-to-back.
    TpContext ctx;
    auto acc = ctx.constant(0.0, tp::kBinary8);
    const auto x = ctx.constant(1.0, tp::kBinary8);
    for (int i = 0; i < 8; ++i) acc = acc + x;
    const auto result = run_pipeline(ctx.take_program(false));
    EXPECT_EQ(result.stall_cycles, 0u);
    EXPECT_EQ(result.cycles, 8u);
}

TEST(Pipeline, CompilerCanHideFpLatencyWithIndependentWork) {
    // The paper notes measured cycles depend on the compiler's ability to
    // fill latency slots. An independent int op between producer and
    // consumer hides the stall entirely.
    TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary16);
    const auto c = a + a;
    ctx.int_ops(1); // independent filler
    (void)(c + a);
    const auto result = run_pipeline(ctx.take_program(false));
    EXPECT_EQ(result.stall_cycles, 0u);
}

TEST(Pipeline, IterativeDivBlocksTheUnit) {
    TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary32);
    const auto b = ctx.constant(3.0, tp::kBinary32);
    (void)(a / b);
    (void)(a / b); // second div waits for the non-pipelined unit
    const auto result = run_pipeline(ctx.take_program(false));
    EXPECT_GE(result.stall_cycles, 10u);
}

TEST(Pipeline, LoadLatencyOneNoStallOnImmediateUse) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary32, 2);
    const auto x = arr.load(0);
    const auto y = arr.load(1);
    (void)(x + y);
    const auto result = run_pipeline(ctx.take_program(false));
    EXPECT_EQ(result.stall_cycles, 0u);
}

TEST(Pipeline, SimdGroupIssuesOnce) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            const auto b = ctx.constant(2.0, tp::kBinary8);
            (void)(a + b);
        }
    }
    const auto program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 1u);
    const auto result = run_pipeline(program);
    EXPECT_EQ(result.issue_slots, 1u);
    EXPECT_EQ(result.cycles, 1u);
}

TEST(Pipeline, VectorizationShortensExecution) {
    const auto build = [](TpContext& ctx) {
        auto a = ctx.make_array(tp::kBinary8, 64);
        auto b = ctx.make_array(tp::kBinary8, 64);
        auto c = ctx.make_array(tp::kBinary8, 64);
        const auto region = ctx.vector_region();
        for (std::size_t i = 0; i < 64; ++i) {
            const auto x = a.load(i);
            const auto y = b.load(i);
            c.store(i, x + y);
        }
    };
    TpContext scalar_ctx;
    build(scalar_ctx);
    const auto scalar = run_pipeline(scalar_ctx.take_program(false));
    TpContext simd_ctx;
    build(simd_ctx);
    const auto simd = run_pipeline(simd_ctx.take_program(true));
    EXPECT_LT(simd.cycles, scalar.cycles);
    // Four lanes over loads, adds and stores: close to a 4x reduction.
    EXPECT_LT(simd.cycles * 3, scalar.cycles);
}

TEST(Pipeline, GroupDependencyStillStalls) {
    // Two dependent 16-bit SIMD adds: the second group waits for the
    // first group's 2-cycle latency.
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        const auto a = ctx.constant(1.0, tp::kBinary16);
        const auto b = ctx.constant(2.0, tp::kBinary16);
        const auto c = a + b;  // lane 0 of group 1
        const auto d = a * b;  // (mul bucket)
        const auto e = b + b;  // lane 1 of group 1
        const auto f = b * b;  // (mul bucket)
        (void)(c + e);         // depends on group 1
        (void)(d + f);
    }
    const auto program = ctx.take_program(true);
    const auto result = run_pipeline(program);
    EXPECT_GE(result.stall_cycles, 1u);
}

/// A hand-built one-add program: dst 2 from sources 0 and 1.
TraceProgram one_add(std::size_t value_count) {
    TraceProgram program;
    tp::sim::Instr add;
    add.kind = tp::sim::InstrKind::FpArith;
    add.fmt = tp::kBinary32;
    add.src1 = 0;
    add.src2 = 1;
    add.dst = 2;
    program.instrs.push_back(add);
    program.value_count = value_count;
    return program;
}

/// The message run_pipeline throws for `program`, or "" when it does not.
std::string pipeline_error(const TraceProgram& program) {
    try {
        (void)run_pipeline(program);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(Pipeline, RejectsDstPastValueCount) {
    // ready[dst] is written unchecked in the replay loop: an id at
    // value_count must be refused up front, naming the id.
    const std::string error = pipeline_error(one_add(2));
    EXPECT_NE(error.find("value id 2"), std::string::npos) << error;
    EXPECT_EQ(pipeline_error(one_add(3)), "");
}

TEST(Pipeline, RejectsSourcePastValueCount) {
    TraceProgram program = one_add(3);
    program.instrs[0].src2 = 7;
    const std::string error = pipeline_error(program);
    EXPECT_NE(error.find("value id 7"), std::string::npos) << error;
}

TEST(Pipeline, RejectsMalformedSimdGroups) {
    TraceProgram program = one_add(3);
    tp::sim::SimdGroup group;
    group.lanes = 1;
    group.dsts.push_back(5); // past value_count
    program.groups.push_back(group);
    program.instrs[0].simd_group = 1;
    EXPECT_NE(pipeline_error(program).find("value id 5"), std::string::npos);

    program.groups.clear(); // the instruction now names a missing group
    EXPECT_NE(pipeline_error(program).find("SIMD group 1"), std::string::npos);
}

} // namespace
