#include "sim/vectorize.hpp"

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "sim/context.hpp"
#include "sim/trace.hpp"

namespace {

using tp::sim::Instr;
using tp::sim::InstrKind;
using tp::sim::TpContext;
using tp::sim::TraceProgram;

TEST(Vectorize, LanesForWidths) {
    EXPECT_EQ(tp::sim::simd_lanes_for(tp::kBinary8), 4);
    EXPECT_EQ(tp::sim::simd_lanes_for(tp::kBinary16), 2);
    EXPECT_EQ(tp::sim::simd_lanes_for(tp::kBinary16Alt), 2);
    EXPECT_EQ(tp::sim::simd_lanes_for(tp::kBinary32), 1);
}

TEST(Vectorize, IndependentBinary8AddsGroupByFour) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 8; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            const auto b = ctx.constant(2.0, tp::kBinary8);
            (void)(a + b);
        }
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 2u);
    EXPECT_EQ(program.groups[0].lanes, 4);
    EXPECT_EQ(program.groups[1].lanes, 4);
    for (const auto& instr : program.instrs) {
        EXPECT_NE(instr.simd_group, 0u); // everything grouped
    }
}

TEST(Vectorize, SixteenBitGroupsByTwo) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary16);
            (void)(a * a);
        }
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 2u);
    EXPECT_EQ(program.groups[0].lanes, 2);
}

TEST(Vectorize, ThirtyTwoBitNeverGroups) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary32);
            (void)(a + a);
        }
    }
    TraceProgram program = ctx.take_program(true);
    EXPECT_TRUE(program.groups.empty());
}

TEST(Vectorize, SerialChainStaysScalar) {
    // acc = ((((acc+x)+x)+x)+x) is a dependence chain: fusing it into one
    // SIMD slot would be wrong, so members must stay scalar.
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        auto acc = ctx.constant(0.0, tp::kBinary8);
        const auto x = ctx.constant(1.0, tp::kBinary8);
        for (int i = 0; i < 4; ++i) acc = acc + x;
    }
    TraceProgram program = ctx.take_program(true);
    EXPECT_TRUE(program.groups.empty());
    for (const auto& instr : program.instrs) {
        EXPECT_EQ(instr.simd_group, 0u);
    }
}

TEST(Vectorize, OutsideRegionNothingGroups) {
    TpContext ctx;
    for (int i = 0; i < 8; ++i) {
        const auto a = ctx.constant(1.0, tp::kBinary8);
        (void)(a + a);
    }
    TraceProgram program = ctx.take_program(true);
    EXPECT_TRUE(program.groups.empty());
}

TEST(Vectorize, NarrowLoadsPackIntoWordAccess) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary8, 8);
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 8; ++i) (void)arr.load(static_cast<std::size_t>(i));
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 2u);
    EXPECT_EQ(program.groups[0].kind, InstrKind::Load);
    EXPECT_EQ(program.groups[0].lanes, 4);
    EXPECT_EQ(program.groups[0].bytes, 4);
}

TEST(Vectorize, LoadsFromDifferentArraysDoNotMix) {
    TpContext ctx;
    auto a = ctx.make_array(tp::kBinary16, 4);
    auto b = ctx.make_array(tp::kBinary16, 4);
    {
        const auto region = ctx.vector_region();
        (void)a.load(0);
        (void)b.load(0);
        (void)a.load(1);
        (void)b.load(1);
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 2u);
    for (const auto& group : program.groups) {
        EXPECT_EQ(group.lanes, 2);
        EXPECT_EQ(group.bytes, 4);
    }
}

TEST(Vectorize, LoadFeedingGroupedMulStaysGrouped) {
    // The canonical pattern: packed loads feed a packed multiply.
    TpContext ctx;
    auto a = ctx.make_array(tp::kBinary8, 4);
    auto b = ctx.make_array(tp::kBinary8, 4);
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto x = a.load(static_cast<std::size_t>(i));
            const auto y = b.load(static_cast<std::size_t>(i));
            (void)(x * y);
        }
    }
    TraceProgram program = ctx.take_program(true);
    // Three groups: load a, load b, mul.
    ASSERT_EQ(program.groups.size(), 3u);
    int loads = 0;
    int muls = 0;
    for (const auto& group : program.groups) {
        EXPECT_EQ(group.lanes, 4);
        if (group.kind == InstrKind::Load) ++loads;
        if (group.kind == InstrKind::FpArith) ++muls;
    }
    EXPECT_EQ(loads, 2);
    EXPECT_EQ(muls, 1);
}

TEST(Vectorize, PartialGroupAtRegionEnd) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 3; ++i) { // 3 of 4 lanes
            const auto a = ctx.constant(1.0, tp::kBinary8);
            (void)(a + a);
        }
    }
    // A scalar op outside the region forces the flush.
    const auto s = ctx.constant(1.0, tp::kBinary32);
    (void)(s + s);
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 1u);
    EXPECT_EQ(program.groups[0].lanes, 3); // partial group, lanes silenced
}

TEST(Vectorize, DependencyOrderPreserved) {
    // Producers must appear before consumers in the rewritten trace.
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary8, 8);
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 8; ++i) {
            const auto x = arr.load(static_cast<std::size_t>(i));
            (void)(x * x);
        }
    }
    TraceProgram program = ctx.take_program(true);
    std::map<std::int32_t, std::size_t> def_pos;
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        if (program.instrs[i].dst >= 0) def_pos[program.instrs[i].dst] = i;
    }
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        for (std::int32_t src :
             {program.instrs[i].src1, program.instrs[i].src2}) {
            if (src < 0) continue;
            const auto it = def_pos.find(src);
            if (it == def_pos.end()) continue;
            EXPECT_LE(it->second, i) << "consumer before producer at " << i;
        }
    }
}

TEST(Vectorize, CmpNeverGroups) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            const auto b = ctx.constant(2.0, tp::kBinary8);
            (void)(a < b);
        }
    }
    TraceProgram program = ctx.take_program(true);
    EXPECT_TRUE(program.groups.empty());
}

TEST(Vectorize, SimdDisabledLeavesTraceAlone) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            (void)(a + a);
        }
    }
    TraceProgram program = ctx.take_program(false);
    EXPECT_TRUE(program.groups.empty());
    for (const auto& instr : program.instrs) EXPECT_EQ(instr.simd_group, 0u);
}

TEST(Vectorize, FullBinary8AddGroupFillsSourceCapacity) {
    // Four lanes, two sources each: srcs holds exactly its capacity.
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            const auto b = ctx.constant(2.0, tp::kBinary8);
            (void)(a + b);
        }
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 1u);
    const auto& group = program.groups[0];
    EXPECT_EQ(group.lanes, 4);
    EXPECT_EQ(group.dsts.size(), tp::sim::kMaxSimdLanes);
    EXPECT_EQ(group.srcs.size(),
              tp::sim::kMaxSimdLanes * tp::sim::kMaxGroupMemberSources);
}

TEST(Vectorize, PackedStoreGroupHasNoDsts) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary8, 4);
    {
        const auto region = ctx.vector_region();
        for (std::size_t i = 0; i < 4; ++i) {
            arr.store(i, ctx.constant(1.0, tp::kBinary8));
        }
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 1u);
    const auto& group = program.groups[0];
    EXPECT_EQ(group.kind, InstrKind::Store);
    EXPECT_EQ(group.lanes, 4);
    EXPECT_EQ(group.bytes, 4);
    EXPECT_EQ(group.dsts.size(), 0u);
    EXPECT_EQ(group.srcs.size(), 4u); // one stored value per lane
}

TEST(Vectorize, InlineIdsRejectOverflow) {
    tp::sim::InlineIds<2> ids;
    ids.push_back(1);
    ids.push_back(2);
    EXPECT_THROW(ids.push_back(3), std::length_error);
    EXPECT_EQ(ids.size(), 2u);
}

TEST(Vectorize, RewritesInPlace) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary8, 8);
    {
        const auto region = ctx.vector_region();
        for (std::size_t i = 0; i < 8; ++i) {
            const auto x = arr.load(i);
            arr.store(i, x * x);
        }
    }
    TraceProgram program = ctx.take_program(false);
    const Instr* buffer = program.instrs.data();
    const std::size_t size = program.instrs.size();
    tp::sim::vectorize(program);
    EXPECT_EQ(program.instrs.data(), buffer);
    EXPECT_EQ(program.instrs.size(), size);
    EXPECT_FALSE(program.groups.empty());
}

TEST(Vectorize, RejectsValueIdsPastValueCount) {
    TraceProgram program;
    Instr add;
    add.kind = InstrKind::FpArith;
    add.fmt = tp::kBinary8;
    add.vectorizable = true;
    add.src1 = 0;
    add.src2 = 1;
    add.dst = 2;
    program.instrs.push_back(add);
    program.value_count = 2; // ids 0 and 1 only
    try {
        tp::sim::vectorize(program);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("value id 2"), std::string::npos)
            << e.what();
    }
    program.value_count = 3;
    EXPECT_NO_THROW(tp::sim::vectorize(program));
}

TEST(Vectorize, GroupOverflowingItsSourceListThrows) {
    // add/sub/mul lanes carry two sources; four three-source adds would
    // need 12 ids where SimdGroup::srcs holds 8.
    TraceProgram program;
    for (std::int32_t lane = 0; lane < 4; ++lane) {
        Instr add;
        add.kind = InstrKind::FpArith;
        add.fmt = tp::kBinary8;
        add.vectorizable = true;
        add.src1 = 0;
        add.src2 = 1;
        add.src3 = 2;
        add.dst = 3 + lane;
        program.instrs.push_back(add);
    }
    program.value_count = 7;
    EXPECT_THROW(tp::sim::vectorize(program), std::length_error);
}

} // namespace
