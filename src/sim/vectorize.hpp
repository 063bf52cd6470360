// Sub-word SIMD packing pass.
//
// FlexFloat itself does not vectorize (paper, Section V-A): vectorizable
// program sections are tagged manually in the source, and the toolchain is
// assumed to emit SIMD instructions for them. This pass models that step:
// within tagged regions it groups element operations of the same kind and
// format into SIMD groups of 32/width lanes (two 16-bit or four 8-bit
// lanes), and groups narrow memory accesses to the same array into packed
// 32-bit accesses. 32-bit operations are never grouped — the unit has a
// single 32-bit slice.
#pragma once

#include "sim/trace.hpp"

namespace tp::sim {

/// Annotates `program` in place with SIMD groups. Instructions that join a
/// group get a non-zero simd_group id; the group issues at the trace index
/// of its last member. Groups never span a vector-region boundary (the
/// builder flushes keys when the region closes, yielding partially filled
/// groups only as scalars).
///
/// The pass reorders `program.instrs` inside its own buffer: the trace
/// keeps its length and its storage, and only `groups` is rebuilt. Its
/// allocations per call: the group list, reserved once at its bound of
/// instrs.size() / 2, a table of value_count ints, and a few bucket slots.
///
/// Contract: every operand id (dst/src1/src2/src3) is below
/// `program.value_count`, negative meaning "no operand"; a program that
/// breaks it gets std::invalid_argument naming the id. A group whose
/// members read more values than SimdGroup::srcs holds (possible only in
/// hand-built traces) gets std::length_error. Either way the program is
/// left partly rewritten.
void vectorize(TraceProgram& program);

/// Lanes a format's width allows in a 32-bit datapath (1, 2 or 4).
[[nodiscard]] int simd_lanes_for(FpFormat format) noexcept;

} // namespace tp::sim
