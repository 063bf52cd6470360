#include "sim/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fpu/latency_model.hpp"

namespace tp::sim {
namespace {

/// Result latency of a scalar instruction.
int latency_of(const Instr& instr) noexcept {
    switch (instr.kind) {
    case InstrKind::IntAlu: return 1;
    case InstrKind::Branch: return 1;
    case InstrKind::Load: return 1; // single-cycle TCDM
    case InstrKind::Store: return 1;
    case InstrKind::FpArith: return fpu::latency_cycles(instr.op, instr.fmt);
    case InstrKind::FpCast: return fpu::cast_latency_cycles();
    }
    return 1;
}

/// A program's operand ids index the scoreboard; the replay refuses one
/// past value_count (or a negative id where an operand is required)
/// instead of writing out of bounds.
[[noreturn]] void throw_bad_id(std::int32_t id, std::size_t index,
                               std::size_t value_count) {
    throw std::invalid_argument("run_pipeline: value id " + std::to_string(id) +
                                " at instruction " + std::to_string(index) +
                                " is out of range (value_count " +
                                std::to_string(value_count) + ")");
}

} // namespace

PipelineResult run_pipeline(const TraceProgram& program, int addr_ops_per_access) {
    PipelineResult result;
    std::vector<std::int64_t> ready(program.value_count, 0);
    std::int64_t next_free_slot = 0; // first cycle the issue stage is free
    std::int64_t fpu_busy_until = 0; // structural hazard for iterative ops

    // Every id is checked where the replay first touches it, so a
    // malformed program throws std::invalid_argument naming the id.
    std::size_t i = 0;
    auto slot_of = [&](std::int32_t id) -> std::size_t {
        if (id < 0 || static_cast<std::size_t>(id) >= ready.size()) {
            throw_bad_id(id, i, ready.size());
        }
        return static_cast<std::size_t>(id);
    };
    auto ready_of = [&](std::int32_t id) -> std::int64_t {
        return id < 0 ? 0 : ready[slot_of(id)];
    };

    for (; i < program.instrs.size(); ++i) {
        const Instr& instr = program.instrs[i];

        if (instr.simd_group != 0) {
            if (instr.simd_group > program.groups.size()) {
                throw std::invalid_argument(
                    "run_pipeline: instruction " + std::to_string(i) +
                    " names SIMD group " + std::to_string(instr.simd_group) + " of " +
                    std::to_string(program.groups.size()));
            }
            const SimdGroup& group = program.groups[instr.simd_group - 1];
            if (group.last_index != i) continue; // issues with its last member
            if (group.kind == InstrKind::Load || group.kind == InstrKind::Store) {
                // Address generation for the single packed access.
                next_free_slot += addr_ops_per_access;
                result.issue_slots += static_cast<std::uint64_t>(addr_ops_per_access);
            }
            std::int64_t issue = next_free_slot;
            for (std::int32_t src : group.srcs) {
                issue = std::max(issue, ready_of(src));
            }
            result.stall_cycles +=
                static_cast<std::uint64_t>(issue - next_free_slot);
            int lat = 1;
            if (group.kind == InstrKind::FpArith) {
                lat = fpu::latency_cycles(group.op, group.fmt);
            }
            for (std::int32_t dst : group.dsts) {
                ready[slot_of(dst)] = issue + lat;
            }
            next_free_slot = issue + 1;
            ++result.issue_slots;
            continue;
        }

        if (instr.kind == InstrKind::Load || instr.kind == InstrKind::Store) {
            // Address generation precedes the access itself; these integer
            // slots also help hide FP latencies of earlier instructions.
            next_free_slot += addr_ops_per_access;
            result.issue_slots += static_cast<std::uint64_t>(addr_ops_per_access);
        }
        std::int64_t issue = next_free_slot;
        issue = std::max(issue, ready_of(instr.src1));
        issue = std::max(issue, ready_of(instr.src2));
        issue = std::max(issue, ready_of(instr.src3));
        if (instr.kind == InstrKind::FpArith &&
            !fpu::is_pipelined(instr.op, instr.fmt)) {
            issue = std::max(issue, fpu_busy_until);
        }
        result.stall_cycles += static_cast<std::uint64_t>(issue - next_free_slot);

        const int lat = latency_of(instr);
        if (instr.dst >= 0) {
            ready[slot_of(instr.dst)] = issue + lat;
        }
        if (instr.kind == InstrKind::FpArith &&
            !fpu::is_pipelined(instr.op, instr.fmt)) {
            fpu_busy_until = issue + fpu::initiation_interval(instr.op, instr.fmt);
        }

        next_free_slot = issue + 1;
        if (instr.kind == InstrKind::Branch) {
            // Taken-branch bubble: the fetch stage loses one slot.
            ++next_free_slot;
            ++result.stall_cycles;
        }
        ++result.issue_slots;
    }

    // Drain: the last write-back defines total cycles.
    std::int64_t end = next_free_slot;
    for (std::int64_t r : ready) end = std::max(end, r);
    result.cycles = static_cast<std::uint64_t>(end);
    return result;
}

} // namespace tp::sim
