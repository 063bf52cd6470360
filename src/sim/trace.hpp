// Dynamic instruction trace of a transprecision program.
//
// The PULPino virtual platform the paper uses is cycle accurate and reports
// per-instruction cycle counts. This reproduction gets the same quantities
// by executing the real kernels (with real FlexFloat arithmetic) while
// recording a typed instruction trace, then replaying the trace through an
// in-order pipeline model with true data dependencies (sim/pipeline.hpp)
// and integrating energy over it (sim/platform.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "flexfloat/stats.hpp"
#include "types/format.hpp"

namespace tp::sim {

enum class InstrKind : std::uint8_t {
    IntAlu,  // integer ALU / address generation
    Branch,  // control flow (one delay slot modelled as a stall)
    Load,    // data memory read
    Store,   // data memory write
    FpArith, // FP operation executed on the transprecision FPU
    FpCast,  // FP<->FP or FP<->int conversion (single cycle)
};

/// One dynamic instruction. `dst`/`src1`/`src2` are SSA-style value ids
/// assigned by the tracing context (-1 when absent); the pipeline model
/// uses them to reproduce data-dependency stalls.
struct Instr {
    InstrKind kind = InstrKind::IntAlu;
    FpOp op = FpOp::Add;     // valid for FpArith
    FpFormat fmt{8, 23};     // operand format (FpArith/FpCast/Load/Store)
    /// Cast target format — meaningful for FpCast only, where the tracing
    /// context always fills it; everywhere else it stays kNoFormat, so a
    /// consumer that forgets to check kind (or has_cast_target()) reads an
    /// invalid format instead of silently misreading an arithmetic
    /// instruction as a binary32 cast.
    FpFormat fmt2 = kNoFormat;
    std::uint8_t bytes = 0;  // access width for Load/Store
    bool vectorizable = false; // emitted inside a tagged vector region
    std::uint32_t simd_group = 0; // 0 = scalar, else 1-based group id
    std::uint32_t stream = 0;     // array id, for grouping memory accesses
    std::int32_t dst = -1;
    std::int32_t src1 = -1;
    std::int32_t src2 = -1;
    std::int32_t src3 = -1; // third operand (fused multiply-add)

    [[nodiscard]] constexpr bool has_cast_target() const noexcept {
        return fmt2.valid();
    }
};

// Traces run to hundreds of thousands of instructions; the record stays
// at half a cache line.
static_assert(sizeof(Instr) == 32, "Instr is no longer 32 bytes");

using Trace = std::vector<Instr>;

/// Most lanes a SIMD group packs: four 8-bit lanes in the 32-bit datapath.
inline constexpr std::size_t kMaxSimdLanes = 4;

/// FP operations with a SIMD datapath on the unit (paper, Fig. 3). Only
/// these, narrow loads and narrow stores are grouped by sim::vectorize().
[[nodiscard]] constexpr bool has_simd_datapath(FpOp op) noexcept {
    return op == FpOp::Add || op == FpOp::Sub || op == FpOp::Mul;
}

/// Value-id sources an FpArith instruction of `op` reads.
[[nodiscard]] constexpr std::size_t fp_op_sources(FpOp op) noexcept {
    switch (op) {
    case FpOp::Fma: return 3;
    case FpOp::Sqrt:
    case FpOp::Neg:
    case FpOp::Abs:
    case FpOp::ToInt: return 1;
    case FpOp::FromInt: return 0;
    default: return 2;
    }
}

/// Most value-id sources one member of a SIMD group reads: two for the
/// arithmetic datapaths, one for a packed store, none for a packed load.
inline constexpr std::size_t kMaxGroupMemberSources = 2;

namespace detail {
[[nodiscard]] constexpr std::size_t max_simd_datapath_sources() noexcept {
    std::size_t most = 1; // a packed store's value
    for (std::size_t i = 0; i < kFpOpCount; ++i) {
        const auto op = static_cast<FpOp>(i);
        if (has_simd_datapath(op) && fp_op_sources(op) > most) {
            most = fp_op_sources(op);
        }
    }
    return most;
}
} // namespace detail

// SimdGroup::srcs is sized from kMaxGroupMemberSources: giving a wider op
// a SIMD datapath must widen it too.
static_assert(detail::max_simd_datapath_sources() <= kMaxGroupMemberSources,
              "a groupable op reads more sources than SimdGroup::srcs holds");

/// A fixed-capacity list of value ids stored inline, so a SIMD group owns
/// no heap memory. push_back() past the capacity throws std::length_error.
template <std::size_t Capacity>
class InlineIds {
public:
    void push_back(std::int32_t id) {
        if (size_ == Capacity) {
            throw std::length_error("InlineIds: capacity exceeded");
        }
        ids_[size_++] = id;
    }

    [[nodiscard]] const std::int32_t* begin() const noexcept { return ids_.data(); }
    [[nodiscard]] const std::int32_t* end() const noexcept {
        return ids_.data() + size_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    friend bool operator==(const InlineIds& a, const InlineIds& b) noexcept {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

private:
    static_assert(Capacity <= 255, "size_ is one byte");
    std::array<std::int32_t, Capacity> ids_{};
    std::uint8_t size_ = 0;
};

/// A SIMD group created by the vectorization pass: `lanes` element
/// operations retired by a single instruction slot. Member instructions are
/// adjacent in the rewritten trace; the group issues at `last_index`.
///
/// The operand lists are inline: `dsts` holds one id per lane
/// (kMaxSimdLanes) and `srcs` kMaxGroupMemberSources per lane — 4 and 8
/// ids. A packed store group has no `dsts`.
struct SimdGroup {
    InlineIds<kMaxSimdLanes> dsts;
    InlineIds<kMaxSimdLanes * kMaxGroupMemberSources> srcs;
    std::size_t last_index = 0; // trace index at which the group issues
    int lanes = 0;
    int bytes = 0; // total access width for packed Load/Store groups
    InstrKind kind = InstrKind::FpArith;
    FpOp op = FpOp::Add;
    FpFormat fmt{8, 23};

    friend bool operator==(const SimdGroup&, const SimdGroup&) = default;
};

/// The concrete value an SSA id took in a recorded execution, plus the
/// format it was created in. Filled only under
/// TpContext::Config::record_values (static-analysis captures); ids are
/// dense, so records are indexed directly by value id.
struct ValueRecord {
    double value = 0.0;
    FpFormat fmt = kNoFormat;
};

/// One program-output element observed through TpArray::raw() in a
/// recorded execution: the producing value id (-1 when the element was
/// written by set_raw only and never stored), the element format of the
/// array it was read from, and the value itself. The static analysis
/// inverts its per-value error model at exactly these taps.
struct OutputTap {
    double value = 0.0;
    FpFormat fmt = kNoFormat;
    std::int32_t value_id = -1;
};

/// A complete traced execution: the instruction stream, the SIMD groups
/// annotated by vectorize(), and the number of value ids in use. `values`
/// and `output_taps` are populated only by record_values captures
/// (sim/context.hpp) — empty for ordinary traces.
struct TraceProgram {
    Trace instrs;
    std::vector<SimdGroup> groups;
    std::size_t value_count = 0;
    std::vector<ValueRecord> values;
    std::vector<OutputTap> output_taps;
};

} // namespace tp::sim
