// The map-based vectorizer the in-place pass in src/sim/vectorize.cpp
// replaced, kept verbatim as the reference the differential tests compare
// against: open buckets in a std::map, pending producers in an
// std::unordered_map, output into a fresh trace buffer. Same algorithm,
// same commit order; any divergence from sim::vectorize() is a bug in the
// flat pass.
#pragma once

#include <cassert>
#include <map>
#include <tuple>
#include <unordered_map>

#include "sim/trace.hpp"
#include "sim/vectorize.hpp"

namespace tp::sim::reference {

/// Key identifying operations that may share a SIMD group.
struct GroupKey {
    InstrKind kind = InstrKind::FpArith;
    FpOp op = FpOp::Add;
    FpFormat fmt{8, 23};
    std::uint32_t stream = 0;

    [[nodiscard]] auto tie() const noexcept {
        return std::make_tuple(static_cast<int>(kind), static_cast<int>(op),
                               fmt.exp_bits, fmt.mant_bits, stream);
    }
    friend bool operator<(const GroupKey& a, const GroupKey& b) noexcept {
        return a.tie() < b.tie();
    }
};

/// Rewrites a trace so that groupable element operations inside tagged
/// vector regions become adjacent SIMD groups, preserving dependency order.
/// This mirrors what a sub-word vectorizing compiler does with an unrolled
/// loop body: packs independent lanes, keeps serial chains scalar.
class Vectorizer {
public:
    explicit Vectorizer(TraceProgram& program) : program_(program) {}

    void run() {
        Trace input = std::move(program_.instrs);
        program_.instrs = Trace{};
        program_.instrs.reserve(input.size());
        program_.groups.clear();

        for (const Instr& instr : input) {
            process(instr);
        }
        flush_all();
        program_.instrs.shrink_to_fit();
    }

private:
    struct Bucket {
        std::vector<Instr> members;
    };

    void process(const Instr& instr) {
        if (!instr.vectorizable) {
            // Loop plumbing (int/branch) passes through without disturbing
            // open groups; any other scalar instruction may consume pending
            // results, so its producers must be flushed first.
            if (instr.kind == InstrKind::IntAlu || instr.kind == InstrKind::Branch) {
                emit_scalar(instr);
                return;
            }
            flush_producers_of(instr);
            // A scalar FP instruction outside the region ends the region's
            // schedule for safety: flush everything.
            flush_all();
            emit_scalar(instr);
            return;
        }

        const int lanes = lanes_for(instr);
        if (lanes <= 1 || !groupable(instr)) {
            flush_producers_of(instr);
            emit_scalar(instr);
            return;
        }

        const GroupKey key = key_of(instr);
        // A member must not consume a value pending in its own bucket —
        // that would fuse a serial chain into one SIMD slot. Commit the
        // open bucket and start a fresh one with this instruction.
        if (consumes_from(instr, key)) {
            commit(key);
        }
        Bucket& fresh = buckets_[key]; // commit() may have erased it
        fresh.members.push_back(instr);
        if (instr.dst >= 0) pending_dst_[instr.dst] = key;
        if (static_cast<int>(fresh.members.size()) == lanes) {
            commit(key);
        }
    }

    [[nodiscard]] static bool groupable(const Instr& instr) noexcept {
        switch (instr.kind) {
        case InstrKind::FpArith:
            // Only add/sub/mul exist as SIMD datapaths (paper, Fig. 3).
            return instr.op == FpOp::Add || instr.op == FpOp::Sub ||
                   instr.op == FpOp::Mul;
        case InstrKind::Load:
        case InstrKind::Store:
            return instr.bytes > 0 && instr.bytes < 4;
        default:
            return false;
        }
    }

    [[nodiscard]] static int lanes_for(const Instr& instr) noexcept {
        if (instr.kind == InstrKind::Load || instr.kind == InstrKind::Store) {
            return instr.bytes > 0 ? 4 / instr.bytes : 1;
        }
        return simd_lanes_for(instr.fmt);
    }

    [[nodiscard]] static GroupKey key_of(const Instr& instr) noexcept {
        GroupKey key;
        key.kind = instr.kind;
        key.fmt = instr.fmt;
        if (instr.kind == InstrKind::FpArith) {
            key.op = instr.op;
        } else {
            key.stream = instr.stream;
        }
        return key;
    }

    [[nodiscard]] bool consumes_from(const Instr& instr, const GroupKey& key) const {
        for (std::int32_t src : {instr.src1, instr.src2, instr.src3}) {
            if (src < 0) continue;
            const auto it = pending_dst_.find(src);
            if (it != pending_dst_.end() && !(it->second < key) && !(key < it->second)) {
                return true;
            }
        }
        return false;
    }

    void flush_producers_of(const Instr& instr) {
        for (std::int32_t src : {instr.src1, instr.src2, instr.src3}) {
            if (src < 0) continue;
            const auto it = pending_dst_.find(src);
            if (it != pending_dst_.end()) commit(it->second);
        }
    }

    /// Emits the bucket's members: a single member stays scalar; several
    /// members become one SIMD group (partially filled groups are legal —
    /// the unit simply silences the unused lanes). Producers pending in
    /// other buckets are committed first so the output trace stays in
    /// dependency order.
    void commit(GroupKey key) {
        const auto bucket_it = buckets_.find(key);
        if (bucket_it == buckets_.end()) return;
        Bucket bucket = std::move(bucket_it->second);
        buckets_.erase(bucket_it);
        for (const Instr& m : bucket.members) {
            if (m.dst >= 0) pending_dst_.erase(m.dst);
        }
        for (const Instr& m : bucket.members) {
            flush_producers_of(m);
        }
        if (bucket.members.size() == 1) {
            Instr scalar = bucket.members.front();
            scalar.simd_group = 0;
            program_.instrs.push_back(scalar);
            return;
        }

        SimdGroup group;
        group.lanes = static_cast<int>(bucket.members.size());
        group.kind = key.kind;
        group.op = key.op;
        group.fmt = key.fmt;
        const auto group_id = static_cast<std::uint32_t>(program_.groups.size() + 1);
        for (Instr m : bucket.members) {
            m.simd_group = group_id;
            if (m.dst >= 0) group.dsts.push_back(m.dst);
            if (m.src1 >= 0) group.srcs.push_back(m.src1);
            if (m.src2 >= 0) group.srcs.push_back(m.src2);
            if (m.src3 >= 0) group.srcs.push_back(m.src3);
            group.bytes += m.bytes;
            program_.instrs.push_back(m);
        }
        group.last_index = program_.instrs.size() - 1;
        program_.groups.push_back(std::move(group));
    }

    void flush_all() {
        while (!buckets_.empty()) {
            commit(buckets_.begin()->first);
        }
    }

    void emit_scalar(const Instr& instr) {
        program_.instrs.push_back(instr);
        assert(instr.simd_group == 0);
    }

    TraceProgram& program_;
    std::map<GroupKey, Bucket> buckets_;
    std::unordered_map<std::int32_t, GroupKey> pending_dst_;
};

/// Reference counterpart of sim::vectorize().
inline void vectorize(TraceProgram& program) {
    Vectorizer{program}.run();
}

} // namespace tp::sim::reference
