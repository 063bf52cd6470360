#include "sim/vectorize.hpp"

#include <array>
#include <cassert>
#include <compare>
#include <stdexcept>
#include <string>
#include <vector>

namespace tp::sim {
namespace {

/// Key identifying operations that may share a SIMD group. Ordered
/// lexicographically by (kind, op, fmt, stream): flush_all() commits open
/// buckets in this order.
struct GroupKey {
    InstrKind kind = InstrKind::FpArith;
    FpOp op = FpOp::Add;
    FpFormat fmt{8, 23};
    std::uint32_t stream = 0;

    friend constexpr auto operator<=>(const GroupKey&, const GroupKey&) = default;
};

[[nodiscard]] bool groupable(const Instr& instr) noexcept {
    switch (instr.kind) {
    case InstrKind::FpArith:
        return has_simd_datapath(instr.op);
    case InstrKind::Load:
    case InstrKind::Store:
        return instr.bytes > 0 && instr.bytes < 4;
    default:
        return false;
    }
}

[[nodiscard]] int lanes_for(const Instr& instr) noexcept {
    if (instr.kind == InstrKind::Load || instr.kind == InstrKind::Store) {
        return instr.bytes > 0 ? 4 / instr.bytes : 1;
    }
    return simd_lanes_for(instr.fmt);
}

[[nodiscard]] GroupKey key_of(const Instr& instr) noexcept {
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

/// Rewrites a trace so that groupable element operations inside tagged
/// vector regions become adjacent SIMD groups, preserving dependency order.
/// This mirrors what a sub-word vectorizing compiler does with an unrolled
/// loop body: packs independent lanes, keeps serial chains scalar.
///
/// The rewrite runs inside the trace's own buffer. Every instruction is
/// written out after it was read, so the write cursor never passes the
/// read cursor; process() takes each instruction by value before any
/// write can land on its slot. Open buckets live in a small slot table
/// (a bucket commits at `lanes` <= kMaxSimdLanes members) and pending
/// producers in a flat table indexed by value id: the pass allocates
/// those two tables and the group list, nothing per instruction.
class Vectorizer {
public:
    explicit Vectorizer(TraceProgram& program)
        : program_(program), pending_(program.value_count, kNoSlot) {}

    void run() {
        program_.groups.clear();
        const std::size_t n = program_.instrs.size();
        // A group has at least two members, so n / 2 bounds the list and
        // it never regrows; capacity no group reaches is never touched and
        // stays non-resident.
        program_.groups.reserve(n / 2);
        for (read_ = 0; read_ < n; ++read_) {
            process(program_.instrs[read_]);
        }
        flush_all();
        assert(write_ == n && "vectorize emits every instruction exactly once");
    }

private:
    static constexpr int kNoSlot = -1;

    /// An open bucket: same-key members waiting to fill a SIMD group.
    struct Slot {
        GroupKey key;
        std::array<Instr, kMaxSimdLanes> members{};
        std::size_t count = 0;
        bool open = false;
    };

    void process(Instr instr) {
        check_ids(instr);
        if (!instr.vectorizable) {
            // Loop plumbing (int/branch) passes through without disturbing
            // open groups; any other scalar instruction may consume pending
            // results, so its producers must be flushed first.
            if (instr.kind == InstrKind::IntAlu || instr.kind == InstrKind::Branch) {
                emit(instr);
                return;
            }
            flush_producers_of(instr);
            // A scalar FP instruction outside the region ends the region's
            // schedule for safety: flush everything.
            flush_all();
            emit(instr);
            return;
        }

        const int lanes = lanes_for(instr);
        if (lanes <= 1 || !groupable(instr)) {
            flush_producers_of(instr);
            emit(instr);
            return;
        }

        const GroupKey key = key_of(instr);
        int slot = find_slot(key);
        // A member must not consume a value pending in its own bucket —
        // that would fuse a serial chain into one SIMD slot. Commit the
        // open bucket and start a fresh one with this instruction.
        if (slot != kNoSlot && consumes_from(instr, slot)) {
            commit(slot);
            slot = kNoSlot;
        }
        if (slot == kNoSlot) slot = open_slot(key);
        Slot& bucket = slots_[static_cast<std::size_t>(slot)];
        bucket.members[bucket.count++] = instr;
        if (instr.dst >= 0) pending_[static_cast<std::size_t>(instr.dst)] = slot;
        // Same-key members share their lane count whenever an access's
        // width matches its format (as TpContext emits them); `>=` keeps a
        // bucket within kMaxSimdLanes for hand-built traces that mix widths.
        if (bucket.count >= static_cast<std::size_t>(lanes)) commit(slot);
    }

    /// Every id indexes pending_, so each is checked before first use.
    void check_ids(const Instr& instr) const {
        for (const std::int32_t id : {instr.dst, instr.src1, instr.src2, instr.src3}) {
            if (id >= 0 && static_cast<std::size_t>(id) >= pending_.size()) {
                throw std::invalid_argument(
                    "vectorize: value id " + std::to_string(id) + " at instruction " +
                    std::to_string(read_) + " is out of range (value_count " +
                    std::to_string(pending_.size()) + ")");
            }
        }
    }

    [[nodiscard]] int find_slot(const GroupKey& key) const noexcept {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].open && slots_[i].key == key) return static_cast<int>(i);
        }
        return kNoSlot;
    }

    int open_slot(const GroupKey& key) {
        std::size_t i = 0;
        while (i < slots_.size() && slots_[i].open) ++i;
        if (i == slots_.size()) slots_.emplace_back();
        Slot& slot = slots_[i];
        slot.key = key;
        slot.count = 0;
        slot.open = true;
        ++open_count_;
        return static_cast<int>(i);
    }

    [[nodiscard]] int pending_slot(std::int32_t id) const noexcept {
        return id < 0 ? kNoSlot : pending_[static_cast<std::size_t>(id)];
    }

    [[nodiscard]] bool consumes_from(const Instr& instr, int slot) const noexcept {
        return pending_slot(instr.src1) == slot || pending_slot(instr.src2) == slot ||
               pending_slot(instr.src3) == slot;
    }

    void flush_producers_of(const Instr& instr) {
        for (const std::int32_t src : {instr.src1, instr.src2, instr.src3}) {
            const int slot = pending_slot(src);
            if (slot != kNoSlot) commit(slot);
        }
    }

    /// Emits the bucket's members: a single member stays scalar; several
    /// members become one SIMD group (partially filled groups are legal —
    /// the unit simply silences the unused lanes). Producers pending in
    /// other buckets are committed first so the output trace stays in
    /// dependency order. Commits never open slots, so `bucket` stays put
    /// while the producers' commits run.
    void commit(int index) {
        Slot& bucket = slots_[static_cast<std::size_t>(index)];
        assert(bucket.open && "pending producers point at open buckets");
        bucket.open = false;
        --open_count_;
        const std::size_t count = bucket.count;
        for (std::size_t k = 0; k < count; ++k) {
            const std::int32_t dst = bucket.members[k].dst;
            if (dst >= 0) pending_[static_cast<std::size_t>(dst)] = kNoSlot;
        }
        for (std::size_t k = 0; k < count; ++k) {
            flush_producers_of(bucket.members[k]);
        }
        if (count == 1) {
            Instr scalar = bucket.members[0];
            scalar.simd_group = 0;
            write(scalar);
            return;
        }

        SimdGroup group;
        group.lanes = static_cast<int>(count);
        group.kind = bucket.key.kind;
        group.op = bucket.key.op;
        group.fmt = bucket.key.fmt;
        const auto group_id = static_cast<std::uint32_t>(program_.groups.size() + 1);
        for (std::size_t k = 0; k < count; ++k) {
            Instr m = bucket.members[k];
            m.simd_group = group_id;
            if (m.dst >= 0) group.dsts.push_back(m.dst);
            if (m.src1 >= 0) group.srcs.push_back(m.src1);
            if (m.src2 >= 0) group.srcs.push_back(m.src2);
            if (m.src3 >= 0) group.srcs.push_back(m.src3);
            group.bytes += m.bytes;
            write(m);
        }
        group.last_index = write_ - 1;
        program_.groups.push_back(group);
    }

    /// Commits every open bucket, smallest key first.
    void flush_all() {
        while (open_count_ > 0) {
            std::size_t smallest = slots_.size();
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                if (slots_[i].open &&
                    (smallest == slots_.size() || slots_[i].key < slots_[smallest].key)) {
                    smallest = i;
                }
            }
            commit(static_cast<int>(smallest));
        }
    }

    void emit(const Instr& instr) {
        assert(instr.simd_group == 0);
        write(instr);
    }

    void write(const Instr& instr) {
        assert(write_ <= read_ && "the write cursor never passes the read cursor");
        program_.instrs[write_++] = instr;
    }

    TraceProgram& program_;
    std::vector<int> pending_; // value id -> slot of its pending producer
    std::vector<Slot> slots_;
    std::size_t open_count_ = 0;
    std::size_t read_ = 0;
    std::size_t write_ = 0;
};

} // namespace

int simd_lanes_for(FpFormat format) noexcept {
    const int width = format.width_bits();
    if (width <= 8) return 4;
    if (width <= 16) return 2;
    return 1;
}

void vectorize(TraceProgram& program) {
    Vectorizer{program}.run();
}

} // namespace tp::sim
