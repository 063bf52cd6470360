// Transprecision execution context: the programming interface the
// benchmark applications are written against.
//
// A kernel computes on TpValue handles (dynamic-format FlexFloat values)
// and TpArray storage. Every arithmetic operation, cast, load and store is
// executed with bit-exact FlexFloat semantics *and*, when tracing is
// enabled, recorded into the instruction trace the virtual platform
// replays. With tracing disabled the same kernel doubles as the fast
// re-runnable binary the precision-tuning loop needs.
//
// Formats are per-value (per variable group in the applications), so one
// kernel source serves the binary32 baseline, every tuning trial, and the
// final mixed-format configuration — exactly the property FlexFloat's
// template class gives the paper's programs, transplanted to runtime
// formats.
//
// Two paths, one rounding. Every per-element entry point a kernel calls
// (TpValue arithmetic, compares and casts, TpArray load/store, from_int,
// int_ops/branch) is inline and first asks TpContext::compute_only(): is
// this a context with nothing to record — no trace, no value records, no
// binary64 shadow, no per-context backend pin — on a thread whose
// FlexFloat statistics are off? Then the op is just the tp::arith call,
// the adopt of its already-rounded result and an id of -1 — what an
// untraced tuning trial needs, with no call into context.cpp. Otherwise the op takes the
// out-of-line instrumented body (`*_slow` / `emit_*` in context.cpp),
// which traces, records, shadows and counts exactly as it always has.
// Both paths round through the same tp::arith entry points (which still
// honor the process and thread force-emulated knobs), so their results are
// bit-identical by construction, and the split needs no knob of its own:
// the choice is a pure function of the Config and the thread's stats flag
// that already exist.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "flexfloat/flexfloat_dyn.hpp"
#include "flexfloat/stats.hpp"
#include "sim/trace.hpp"
#include "types/encoding.hpp"
#include "types/format.hpp"

namespace tp::sim {

class TpContext;

/// A traced FP value: FlexFloat semantics plus an SSA id for the pipeline
/// model's dependency tracking. Arithmetic requires matching formats
/// (asserted by FlexFloatDyn); casts are explicit via cast_to().
class TpValue {
public:
    TpValue() noexcept = default;

    [[nodiscard]] double to_double() const noexcept { return value_.value(); }
    [[nodiscard]] FpFormat format() const noexcept { return value_.format(); }
    [[nodiscard]] const FlexFloatDyn& flex() const noexcept { return value_; }

    /// Explicit format conversion; emits a cast instruction.
    [[nodiscard]] TpValue cast_to(FpFormat target) const;

    friend TpValue operator+(const TpValue& a, const TpValue& b) {
        return binary(FpOp::Add, a, b);
    }
    friend TpValue operator-(const TpValue& a, const TpValue& b) {
        return binary(FpOp::Sub, a, b);
    }
    friend TpValue operator*(const TpValue& a, const TpValue& b) {
        return binary(FpOp::Mul, a, b);
    }
    friend TpValue operator/(const TpValue& a, const TpValue& b) {
        return binary(FpOp::Div, a, b);
    }
    friend TpValue operator-(const TpValue& a) { return unary(FpOp::Neg, a); }
    friend TpValue sqrt(const TpValue& a) { return unary(FpOp::Sqrt, a); }
    friend TpValue abs(const TpValue& a) { return unary(FpOp::Abs, a); }
    /// Fused multiply-add instruction: a * b + c, single rounding.
    friend TpValue fma(const TpValue& a, const TpValue& b, const TpValue& c) {
        return ternary(FpOp::Fma, a, b, c);
    }

    // Comparisons execute a single-cycle FP compare on the unit.
    friend bool operator<(const TpValue& a, const TpValue& b) {
        return compare(a, b, a.value_ < b.value_);
    }
    friend bool operator<=(const TpValue& a, const TpValue& b) {
        return compare(a, b, a.value_ <= b.value_);
    }
    friend bool operator>(const TpValue& a, const TpValue& b) {
        return compare(a, b, a.value_ > b.value_);
    }
    friend bool operator>=(const TpValue& a, const TpValue& b) {
        return compare(a, b, a.value_ >= b.value_);
    }

private:
    friend class TpContext;
    friend class TpArray;
    TpValue(TpContext* ctx, FlexFloatDyn value, std::int32_t id) noexcept
        : value_(value), id_(id), ctx_(ctx) {}

    /// The context an operation executes on: the first operand's, or the
    /// next one's when the first is a default-constructed TpValue.
    [[nodiscard]] static TpContext* context_of(const TpValue& a,
                                               const TpValue& b) noexcept {
        TpContext* ctx = a.ctx_ != nullptr ? a.ctx_ : b.ctx_;
        assert(ctx != nullptr && "TpValue arithmetic requires a live context");
        assert((a.ctx_ == nullptr || b.ctx_ == nullptr || a.ctx_ == b.ctx_) &&
               "operands belong to different contexts");
        return ctx;
    }

    // The ops compute their own result through the arithmetic backend
    // (flexfloat/arith_backend.hpp). The inline entry points (defined after
    // TpContext) take the compute-only path when the context is
    // compute_only() and fall back to the instrumented *_slow bodies in
    // context.cpp otherwise, which honor the owning context's
    // force_emulated policy, shadow mode, recording and tracing; results
    // adopt the already-rounded value.
    static TpValue binary(FpOp op, const TpValue& a, const TpValue& b);
    static TpValue ternary(FpOp op, const TpValue& a, const TpValue& b,
                           const TpValue& c);
    static TpValue unary(FpOp op, const TpValue& a);
    static bool compare(const TpValue& a, const TpValue& b, bool result);
    static TpValue binary_slow(FpOp op, const TpValue& a, const TpValue& b);
    static TpValue ternary_slow(FpOp op, const TpValue& a, const TpValue& b,
                                const TpValue& c);
    static TpValue unary_slow(FpOp op, const TpValue& a);
    static void compare_slow(const TpValue& a, const TpValue& b);
    [[nodiscard]] TpValue cast_slow(FpFormat target) const;

    FlexFloatDyn value_{};
    std::int32_t id_ = -1;
    TpContext* ctx_ = nullptr;
};

/// Array storage in a fixed element format. Raw accessors touch the backing
/// store without emitting instructions (workload setup / result readout);
/// load()/store() model real data-memory traffic of element width.
class TpArray {
public:
    [[nodiscard]] FpFormat format() const noexcept { return format_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    /// Setup-time write: quantized to the element format (kept exact in
    /// binary64 shadow mode), no instruction. Defined after TpContext.
    void set_raw(std::size_t i, double value) noexcept;
    /// Readout without instruction emission. Under a record_values capture
    /// each read is additionally recorded as an output tap (the element's
    /// last-stored value id, format and value) — the anchor points the
    /// static analysis inverts its error model at. Defined after TpContext.
    [[nodiscard]] double raw(std::size_t i) const;

    /// Simulated load: one data memory access of storage_bytes() width.
    [[nodiscard]] TpValue load(std::size_t i);
    /// Simulated store; the value's format must equal the element format
    /// (cast explicitly first, as the type system demands).
    void store(std::size_t i, const TpValue& value);

private:
    friend class TpContext;
    TpArray(TpContext* ctx, std::uint32_t stream, FpFormat format, std::size_t n);

    // Instrumented bodies of load/store (context.cpp), taken whenever the
    // owning context is not compute_only().
    [[nodiscard]] TpValue load_slow(std::size_t i);
    void store_slow(std::size_t i, const TpValue& value);

    TpContext* ctx_;
    std::uint32_t stream_;
    FpFormat format_;
    std::vector<double> data_;
    /// Last value id stored per element (-1 for set_raw-only elements);
    /// allocated only under record_values captures, else empty.
    std::vector<std::int32_t> writers_;
};

class TpContext {
public:
    struct Config {
        bool trace = true; // false: compute only (fast tuning runs)
        /// Pin every instruction this context executes to the emulated
        /// arithmetic backend (differential testing; results are
        /// bit-identical to the native fast path by contract). The
        /// process/thread knobs in flexfloat/arith_backend.hpp force the
        /// emulated path independently of this flag.
        bool force_emulated = false;
        /// Record the concrete value (and creation format) of every SSA id
        /// into TraceProgram::values, and every TpArray::raw() readout into
        /// TraceProgram::output_taps. Requires trace — the records are
        /// keyed by the ids the trace assigns. Static-analysis captures
        /// (src/analysis/) are the only intended user.
        bool record_values = false;
        /// Compute every operation in plain binary64, ignoring the formats
        /// (which stay recorded in the trace): casts and loads pass values
        /// through, set_raw skips quantization, arithmetic never rounds.
        /// Control flow then follows the binary64 golden execution exactly,
        /// turning the per-value formats into pure dataflow tags — the
        /// shadow reference run the static analysis captures once per
        /// input set (with a per-signal tagging config, the format of a
        /// value identifies the signal that produced it).
        bool binary64_shadow = false;
    };

    TpContext() : TpContext(Config{}) {}
    /// A tracing context reserves its trace at the length of the last
    /// trace taken (take_program) on this thread, so repeated runs of one
    /// kernel emit without regrowing the buffer.
    explicit TpContext(Config config);
    TpContext(const TpContext&) = delete;
    TpContext& operator=(const TpContext&) = delete;

    /// A register-resident constant: no instruction is emitted (the value
    /// is materialized once outside the measured kernel, like FP literals
    /// kept in registers by the compiler), but a tracing context assigns it
    /// an id, recorded under record_values — constants are the leaves of
    /// the dataflow graph. Untraced contexts assign no ids at all.
    [[nodiscard]] TpValue constant(double value, FpFormat format) {
        const FlexFloatDyn ff = config_.binary64_shadow
                                    ? FlexFloatDyn::from_raw(value, format)
                                    : FlexFloatDyn{value, format};
        const std::int32_t id = config_.trace ? next_id() : -1;
        record_value(id, ff.value(), format);
        return TpValue{this, ff, id};
    }

    /// Integer -> FP conversion instruction (e.g. loop index entering the
    /// FP dataflow).
    [[nodiscard]] TpValue from_int(std::int64_t value, FpFormat format);

    /// Array backed by the simulated data memory.
    [[nodiscard]] TpArray make_array(FpFormat format, std::size_t n) {
        return TpArray{this, next_stream_++, format, n};
    }

    /// Integer ALU work (index arithmetic, address generation, selects).
    void int_ops(int n = 1) {
        if (config_.trace) emit_int_ops(n);
    }
    /// Control transfer; pays a pipeline bubble when simulated.
    void branch(int n = 1) {
        if (config_.trace) emit_branches(n);
    }
    /// Canonical per-iteration loop overhead: induction update + branch.
    void loop_iteration() {
        int_ops(1);
        branch(1);
    }

    /// Tags a vectorizable section (RAII); grouping into SIMD instructions
    /// happens in sim::vectorize(). The same guard feeds the FlexFloat
    /// statistics registry's scalar/vectorial split.
    [[nodiscard]] VectorRegionGuard vector_region() { return VectorRegionGuard{}; }

    [[nodiscard]] bool tracing() const noexcept { return config_.trace; }
    [[nodiscard]] bool recording() const noexcept {
        return config_.record_values;
    }
    [[nodiscard]] bool shadow() const noexcept {
        return config_.binary64_shadow;
    }

    /// Whether the next operation takes the compute-only path (see the
    /// header comment): a context with nothing to trace, record, shadow or
    /// pin, on a thread that is not counting FlexFloat statistics.
    [[nodiscard]] bool compute_only() const noexcept {
        return plain_ && !stats_enabled();
    }

    /// Backend override for this context's instructions (see Config).
    [[nodiscard]] bool force_emulated() const noexcept {
        return config_.force_emulated;
    }
    void set_force_emulated(bool on) noexcept {
        config_.force_emulated = on;
        plain_ = is_plain(config_);
    }

    /// Hands the recorded trace out (and resets the context's trace state).
    /// `apply_simd` runs the vectorization pass, modelling the SIMD-enabled
    /// toolchain; pass false for the scalar baseline.
    [[nodiscard]] TraceProgram take_program(bool apply_simd);

private:
    friend class TpValue;
    friend class TpArray;

    std::int32_t next_id() noexcept {
        return static_cast<std::int32_t>(value_count_++);
    }

    /// A config under which an operation has nothing to do beyond its
    /// arithmetic: nothing traced or recorded, real formats, and no
    /// per-context backend pin.
    [[nodiscard]] static bool is_plain(const Config& config) noexcept {
        return !config.trace && !config.record_values &&
               !config.binary64_shadow && !config.force_emulated;
    }
    [[nodiscard]] TpValue from_int_slow(std::int64_t value, FpFormat format);
    void emit_int_ops(int n);
    void emit_branches(int n);

    std::int32_t emit_fp(FpOp op, FpFormat fmt, std::int32_t src1,
                         std::int32_t src2, std::int32_t src3 = -1);
    void emit_cmp(FpFormat fmt, std::int32_t src1, std::int32_t src2);
    std::int32_t emit_cast(FpFormat from, FpFormat to, std::int32_t src);
    std::int32_t emit_load(std::uint32_t stream, FpFormat fmt);
    void emit_store(std::uint32_t stream, FpFormat fmt, std::int32_t src);

    /// Wraps a backend result in a FlexFloatDyn: adopted as-rounded
    /// normally, adopted raw (possibly unrepresentable in `format`) in
    /// shadow mode. Static so TpValue/TpArray (friends) reach FlexFloatDyn's
    /// private adopters through one seam.
    static FlexFloatDyn adopt(const TpContext* ctx, double value,
                              FpFormat format) noexcept {
        return ctx->shadow() ? FlexFloatDyn::from_raw(value, format)
                             : FlexFloatDyn::from_rounded(value, format);
    }

    /// Books the concrete value an id took (record_values captures only).
    /// Ids are dense and assigned in creation order, so the records vector
    /// stays aligned with them by construction.
    void record_value(std::int32_t id, double value, FpFormat fmt) {
        if (!config_.record_values || id < 0) return;
        assert(static_cast<std::size_t>(id) == values_.size() &&
               "value records must track id assignment 1:1");
        values_.push_back(ValueRecord{value, fmt});
    }

    void note_output_tap(FpFormat fmt, std::int32_t value_id, double value) {
        taps_.push_back(OutputTap{value, fmt, value_id});
    }

    Config config_;
    bool plain_ = is_plain(config_); // cached is_plain(config_)
    Trace trace_;
    std::size_t value_count_ = 0;
    std::uint32_t next_stream_ = 1;
    std::vector<ValueRecord> values_;
    std::vector<OutputTap> taps_;
};

inline TpArray::TpArray(TpContext* ctx, std::uint32_t stream, FpFormat format,
                        std::size_t n)
    : ctx_(ctx), stream_(stream), format_(format), data_(n, 0.0) {
    if (ctx_->recording()) writers_.assign(n, -1);
}

// --- compute-only fast paths (see the header comment) ---------------------

inline TpValue TpValue::binary(FpOp op, const TpValue& a, const TpValue& b) {
    TpContext* ctx = context_of(a, b);
    if (ctx->compute_only()) [[likely]] {
        assert(a.format() == b.format() &&
               "mixed-format arithmetic requires an explicit cast");
        const FpFormat fmt = a.format();
        const double r = arith::arith(op, a.to_double(), b.to_double(), fmt);
        return TpValue{ctx, FlexFloatDyn::from_rounded(r, fmt), -1};
    }
    return binary_slow(op, a, b);
}

inline TpValue TpValue::unary(FpOp op, const TpValue& a) {
    assert(a.ctx_ != nullptr);
    if (a.ctx_->compute_only()) [[likely]] {
        const FpFormat fmt = a.format();
        const double r = arith::arith(op, a.to_double(), a.to_double(), fmt);
        return TpValue{a.ctx_, FlexFloatDyn::from_rounded(r, fmt), -1};
    }
    return unary_slow(op, a);
}

inline TpValue TpValue::ternary(FpOp op, const TpValue& a, const TpValue& b,
                                const TpValue& c) {
    TpContext* ctx =
        a.ctx_ != nullptr ? a.ctx_ : (b.ctx_ != nullptr ? b.ctx_ : c.ctx_);
    assert(ctx != nullptr && "TpValue fma requires a live context");
    if (ctx->compute_only()) [[likely]] {
        assert(a.format() == b.format() && b.format() == c.format() &&
               "mixed-format fma requires explicit casts");
        const FpFormat fmt = a.format();
        const double r =
            arith::fma(a.to_double(), b.to_double(), c.to_double(), fmt);
        return TpValue{ctx, FlexFloatDyn::from_rounded(r, fmt), -1};
    }
    return ternary_slow(op, a, b, c);
}

inline bool TpValue::compare(const TpValue& a, const TpValue& b, bool result) {
    TpContext* ctx = context_of(a, b);
    if (!ctx->compute_only()) compare_slow(a, b);
    return result;
}

inline TpValue TpValue::cast_to(FpFormat target) const {
    assert(ctx_ != nullptr);
    if (ctx_->compute_only()) [[likely]] {
        const double r = arith::cast(to_double(), target);
        return TpValue{ctx_, FlexFloatDyn::from_rounded(r, target), -1};
    }
    return cast_slow(target);
}

inline TpValue TpArray::load(std::size_t i) {
    assert(i < data_.size());
    if (ctx_->compute_only()) [[likely]] {
        // Backing-store values are already quantized to the element format
        // (set_raw / store), so the load skips the construction-time
        // re-round.
        return TpValue{ctx_, FlexFloatDyn::from_rounded(data_[i], format_), -1};
    }
    return load_slow(i);
}

inline void TpArray::store(std::size_t i, const TpValue& value) {
    assert(i < data_.size());
    assert(value.format() == format_ &&
           "store requires the array's element format; cast explicitly");
    if (ctx_->compute_only()) [[likely]] {
        data_[i] = value.to_double(); // already sanitized to this format
        return;
    }
    store_slow(i, value);
}

inline TpValue TpContext::from_int(std::int64_t value, FpFormat format) {
    if (compute_only()) [[likely]] {
        const double r = arith::cast(static_cast<double>(value), format);
        return TpValue{this, FlexFloatDyn::from_rounded(r, format), -1};
    }
    return from_int_slow(value, format);
}

inline void TpArray::set_raw(std::size_t i, double value) noexcept {
    assert(i < data_.size());
    data_[i] = ctx_->shadow() ? value : quantize(value, format_);
}

inline double TpArray::raw(std::size_t i) const {
    assert(i < data_.size());
    if (ctx_->recording()) {
        ctx_->note_output_tap(format_, writers_.empty() ? -1 : writers_[i],
                              data_[i]);
    }
    return data_[i];
}

} // namespace tp::sim
