/**
 * @file
 * UDP lane: dispatch unit, stream-buffer/prefetch unit, and the
 * reference interpreter.
 *
 * The reference interpreter decodes every packed word at dispatch time.
 * It is the equivalence oracle for the threaded tier
 * (tests/test_threaded.cpp) and runs every lane with a tracer or
 * profiler attached.  The run entries below route each
 * call to one tier or the other; both execute the opcode semantics in
 * core/action_unit.hpp, so the two tiers cannot drift per opcode.
 */
#include "lane.hpp"

#include "action_unit.hpp"
#include "profile.hpp"
#include "threaded_program.hpp"

namespace udp {

Lane::Lane(unsigned id, LocalMemory &mem) : id_(id), mem_(mem)
{
    if (id >= kNumLanes)
        throw UdpError("Lane: lane id out of range");
}

Lane::~Lane() = default;

void
Lane::load(const Program &prog)
{
    load(prog, nullptr);
}

void
Lane::load(const Program &prog,
           std::shared_ptr<const CompiledProgram> compiled)
{
    if (sim_backend() != SimBackend::Threaded)
        compiled = nullptr;
    else if (!compiled)
        compiled = shared_compiled(prog);
    else if (!compiled->shape_matches(prog))
        throw UdpError("Lane: compiled image does not match the program "
                       "(stale image: re-resolve it after changing the "
                       "program)");
    prog_ = &prog;
    compiled_ = std::move(compiled);
    if (nfa_memo_ && nfa_memo_->image() != compiled_.get())
        nfa_memo_.reset();
    reset();
}

void
Lane::set_input(BytesView data)
{
    sb_.attach(data);
}

Word
Lane::reg(unsigned idx) const
{
    if (idx >= kNumScalarRegs)
        throw UdpError("Lane: register index out of range");
    if (idx == kRegStreamIdx)
        return static_cast<Word>(sb_.pos_bytes());
    return regs_[idx];
}

void
Lane::set_reg(unsigned idx, Word value)
{
    if (idx >= kNumScalarRegs)
        throw UdpError("Lane: register index out of range");
    if (idx == kRegStreamIdx) {
        // r15 is the architecturally visible stream byte index; writing it
        // repositions the stream (automatic index management).
        sb_.seek_bits(std::uint64_t{value} * 8);
        return;
    }
    regs_[idx] = value;
}

void
Lane::reset()
{
    regs_.fill(0);
    symbol_bits_ = prog_ ? prog_->initial_symbol_bits : 8;
    dispatch_base_ = prog_ ? prog_->init_dispatch_base : 0;
    action_base_ = prog_ ? prog_->init_action_base : 0;
    action_scale_ = prog_ ? prog_->init_action_scale : 0;
    stats_ = LaneStats{};
    output_.clear();
    out_bit_acc_ = 0;
    out_bit_count_ = 0;
    accepts_.clear();
    cur_state_ = 0;
    last_symbol_ = 0;
    resume_cs_ = ThreadedEngine::kNoResume;
    started_ = false;
    halted_ = false;
    halt_status_ = LaneStatus::Done;
    fault_ = LaneFault{};
    sb_.seek_bits(0);
}

void
Lane::hard_reset()
{
    window_base_ = 0;
    trap_cycle_ = 0;
    sb_.attach(BytesView{});
    // The previous wave's program may already be freed by its owner.
    prog_ = nullptr;
    compiled_ = nullptr;
    reset();
}

std::string_view
lane_status_name(LaneStatus st)
{
    switch (st) {
      case LaneStatus::Done: return "done";
      case LaneStatus::Reject: return "reject";
      case LaneStatus::Running: return "running";
      case LaneStatus::Faulted: return "faulted";
      case LaneStatus::TimedOut: return "timed-out";
      case LaneStatus::Cancelled: return "cancelled";
    }
    return "<bad>";
}

// ---------------------------------------------------------------------------
// Fault containment (docs/ROBUSTNESS.md).
// ---------------------------------------------------------------------------

LaneStatus
Lane::trap(FaultCode code, std::string detail)
{
    halted_ = true;
    halt_status_ = code == FaultCode::WatchdogTimeout
                       ? LaneStatus::TimedOut
                       : LaneStatus::Faulted;
    fault_.code = code;
    fault_.lane = id_;
    fault_.state_base = static_cast<std::uint32_t>(cur_state_);
    fault_.cycle = stats_.cycles;
    fault_.detail = std::move(detail);
    return halt_status_;
}

LaneStatus
Lane::trip_watchdog(std::string detail)
{
    return trap(FaultCode::WatchdogTimeout, std::move(detail));
}

// ---------------------------------------------------------------------------
// Bank arbitration and tracing of memory references (the access paths
// themselves are inline in core/action_unit.hpp).
// ---------------------------------------------------------------------------

void
Lane::charge_mem_hooks(ByteAddr phys, bool is_write)
{
    Cycles stall = 0;
    if (arbiter_) {
        stall = arbiter_(LocalMemory::bank_of(phys), is_write);
        stats_.stall_cycles += stall;
        stats_.cycles += stall;
    }
    if (tracer_) {
        tracer_->record(id_,
                        is_write ? TraceEventKind::MemWrite
                                 : TraceEventKind::MemRead,
                        stats_.cycles, phys, 0);
        if (stall != 0)
            tracer_->record(id_, TraceEventKind::Stall, stats_.cycles,
                            phys, static_cast<std::uint32_t>(stall));
    }
}

// ---------------------------------------------------------------------------
// Output staging.
// ---------------------------------------------------------------------------

void
Lane::out_byte(std::uint8_t b)
{
    if (out_bit_count_ != 0) {
        out_bits(b, 8);
        return;
    }
    output_.push_back(b);
    ++stats_.output_bytes;
}

void
Lane::out_bits(Word value, unsigned nbits)
{
    if (nbits == 0 || nbits > 32)
        throw UdpError("Lane: outbits width must be 1..32");
    // MSB-first bit packing, symmetric with StreamBuffer::read.
    for (unsigned i = nbits; i-- > 0;) {
        out_bit_acc_ = (out_bit_acc_ << 1) | ((value >> i) & 1);
        if (++out_bit_count_ == 8) {
            output_.push_back(static_cast<std::uint8_t>(out_bit_acc_));
            ++stats_.output_bytes;
            out_bit_acc_ = 0;
            out_bit_count_ = 0;
        }
    }
}

void
Lane::out_flush()
{
    if (out_bit_count_ != 0) {
        const unsigned pad = 8 - out_bit_count_;
        out_bits(0, pad);
    }
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

Word
Lane::dispatch_word(std::size_t word_addr)
{
    const auto &img = prog_->dispatch;
    if (word_addr >= img.size())
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "Lane: dispatch fetch out of range");
    ++stats_.dispatch_reads;
    return img[word_addr];
}

Lane::StepResult
Lane::step(const StateMeta &meta)
{
    StepResult res;
    const std::size_t base = meta.base; // full word address
    const std::uint8_t sig = state_signature(meta.base);

    // Auxiliary chain scan for a `common` transition: common replaces the
    // whole labeled table, so it is checked before any symbol arithmetic.
    Transition common;
    bool has_common = false;
    for (unsigned k = 1; k <= meta.aux_count && !has_common; ++k) {
        const Transition t = decode_transition(prog_->dispatch[base - k]);
        if (t.signature == sig && t.type == TransitionType::Common) {
            common = t;
            has_common = true;
        }
    }

    Transition taken;
    bool have = false;

    if (has_common) {
        // Takes one dispatch slot; consumes a symbol only when this state
        // dispatches from the stream.
        if (!meta.reg_source) {
            if (sb_.exhausted(symbol_bits_)) {
                res.status = LaneStatus::Done;
                return res;
            }
            fetch_symbol_bits(symbol_bits_);
            res.consumed_symbol = true;
        }
        ++stats_.dispatches;
        ++stats_.cycles;
        ++stats_.dispatch_reads;
        if (tracer_)
            tracer_->record(id_, TraceEventKind::Dispatch, stats_.cycles,
                            static_cast<std::uint32_t>(base),
                            last_symbol_);
        taken = common;
        have = true;
    } else {
        // Fetch the dispatch symbol.
        Word sym;
        const unsigned width = symbol_bits_;
        if (meta.reg_source) {
            const Word mask =
                width >= 32 ? ~Word{0} : ((Word{1} << width) - 1);
            sym = regs_[kRegDispatch] & mask;
            last_symbol_ = sym;
        } else {
            if (sb_.exhausted(width)) {
                res.status = LaneStatus::Done;
                return res;
            }
            sym = fetch_symbol_bits(width);
            res.consumed_symbol = true;
        }

        // Multi-way dispatch: one cycle, slot = base + symbol.
        ++stats_.dispatches;
        ++stats_.cycles;
        if (tracer_)
            tracer_->record(id_, TraceEventKind::Dispatch, stats_.cycles,
                            static_cast<std::uint32_t>(base), sym);
        const std::size_t slot = base + sym;
        if (slot < prog_->dispatch.size() && sym <= meta.max_symbol) {
            const Transition t = decode_transition(dispatch_word(slot));
            if (t.signature == sig &&
                (t.type == TransitionType::Labeled ||
                 t.type == TransitionType::Refill ||
                 t.type == TransitionType::Flagged)) {
                taken = t;
                have = true;
            }
        }

        if (!have) {
            // Signature miss: consult the auxiliary chain (one extra
            // cycle, the paper's majority/default fallback penalty).
            ++stats_.sig_misses;
            ++stats_.cycles;
            if (tracer_)
                tracer_->record(id_, TraceEventKind::SigMiss,
                                stats_.cycles,
                                static_cast<std::uint32_t>(base), sym);
            for (unsigned k = 1; k <= meta.aux_count; ++k) {
                const Transition t =
                    decode_transition(dispatch_word(base - k));
                if (t.signature != sig)
                    break;
                if (t.type == TransitionType::Majority ||
                    t.type == TransitionType::Default) {
                    taken = t;
                    have = true;
                    break;
                }
            }
        }
    }

    if (!have) {
        res.status = LaneStatus::Reject;
        return res;
    }

    // Refill: push back over-consumed bits before actions observe r15.
    if (taken.type == TransitionType::Refill) {
        const unsigned nbits = taken.attach >> 5;
        if (nbits != 0) {
            sb_.refill(nbits);
            stats_.stream_bits -= nbits;
        }
    }

    std::size_t act;
    if (attach_addr(taken, act)) {
        const LaneStatus st = exec_actions(act);
        if (st != LaneStatus::Running) {
            res.status = st;
            return res;
        }
    }

    res.took_transition = true;
    res.next_base = taken.target;
    return res;
}

// ---------------------------------------------------------------------------
// Action unit.
// ---------------------------------------------------------------------------

LaneStatus
Lane::exec_actions(std::size_t addr)
{
    const auto &img = prog_->actions;
    for (;;) {
        if (addr >= img.size())
            throw UdpFaultError(FaultCode::FetchOutOfRange,
                                "Lane: action fetch out of range");
        ++stats_.dispatch_reads;
        const Action a = decode_action(img[addr]);
        ++stats_.actions;
        ++stats_.cycles;
        if (tracer_)
            tracer_->record(id_, TraceEventKind::Action, stats_.cycles,
                            static_cast<std::uint32_t>(addr),
                            static_cast<std::uint32_t>(a.op));
        // Extra cycles the action charges (loop ops, stalls) are
        // attributed to its opcode via the delta from here.
        const Cycles act_start = stats_.cycles;
        const OpExit e = exec_op(a.op, a, stats_);
        if (profiler_)
            profiler_->record_action(a.op, 1 + (stats_.cycles - act_start));
        if (e != OpExit::Next)
            return e == OpExit::Done ? LaneStatus::Done : LaneStatus::Reject;
        if (a.op == Opcode::Gotoact) {
            addr = static_cast<std::size_t>(a.imm);
            continue; // `last` is irrelevant on a taken goto
        }
        if (a.last)
            return LaneStatus::Running;
        ++addr;
    }
}

// ---------------------------------------------------------------------------
// Run loops.
// ---------------------------------------------------------------------------

LaneStatus
Lane::run_steps_legacy(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const StateMeta *meta = prog_->find_state(cur_state_);
        if (!meta)
            throw UdpFaultError(
                FaultCode::BadDispatch,
                "Lane: dispatch into unknown state base " +
                    std::to_string(cur_state_));
        StepResult r;
        if (profiler_) {
            // Everything the step charges (dispatch, miss penalty,
            // attached actions, stalls) is attributed to this state.
            const Cycles c0 = stats_.cycles;
            const std::uint64_t m0 = stats_.sig_misses;
            const std::uint64_t s0 = stats_.stall_cycles;
            r = step(*meta);
            if (stats_.cycles != c0) // zero delta = end-of-stream probe
                profiler_->record_state(
                    static_cast<std::uint32_t>(cur_state_),
                    stats_.cycles - c0, stats_.sig_misses - m0,
                    stats_.stall_cycles - s0);
        } else {
            r = step(*meta);
        }
        if (r.status != LaneStatus::Running) {
            halted_ = true;
            halt_status_ = r.status;
            return r.status;
        }
        if (!r.took_transition) {
            halted_ = true;
            halt_status_ = LaneStatus::Reject;
            return LaneStatus::Reject;
        }
        // 12-bit targets are window-relative; rebase into the current
        // dispatch window (Setbase may have moved it during actions).
        cur_state_ = dispatch_base_ + r.next_base;
    }
    return LaneStatus::Running;
}

LaneStatus
Lane::run_steps(std::uint64_t n)
{
    if (!prog_)
        throw UdpError("Lane: no program loaded");
    if (halted_)
        return halt_status_;
    if (trap_cycle_ != 0 && stats_.cycles >= trap_cycle_)
        return trap(FaultCode::ForcedTrap,
                    "Lane: forced trap (fault injection)");
    if (!started_) {
        cur_state_ = prog_->entry;
        started_ = true;
    }
    return run_guarded([&] {
        if (threaded())
            return ThreadedEngine::run_steps_body(*this, n);
        // The reference moves cur_state_ without the compiled carry.
        resume_cs_ = ThreadedEngine::kNoResume;
        return run_steps_legacy(n);
    });
}

LaneStatus
Lane::run(std::uint64_t max_cycles)
{
    // With a forced trap armed, advance one dispatch step at a time so
    // the trap lands deterministically at the first step boundary at or
    // after the armed cycle (host-side granularity only; simulated
    // results below the trap point are unchanged).
    const std::uint64_t chunk = trap_cycle_ != 0 ? 1 : 1024;
    for (;;) {
        const LaneStatus st = run_steps(chunk);
        if (st != LaneStatus::Running)
            return st;
        if (trap_cycle_ != 0 && stats_.cycles >= trap_cycle_)
            return trap(FaultCode::ForcedTrap,
                        "Lane: forced trap (fault injection)");
        if (stats_.cycles >= max_cycles)
            return trip_watchdog("Lane: cycle budget (" +
                                 std::to_string(max_cycles) +
                                 ") exhausted before completion");
    }
}

LaneStatus
Lane::run_nfa(std::uint64_t max_cycles)
{
    if (!prog_)
        throw UdpError("Lane: no program loaded");
    return run_guarded([&] {
        return threaded() ? ThreadedEngine::run_nfa(*this, max_cycles)
                          : run_nfa_legacy(max_cycles);
    });
}

LaneStatus
Lane::run_nfa_legacy(std::uint64_t max_cycles)
{
    // Active-state set with epsilon closure on activation. Frontier order
    // is deterministic; duplicates are suppressed with a stamp array.
    // Active entries are full word addresses.
    std::vector<std::size_t> active{prog_->entry};
    std::vector<std::size_t> next;
    std::vector<std::uint32_t> stamp(prog_->dispatch.size(), 0);
    std::uint32_t generation = 0;
    // Mark `b` active in this generation; false when it already is.  An
    // address past the image names no state: fault before the
    // activation charges anything.
    const auto claim = [&](std::size_t b) {
        if (b >= stamp.size())
            throw UdpFaultError(FaultCode::BadDispatch,
                                "Lane: NFA activation of unknown state");
        if (stamp[b] == generation)
            return false;
        stamp[b] = generation;
        return true;
    };

    auto close = [&](std::vector<std::size_t> &set) {
        ++generation;
        for (auto b : set)
            claim(b);
        for (std::size_t i = 0; i < set.size(); ++i) {
            const StateMeta *meta = prog_->find_state(set[i]);
            if (!meta)
                throw UdpFaultError(
                    FaultCode::BadDispatch,
                    "Lane: NFA activation of unknown state");
            const std::size_t base = meta->base;
            const std::uint8_t sig = state_signature(meta->base);
            for (unsigned k = 1; k <= meta->aux_count; ++k) {
                const Transition t =
                    decode_transition(prog_->dispatch[base - k]);
                const std::size_t tgt = dispatch_base_ + t.target;
                if (t.signature == sig &&
                    t.type == TransitionType::Epsilon && claim(tgt)) {
                    // Epsilon activation costs one dispatch cycle.
                    ++stats_.cycles;
                    ++stats_.dispatches;
                    ++stats_.dispatch_reads;
                    if (tracer_)
                        tracer_->record(
                            id_, TraceEventKind::Dispatch, stats_.cycles,
                            static_cast<std::uint32_t>(tgt), 0);
                    if (profiler_)
                        profiler_->record_state(
                            static_cast<std::uint32_t>(tgt), 1, 0, 0);
                    set.push_back(tgt);
                    std::size_t act;
                    if (attach_addr(t, act))
                        exec_actions(act);
                }
            }
        }
    };

    close(active);
    const unsigned width = symbol_bits_;

    while (!active.empty() && stats_.cycles < max_cycles) {
        if (trap_cycle_ != 0 && stats_.cycles >= trap_cycle_)
            return trap(FaultCode::ForcedTrap,
                        "Lane: forced trap (fault injection)");
        if (sb_.exhausted(width))
            return LaneStatus::Done;
        const Word sym = fetch_symbol_bits(width);

        next.clear();
        ++generation;
        for (const auto cur : active) {
            const StateMeta *meta = prog_->find_state(cur);
            if (!meta)
                throw UdpFaultError(
                    FaultCode::BadDispatch,
                    "Lane: NFA dispatch into unknown state");
            const std::size_t base = meta->base;
            const std::uint8_t sig = state_signature(meta->base);

            const Cycles prof_c0 = stats_.cycles;
            const std::uint64_t prof_m0 = stats_.sig_misses;
            const std::uint64_t prof_s0 = stats_.stall_cycles;

            ++stats_.dispatches;
            ++stats_.cycles;
            if (tracer_)
                tracer_->record(id_, TraceEventKind::Dispatch,
                                stats_.cycles,
                                static_cast<std::uint32_t>(base), sym);

            Transition taken;
            bool have = false;
            const std::size_t slot = base + sym;
            if (slot < prog_->dispatch.size() && sym <= meta->max_symbol) {
                const Transition t = decode_transition(dispatch_word(slot));
                if (t.signature == sig &&
                    (t.type == TransitionType::Labeled ||
                     t.type == TransitionType::Refill)) {
                    taken = t;
                    have = true;
                }
            }
            if (!have) {
                ++stats_.sig_misses;
                ++stats_.cycles;
                if (tracer_)
                    tracer_->record(id_, TraceEventKind::SigMiss,
                                    stats_.cycles,
                                    static_cast<std::uint32_t>(base),
                                    sym);
                for (unsigned k = 1; k <= meta->aux_count; ++k) {
                    const Transition t =
                        decode_transition(dispatch_word(base - k));
                    if (t.signature != sig)
                        break;
                    if (t.type == TransitionType::Majority ||
                        t.type == TransitionType::Default ||
                        t.type == TransitionType::Common) {
                        taken = t;
                        have = true;
                        break;
                    }
                }
            }
            if (have) {
                const std::size_t tgt = dispatch_base_ + taken.target;
                if (claim(tgt)) {
                    next.push_back(tgt);
                    // Activation happens once per step; arc actions fire
                    // with the first arc that activates the target.
                    std::size_t act;
                    if (attach_addr(taken, act))
                        exec_actions(act);
                }
            }
            // `have == false`: this activation dies, after charging the
            // dispatch + miss cycles profiled below.
            if (profiler_)
                profiler_->record_state(
                    static_cast<std::uint32_t>(base),
                    stats_.cycles - prof_c0, stats_.sig_misses - prof_m0,
                    stats_.stall_cycles - prof_s0);
        }
        close(next);
        // close() bumps the generation; re-stamp for the swap below is
        // unnecessary since `next` is already duplicate-free.
        active.swap(next);
    }
    if (active.empty())
        return LaneStatus::Reject;
    // Loop exit with live activations means the watchdog fired, not a
    // clean end of stream.
    return trip_watchdog("Lane: NFA cycle budget (" +
                         std::to_string(max_cycles) +
                         ") exhausted before completion");
}

} // namespace udp
