/**
 * @file
 * Threaded-code tier: the generated handler table, the CompiledProgram
 * lowering pass, the single-lane resumable engine and the NFA-mode
 * engine.
 *
 * Equivalence discipline: opcode semantics come from Lane::exec_op, the
 * same definition the reference interpreter runs; every dispatch charge,
 * fault message and side-effect order below mirrors the reference
 * dispatch loops in lane.cpp (`step` / `run_nfa_legacy`).  The chain
 * walker charges the fetch costs unconditionally and the two trap ops
 * (undecodable word, out-of-range fetch) *undo* the charges the
 * reference would not have made before throwing the identical error —
 * keeping the hot loop free of per-op bounds and validity checks.
 */
#include "threaded_program.hpp"

#include "action_unit.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace udp {

// ---------------------------------------------------------------------------
// Op handlers.
// ---------------------------------------------------------------------------

template <Opcode OP>
OpExit
ThreadedEngine::handler(Lane &ln, ThreadedCtx &c, const CompiledOp &o)
{
    return ln.exec_op(OP, o, c);
}

/// Undecodable action word.  The chain walker charged the fetch
/// unconditionally; the reference throws after charging only the
/// dispatch read, so undo the action/cycle charges then re-decode the
/// raw word to raise the identical error.
OpExit
ThreadedEngine::invalid_op(Lane &, ThreadedCtx &c, const CompiledOp &o)
{
    --c.actions;
    --c.cycles;
    decode_action(o.raw); // throws the reference error
    throw UdpFaultError(FaultCode::BadAction,
                        "Lane: undecodable action word");
}

/// Out-of-range fetch sentinel: the reference throws before any charge,
/// so undo all three.
OpExit
ThreadedEngine::oob_op(Lane &, ThreadedCtx &c, const CompiledOp &)
{
    --c.dispatch_reads;
    --c.actions;
    --c.cycles;
    throw UdpFaultError(FaultCode::FetchOutOfRange,
                        "Lane: action fetch out of range");
}

OpFn
ThreadedEngine::op_fn(Opcode op)
{
    // One handler per 7-bit opcode value; values that name no opcode
    // fold to exec_op's unimplemented-opcode trap.
    static constexpr auto table = []<std::size_t... I>(
                                      std::index_sequence<I...>) {
        return std::array<OpFn, sizeof...(I)>{
            &handler<static_cast<Opcode>(I)>...};
    }(std::make_index_sequence<128>{});
    return table[static_cast<std::size_t>(op) & 127];
}

OpFn
ThreadedEngine::invalid_fn()
{
    return &invalid_op;
}

OpFn
ThreadedEngine::oob_fn()
{
    return &oob_op;
}

// ---------------------------------------------------------------------------
// CompiledProgram: the lowering pass.
// ---------------------------------------------------------------------------

CompiledProgram::CompiledProgram(const Program &prog,
                                 std::shared_ptr<const DecodedProgram> dec)
    : decoded_(std::move(dec))
{
    if (!decoded_)
        decoded_ = std::make_shared<const DecodedProgram>(prog);
    const DecodedProgram &d = *decoded_;

    fingerprint_ = d.fingerprint();
    init_dispatch_base_ = prog.init_dispatch_base;
    init_action_base_ = prog.init_action_base;
    init_action_scale_ = prog.init_action_scale;
    nops_ = static_cast<std::uint32_t>(d.action_words());
    src_dispatch_words_ = prog.dispatch.size();
    src_states_ = prog.states.size();
    src_entry_ = prog.entry;

    // Dynamic-base scan: a Setbase into the dispatch window invalidates
    // the compiled next-state links; a Setab invalidates static
    // scaled-offset attach resolution.  Either forces the (cheap)
    // run-time re-resolution for the whole program.
    for (std::size_t a = 0; a < d.action_words(); ++a) {
        const Action &act = d.action(a);
        if (act.op == kInvalidOpcode)
            continue;
        if (act.op == Opcode::Setbase && act.dst != 0)
            dyn_dispatch_ = true;
        else if (act.op == Opcode::Setab)
            dyn_action_ = true;
    }

    // Lower every action word into the flat op stream; one extra trap
    // sentinel terminates it so the chain walker needs no bounds check.
    ops_.resize(std::size_t{nops_} + 1);
    for (std::uint32_t a = 0; a < nops_; ++a) {
        const Action &act = d.action(a);
        CompiledOp &o = ops_[a];
        o.raw = prog.actions[a];
        if (act.op == kInvalidOpcode) {
            o.fn = ThreadedEngine::invalid_fn();
            o.op = kInvalidOpcode;
            o.last = 1;
            o.next = nops_;
            continue;
        }
        o.fn = ThreadedEngine::op_fn(act.op);
        o.op = act.op;
        o.dst = act.dst;
        o.ref = act.ref;
        o.src = act.src;
        o.imm = act.imm;
        o.imm1 = static_cast<std::uint8_t>(act.imm1);
        if (act.op == Opcode::Gotoact) {
            // The jump is the `next` link; out-of-range targets fall on
            // the sentinel, raising the fetch fault at the right moment.
            const std::size_t t = static_cast<std::size_t>(act.imm);
            o.next = t < nops_ ? static_cast<std::uint32_t>(t) : nops_;
            o.last = 0;
        } else {
            o.last = act.last ? 1 : 0;
            o.next = a + 1; // == sentinel for the final word
        }
    }
    CompiledOp &s = ops_[nops_];
    s.fn = ThreadedEngine::oob_fn();
    s.op = kInvalidOpcode;
    s.last = 1;
    s.next = nops_;

    // Pass 1: lay out the rows.  Each state's compiled index is its
    // first 256-word row unit; the base -> index map makes next-state
    // links resolvable (bases are unique; the DecodedProgram
    // constructor validated them).
    slot_state_.assign(prog.dispatch.size(), -1);
    std::vector<std::uint32_t> row_len(prog.states.size());
    std::size_t units = 0;
    for (std::size_t i = 0; i < prog.states.size(); ++i) {
        const DecodedState &ds = *d.state_at(prog.states[i].base);
        std::size_t len = std::size_t{ds.max_symbol} + 1;
        if (!ds.reg_source)
            len = std::max<std::size_t>(len, std::size_t{1} << kRowShift);
        else if (ds.has_common)
            len = 0; // common replaces the register probe: no row
        row_len[i] = static_cast<std::uint32_t>(len);
        slot_state_[ds.base] = static_cast<std::int32_t>(units);
        units += std::max<std::size_t>(
            1, (len + (std::size_t{1} << kRowShift) - 1) >> kRowShift);
    }
    if (units > static_cast<std::size_t>(
                    std::numeric_limits<std::int32_t>::max()))
        throw UdpError("CompiledProgram: too many dispatch rows");
    states_.resize(units);
    for (std::size_t i = 0; i < prog.states.size(); ++i) {
        const DecodedState &ds = *d.state_at(prog.states[i].base);
        CompiledState &cs = states_[static_cast<std::size_t>(
            slot_state_[ds.base])];
        cs.base = ds.base;
        cs.row_len = row_len[i];
        cs.reg_source = ds.reg_source ? 1 : 0;
        cs.has_common = ds.has_common ? 1 : 0;
    }

    // Pass 2: the rows (pack() reads the next states' reg_source).
    words_.assign(units << kRowShift, 0);
    for (const StateMeta &sm : prog.states) {
        const DecodedState &ds = *d.state_at(sm.base);
        const auto ix = static_cast<std::size_t>(slot_state_[ds.base]);
        CompiledState &cs = states_[ix];
        std::uint32_t *row = words_.data() + (ix << kRowShift);
        if (ds.has_common) {
            // Common replaces the labeled table: every symbol takes it,
            // charging its single dispatch read.
            cs.over = pack(resolve_take(ds.common, 0, 1));
            std::fill(row, row + cs.row_len, cs.over);
            continue;
        }
        cs.over = pack(resolve_miss(ds, 0));
        // A labeled slot that fails its check was read before the miss
        // walk; one shared side entry covers all of them.
        std::uint32_t probe_miss = 0;
        for (std::uint32_t sym = 0; sym < cs.row_len; ++sym) {
            const std::size_t slot = std::size_t{ds.base} + sym;
            if (sym > ds.max_symbol || slot >= d.dispatch_words()) {
                row[sym] = cs.over;
                continue;
            }
            const Transition &t = d.transition(slot);
            if (t.type == kInvalidTransitionType) {
                ResolvedArc arc;
                arc.kind = ResolvedArc::Invalid;
                arc.add_reads = 1; // charged before the re-decode
                arc.raw_slot = static_cast<std::uint32_t>(slot);
                row[sym] = pack(arc);
            } else if (t.signature == ds.signature &&
                       (t.type == TransitionType::Labeled ||
                        t.type == TransitionType::Refill ||
                        t.type == TransitionType::Flagged)) {
                row[sym] = pack(resolve_take(t, 0, 1));
            } else {
                if (probe_miss == 0)
                    probe_miss = pack(resolve_miss(ds, 1));
                row[sym] = probe_miss;
            }
        }
    }
}

std::uint32_t
CompiledProgram::pack(const ResolvedArc &r)
{
    if (r.kind == ResolvedArc::Take && !r.has_act && r.refill_bits == 0 &&
        r.next_state >= 0 &&
        static_cast<std::uint32_t>(r.next_state) <= ArcWord::kMaxNext &&
        !states_[static_cast<std::size_t>(r.next_state)].reg_source &&
        r.add_reads <= ArcWord::kMaxReads)
        return (static_cast<std::uint32_t>(r.next_state)
                << ArcWord::kNextShift) |
               (std::uint32_t{r.add_reads} << ArcWord::kReadsShift) |
               (std::uint32_t{r.miss} << 1);
    slow_arcs_.push_back(r);
    return static_cast<std::uint32_t>(((slow_arcs_.size() - 1) << 1) |
                                      ArcWord::kSlow);
}

ResolvedArc
CompiledProgram::arc(std::uint32_t w) const
{
    if (ArcWord::slow(w))
        return slow_arc(w);
    ResolvedArc r;
    r.kind = ResolvedArc::Take;
    r.miss = static_cast<std::uint8_t>(ArcWord::miss(w));
    r.add_reads = static_cast<std::uint16_t>(ArcWord::reads(w));
    r.next_state = static_cast<std::int32_t>(ArcWord::next(w));
    r.next_full = states_[ArcWord::next(w)].base;
    r.target = r.next_full - init_dispatch_base_;
    return r;
}

ResolvedArc
CompiledProgram::resolve_take(const Transition &t, std::uint8_t miss,
                              std::uint16_t add_reads) const
{
    ResolvedArc r;
    r.kind = ResolvedArc::Take;
    r.miss = miss;
    r.add_reads = add_reads;
    r.target = t.target;
    r.next_full = init_dispatch_base_ + t.target;
    r.next_state = r.next_full < slot_state_.size()
                       ? slot_state_[r.next_full]
                       : -1;

    std::uint8_t ref = t.attach;
    bool none = false;
    if (t.type == TransitionType::Refill) {
        // Refill attach ABI: high 3 bits = push-back count, low 5 bits
        // = action ref (31 = none).
        r.refill_bits = static_cast<std::uint8_t>(t.attach >> 5);
        ref = t.attach & 0x1F;
        none = (ref == 0x1F);
    } else {
        none = (ref == kNoActions && t.attach_mode == AttachMode::Direct);
    }
    if (!none) {
        r.has_act = 1;
        if (t.attach_mode == AttachMode::Direct) {
            r.act = ref < nops_ ? ref : nops_;
        } else if (!dyn_action_) {
            const std::size_t addr =
                std::size_t{init_action_base_} +
                (std::size_t{ref} << init_action_scale_);
            r.act = addr < nops_ ? static_cast<std::uint32_t>(addr) : nops_;
        } else {
            r.act_dynamic = 1;
            r.att_ref = ref;
        }
    }
    return r;
}

ResolvedArc
CompiledProgram::resolve_miss(const DecodedState &d,
                              std::uint16_t extra_reads) const
{
    if (d.has_miss)
        return resolve_take(
            d.miss, 1,
            static_cast<std::uint16_t>(extra_reads + d.miss_reads));
    ResolvedArc r;
    r.kind = ResolvedArc::Reject;
    r.miss = 1;
    r.add_reads = static_cast<std::uint16_t>(extra_reads + d.miss_reads);
    return r;
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

void
ThreadedEngine::flush(Lane &ln, ThreadedCtx &c)
{
    ln.stats_.cycles += c.cycles;
    ln.stats_.dispatches += c.dispatches;
    ln.stats_.dispatch_reads += c.dispatch_reads;
    ln.stats_.sig_misses += c.sig_misses;
    ln.stats_.actions += c.actions;
    ln.stats_.stream_bits += c.stream_bits;
    c.cycles = 0;
    c.dispatches = 0;
    c.dispatch_reads = 0;
    c.sig_misses = 0;
    c.actions = 0;
    c.stream_bits = 0;
}

LaneStatus
ThreadedEngine::exec_chain(Lane &ln, ThreadedCtx &c, std::uint32_t ix)
{
    const CompiledOp *const ops = c.ops;
    for (;;) {
        const CompiledOp &o = ops[ix];
        // Fetch charges, unconditional: the trap ops undo what the
        // reference would not have charged.
        ++c.dispatch_reads;
        ++c.actions;
        ++c.cycles;
        const OpExit e = o.fn(ln, c, o);
        if (e == OpExit::Next) {
            if (o.last)
                return LaneStatus::Running;
            ix = o.next;
            continue;
        }
        return e == OpExit::Done ? LaneStatus::Done : LaneStatus::Reject;
    }
}

LaneStatus
ThreadedEngine::run_steps_body(Lane &ln, std::uint64_t n)
{
    const CompiledProgram &cp = *ln.compiled_;
    const Program &prog = *ln.prog_;
    const std::uint32_t *const words = cp.words();
    StreamBuffer &sb = ln.sb_;
    ThreadedCtx c;
    c.ops = cp.ops();
    c.nops = cp.op_count();
    c.sentinel = cp.sentinel();

    // With no base-rewriting actions and the architectural dispatch
    // base, every arc's compiled next-state link is valid as-is;
    // otherwise re-resolve against the live base each step.
    const bool static_next =
        !cp.dyn_dispatch() &&
        ln.dispatch_base_ == cp.init_dispatch_base();

    std::int32_t ix = ln.resume_cs_;
    if (ix == kNoResume)
        ix = cp.state_index(ln.cur_state_);

    LaneStatus out = LaneStatus::Running;
    try {
        for (std::uint64_t i = 0; i < n;) {
            if (ix < 0)
                throw UdpFaultError(
                    FaultCode::BadDispatch,
                    "Lane: dispatch into unknown state base " +
                        std::to_string(ln.cur_state_));
            const CompiledState &cs =
                cp.state(static_cast<std::size_t>(ix));
            std::uint32_t w = 0;
            if (static_next && !cs.reg_source && ln.symbol_bits_ == 8 &&
                (sb.pos_bits_ & 7) == 0) {
                // Byte run: step raw stream bytes through plain words,
                // bounded by `n` and the stream.  A plain step runs no
                // action, so its charges are order-free sums.
                const std::uint8_t *const p =
                    sb.data_.data() + (sb.pos_bits_ >> 3);
                const std::uint64_t k =
                    std::min(n - i, sb.remaining_bits() >> 3);
                auto cur = static_cast<std::uint32_t>(ix);
                std::uint64_t j = 0, misses = 0, reads = 0;
                for (; j < k; ++j) {
                    w = words[(std::size_t{cur} << CompiledProgram::kRowShift) +
                              p[j]];
                    if (ArcWord::slow(w))
                        break;
                    misses += ArcWord::miss(w);
                    reads += ArcWord::reads(w);
                    cur = ArcWord::next(w);
                }
                if (j != 0) {
                    c.dispatches += j;
                    c.cycles += j + misses;
                    c.sig_misses += misses;
                    c.dispatch_reads += reads;
                    c.stream_bits += 8 * j;
                    sb.pos_bits_ += 8 * j;
                    ln.last_symbol_ = p[j - 1];
                    ln.cur_state_ = cp.state(cur).base;
                    ix = static_cast<std::int32_t>(cur);
                    i += j;
                }
                if (j == k) {
                    if (i == n)
                        break;
                    out = LaneStatus::Done; // the stream ran out
                    ln.halted_ = true;
                    ln.halt_status_ = out;
                    break;
                }
                // p[j] dispatches through a slow word: consume it here
                // and finish the step below.
                c.stream_bits += 8;
                sb.pos_bits_ += 8;
                ln.last_symbol_ = p[j];
            } else {
                const unsigned width = ln.symbol_bits_;
                Word sym = 0;
                if (cs.reg_source) {
                    // A common arc replaces the register probe (its row
                    // is empty): no symbol latched.
                    if (!cs.has_common) {
                        const Word mask = width >= 32
                                              ? ~Word{0}
                                              : ((Word{1} << width) - 1);
                        sym = ln.regs_[kRegDispatch] & mask;
                        ln.last_symbol_ = sym;
                    }
                } else {
                    if (sb.exhausted(width)) {
                        out = LaneStatus::Done;
                        ln.halted_ = true;
                        ln.halt_status_ = out;
                        break;
                    }
                    c.stream_bits += width;
                    sym = ln.last_symbol_ = sb.read(width);
                }
                w = sym < cs.row_len
                        ? words[(static_cast<std::size_t>(ix)
                                 << CompiledProgram::kRowShift) +
                                sym]
                        : cs.over;
            }
            ++i;
            ++c.dispatches;
            ++c.cycles;

            if (!ArcWord::slow(w)) {
                const std::uint32_t miss = ArcWord::miss(w);
                c.cycles += miss;
                c.sig_misses += miss;
                c.dispatch_reads += ArcWord::reads(w);
                const std::uint32_t next = ArcWord::next(w);
                if (static_next) {
                    ln.cur_state_ = cp.state(next).base;
                    ix = static_cast<std::int32_t>(next);
                } else {
                    // The window-relative target, rebased into the
                    // current dispatch window.
                    ln.cur_state_ = ln.dispatch_base_ +
                                    (cp.state(next).base -
                                     cp.init_dispatch_base());
                    ix = cp.state_index(ln.cur_state_);
                }
                continue;
            }

            const ResolvedArc &arc = cp.slow_arc(w);
            c.cycles += arc.miss;
            c.sig_misses += arc.miss;
            c.dispatch_reads += arc.add_reads;
            if (arc.kind != ResolvedArc::Take) {
                if (arc.kind == ResolvedArc::Invalid)
                    decode_transition(prog.dispatch[arc.raw_slot]); // throws
                out = LaneStatus::Reject;
                ln.halted_ = true;
                ln.halt_status_ = out;
                break;
            }

            // Refill: push back over-consumed bits before actions
            // observe r15.
            if (arc.refill_bits != 0) {
                sb.refill(arc.refill_bits);
                c.stream_bits -= arc.refill_bits;
            }

            if (arc.has_act) {
                std::uint32_t a0 = arc.act;
                if (arc.act_dynamic) {
                    const std::size_t addr =
                        static_cast<std::size_t>(ln.action_base_) +
                        (std::size_t{arc.att_ref} << ln.action_scale_);
                    a0 = addr < c.nops ? static_cast<std::uint32_t>(addr)
                                       : c.sentinel;
                }
                const LaneStatus st = exec_chain(ln, c, a0);
                if (st != LaneStatus::Running) {
                    out = st;
                    ln.halted_ = true;
                    ln.halt_status_ = st;
                    break;
                }
            }

            // 12-bit targets are window-relative; rebase into the
            // current dispatch window.
            if (static_next) {
                ln.cur_state_ = arc.next_full;
                ix = arc.next_state;
            } else {
                ln.cur_state_ = ln.dispatch_base_ + arc.target;
                ix = cp.state_index(ln.cur_state_);
            }
        }
    } catch (...) {
        // The fault record reads stats_.cycles at trap time.
        flush(ln, c);
        throw;
    }
    flush(ln, c);
    // An unknown next state carries as -1 and faults on the *next*
    // step, exactly when the reference would notice it.
    ln.resume_cs_ = ix;
    return out;
}

// ---------------------------------------------------------------------------
// NFA mode: the walk, and the per-lane memo in front of it.
// ---------------------------------------------------------------------------

namespace {

/// Mark full address `b` active in generation `gen`; false when it
/// already is.  An address past the image names no state: it faults
/// before the activation charges anything, as on the reference walk.
bool
claim(NfaWalk &w, std::size_t b, std::uint32_t gen)
{
    if (b >= w.stamp.size())
        throw UdpFaultError(FaultCode::BadDispatch,
                            "Lane: NFA activation of unknown state");
    if (w.stamp[b] == gen)
        return false;
    w.stamp[b] = gen;
    return true;
}

} // namespace

void
ThreadedEngine::fire_chain(Lane &ln, ThreadedCtx &c, std::uint32_t ix)
{
    // Flushed at once, so the watchdog and trap checks read the live
    // cycle count; the fault record reads stats_.cycles on a throw.
    try {
        exec_chain(ln, c, ix);
    } catch (...) {
        flush(ln, c);
        throw;
    }
    flush(ln, c);
}

void
ThreadedEngine::nfa_fire(Lane &ln, ThreadedCtx &c, const Transition &t,
                         NfaMemo *rec)
{
    // The result of the chain is ignored in NFA mode.
    std::size_t act;
    if (!ln.attach_addr(t, act))
        return;
    const std::uint32_t ix =
        act < c.nops ? static_cast<std::uint32_t>(act) : c.sentinel;
    if (rec)
        rec->record_fire(ln.stats_, ix);
    fire_chain(ln, c, ix);
    if (rec)
        rec->resume(ln.stats_);
}

void
ThreadedEngine::nfa_close(Lane &ln, ThreadedCtx &c, NfaWalk &w,
                          std::vector<std::size_t> &set, NfaMemo *rec)
{
    // Epsilon closure on activation, in deterministic frontier order.
    const DecodedProgram &dec = ln.compiled_->decoded();
    LaneStats &st = ln.stats_;
    const std::uint32_t gen = w.bump();
    for (auto b : set)
        claim(w, b, gen);
    for (std::size_t i = 0; i < set.size(); ++i) {
        const DecodedState *ds = dec.state_at(set[i]);
        if (!ds)
            throw UdpFaultError(FaultCode::BadDispatch,
                                "Lane: NFA activation of unknown state");
        for (const Transition *t = dec.eps_begin(*ds), *e = dec.eps_end(*ds);
             t != e; ++t) {
            const std::size_t tgt = ln.dispatch_base_ + t->target;
            if (!claim(w, tgt, gen))
                continue;
            // Epsilon activation costs one dispatch cycle.
            ++st.cycles;
            ++st.dispatches;
            ++st.dispatch_reads;
            set.push_back(tgt);
            nfa_fire(ln, c, *t, rec);
        }
    }
}

void
ThreadedEngine::nfa_step(Lane &ln, ThreadedCtx &c, NfaWalk &w, Word sym,
                         NfaMemo *rec)
{
    const DecodedProgram &dec = ln.compiled_->decoded();
    LaneStats &st = ln.stats_;
    w.next.clear();
    const std::uint32_t gen = w.bump();
    for (const auto cur : w.active) {
        const DecodedState *ds = dec.state_at(cur);
        if (!ds)
            throw UdpFaultError(FaultCode::BadDispatch,
                                "Lane: NFA dispatch into unknown state");

        ++st.dispatches;
        ++st.cycles;

        const Transition *taken = nullptr;
        const std::size_t slot = std::size_t{ds->base} + sym;
        if (slot < dec.dispatch_words() && sym <= ds->max_symbol) {
            ++st.dispatch_reads;
            const Transition &t = dec.transition(slot);
            if (t.type == kInvalidTransitionType)
                decode_transition(ln.prog_->dispatch[slot]); // throws
            if (t.signature == ds->signature &&
                (t.type == TransitionType::Labeled ||
                 t.type == TransitionType::Refill))
                taken = &t;
        }
        if (!taken) {
            ++st.sig_misses;
            ++st.cycles;
            st.dispatch_reads += ds->miss_nfa_reads;
            if (ds->has_miss_nfa)
                taken = &ds->miss_nfa;
        }
        // No arc: this activation dies after its charges.
        if (!taken)
            continue;
        const std::size_t tgt = ln.dispatch_base_ + taken->target;
        if (claim(w, tgt, gen)) {
            w.next.push_back(tgt);
            // Activation happens once per step; arc actions fire with
            // the first arc that activates the target.
            nfa_fire(ln, c, *taken, rec);
        }
    }
    nfa_close(ln, c, w, w.next, rec);
    w.active.swap(w.next);
}

NfaMemo *
ThreadedEngine::nfa_memo(Lane &ln, unsigned width)
{
    // The memo's key must cover everything the walk reads besides the
    // set and the symbol: the image, the entry, and windows no action
    // of this image can move.  Symbols index 256-wide rows.
    const CompiledProgram &cp = *ln.compiled_;
    if (cp.dyn_dispatch() || cp.dyn_action() || width > 8)
        return nullptr;
    if (!ln.nfa_memo_)
        ln.nfa_memo_ = std::make_unique<NfaMemo>();
    NfaMemo &m = *ln.nfa_memo_;
    if (m.image_ != ln.compiled_ || m.entry_ != ln.prog_->entry ||
        m.dispatch_base_ != ln.dispatch_base_ ||
        m.action_base_ != ln.action_base_ ||
        m.action_scale_ != ln.action_scale_) {
        m.drop();
        m.image_ = ln.compiled_;
        m.entry_ = ln.prog_->entry;
        m.dispatch_base_ = ln.dispatch_base_;
        m.action_base_ = ln.action_base_;
        m.action_scale_ = ln.action_scale_;
        m.walk_.stamp.assign(cp.decoded().dispatch_words(), 0);
        m.walk_.generation = 0;
    }
    return &m;
}

std::uint32_t
ThreadedEngine::nfa_replay(Lane &ln, ThreadedCtx &c, const NfaMemo &m,
                           std::uint32_t step)
{
    LaneStats &st = ln.stats_;
    const auto charge = [&st](const NfaMemo::Charge &ch) {
        st.dispatches += ch.dispatches;
        st.cycles += ch.cycles;
        st.dispatch_reads += ch.dispatch_reads;
        st.sig_misses += ch.sig_misses;
    };
    const NfaMemo::Step &s = m.steps_[step];
    for (std::uint32_t i = s.fires_begin; i < s.fires_end; ++i) {
        charge(m.fires_[i].before);
        fire_chain(ln, c, m.fires_[i].chain);
    }
    charge(s.tail);
    return s.to;
}

std::uint32_t
ThreadedEngine::nfa_run(Lane &ln, const NfaMemo &m, std::uint32_t set,
                        std::uint64_t max_cycles)
{
    // The walk's per-symbol checks, in one bound: the set is live, the
    // watchdog budget and the forced-trap cycle are not reached, a byte
    // remains.  The first symbol that fails one, or whose step misses
    // or fires a chain, is left to the caller.
    StreamBuffer &sb = ln.sb_;
    LaneStats &st = ln.stats_;
    const std::uint64_t limit =
        ln.trap_cycle_ != 0 ? std::min<std::uint64_t>(max_cycles,
                                                      ln.trap_cycle_)
                            : max_cycles;
    const std::uint8_t *const p = sb.data_.data() + (sb.pos_bits_ >> 3);
    const std::uint64_t avail = sb.remaining_bits() >> 3;
    const std::uint32_t *const row = m.row_.data();
    const NfaMemo::Step *const steps = m.steps_.data();
    const NfaMemo::SetRef *const sets = m.sets_.data();
    std::uint64_t j = 0, cycles = st.cycles, dispatches = 0, reads = 0,
                  misses = 0;
    for (; j < avail && cycles < limit && sets[set].size != 0; ++j) {
        const std::uint32_t hit = row[std::size_t{set} * 256 + p[j]];
        if (!(hit & NfaMemo::kFireFree))
            break;
        const NfaMemo::Charge &ch = steps[(hit & NfaMemo::kStepMask) - 1].tail;
        dispatches += ch.dispatches;
        cycles += ch.cycles;
        reads += ch.dispatch_reads;
        misses += ch.sig_misses;
        set = (hit & ~NfaMemo::kFireFree) >> NfaMemo::kToShift;
    }
    if (j != 0) {
        st.cycles = cycles;
        st.dispatches += dispatches;
        st.dispatch_reads += reads;
        st.sig_misses += misses;
        st.stream_bits += 8 * j;
        sb.pos_bits_ += 8 * j;
        ln.last_symbol_ = p[j - 1];
    }
    return set;
}

std::uint32_t
ThreadedEngine::nfa_record(Lane &ln, ThreadedCtx &c, NfaMemo &m,
                           std::uint32_t from, Word sym)
{
    NfaWalk &w = m.walk_;
    m.begin_record(ln.stats_);
    if (from == NfaMemo::kStart) {
        w.active.assign(1, ln.prog_->entry);
        nfa_close(ln, c, w, w.active, &m);
    } else {
        const NfaMemo::SetRef r = m.sets_[from];
        w.active.assign(m.pool_.begin() + r.begin,
                        m.pool_.begin() + r.begin + r.size);
        nfa_step(ln, c, w, sym, &m);
    }
    return m.commit(from, sym, w.active, ln.stats_);
}

LaneStatus
ThreadedEngine::run_nfa(Lane &ln, std::uint64_t max_cycles)
{
    const CompiledProgram &cp = *ln.compiled_;
    LaneStats &st = ln.stats_;
    ThreadedCtx c;
    c.ops = cp.ops();
    c.nops = cp.op_count();
    c.sentinel = cp.sentinel();
    const unsigned width = ln.symbol_bits_;

    // Memo path: the active set is an interned id; a miss records the
    // step with the plain walk.  Plain path: the walk, every symbol.
    NfaMemo *memo = nfa_memo(ln, width);
    NfaWalk plain;
    std::uint32_t set = 0;
    if (memo) {
        set = memo->start_ ? nfa_replay(ln, c, *memo, memo->start_ - 1)
                           : nfa_record(ln, c, *memo, NfaMemo::kStart, 0);
    } else {
        plain.active.assign(1, ln.prog_->entry);
        plain.stamp.assign(cp.decoded().dispatch_words(), 0);
        nfa_close(ln, c, plain, plain.active, nullptr);
    }
    const auto live = [&] {
        return memo ? memo->sets_[set].size != 0 : !plain.active.empty();
    };

    for (;;) {
        if (memo && width == 8 && (ln.sb_.pos_bits_ & 7) == 0)
            set = nfa_run(ln, *memo, set, max_cycles);
        if (!live() || st.cycles >= max_cycles)
            break;
        if (ln.trap_cycle_ != 0 && st.cycles >= ln.trap_cycle_)
            return ln.trap(FaultCode::ForcedTrap,
                           "Lane: forced trap (fault injection)");
        if (ln.sb_.exhausted(width))
            return LaneStatus::Done;
        st.stream_bits += width;
        const Word sym = ln.last_symbol_ = ln.sb_.read(width);
        if (!memo) {
            nfa_step(ln, c, plain, sym, nullptr);
            continue;
        }
        const std::uint32_t hit = memo->row_[std::size_t{set} * 256 + sym];
        set = hit ? nfa_replay(ln, c, *memo,
                               (hit & NfaMemo::kStepMask) - 1)
                  : nfa_record(ln, c, *memo, set, sym);
    }
    if (!live())
        return LaneStatus::Reject;
    // Loop exit with live activations means the watchdog fired, not a
    // clean end of stream.
    return ln.trip_watchdog("Lane: NFA cycle budget (" +
                            std::to_string(max_cycles) +
                            ") exhausted before completion");
}

// ---------------------------------------------------------------------------
// NfaMemo bookkeeping.
// ---------------------------------------------------------------------------

void
NfaMemo::drop()
{
    pool_.clear();
    sets_.clear();
    index_.assign(2 * kMaxSets, 0);
    row_.clear();
    steps_.clear();
    fires_.clear();
    start_ = 0;
}

NfaMemo::Charge
NfaMemo::since(const LaneStats &st) const
{
    Charge ch;
    ch.dispatches = static_cast<std::uint32_t>(st.dispatches -
                                               snap_.dispatches);
    ch.cycles = static_cast<std::uint32_t>(st.cycles - snap_.cycles);
    ch.dispatch_reads = static_cast<std::uint32_t>(st.dispatch_reads -
                                                   snap_.dispatch_reads);
    ch.sig_misses = static_cast<std::uint32_t>(st.sig_misses -
                                               snap_.sig_misses);
    return ch;
}

void
NfaMemo::begin_record(const LaneStats &st)
{
    fires_.resize(steps_.empty() ? 0 : steps_.back().fires_end);
    snap_ = st;
}

bool
NfaMemo::find(const std::vector<std::size_t> &set, std::size_t &slot,
              std::uint32_t &id) const
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const std::size_t b : set)
        h = (h ^ b) * 0x100000001B3ull;
    const std::size_t mask = index_.size() - 1;
    for (slot = (h ^ (h >> 32)) & mask;; slot = (slot + 1) & mask) {
        if (index_[slot] == 0)
            return false; // not interned; `slot` is free
        id = index_[slot] - 1;
        const SetRef r = sets_[id];
        if (r.size == set.size() &&
            std::equal(set.begin(), set.end(), pool_.begin() + r.begin))
            return true;
    }
}

std::uint32_t
NfaMemo::commit(std::uint32_t from, Word sym,
                const std::vector<std::size_t> &set, const LaneStats &st)
{
    Step s;
    s.fires_begin = steps_.empty() ? 0 : steps_.back().fires_end;
    s.fires_end = static_cast<std::uint32_t>(fires_.size());
    s.tail = since(st);

    std::size_t slot;
    bool known = find(set, slot, s.to);
    // Past a bound: forget everything, this step included, and start
    // over from `set`.
    const bool full =
        fires_.size() > kMaxFires ||
        (!known && (sets_.size() == kMaxSets ||
                    pool_.size() + set.size() > kMaxPool));
    if (full) {
        drop();
        ++drops_;
        known = find(set, slot, s.to);
    }
    if (!known) {
        s.to = static_cast<std::uint32_t>(sets_.size());
        sets_.push_back({static_cast<std::uint32_t>(pool_.size()),
                         static_cast<std::uint32_t>(set.size())});
        pool_.insert(pool_.end(), set.begin(), set.end());
        index_[slot] = s.to + 1;
        row_.resize(row_.size() + 256, 0);
    }
    if (!full) {
        steps_.push_back(s);
        const auto ix = static_cast<std::uint32_t>(steps_.size());
        if (from == kStart)
            start_ = ix;
        else
            row_[std::size_t{from} * 256 + sym] =
                s.fires_begin == s.fires_end
                    ? kFireFree | (s.to << kToShift) | ix
                    : ix;
    }
    return s.to;
}

// ---------------------------------------------------------------------------
// The shared compiled-image cache.
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledProgram>
shared_compiled(const Program &prog)
{
    static std::mutex mu;
    static std::unordered_map<std::uint64_t,
                              std::shared_ptr<const CompiledProgram>>
        cache;

    const std::uint64_t key = program_fingerprint(prog);
    {
        std::lock_guard<std::mutex> lk(mu);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    // Build outside the lock: the lowering cost scales with the image,
    // and concurrent builders of the same program are harmless (the
    // first one inserted wins; both results are equivalent).
    auto cp = std::make_shared<const CompiledProgram>(prog, nullptr);
    std::lock_guard<std::mutex> lk(mu);
    if (cache.size() >= 128)
        cache.clear(); // crude bound; lanes recompile after a burst
    return cache.emplace(key, std::move(cp)).first->second;
}

// ---------------------------------------------------------------------------
// Disassembler (--dump-compiled).
// ---------------------------------------------------------------------------

namespace {

std::string
arc_desc(const ResolvedArc &a)
{
    char buf[160];
    switch (a.kind) {
      case ResolvedArc::Reject:
        std::snprintf(buf, sizeof buf, "reject (miss, +%u reads)",
                      unsigned{a.add_reads});
        return buf;
      case ResolvedArc::Invalid:
        std::snprintf(buf, sizeof buf,
                      "trap (undecodable slot 0x%x)", a.raw_slot);
        return buf;
      case ResolvedArc::Take:
      default:
        break;
    }
    std::string s;
    std::snprintf(buf, sizeof buf, "take -> @0x%x", a.next_full);
    s += buf;
    if (a.next_state < 0)
        s += " (unknown state)";
    if (a.miss)
        s += " via miss-chain";
    if (a.add_reads) {
        std::snprintf(buf, sizeof buf, " +%u reads", unsigned{a.add_reads});
        s += buf;
    }
    if (a.refill_bits) {
        std::snprintf(buf, sizeof buf, " refill %u bits",
                      unsigned{a.refill_bits});
        s += buf;
    }
    if (a.has_act) {
        if (a.act_dynamic)
            std::snprintf(buf, sizeof buf, " act dyn[ref=%u]",
                          unsigned{a.att_ref});
        else
            std::snprintf(buf, sizeof buf, " act [%u]", a.act);
        s += buf;
    }
    return s;
}

bool
same_arc(const ResolvedArc &a, const ResolvedArc &b)
{
    return a.kind == b.kind && a.miss == b.miss &&
           a.add_reads == b.add_reads && a.refill_bits == b.refill_bits &&
           a.has_act == b.has_act && a.act_dynamic == b.act_dynamic &&
           a.att_ref == b.att_ref && a.target == b.target &&
           a.act == b.act && a.raw_slot == b.raw_slot;
}

} // namespace

std::string
disassemble_compiled(const CompiledProgram &cp)
{
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "compiled image: %u micro-ops (+1 trap sentinel), "
                  "%zu states, dyn-dispatch=%d, dyn-action=%d\n",
                  cp.op_count(), cp.num_states(), cp.dyn_dispatch() ? 1 : 0,
                  cp.dyn_action() ? 1 : 0);
    out += buf;

    for (std::size_t ix = 0; ix < cp.num_rows(); ++ix) {
        const CompiledState &cs = cp.state(ix);
        if (cp.state_index(cs.base) != static_cast<std::int32_t>(ix))
            continue; // a wide row's continuation
        std::snprintf(buf, sizeof buf, "state @0x%x (ix %zu)%s:\n",
                      cs.base, ix, cs.reg_source ? " reg-source" : "");
        out += buf;
        if (cs.has_common) {
            out += "  common: " + arc_desc(cp.arc(cs.over)) + "\n";
            continue;
        }
        // Collapse runs of identical consecutive arcs.
        const std::uint32_t *row =
            cp.words() + (ix << CompiledProgram::kRowShift);
        for (std::uint32_t lo = 0; lo < cs.row_len;) {
            const ResolvedArc a = cp.arc(row[lo]);
            std::uint32_t hi = lo;
            while (hi + 1 < cs.row_len && same_arc(cp.arc(row[hi + 1]), a))
                ++hi;
            if (lo == hi)
                std::snprintf(buf, sizeof buf, "  sym 0x%02x: ", lo);
            else
                std::snprintf(buf, sizeof buf, "  sym 0x%02x..0x%02x: ", lo,
                              hi);
            out += buf;
            out += arc_desc(a) + "\n";
            lo = hi + 1;
        }
        out += "  miss: " + arc_desc(cp.arc(cs.over)) + "\n";
    }

    out += "ops:\n";
    for (std::uint32_t i = 0; i < cp.op_count(); ++i) {
        const CompiledOp &o = cp.ops()[i];
        if (o.op == kInvalidOpcode) {
            std::snprintf(buf, sizeof buf,
                          "  [%u] <undecodable 0x%08x>\n", i, o.raw);
            out += buf;
            continue;
        }
        std::snprintf(buf, sizeof buf,
                      "  [%u] %s dst=r%u ref=r%u src=r%u imm=%d imm1=%u",
                      i, std::string(opcode_name(o.op)).c_str(),
                      unsigned{o.dst}, unsigned{o.ref}, unsigned{o.src},
                      o.imm, unsigned{o.imm1});
        out += buf;
        if (o.op == Opcode::Gotoact) {
            std::snprintf(buf, sizeof buf, " ; goto [%u]\n", o.next);
            out += buf;
        } else if (o.last) {
            out += " ; last\n";
        } else {
            std::snprintf(buf, sizeof buf, " ; next [%u]\n", o.next);
            out += buf;
        }
    }
    std::snprintf(buf, sizeof buf, "  [%u] <trap: fetch out of range>\n",
                  cp.sentinel());
    out += buf;
    return out;
}

} // namespace udp
