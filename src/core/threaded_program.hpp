/**
 * @file
 * Threaded-code execution tier: compile once, dispatch flat.
 *
 * The reference interpreter (lane.cpp) decodes every word at dispatch
 * time and switches on the opcode per action.  This tier lowers a
 * program once, through its `DecodedProgram` IR, into a
 * `CompiledProgram`:
 *
 *  - every action word becomes a `CompiledOp`: a handler plus its
 *    operands and a pre-resolved successor index, laid out in one
 *    contiguous stream (chains and Gotoact targets are just `next`
 *    links — no switch, no bounds check in the hot loop; out-of-range
 *    fetches land on a trap sentinel op).  The handlers are generated:
 *    `ThreadedEngine::handler<OP>` instantiates the one opcode
 *    definition, `Lane::exec_op` (core/action_unit.hpp), per opcode;
 *  - every (state, symbol) pair becomes a `ResolvedArc`: the labeled
 *    slot probe, signature check, auxiliary miss walk and attach
 *    resolution collapse into one table entry holding the exact
 *    counter charges and the *compiled index* of the next state — no
 *    per-step pointer chasing.
 *
 * One compiled image is shared read-only by all 64 lanes and across
 * waves via `shared_compiled()`, a content-fingerprint cache.
 *
 * `ThreadedEngine` interprets the compiled image for one lane at a
 * time: resumably in DFA mode (the lane carries the compiled index of
 * its next state between `Lane::run_steps` calls) and in NFA mode, over
 * the per-state epsilon and fallback chains of the DecodedProgram IR.
 * Every run entry — `Lane::run`, `run_steps`, `run_nfa`, and through
 * them `Machine::run_parallel` and `run_lockstep` — reaches it the same
 * way.
 *
 * This tier is purely host-performance: simulated counters, outputs,
 * accepts, faults and trap cycles are bit-identical to the reference
 * interpreter (pinned by tests/test_threaded.cpp).  It runs no tracer
 * or profiler hooks; instrumented lanes take the reference interpreter.
 * Select tiers with UDP_SIM_BACKEND=legacy|threaded or
 * `set_sim_backend()` (decoded_program.hpp).
 */
#pragma once

#include "decoded_program.hpp"
#include "lane.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace udp {

class CompiledProgram;
struct CompiledOp;

/// Per-chain-run scratch the op handlers accumulate into: local copies
/// of the hottest LaneStats counters (flushed to the lane at loop
/// boundaries and before any exception escapes) plus the compiled-image
/// geometry the chain walker needs.
struct ThreadedCtx {
    const CompiledOp *ops = nullptr;
    std::uint32_t nops = 0;     ///< real action words (sentinel excluded)
    std::uint32_t sentinel = 0; ///< index of the out-of-range trap op
    // Local accumulators (order-independent sums; see flush()).
    std::uint64_t cycles = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t dispatch_reads = 0;
    std::uint64_t sig_misses = 0;
    std::uint64_t actions = 0;
    std::uint64_t stream_bits = 0; ///< wrapping (refills subtract)
};

using OpFn = OpExit (*)(Lane &, ThreadedCtx &, const CompiledOp &);

/// One lowered action word: handler + pre-extracted operands + the
/// pre-resolved successor index (chain fall-through or Gotoact target).
struct CompiledOp {
    OpFn fn = nullptr;
    std::uint32_t next = 0; ///< ops index to continue at when !last
    std::int32_t imm = 0;
    std::uint8_t dst = 0;
    std::uint8_t ref = 0;
    std::uint8_t src = 0;
    std::uint8_t imm1 = 0;
    std::uint8_t last = 0;  ///< chain terminator (compiled 0 for Gotoact)
    Opcode op = Opcode::Nop; ///< for the disassembler
    Word raw = 0;           ///< source word (fetch-time re-decode on trap)
};

/// One fully resolved (state, symbol) dispatch outcome.
struct ResolvedArc {
    enum Kind : std::uint8_t {
        Reject = 0,  ///< no transition: lane rejects (after charges)
        Take = 1,    ///< follow `target` (running actions if any)
        Invalid = 2, ///< undecodable slot: re-decode `raw_slot` (throws)
    };
    std::uint8_t kind = Reject;
    std::uint8_t miss = 0;      ///< 1 = charge the sig-miss cycle+counter
    std::uint8_t refill_bits = 0; ///< Refill transitions: push-back bits
    std::uint8_t has_act = 0;
    std::uint8_t act_dynamic = 0; ///< resolve attach vs live action base
    std::uint8_t att_ref = 0;     ///< raw attach ref (dynamic resolution)
    /// Dispatch-word reads this arc charges (labeled probe + miss walk;
    /// up to 256, hence not uint8).
    std::uint16_t add_reads = 0;
    std::uint32_t target = 0;     ///< window-relative 12-bit target
    std::uint32_t act = 0;        ///< static ops index (sentinel-clamped)
    std::int32_t next_state = -1; ///< static compiled state ix (-1 unknown)
    std::uint32_t next_full = 0;  ///< init_dispatch_base + target
    std::uint32_t raw_slot = 0;   ///< Invalid: dispatch slot to re-decode
};

/// Per-state compiled metadata: a dense arc table over the symbol range
/// plus the precomputed common/miss arcs.
struct CompiledState {
    std::uint32_t base = 0;     ///< full word address of the state
    std::uint32_t arc_base = 0; ///< arcs()[arc_base + sym], sym<=max_symbol
    std::uint16_t max_symbol = 0;
    std::uint8_t reg_source = 0;
    std::uint8_t has_common = 0;
    ResolvedArc common_arc; ///< replaces the labeled table when present
    ResolvedArc miss_arc;   ///< sym > max_symbol (no labeled-slot read)
};

/**
 * The threaded-code image.  Built once per program from its
 * DecodedProgram IR (built here when `dec` is null); immutable after,
 * so one instance is safely shared read-only across lanes, waves and
 * host threads.
 */
class CompiledProgram
{
  public:
    CompiledProgram(const Program &prog,
                    std::shared_ptr<const DecodedProgram> dec);

    const CompiledOp *ops() const { return ops_.data(); }
    /// Real action words; ops()[op_count()] is the trap sentinel.
    std::uint32_t op_count() const { return nops_; }
    std::uint32_t sentinel() const { return nops_; }

    const CompiledState &state(std::size_t ix) const { return states_[ix]; }
    std::size_t num_states() const { return states_.size(); }
    const ResolvedArc *arcs() const { return arcs_.data(); }

    /// Compiled state index for a full dispatch base; -1 when unknown.
    std::int32_t state_index(std::size_t full_base) const {
        return full_base < slot_state_.size() ? slot_state_[full_base] : -1;
    }

    /// True when any action rewrites the dispatch window base (Setbase
    /// with dst != 0): arc next-state links must resolve at run time.
    bool dyn_dispatch() const { return dyn_dispatch_; }
    /// True when any action rewrites the action window (Setab):
    /// scaled-offset attaches must resolve at run time.
    bool dyn_action() const { return dyn_action_; }
    std::uint32_t init_dispatch_base() const { return init_dispatch_base_; }

    /// The IR this was lowered from (NFA mode walks its per-state
    /// epsilon and fallback chains).
    const DecodedProgram &decoded() const { return *decoded_; }

    /// Content fingerprint of the source program (the cache key).
    std::uint64_t fingerprint() const { return fingerprint_; }

    /// O(1) shape check: `prog` has the dispatch, action and state
    /// counts and the entry this image was built from.  Catches a
    /// caller-supplied image left stale by a swapped program.
    bool shape_matches(const Program &prog) const {
        return prog.dispatch.size() == src_dispatch_words_ &&
               prog.actions.size() == nops_ &&
               prog.states.size() == src_states_ &&
               prog.entry == src_entry_;
    }

  private:
    ResolvedArc resolve_take(const Transition &t, std::uint8_t miss,
                             std::uint16_t add_reads) const;
    ResolvedArc resolve_miss(const DecodedState &d,
                             std::uint16_t extra_reads) const;

    std::vector<CompiledOp> ops_;
    std::vector<CompiledState> states_;
    std::vector<ResolvedArc> arcs_;
    std::vector<std::int32_t> slot_state_; ///< base -> index into states_
    std::shared_ptr<const DecodedProgram> decoded_;
    std::uint64_t fingerprint_ = 0;
    std::uint32_t nops_ = 0;
    std::size_t src_dispatch_words_ = 0;
    std::size_t src_states_ = 0;
    std::uint32_t src_entry_ = 0;
    std::uint32_t init_dispatch_base_ = 0;
    std::uint32_t init_action_base_ = 0;
    unsigned init_action_scale_ = 0;
    bool dyn_dispatch_ = false;
    bool dyn_action_ = false;
};

/**
 * Process-wide compiled-image cache: the shared CompiledProgram for
 * `prog`, built on first use.  Keyed by content fingerprint, so 64
 * lanes loading the same program (or a copy of it) share one image, and
 * a mutated program gets a fresh one.  Thread-safe.
 */
std::shared_ptr<const CompiledProgram> shared_compiled(const Program &prog);

/// Human-readable listing of the flat micro-op stream and arc tables —
/// `--dump-compiled` renders this next to `disassemble_state` output
/// when backends diverge.
std::string disassemble_compiled(const CompiledProgram &cp);

/**
 * The threaded-code interpreter.  A friend of Lane/StreamBuffer: it
 * *is* the lane's inner loop for the Threaded backend, entered from
 * Lane::run_steps (DFA mode, resumable) and Lane::run_nfa.
 */
class ThreadedEngine
{
  public:
    /// Lane::resume_cs_ sentinel: resolve the compiled state from
    /// Lane::cur_state_.
    static constexpr std::int32_t kNoResume = -2;

    /// Up to `n` dispatch steps over the compiled image, resuming at
    /// the lane's carried compiled state index (kNoResume = resolve)
    /// and leaving the next one there; local counters are flushed to
    /// the lane's stats before returning or rethrowing.  Call inside
    /// Lane::run_guarded.
    static LaneStatus run_steps_body(Lane &ln, std::uint64_t n);

    /// NFA mode to completion (or the `max_cycles` watchdog), charging
    /// exactly what the reference run_nfa does.  Call inside
    /// Lane::run_guarded.
    static LaneStatus run_nfa(Lane &ln, std::uint64_t max_cycles);

    /// Handler lookup for the compiler (CompiledProgram's ctor).
    static OpFn op_fn(Opcode op);
    static OpFn invalid_fn(); ///< undecodable word: fetch-time re-decode
    static OpFn oob_fn();     ///< out-of-range fetch trap sentinel

  private:
    /// The generated handler of opcode value `OP`: Lane::exec_op with
    /// the opcode fixed, so its switch folds to one case.
    template <Opcode OP>
    static OpExit handler(Lane &ln, ThreadedCtx &c, const CompiledOp &o);
    static OpExit invalid_op(Lane &ln, ThreadedCtx &c, const CompiledOp &o);
    static OpExit oob_op(Lane &ln, ThreadedCtx &c, const CompiledOp &o);

    static LaneStatus exec_chain(Lane &ln, ThreadedCtx &c,
                                 std::uint32_t ix);
    static void flush(Lane &ln, ThreadedCtx &c);
    static Word read_sym(StreamBuffer &sb, unsigned width);
};

} // namespace udp
