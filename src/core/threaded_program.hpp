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
 *  - every (state, symbol) pair becomes one packed 32-bit `ArcWord`:
 *    the labeled slot probe, signature check, auxiliary miss walk and
 *    attach resolution collapse into one table word.  A plain arc (no
 *    action, no refill, a known next state) carries its exact counter
 *    charges and the *compiled index* of the next state in the word
 *    itself; every other arc indexes a small side table of
 *    `ResolvedArc`s.  Stream-source rows are at least 256 words long,
 *    so byte symbols dispatch with one load and no range test, and a
 *    run of plain arcs over a byte-aligned 8-bit stream is stepped by
 *    a tight byte loop (ThreadedEngine::run_steps_body).
 *
 * One compiled image is shared read-only by all 64 lanes and across
 * waves via `shared_compiled()`, a content-fingerprint cache.
 *
 * `ThreadedEngine` interprets the compiled image for one lane at a
 * time: resumably in DFA mode (the lane carries the compiled index of
 * its next state between `Lane::run_steps` calls) and in NFA mode, over
 * the per-state epsilon and fallback chains of the DecodedProgram IR,
 * with a per-lane `NfaMemo` of active-set transitions in front of that
 * walk.  Every run entry — `Lane::run`, `run_steps`, `run_nfa`, and
 * through them `Machine::run_parallel` and `run_lockstep` — reaches it
 * the same way.
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

#include <algorithm>
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

/// A (state, symbol) dispatch outcome in full: the side-table form of
/// every arc an ArcWord cannot carry (reject, undecodable slot, refill,
/// action chain, dynamic attach, unknown or register-sourced next state).
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

/**
 * One (state, symbol) dispatch outcome packed in 32 bits.
 *
 *   plain: bit 0 = 0, bit 1 = miss, bits 2..10 = add_reads,
 *          bits 11..31 = compiled index of the next state
 *   slow:  bit 0 = 1, bits 1..31 = index into CompiledProgram's
 *          side table of ResolvedArcs
 *
 * A plain word is a Take with no action and no refill whose next state
 * is known and dispatches from the stream: taking it charges one
 * dispatch, 1 + miss cycles, miss sig-misses and add_reads dispatch
 * reads, and nothing else happens.
 */
struct ArcWord {
    static constexpr std::uint32_t kSlow = 1;
    static constexpr unsigned kReadsShift = 2;
    static constexpr unsigned kNextShift = 11;
    static constexpr std::uint32_t kMaxReads = (1u << 9) - 1;
    static constexpr std::uint32_t kMaxNext = (1u << 21) - 1;

    static bool slow(std::uint32_t w) { return (w & kSlow) != 0; }
    static std::uint32_t miss(std::uint32_t w) { return (w >> 1) & 1; }
    static std::uint32_t reads(std::uint32_t w) {
        return (w >> kReadsShift) & kMaxReads;
    }
    static std::uint32_t next(std::uint32_t w) { return w >> kNextShift; }
    static std::uint32_t slow_index(std::uint32_t w) { return w >> 1; }
};

/// Per-state compiled metadata.  A state's compiled index `ix` is also
/// its row: words()[(ix << kRowShift) + sym] for sym < row_len, `over`
/// past it.  Rows start on 256-word boundaries; a state whose row is
/// longer (symbols past 8 bits) spans several indices, the later ones
/// unused.  Stream-source rows are at least 256 words (the miss or
/// common arc pads them), so any byte indexes the row directly.
struct CompiledState {
    std::uint32_t base = 0;    ///< full word address of the state
    std::uint32_t row_len = 0; ///< 0: always `over` (register common)
    std::uint32_t over = 0;    ///< ArcWord for sym >= row_len
    std::uint8_t reg_source = 0;
    std::uint8_t has_common = 0;
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

    /// Row length unit: state `ix`'s row starts at ix << kRowShift.
    static constexpr unsigned kRowShift = 8;

    const CompiledState &state(std::size_t ix) const { return states_[ix]; }
    /// States of the source program.
    std::size_t num_states() const { return src_states_; }
    /// Row units: valid state() indices (a state's index is its first).
    std::size_t num_rows() const { return states_.size(); }
    /// The packed (state, symbol) table (see CompiledState).
    const std::uint32_t *words() const { return words_.data(); }
    /// The side-table arc of a slow ArcWord.
    const ResolvedArc &slow_arc(std::uint32_t w) const {
        return slow_arcs_[ArcWord::slow_index(w)];
    }
    /// Any ArcWord expanded to its ResolvedArc (disassembler, tests).
    ResolvedArc arc(std::uint32_t w) const;

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
    /// Pack `r`: a plain word when it qualifies, else a slow word
    /// indexing a new side-table entry.
    std::uint32_t pack(const ResolvedArc &r);

    std::vector<CompiledOp> ops_;
    std::vector<CompiledState> states_; ///< one per 256-word row unit
    std::vector<std::uint32_t> words_;  ///< ArcWords, states_.size() rows
    std::vector<ResolvedArc> slow_arcs_;
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

/// The threaded NFA walk's working state: the active set, the frontier
/// being built, and the generation stamps that suppress duplicate
/// activations (indexed by full dispatch word address).
struct NfaWalk {
    std::vector<std::size_t> active;
    std::vector<std::size_t> next;
    std::vector<std::uint32_t> stamp;
    std::uint32_t generation = 0;

    /// A fresh generation; clears the stamps when the counter wraps.
    std::uint32_t bump() {
        if (++generation == 0) {
            std::fill(stamp.begin(), stamp.end(), 0);
            generation = 1;
        }
        return generation;
    }
};

/**
 * Per-lane memo of NFA active-set transitions (ThreadedEngine::run_nfa).
 *
 * When no action moves the dispatch or action window (no Setbase with
 * dst != 0, no Setab) and symbols are at most 8 bits wide, what the NFA
 * walk does on one symbol depends only on the post-closure active set
 * and the symbol: which states it dispatches, which arcs it takes, which
 * action chains it fires and in what order, and what it charges.  The
 * actions themselves may depend on anything, so they always run live.
 * The memo interns each active set once and caches (set, symbol) ->
 * next set, with the walk's charges split at every chain it fires.  A
 * hit replays the step as "charges, chain, charges, chain, ..., tail
 * charges", the order the walk makes them in, so accepts, fault records
 * (cycle included), the watchdog and forced-trap checks all read the
 * counters the walk would have left.  A step that fires no chain is
 * flagged in its row word; runs of such hits over a byte-aligned 8-bit
 * stream are applied inline, with the same per-symbol checks.  A miss
 * runs the walk itself and records it.
 *
 * A memo belongs to one lane, so concurrently simulated lanes share
 * nothing.  It holds its image (a freed image's address cannot alias a
 * new one) and is keyed on it, the entry state and the dispatch and
 * action windows it was recorded under.  It survives
 * Machine::assign/hard_reset, is freed when the lane loads another
 * image, and forgets everything once it passes kMaxSets sets (or its
 * chain and set pools pass their caps).
 */
class NfaMemo
{
  public:
    /// Interned sets kept before the memo drops them all.
    static constexpr std::size_t kMaxSets = 256;

    std::size_t sets() const { return sets_.size(); }
    /// Cached (set, symbol) transitions, the initial closure included.
    std::size_t steps() const { return steps_.size(); }
    /// Times the memo passed a bound and started over.
    std::size_t drops() const { return drops_; }
    const CompiledProgram *image() const { return image_.get(); }

  private:
    friend class ThreadedEngine;

    static constexpr std::uint32_t kStart = ~std::uint32_t{0};
    /// Row word: bits 0..22 the step + 1; bit 31 flags a step that
    /// fires no chain (ThreadedEngine::nfa_run applies it inline), and
    /// then bits 23..30 hold its next set, so the next row's address
    /// does not wait on the step's load.
    static constexpr std::uint32_t kFireFree = std::uint32_t{1} << 31;
    static constexpr unsigned kToShift = 23;
    static constexpr std::uint32_t kStepMask = (1u << kToShift) - 1;
    static_assert(kMaxSets <= (std::size_t{1} << (31 - kToShift)));
    static constexpr std::size_t kMaxFires = std::size_t{1} << 16;
    static constexpr std::size_t kMaxPool = std::size_t{1} << 16;

    /// Walk charges made between two chain firings of one step.
    struct Charge {
        std::uint32_t dispatches = 0;
        std::uint32_t cycles = 0;
        std::uint32_t dispatch_reads = 0;
        std::uint32_t sig_misses = 0;
    };
    struct Fire {
        Charge before;       ///< walk charges since the previous chain
        std::uint32_t chain; ///< ops index (sentinel-clamped)
    };
    struct Step {
        std::uint32_t to = 0; ///< interned next set
        std::uint32_t fires_begin = 0, fires_end = 0;
        Charge tail;          ///< walk charges after the last chain
    };
    struct SetRef {
        std::uint32_t begin = 0, size = 0; ///< into pool_
    };

    /// Forget every set and step (the key and the scratch stay).
    void drop();
    /// Start recording a step: forget an aborted recording's fires and
    /// snapshot the walk counters.
    void begin_record(const LaneStats &st);
    /// The walk fires `chain` now: record its charges since the last
    /// snapshot (the snapshot moves past the chain in resume()).
    void record_fire(const LaneStats &st, std::uint32_t chain) {
        fires_.push_back({since(st), chain});
    }
    void resume(const LaneStats &st) { snap_ = st; }
    /// Intern `set` and cache the recorded step `from` --`sym`--> set
    /// (`from` == kStart: the initial closure).  Returns the set's id;
    /// a bound passed on the way drops the memo and leaves the step
    /// uncached.
    std::uint32_t commit(std::uint32_t from, Word sym,
                         const std::vector<std::size_t> &set,
                         const LaneStats &st);
    /// The id of interned `set`; else false, with `slot` its free
    /// index_ slot.
    bool find(const std::vector<std::size_t> &set, std::size_t &slot,
              std::uint32_t &id) const;
    Charge since(const LaneStats &st) const;

    // Key.
    std::shared_ptr<const CompiledProgram> image_;
    std::size_t entry_ = 0;
    std::size_t dispatch_base_ = 0;
    ByteAddr action_base_ = 0;
    unsigned action_scale_ = 0;

    std::vector<std::uint32_t> pool_; ///< interned sets' state addresses
    std::vector<SetRef> sets_;
    std::vector<std::uint32_t> index_; ///< open-addressed set id + 1
    /// [set * 256 + sym]: row word (see kFireFree; 0 = not cached).
    std::vector<std::uint32_t> row_;
    std::vector<Step> steps_;
    std::vector<Fire> fires_;
    std::uint32_t start_ = 0; ///< initial closure's step + 1
    std::size_t drops_ = 0;
    LaneStats snap_;          ///< recorder: counters at the last cut
    NfaWalk walk_;            ///< scratch, reused across runs
};

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
    /// the lane's stats before returning or rethrowing.  While the
    /// image's next-state links are static, the symbols are bytes and
    /// the stream is byte-aligned, plain words are stepped straight
    /// from the stream bytes (a byte run) until a slow word, the end
    /// of the stream or step `n`; everything else takes the general
    /// step.  Call inside Lane::run_guarded.
    static LaneStatus run_steps_body(Lane &ln, std::uint64_t n);

    /// NFA mode to completion (or the `max_cycles` watchdog), charging
    /// exactly what the reference run_nfa does.  Simulated cost scales
    /// with the active set, as on the hardware; host cost does not once
    /// the lane's NfaMemo has seen a (set, symbol) pair — a hit costs
    /// one table probe plus the actions it fires.  Images the memo
    /// cannot key (NfaMemo) take the plain walk every symbol.  Call
    /// inside Lane::run_guarded.
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

    // The NFA walk.  nfa_step is its one step function: the plain loop
    // calls it with `rec` null, the memo's recorder with its memo.
    static NfaMemo *nfa_memo(Lane &ln, unsigned width);
    static void fire_chain(Lane &ln, ThreadedCtx &c, std::uint32_t ix);
    static void nfa_fire(Lane &ln, ThreadedCtx &c, const Transition &t,
                         NfaMemo *rec);
    static void nfa_close(Lane &ln, ThreadedCtx &c, NfaWalk &w,
                          std::vector<std::size_t> &set, NfaMemo *rec);
    static void nfa_step(Lane &ln, ThreadedCtx &c, NfaWalk &w, Word sym,
                         NfaMemo *rec);
    static std::uint32_t nfa_replay(Lane &ln, ThreadedCtx &c,
                                    const NfaMemo &m, std::uint32_t step);
    static std::uint32_t nfa_run(Lane &ln, const NfaMemo &m,
                                 std::uint32_t set, std::uint64_t max_cycles);
    static std::uint32_t nfa_record(Lane &ln, ThreadedCtx &c, NfaMemo &m,
                                    std::uint32_t from, Word sym);
};

} // namespace udp
