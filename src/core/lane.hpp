/**
 * @file
 * UDP lane: a 32-bit symbol/branch engine (paper Sections 3.2 and 6).
 *
 * A lane couples three units (Figure 23):
 *   - Dispatch unit: multi-way dispatch `slot = base + symbol` with an
 *     8-bit signature check (the EffCLiP perfect-hash contract), auxiliary
 *     majority/default/common fallbacks, flagged (register-sourced)
 *     dispatch and refill transitions;
 *   - Stream-buffer/prefetch unit: bit-granular input with a symbol-size
 *     register (1..8, 16, 32 bits);
 *   - Action unit: executes chained 32-bit actions over 16 scalar
 *     registers, window-addressed local memory and an output buffer.
 *
 * The lane supports two execution modes:
 *   - `run()`: single active state (DFA-style programs; all the ETL
 *     kernels), in resumable chunks of `run_steps()`;
 *   - `run_nfa()`: a set of active states advanced per input symbol with
 *     epsilon activation (UAP-style NFA execution); cycle cost scales with
 *     the number of dispatches, as on the real hardware.  Host cost on
 *     the threaded tier does not: the lane's NfaMemo replays a seen
 *     (active set, symbol) step from one table entry.
 *
 * Host-side interpretation runs on one of two tiers (docs/PERFORMANCE.md):
 *   - the threaded tier (the default): a `CompiledProgram` shared by all
 *     lanes, run by `ThreadedEngine` in both DFA and NFA mode;
 *   - the reference interpreter: decodes every word at dispatch time and
 *     is the equivalence oracle.  It also runs every lane with a tracer
 *     or profiler attached, so the fast tier carries no hooks.
 * Both tiers execute the one opcode definition in core/action_unit.hpp;
 * simulated counters never depend on the tier taken.
 */
#pragma once

#include "fault.hpp"
#include "local_memory.hpp"
#include "program.hpp"
#include "stats.hpp"
#include "stream_buffer.hpp"
#include "types.hpp"

#include <array>
#include <functional>
#include <memory>

namespace udp {

class Tracer;          // trace.hpp
class Profiler;        // profile.hpp
class CompiledProgram; // threaded_program.hpp
class NfaMemo;         // threaded_program.hpp
class ThreadedEngine;  // threaded_program.hpp

/// Terminal status of a lane run.
enum class LaneStatus : std::uint8_t {
    Done,     ///< consumed the whole stream, or executed Halt
    Reject,   ///< no matching transition / Fail action
    Running,  ///< still active (used internally)
    Faulted,  ///< trapped on an interpreter fault (see Lane::fault())
    TimedOut, ///< watchdog: cycle budget exhausted before completion
    /// Host-side disposition, never produced by the interpreter: the
    /// run's owner cancelled the job (runtime JobControl / udp_service)
    /// before it was staged or while its wave was in flight.
    Cancelled,
};

/// Stable lower-case name of a lane status ("done", "timed-out", ...).
std::string_view lane_status_name(LaneStatus st);

/// Exit disposition of one executed action (Lane::exec_op).
enum class OpExit : std::uint8_t { Next, Done, Reject };

/// One recorded acceptance (Accept action).
struct AcceptEvent {
    std::uint64_t stream_bit_pos; ///< stream position at acceptance
    Word id;                      ///< Accept immediate (pattern id, bin, ..)
};

/**
 * A single UDP lane bound to a program, an input stream, and the shared
 * local memory.
 */
class Lane
{
  public:
    /**
     * @param id    lane index (0..63), selects the bank in local mode
     * @param mem   shared local memory (may outlive many runs)
     */
    Lane(unsigned id, LocalMemory &mem);
    ~Lane();

    /// Bind the program (kept by reference; caller owns it).  Under the
    /// Threaded backend (see sim_backend()) the lane also binds the
    /// shared compiled image from the process-wide cache.
    void load(const Program &prog);

    /// Bind the program with its compiled image already resolved (the
    /// runtime's JobPlan path, which looks it up once per job instead
    /// of once per lane).  `compiled` may be null (the lane then binds
    /// the cached image); it is dropped unless the Threaded backend is
    /// active.  Throws UdpError, leaving the lane as it was, when
    /// `compiled` was built from a program of another shape
    /// (CompiledProgram::shape_matches).  Binding another image than
    /// the one the lane's NfaMemo was recorded on frees the memo.
    void load(const Program &prog,
              std::shared_ptr<const CompiledProgram> compiled);

    /// The threaded-code image in use (null unless the Threaded
    /// backend was active at load()).
    const CompiledProgram *compiled() const { return compiled_.get(); }

    /// Attach the input stream (not copied).
    void set_input(BytesView data);

    /// Window base register for restricted addressing (byte address).
    void set_window_base(ByteAddr base) { window_base_ = base; }
    ByteAddr window_base() const { return window_base_; }

    /// Scalar register access (r15 reads give the stream byte index).
    Word reg(unsigned idx) const;
    void set_reg(unsigned idx, Word value);

    /// Execute in single-active-state mode until stream end / halt.
    LaneStatus run(std::uint64_t max_cycles = ~std::uint64_t{0});

    /// Execute up to `n` dispatch steps, preserving position between
    /// calls (run_steps(1) is the lockstep machine's round).  An armed
    /// forced trap that is due fires before the first step.  Returns
    /// Running while work remains.
    LaneStatus run_steps(std::uint64_t n);

    /// Execute in NFA mode (multi-state activation via epsilon).
    /// Simulated cost scales with the active set; on the threaded tier
    /// host cost does not, once the lane's NfaMemo has recorded the
    /// (set, symbol) steps the input takes.
    LaneStatus run_nfa(std::uint64_t max_cycles = ~std::uint64_t{0});

    /// The lane's NFA transition memo (null until a threaded NFA run on
    /// an image it can key; read-only, for tests and diagnostics).
    const NfaMemo *nfa_memo() const { return nfa_memo_.get(); }

    const LaneStats &stats() const { return stats_; }
    const Bytes &output() const { return output_; }

    /**
     * The structured record of the last trap (docs/ROBUSTNESS.md).
     * `fault().code == FaultCode::None` for a healthy lane.  Populated
     * whenever a run entry returns Faulted or TimedOut; cleared by
     * reset().  Interpreter errors never escape the run entries —
     * run(), run_steps() and run_nfa() — as exceptions; they land
     * here.
     */
    const LaneFault &fault() const { return fault_; }

    /**
     * Arm a deterministic trap: the lane faults with
     * FaultCode::ForcedTrap at the first dispatch-step boundary at or
     * after simulated cycle `at` (0 disarms; the default).  Fault
     * injection only — no hardware analogue.  Cleared by hard_reset().
     */
    void set_forced_trap(Cycles at) { trap_cycle_ = at; }

    /// Record a watchdog fault and halt the lane (the machine's lockstep
    /// harness calls this when its round budget expires with the lane
    /// still running).  Returns LaneStatus::TimedOut.
    LaneStatus trip_watchdog(std::string detail);

    /// Byte-align the output bitstream from the host side (reading back
    /// the staging buffer after the lane finished).
    void finish_output() { out_flush(); }
    const std::vector<AcceptEvent> &accepts() const { return accepts_; }
    std::uint64_t accept_count() const { return stats_.accepts; }

    /// Reset registers, stats, output and stream position.
    void reset();

    /// Full architectural reset between job batches: reset() plus the
    /// window base, dispatch window, attached input and program binding,
    /// so a reassigned lane cannot observe any state from the previous
    /// wave, and an idle one keeps no pointer to a program its owner may
    /// have freed; load() again before running.  Run configuration
    /// (tracer, profiler, arbiter) and the NfaMemo survive.
    void hard_reset();

    /// Hook invoked for each memory reference: (bank, is_write) -> stalls.
    using ArbiterHook = std::function<Cycles(unsigned bank, bool is_write)>;
    void set_arbiter(ArbiterHook hook) { arbiter_ = std::move(hook); }

    /// Attach an event tracer (nullptr = off, the default; survives
    /// reset()/load() like the arbiter — it is run configuration).
    void set_tracer(Tracer *t) { tracer_ = t; }
    Tracer *tracer() const { return tracer_; }

    /// Attach a profiling aggregator (nullptr = off, the default).
    void set_profiler(Profiler *p) { profiler_ = p; }
    Profiler *profiler() const { return profiler_; }

  private:
    /// The threaded-code backend is the lane's inner loop when a
    /// compiled image is bound (core/threaded_program.hpp).
    friend class ThreadedEngine;

    // Dispatch outcome for one step of one active state.
    struct StepResult {
        bool took_transition = false;
        bool consumed_symbol = false;
        DispatchAddr next_base = 0;
        LaneStatus status = LaneStatus::Running;
    };

    /// Reference dispatch: fetch+check the labeled slot, walk the aux
    /// chain, fire actions.
    StepResult step(const StateMeta &meta);

    LaneStatus run_steps_legacy(std::uint64_t n);
    LaneStatus run_nfa_legacy(std::uint64_t max_cycles);

    /// True when the threaded tier runs this lane: a compiled image is
    /// bound and no tracer or profiler is attached.
    bool threaded() const { return compiled_ && !tracer_ && !profiler_; }

    /// Reference action unit: decode and execute the action chain at
    /// action-memory word address `addr`, with the tracer/profiler hooks.
    LaneStatus exec_actions(std::size_t addr);

    /// The semantics of one action: the single definition both tiers
    /// run (core/action_unit.hpp).  `acc` takes the cycle and stream-bit
    /// charges — the lane's own LaneStats on the reference interpreter,
    /// the threaded tier's ThreadedCtx otherwise.  `A` is any operand
    /// record with Action's field names (Action, CompiledOp).
    template <class Acc, class A>
    OpExit exec_op(Opcode op, const A &a, Acc &acc);

    /// Record `fault_`, halt the lane and return the terminal status
    /// (TimedOut for WatchdogTimeout, Faulted otherwise).
    LaneStatus trap(FaultCode code, std::string detail);

    /// Run `body` converting tagged interpreter errors into faults at
    /// the run-loop boundary (shared by every run entry of both tiers).
    template <typename Body>
    LaneStatus run_guarded(Body &&body);

    /// Resolve an attach field to an action word address (or none).
    bool attach_addr(const Transition &t, std::size_t &addr) const;

    Word fetch_symbol_bits(unsigned width);
    Word dispatch_word(std::size_t word_addr);

    // Local-memory access (inline, core/action_unit.hpp).  Single
    // accesses translate and charge one reference each; mem_span hands
    // Loopcpy a whole in-window run as raw bytes.
    ByteAddr mem_translate(Word lane_addr) const;
    std::uint8_t mem_read8(Word lane_addr);
    void mem_write8(Word lane_addr, std::uint8_t v);
    Word mem_read32(Word lane_addr);
    void mem_write32(Word lane_addr, Word v);
    void charge_mem(ByteAddr phys, bool is_write);
    /// Arbiter stall and tracer events of one reference (lane.cpp).
    void charge_mem_hooks(ByteAddr phys, bool is_write);
    /// The physical bytes of the n-byte run at `lane_addr`, or nullptr
    /// when the run leaves the window or wraps, or an arbiter or tracer
    /// is attached: those lanes take the per-byte path, which charges
    /// and records every reference.
    std::uint8_t *mem_span(Word lane_addr, Word n);

    void out_byte(std::uint8_t b);
    void out_bits(Word value, unsigned nbits);
    void out_flush();

    unsigned id_;
    LocalMemory &mem_;
    const Program *prog_ = nullptr;
    std::shared_ptr<const CompiledProgram> compiled_; ///< threaded backend
    /// Compiled index of cur_state_ carried between run_steps calls
    /// (ThreadedEngine::kNoResume = resolve; reset() and every step on
    /// the reference interpreter clear it).
    std::int32_t resume_cs_ = -2;
    StreamBuffer sb_;

    std::array<Word, kNumScalarRegs> regs_{};
    unsigned symbol_bits_ = 8;     ///< symbol-size register
    ByteAddr window_base_ = 0;     ///< data window (restricted addressing)
    std::size_t dispatch_base_ = 0;///< dispatch window (words)
    ByteAddr action_base_ = 0;     ///< scaled-offset action window (words)
    unsigned action_scale_ = 0;

    Word last_symbol_ = 0; ///< latched by the dispatch unit (Lastsym)
    LaneStats stats_;
    Bytes output_;
    Word out_bit_acc_ = 0;     ///< pending sub-byte output bits
    unsigned out_bit_count_ = 0;
    std::vector<AcceptEvent> accepts_;
    /// Cap on stored AcceptEvents (counts keep accumulating past it).
    static constexpr std::size_t kAcceptCapacity = std::size_t{1} << 16;
    ArbiterHook arbiter_;
    Tracer *tracer_ = nullptr;     ///< event sink; off when null
    Profiler *profiler_ = nullptr; ///< aggregation sink; off when null
    std::size_t cur_state_ = 0;   ///< full base of the active state
    bool started_ = false;
    bool halted_ = false;
    LaneStatus halt_status_ = LaneStatus::Done;
    LaneFault fault_;             ///< last trap record (None = healthy)
    Cycles trap_cycle_ = 0;       ///< forced-trap cycle (0 = disarmed)
    /// Threaded NFA mode's transition memo (threaded_program.hpp).
    std::unique_ptr<NfaMemo> nfa_memo_;
};

} // namespace udp
