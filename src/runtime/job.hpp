/**
 * @file
 * The runtime job model (docs/RUNTIME.md).
 *
 * A `JobPlan` is everything needed to run one kernel invocation on one
 * lane: the program, a *non-owning* view of the input bytes pinned by
 * its `InputArena` (runtime/arena.hpp), the size of the local-memory
 * window the job occupies, regions to stage into that window before the
 * run (`MemStage`), registers to initialize, and regions to read back
 * after the run (`MemExtract`).  Kernels build plans once (see
 * runtime/kernel_spec.hpp) instead of open-coding a
 * load/set_input/run/unstage harness per call site.
 *
 * Ownership rules: a plan never owns payload bytes.  `input` (and every
 * `MemStage::data`) is an `ArenaSlice` — a view plus the shared_ptr
 * lifetime token that keeps the backing arena alive.  Chunking a stream
 * slices one arena instead of copying per chunk, retries re-pin the
 * same arena, and copying a plan copies pointers, never payloads.  The
 * lanes stream straight from arena memory, so the arena must stay
 * pinned until the run is harvested — enforced (not just documented) by
 * the `check_pinned` canary check in `stage_job`/`harvest_job`.
 *
 * A `JobResult` is the complete architectural outcome of one job: the
 * terminal status, the simulated counters, the final scalar registers,
 * the lane output buffer, recorded accepts, and the extracted memory
 * regions.  Results are host-side values only; they never alias machine
 * state, so a result stays valid after the lane is reassigned to the
 * next wave.  Result buffers may come from (and return to) a
 * `BufferPool`, so steady-state serving loops recycle instead of
 * reallocating (see Scheduler::recycle).
 */
#pragma once

#include "core/decoded_program.hpp"
#include "core/lane.hpp"
#include "core/threaded_program.hpp"
#include "core/program.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "runtime/arena.hpp"

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace udp::runtime {

/// Bytes staged into the job's window before the run (host/DLT side).
/// The data is an arena slice: staging the job's own input (the common
/// `{0, p.input}` pattern) pins the same arena instead of copying it.
struct MemStage {
    ByteAddr offset = 0; ///< window-relative byte offset
    ArenaSlice data;
};

/// A window region read back after the run.
struct MemExtract {
    ByteAddr offset = 0;  ///< window-relative byte offset
    std::size_t len = 0;  ///< fixed length (when end_reg < 0)
    int end_reg = -1;     ///< when >= 0: length = reg(end_reg) - offset
};

/// One schedulable kernel invocation.
struct JobPlan {
    std::string name;
    std::shared_ptr<const Program> program;
    /// Shared threaded-code image of `program` (core/threaded_program.hpp),
    /// resolved once per job (not once per lane) by resolve_image(), or
    /// once per KernelSpec for the jobs of a spec that owns its program.
    /// stage_job and the Scheduler (through JobSpec::compiled) hand it
    /// to the lane as is, so no run path hashes the program again.
    /// Null unless the Threaded backend was active at resolve time; a
    /// lane given a null image looks it up in the shared cache itself.
    std::shared_ptr<const CompiledProgram> compiled;
    /// Stream contents: a non-owning view pinned by its InputArena.
    /// Assigning a `Bytes` materializes a private arena (one move).
    ArenaSlice input;
    std::size_t window_bytes = kBankBytes;  ///< local-memory footprint
    bool nfa_mode = false;                  ///< run with Lane::run_nfa
    std::vector<std::pair<unsigned, Word>> init_regs;
    std::vector<MemStage> stages;
    std::vector<MemExtract> extracts;

    /// Per-job cycle budget: overrides the scheduler-wide
    /// `max_cycles_per_lane` when nonzero (0, the default, inherits it).
    /// How udp_service degrades overloaded tenants to smaller budgets
    /// without touching other tenants' jobs (docs/SERVICE.md).
    std::uint64_t max_cycles = 0;

    // Deterministic fault injection (runtime/fault_injection.hpp): arm
    // a ForcedTrap at this simulated cycle (0 = off), for the first
    // `trap_attempts` scheduler attempts only — so a transient fault is
    // one that succeeds once the Scheduler retries past that count.
    Cycles force_trap_cycle = 0;
    unsigned trap_attempts = ~0u; ///< default: trap on every attempt

    /// (Re)resolve `compiled` for `program` under the active backend.
    /// KernelSpec::make_job calls it for each job of a borrowed
    /// program, FaultInjector again after each program mutation.
    /// Whoever changes `program` (or its contents) must call it again:
    /// a stale image of another shape is rejected when a lane loads it
    /// (CompiledProgram::shape_matches), but one of the same shape
    /// would run the old code.
    void resolve_image() {
        compiled = program && sim_backend() == SimBackend::Threaded
                       ? shared_compiled(*program)
                       : nullptr;
    }

    /// Local-memory banks the job's window occupies (>= 1).
    unsigned banks() const {
        return static_cast<unsigned>(
            ceil_div(window_bytes ? window_bytes : 1, kBankBytes));
    }
};

/// Architectural outcome of one job.
struct JobResult {
    LaneStatus status = LaneStatus::Done;
    LaneStats stats;
    std::array<Word, kNumScalarRegs> regs{};
    Bytes output;                     ///< lane output buffer (flushed)
    std::vector<AcceptEvent> accepts;
    std::vector<Bytes> extracts;      ///< one per JobPlan::extracts entry
    unsigned lane = 0;                ///< lane that ran the job
    unsigned wave = 0;                ///< wave of the final attempt
    /// Trap record of the final attempt (code == None on success).
    LaneFault fault;
    unsigned attempts = 1;    ///< runs the Scheduler gave this job
    bool quarantined = false; ///< faulted on every attempt; gave up
    /// Ended by JobControl::cancel: either never staged (attempts
    /// counts only real runs) or its last run's payload was discarded.
    /// When set, `status` is LaneStatus::Cancelled.
    bool cancelled = false;

    // Latency of the final attempt, in *simulated* cycles — so the
    // numbers are deterministic and independent of host thread count
    // (docs/OBSERVABILITY.md).  Submission happens at machine time 0;
    // a wave is a barrier, so a job's result becomes visible when its
    // wave closes.
    Cycles queue_wait_cycles = 0; ///< machine time of all earlier waves
    Cycles service_cycles = 0;    ///< this run's own lane cycles
    Cycles e2e_cycles = 0;        ///< queue wait + its wave's wall clock
};

/// Throw unless `r` completed cleanly.  Guards harnesses that used to
/// accept a truncated (TimedOut) or trapped run as success: the error
/// carries the terminal status and the lane's fault diagnosis.
inline void
require_done(const JobResult &r, const std::string &who)
{
    if (r.status == LaneStatus::Done)
        return;
    std::string msg = who + ": job did not complete (status ";
    msg += lane_status_name(r.status);
    msg += ")";
    if (r.fault)
        msg += " — " + r.fault.describe();
    throw UdpError(msg);
}

} // namespace udp::runtime
