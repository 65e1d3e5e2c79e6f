/**
 * @file
 * The full 64-lane UDP machine (paper Figure 3a) and its run harness.
 *
 * A `Machine` owns the shared local memory and 64 lanes.  Work is
 * described by a `JobSpec` per lane (program, input view, memory
 * window, initial registers).  Vector registers are not modelled (see
 * DESIGN.md).  Two run modes:
 *
 *  - `run_parallel()` — each lane runs to completion independently.  This
 *    is exact for the paper's data-parallel kernels, whose lanes touch
 *    disjoint memory windows (local or restricted addressing); machine
 *    time is the slowest lane.
 *  - `run_lockstep()` — lanes advance one dispatch step per round with a
 *    shared per-round bank arbiter, modeling the "detect and stall"
 *    contention of global/overlapping addressing.
 */
#pragma once

#include "energy.hpp"
#include "lane.hpp"
#include "local_memory.hpp"
#include "program.hpp"
#include "stats.hpp"

#include <memory>
#include <optional>

namespace udp {

/// Work assignment for one lane.
struct JobSpec {
    const Program *program = nullptr; ///< nullptr = lane idle
    /// The program's threaded-code image, resolved by the caller (the
    /// runtime carries JobPlan::compiled here) so assign() does not
    /// hash the program again.  Null: the lane looks it up in the
    /// shared cache (shared_compiled) under the Threaded backend.
    std::shared_ptr<const CompiledProgram> compiled;
    /// Stream contents.  Non-owning: the lane's StreamBuffer reads these
    /// bytes in place for the whole run, so the caller keeps the backing
    /// storage alive until the run's results are collected.  The runtime
    /// layer pins this with a ref-counted InputArena and checks the pin
    /// at stage/harvest time (runtime/arena.hpp).
    BytesView input{};
    ByteAddr window_base = 0;         ///< restricted-addressing window
    bool nfa_mode = false;            ///< run with multi-state activation
    std::vector<std::pair<unsigned, Word>> init_regs; ///< (reg, value)
    /// Per-lane watchdog budget; run_parallel uses the tighter of this
    /// and its own argument (the Scheduler's retry policy grows this).
    std::uint64_t max_cycles = ~std::uint64_t{0};
    /// Forced-trap cycle for deterministic fault injection (0 = off).
    Cycles trap_cycle = 0;
};

/// Result of a machine run.
struct MachineResult {
    Cycles wall_cycles = 0;      ///< max over lanes (+stalls in lockstep)
    LaneStats total;             ///< summed lane counters
    std::vector<LaneStatus> status;
    /// Per-lane trap records, parallel to `status` (code == None for a
    /// healthy lane).  One poisoned lane never takes down the wave: its
    /// fault lands here while the other lanes' results stay intact.
    std::vector<LaneFault> faults;
    unsigned active_lanes = 0;

    /// Lanes whose status is Faulted or TimedOut.
    unsigned faulted_lanes() const {
        unsigned n = 0;
        for (const LaneFault &f : faults)
            n += f.code != FaultCode::None;
        return n;
    }

    /// Aggregate throughput in MB/s at the nominal clock.
    double throughput_mbps() const {
        return bytes_per_second(total.input_bytes(), wall_cycles) / 1e6;
    }
};

/**
 * Observer for lane-run lifecycle in `run_parallel`.
 *
 * Callbacks fire once per runnable lane, on the thread that simulates
 * it — the calling thread or one of run_parallel's helper threads —
 * immediately before the lane starts and after it returns.
 * Implementations must therefore be safe to call concurrently from
 * multiple threads (the runtime FlightRecorder keeps one ring per worker
 * thread for exactly this reason).  `run_lockstep` interleaves all lanes
 * on the host thread and does not emit these events.  With no observer
 * attached (the default) the hook is a single predicted-not-taken branch
 * per lane run.
 */
class RunObserver
{
  public:
    virtual ~RunObserver() = default;
    /// Lane `lane` is about to run on the calling thread.
    virtual void on_lane_start(unsigned lane) = 0;
    /// Lane `lane` finished with `status` after `cycles` simulated cycles.
    virtual void on_lane_end(unsigned lane, LaneStatus status,
                             Cycles cycles) = 0;
};

/// The 64-lane UDP.
class Machine
{
  public:
    explicit Machine(AddressingMode mode = AddressingMode::Restricted);

    LocalMemory &memory() { return mem_; }
    const LocalMemory &memory() const { return mem_; }
    Lane &lane(unsigned idx);

    /// Stage bytes into local memory at a physical byte address (host /
    /// DLT-engine side, not charged to lane cycles).
    void stage(ByteAddr phys, BytesView data);

    /// Read back a region of local memory.
    Bytes unstage(ByteAddr phys, std::size_t len) const;

    /// Read back a region of local memory into `out`, replacing its
    /// contents but retaining its capacity — the allocation-free path
    /// the runtime's BufferPool recycling uses (runtime/arena.hpp).
    void unstage(ByteAddr phys, std::size_t len, Bytes &out) const;

    /// Assign one job per lane (at most kNumLanes entries).  Every lane
    /// — assigned or idle — is architecturally hard-reset first, so a
    /// batch can never inherit registers, stream position, accepts or
    /// window state from the previous one.
    void assign(std::vector<JobSpec> jobs);

    /**
     * Run all assigned lanes to completion, independently.
     *
     * One work loop hands lanes, lowest first, to `resolved_sim_threads()`
     * workers: the calling thread plus one helper thread per extra
     * worker, so a serial run creates no thread.  Each lane runs through
     * Lane::run (or Lane::run_nfa) whatever the thread count.
     * Parallel-mode lanes touch disjoint memory windows, so any thread
     * count is *exact*: LaneStats, wall cycles and energy are
     * bit-identical to a serial run.  A run with an attached Profiler
     * falls back to serial (its aggregation is shared across lanes);
     * the Tracer's per-lane rings are safe under threads: every lane
     * records only into its own ring (each `tracer_->record(id_, ...)`
     * site passes the recording lane's id), so worker threads never
     * share a ring — pinned byte-for-byte, under TSan in CI, by
     * `SpanTrace.TracerIsIdenticalUnderThreadedBackend`.
     */
    MachineResult run_parallel(std::uint64_t max_cycles_per_lane =
                                   ~std::uint64_t{0});

    /**
     * Host threads for run_parallel lane simulation.  0 (the default)
     * resolves from the UDP_SIM_THREADS environment variable, else 1
     * (serial).  UDP_SIM_THREADS must be a decimal integer in 1..256;
     * resolved_sim_threads() throws UdpError for any other value.
     * Purely a host-performance knob — simulated results do not depend
     * on it.
     */
    void set_sim_threads(unsigned n) { sim_threads_ = n; }
    unsigned sim_threads() const { return sim_threads_; }

    /// The thread count run_parallel will use, before capping it at the
    /// runnable lanes (>= 1; always 1 while a Profiler is attached).
    /// Throws UdpError on a malformed UDP_SIM_THREADS.
    unsigned resolved_sim_threads() const;

    /// Run with per-round shared bank arbitration.
    MachineResult run_lockstep(std::uint64_t max_rounds = ~std::uint64_t{0});

    /// Energy of the last run, in joules (see run_energy_joules).
    double last_run_energy_j() const { return last_energy_j_; }

    /// Attach an event tracer to every lane (nullptr detaches; see
    /// core/trace.hpp).  Costs nothing when detached (the default).
    void set_tracer(Tracer *t);
    Tracer *tracer() const { return tracer_; }

    /// Attach a profiling aggregator to every lane (core/profile.hpp).
    void set_profiler(Profiler *p);
    Profiler *profiler() const { return profiler_; }

    /// Attach a lane-run observer (nullptr detaches; see RunObserver).
    /// Purely observational: simulated results are bit-identical with
    /// and without one attached.
    void set_run_observer(RunObserver *o) { run_observer_ = o; }

  private:
    MachineResult collect(Cycles wall);

    LocalMemory mem_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::vector<JobSpec> jobs_;
    UdpCostModel cost_;
    unsigned sim_threads_ = 0; ///< 0 = resolve from UDP_SIM_THREADS
    double last_energy_j_ = 0.0;
    Tracer *tracer_ = nullptr;
    Profiler *profiler_ = nullptr;
    RunObserver *run_observer_ = nullptr;
};

} // namespace udp
