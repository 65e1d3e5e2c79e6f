/**
 * @file
 * Wave scheduler: run an arbitrary number of JobPlans on the 64-lane
 * machine (docs/RUNTIME.md).
 *
 * Jobs are packed in submission order into *waves*.  Within a wave every
 * job gets a disjoint local-memory window (consecutive banks) and runs
 * on the lane owning the window's first bank; a wave closes when the 64
 * banks (or `max_jobs_per_wave` lanes) are exhausted.  Waves execute one
 * after another — stage, run_parallel, harvest — and the report's wall
 * clock is the *sum* of per-wave walls, so an N-wave run costs exactly
 * what N concatenated single-wave runs cost (pinned by test_runtime).
 *
 * The simulation backend (serial or host-threaded, see
 * Machine::set_sim_threads) is bit-exact either way, so scheduling
 * results never depend on the thread count.
 *
 * Faults are contained per job: a run that ends Faulted or TimedOut is
 * retried into later waves per `RetryPolicy`, then quarantined with its
 * LaneFault (docs/ROBUSTNESS.md).  Fault-free runs are packed and
 * executed exactly as before the retry layer existed — bit-identical
 * reports (pinned by test_runtime).
 *
 * Host data path (runtime/arena.hpp): job inputs are arena-pinned views
 * — staging and retrying never copy payload bytes (a retry re-pins the
 * same arena via the plan it re-reads) — and results are harvested
 * through the scheduler's BufferPool, so recycled steady-state loops
 * allocate O(jobs) per wave, not O(bytes).  Each WaveReport breaks its
 * host time into setup / simulate / harvest phases.
 */
#pragma once

#include "core/machine.hpp"
#include "runtime/job.hpp"
#include "runtime/postmortem.hpp"
#include "runtime/telemetry.hpp"

#include <deque>
#include <memory>

namespace udp::runtime {

class SpanTracer;      // spantrace.hpp
class FlightRecorder;  // spantrace.hpp

/**
 * Fault recovery policy (docs/ROBUSTNESS.md).  A job whose run ends
 * Faulted or TimedOut is requeued into a later wave until it has been
 * given `max_attempts` runs; after that it is *quarantined*: reported
 * with its LaneFault, never run again, and never blocking other jobs.
 * With the default max_attempts == 1 nothing is ever retried, and
 * fault-free runs are bit-identical whatever the policy says.
 */
struct RetryPolicy {
    unsigned max_attempts = 1; ///< total runs per job (>= 1)
    /// Double the per-lane cycle budget on each TimedOut retry (only
    /// meaningful when max_cycles_per_lane is finite).
    bool grow_cycle_budget = true;
    /**
     * Exponential retry backoff in *waves*: a job whose attempt n
     * faults re-enters the queue no earlier than `backoff_waves << (n-1)`
     * waves after the failing one (plus jitter, below), so one tenant's
     * transient-fault retries stop clustering in the very next wave.
     * 0 (the default) requeues immediately — bit-identical to the
     * pre-backoff scheduler (pinned by Scheduler.BackoffZeroBitIdentical).
     * When the queue would otherwise go idle, the earliest delayed
     * group is released early: waves only exist while jobs run, so an
     * empty-machine delay has no simulated-time meaning.
     */
    unsigned backoff_waves = 0;
    /// Max extra delay waves added per retry, drawn deterministically
    /// from `backoff_seed`, the job index and the attempt number
    /// (splitmix64) — same seed, same plans, same schedule.  Inert
    /// while `backoff_waves` is 0: jitter modifies a backoff, it never
    /// introduces one.
    unsigned backoff_jitter = 0;
    std::uint64_t backoff_seed = 0x9E3779B97F4A7C15ull;
};

/**
 * Thread-safe cancellation handle for one Scheduler::run batch
 * (docs/SERVICE.md).  Any thread may cancel a job by its submission
 * index at any time; the Scheduler checks the flag at its two requeue
 * points:
 *
 *  - before staging (initial dispatch or retry): the job is dropped
 *    from the queue without running and its JobResult comes back with
 *    status LaneStatus::Cancelled and `cancelled == true`;
 *  - after a wave it ran in: the attempt's payload is discarded
 *    (buffers recycled) and any retry it would have earned is
 *    suppressed — the result is Cancelled even if the run completed.
 *
 * A null SchedulerOptions::control (the default) costs one branch per
 * job and leaves results bit-identical.
 */
class JobControl
{
  public:
    explicit JobControl(std::size_t jobs)
        : flags_(std::make_unique<std::atomic<std::uint8_t>[]>(jobs)),
          size_(jobs)
    {
        for (std::size_t i = 0; i < jobs; ++i)
            flags_[i].store(0, std::memory_order_relaxed);
    }

    /// Request cancellation of job `job` (idempotent; out-of-range is
    /// ignored so racing a late cancel against a smaller batch is safe).
    void cancel(std::size_t job) {
        if (job < size_)
            flags_[job].store(1, std::memory_order_release);
    }

    bool cancelled(std::size_t job) const {
        return job < size_ &&
               flags_[job].load(std::memory_order_acquire) != 0;
    }

    /// Re-arm the handle for a new batch (clears every flag).  Must not
    /// race a Scheduler::run that is still reading the flags — callers
    /// reset between runs (udp_service does so under its own mutex).
    void reset() {
        for (std::size_t i = 0; i < size_; ++i)
            flags_[i].store(0, std::memory_order_relaxed);
    }

    std::size_t size() const { return size_; }

  private:
    std::unique_ptr<std::atomic<std::uint8_t>[]> flags_;
    std::size_t size_;
};

/// Scheduler construction knobs.
struct SchedulerOptions {
    /// Host simulation threads: 0 = machine default (UDP_SIM_THREADS
    /// env, else serial); 1 = serial; N = thread pool of N.
    unsigned threads = 0;
    /// Cap on concurrent jobs per wave (models a partial deployment).
    unsigned max_jobs_per_wave = kNumLanes;
    AddressingMode mode = AddressingMode::Restricted;
    /// Default per-lane cycle budget; a plan's own `JobPlan::max_cycles`
    /// (when nonzero) overrides it per job.
    std::uint64_t max_cycles_per_lane = ~std::uint64_t{0};
    RetryPolicy retry{};
    /// Cancellation handle shared with submitting threads (see
    /// JobControl).  nullptr (the default) costs one branch per job and
    /// never changes results.
    JobControl *control = nullptr;
    /// Lifecycle-event receiver (telemetry.hpp).  nullptr (the default)
    /// costs one branch per job/wave — the Tracer's zero-overhead
    /// discipline — and never changes simulated results either way.
    TelemetrySink *telemetry = nullptr;
    /// Span tracer (spantrace.hpp): receives the same lifecycle events
    /// plus wave boundaries, and absorbs the machine Tracer's lane
    /// micro-events each wave (the Scheduler clears the Tracer per wave
    /// so run-local cycle stamps rebase onto the shared timeline).
    /// Same nullptr-default/one-branch/bit-identical contract.
    SpanTracer *spans = nullptr;
    /// Flight recorder (spantrace.hpp): attached to the machine as its
    /// RunObserver for the duration of run(), so lane start/end land in
    /// per-worker-thread rings; also fed job/wave lifecycle events from
    /// the scheduling thread.  Same contract.
    FlightRecorder *recorder = nullptr;
    /// Post-mortem capture on faulted runs (postmortem.hpp).  Off by
    /// default (keep_last == 0, empty dir).
    PostmortemPolicy postmortem{};
    /// Lane micro-event tracer to attach to the scheduler's machine at
    /// construction (core/trace.hpp) — how benches route one shared
    /// Tracer into schedulers that own their machines.  The Scheduler
    /// clears it every wave while `spans` absorbs, and post-mortems snapshot
    /// the faulting lane's ring from it.  nullptr leaves the machine's
    /// existing attachment (if any) untouched.
    Tracer *lane_tracer = nullptr;
};

/// Accounting for one wave.
struct WaveReport {
    unsigned jobs = 0;
    unsigned active_lanes = 0;
    unsigned banks_used = 0; ///< local-memory banks the wave occupied
    Cycles wall_cycles = 0; ///< machine time of this wave
    double energy_j = 0;
    double host_seconds = 0; ///< host time to stage+simulate+harvest it
    // Host-side phase breakdown of host_seconds (docs/PERFORMANCE.md,
    // "Host data path & ownership"): where the wave's wall time went.
    double host_setup_seconds = 0;    ///< pack + validate + stage + assign
    double host_simulate_seconds = 0; ///< run_parallel
    double host_harvest_seconds = 0;  ///< harvest + retry bookkeeping
    LaneStats total;        ///< summed lane counters of this wave
    unsigned completed = 0;   ///< jobs that finished cleanly this wave
    unsigned retried = 0;     ///< faulted jobs requeued into later waves
    unsigned quarantined = 0; ///< faulted jobs that exhausted retries
    unsigned cancelled = 0;   ///< runs of this wave discarded by cancel
};

/// Accounting for a whole scheduled run.
struct ScheduleReport {
    std::vector<JobResult> jobs; ///< in submission order
    std::vector<WaveReport> waves;
    Cycles wall_cycles = 0;      ///< sum over waves (incl. retry waves)
    LaneStats total;             ///< summed over all runs (incl. retries)
    double energy_j = 0;         ///< summed over waves
    unsigned sim_threads = 1;    ///< host threads the backend used
    double host_seconds = 0;     ///< host wall-clock of the simulation
    // Summed per-wave phase breakdown (see WaveReport): at steady state
    // setup should be a small share — the arena data path stages views,
    // it never copies job payloads on the host (runtime/arena.hpp).
    double host_setup_seconds = 0;
    double host_simulate_seconds = 0;
    double host_harvest_seconds = 0;
    unsigned faulted_runs = 0;   ///< job runs that ended Faulted/TimedOut
    unsigned retries = 0;        ///< faulted runs requeued per policy
    unsigned quarantined = 0;    ///< jobs given up on (JobResult::fault)
    unsigned cancelled = 0;      ///< jobs ended by JobControl::cancel

    /// Aggregate simulated throughput in MB/s at the nominal clock.
    double throughput_mbps() const {
        return bytes_per_second(total.input_bytes(), wall_cycles) / 1e6;
    }
};

/// Maps N jobs onto ≤64-lane waves and runs them.
class Scheduler
{
  public:
    explicit Scheduler(SchedulerOptions opts = {});

    /// Borrow an existing machine (caller keeps ownership; its memory,
    /// tracer and profiler attachments are used as-is).
    explicit Scheduler(Machine &m, SchedulerOptions opts = {});

    Machine &machine() { return *machine_; }

    /// Run all jobs; plans (and the arenas their inputs pin) must stay
    /// alive until this returns — enforced per job by the executor's
    /// arena canary check (runtime/arena.hpp).
    ScheduleReport run(const std::vector<JobPlan> &jobs);

    /// The last-N post-mortem reports captured across runs, oldest
    /// first (see PostmortemPolicy::keep_last) — the in-memory query
    /// surface the future `udpd` `/debug` endpoint will expose.
    const std::deque<FaultReport> &postmortems() const {
        return postmortems_;
    }

    /// The output/extract buffer pool this scheduler harvests through.
    /// Warm across run() calls: a steady-state serving loop that
    /// recycles its results makes the wave loop's allocation count
    /// O(jobs), not O(bytes) (pinned by Arena.SteadyStateAllocationBound).
    BufferPool &pool() { return pool_; }

    /// Hand a consumed result's buffers back for reuse by later waves.
    void recycle(JobResult &&r);

    /// Recycle every result buffer of a consumed report.
    void recycle(ScheduleReport &&rep);

  private:
    SchedulerOptions opts_;
    std::unique_ptr<Machine> owned_;
    Machine *machine_;
    std::deque<FaultReport> postmortems_;
    BufferPool pool_;
};

/**
 * Summarize the per-job latency fields of a scheduled run as
 * histograms (the benches' `--json` latency block).  Exact-count
 * percentiles over `jobs`' queue-wait / service / end-to-end cycles.
 */
JobLatencySummary summarize_job_latencies(const std::vector<JobResult> &jobs);

} // namespace udp::runtime
