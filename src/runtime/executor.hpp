/**
 * @file
 * Single-job executor: drive one JobPlan on one lane of a Machine.
 *
 * This is the shared bottom half of the runtime: the legacy per-kernel
 * harnesses (`run_csv_kernel`, ...) and the wave Scheduler both funnel
 * through `stage_job` / `harvest_job`, so the staging and extraction
 * rules live in exactly one place.
 */
#pragma once

#include "core/machine.hpp"
#include "runtime/job.hpp"

namespace udp::runtime {

class TelemetrySink;

/// Check a plan is self-consistent and its window fits local memory at
/// `window_base`; throws UdpError otherwise.
void validate_job(const JobPlan &plan, ByteAddr window_base);

/**
 * Stage the plan's memory regions and bind the lane: load the program,
 * attach the input, set the window base and initial registers.
 *
 * Lifetime: the lane streams *directly from the plan's arena memory*
 * (no copy), so the arena pinned by `plan.input` must stay alive until
 * the run is harvested.  This is enforced, not assumed: staging runs an
 * arena generation/canary check (`ArenaSlice::check_pinned`) on the
 * input and every stage slice, and `harvest_job` re-checks after the
 * run — a plan (or arena) that died mid-run throws UdpError instead of
 * silently streaming freed memory.
 */
void stage_job(Machine &m, unsigned lane, ByteAddr window_base,
               const JobPlan &plan);

/**
 * Collect the JobResult of a lane that finished running `plan` at
 * `window_base` with terminal status `status`.  Flushes the output
 * bitstream and copies registers, output, accepts and extract regions.
 *
 * When `pool` is non-null the result's non-empty output and extract
 * buffers are acquired from it, so a recycled steady state copies into
 * retained capacity instead of allocating per attempt
 * (runtime/arena.hpp).  An empty one stays a plain empty vector and
 * never touches the pool.  Contents are byte-identical either way.
 */
JobResult harvest_job(Machine &m, unsigned lane, ByteAddr window_base,
                      const JobPlan &plan, LaneStatus status,
                      BufferPool *pool = nullptr);

/**
 * Convenience: stage + run + harvest one job on `lane`, without touching
 * any other lane's state (unlike Machine::assign, which resets all
 * lanes).  Used by the legacy single-lane kernel harnesses.
 *
 * Interpreter errors and watchdog expiry do not throw: they surface as
 * `JobResult::status` Faulted / TimedOut with the diagnosis in
 * `JobResult::fault`.  Callers that need a clean completion must check
 * the status (or call `require_done`) — a run cut short by `max_cycles`
 * is *not* a success.
 *
 * When `telemetry` is non-null the run is reported as one JobRunEvent
 * (wave 0, attempt 1, zero queue wait — a single-lane run starts
 * immediately); null costs one branch (telemetry.hpp).
 */
JobResult run_job_on(Machine &m, unsigned lane, ByteAddr window_base,
                     const JobPlan &plan,
                     std::uint64_t max_cycles = ~std::uint64_t{0},
                     TelemetrySink *telemetry = nullptr);

} // namespace udp::runtime
