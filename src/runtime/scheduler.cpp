/**
 * @file
 * Wave scheduler implementation.
 *
 * Waves are packed from a pending queue instead of all upfront: the
 * queue starts as the submission order (reproducing the original greedy
 * packing bit for bit when nothing faults) and faulted jobs re-enter at
 * the back, so retries land in later waves without perturbing the
 * placement of first-attempt jobs.
 */
#include "scheduler.hpp"

#include "assembler/disasm.hpp"
#include "executor.hpp"
#include "spantrace.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>

namespace udp::runtime {

namespace {

/// One job's slot within a wave.
struct Placement {
    std::size_t job = 0;     ///< index into the submitted plan vector
    unsigned start_bank = 0; ///< first bank (also the lane index)
    unsigned attempt = 1;    ///< 1-based attempt number of this run
    std::uint64_t budget = ~std::uint64_t{0}; ///< cycle budget of this run
};

/// A queued (re)run of one job.
struct Pending {
    std::size_t job = 0;
    unsigned attempt = 1;
    std::uint64_t budget = ~std::uint64_t{0};
};

/// A retry held back by RetryPolicy::backoff_waves: eligible to rejoin
/// the pending queue once `not_before` waves have closed.
struct Delayed {
    Pending pending;
    unsigned not_before = 0;
};

/// splitmix64 step (same generator family as runtime/FaultInjector):
/// deterministic backoff jitter from (seed, job, attempt).
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Detaches the flight recorder from the machine on scope exit, so a
/// borrowed machine never keeps observing after run() returns (or
/// throws).
struct ObserverGuard {
    Machine *m = nullptr;
    ~ObserverGuard() {
        if (m)
            m->set_run_observer(nullptr);
    }
};

} // namespace

Scheduler::Scheduler(SchedulerOptions opts)
    : opts_(opts), owned_(std::make_unique<Machine>(opts.mode)),
      machine_(owned_.get())
{
    if (opts_.threads)
        machine_->set_sim_threads(opts_.threads);
    if (opts_.lane_tracer)
        machine_->set_tracer(opts_.lane_tracer);
}

Scheduler::Scheduler(Machine &m, SchedulerOptions opts)
    : opts_(opts), machine_(&m)
{
    if (opts_.threads)
        machine_->set_sim_threads(opts_.threads);
    if (opts_.lane_tracer)
        machine_->set_tracer(opts_.lane_tracer);
}

ScheduleReport
Scheduler::run(const std::vector<JobPlan> &jobs)
{
    if (opts_.max_jobs_per_wave == 0 ||
        opts_.max_jobs_per_wave > kNumLanes)
        throw UdpError("Scheduler: max_jobs_per_wave must be 1..64");
    if (opts_.retry.max_attempts == 0)
        throw UdpError("Scheduler: retry.max_attempts must be >= 1");

    ScheduleReport report;
    report.jobs.resize(jobs.size());
    report.sim_threads = machine_->resolved_sim_threads();
    if (jobs.empty())
        return report;

    // Validate footprints before any wave runs (as the upfront packing
    // used to), so an oversized window cannot fail a run midway.
    for (const JobPlan &plan : jobs)
        if (plan.banks() > kNumBanks)
            throw UdpError("Scheduler: job '" + plan.name +
                           "' window exceeds local memory");

    std::deque<Pending> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        pending.push_back({i, 1,
                           jobs[i].max_cycles ? jobs[i].max_cycles
                                              : opts_.max_cycles_per_lane});
    // Retries serving a backoff delay (RetryPolicy::backoff_waves).
    std::vector<Delayed> delayed;

    if (opts_.spans)
        opts_.spans->begin_schedule(jobs.size());
    ObserverGuard observer_guard;
    if (opts_.recorder) {
        machine_->set_run_observer(opts_.recorder);
        observer_guard.m = machine_;
    }
    const bool capture_postmortems =
        opts_.postmortem.keep_last > 0 || !opts_.postmortem.dir.empty();
    // Faulted attempts of each job, oldest first, feeding the next
    // report's attempt history.  Only populated while capturing.
    std::map<std::size_t, std::vector<AttemptOutcome>> fault_history;
    std::size_t postmortem_files_written = 0;

    // Move delayed retries whose backoff has elapsed (<= `upto` waves)
    // back into the pending queue, preserving insertion order.
    const auto release_delayed = [&](unsigned upto) {
        for (auto it = delayed.begin(); it != delayed.end();) {
            if (it->not_before <= upto) {
                pending.push_back(it->pending);
                it = delayed.erase(it);
            } else {
                ++it;
            }
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    unsigned wave_index = 0;
    while (!pending.empty() || !delayed.empty()) {
        if (!delayed.empty()) {
            release_delayed(wave_index);
            if (pending.empty()) {
                // The queue would idle waiting out a backoff: release
                // the earliest delayed group instead — empty waves do
                // not exist, so the delay has no simulated-time cost.
                unsigned lo = delayed.front().not_before;
                for (const Delayed &d : delayed)
                    lo = std::min(lo, d.not_before);
                release_delayed(lo);
            }
        }
        const auto t_wave = std::chrono::steady_clock::now();
        // Machine time already spent on earlier waves: the queue wait
        // of every job running in this wave (submission is at t = 0).
        const Cycles queue_wait = report.wall_cycles;
        // Pack the next wave greedily from the queue head: consecutive
        // banks until the memory (64 banks) or lane budget is exhausted.
        std::vector<Placement> wave;
        unsigned cum_banks = 0;
        while (!pending.empty()) {
            const Pending &p = pending.front();
            if (opts_.control && opts_.control->cancelled(p.job)) {
                // Cancel-before-stage: drop the (re)run without staging
                // it.  attempts counts only runs the job actually got.
                JobResult jr;
                jr.status = LaneStatus::Cancelled;
                jr.cancelled = true;
                jr.attempts = p.attempt - 1;
                jr.queue_wait_cycles = report.wall_cycles;
                jr.e2e_cycles = report.wall_cycles;
                ++report.cancelled;
                recycle(std::move(report.jobs[p.job]));
                report.jobs[p.job] = std::move(jr);
                pending.pop_front();
                continue;
            }
            const unsigned banks = jobs[p.job].banks();
            if (!wave.empty() &&
                (cum_banks + banks > kNumBanks ||
                 wave.size() >= opts_.max_jobs_per_wave))
                break;
            wave.push_back({p.job, cum_banks, p.attempt, p.budget});
            cum_banks += banks;
            pending.pop_front();
        }
        if (wave.empty())
            continue; // every queued entry was cancelled

        // Stage and assign: lane index == the window's first bank.
        std::vector<JobSpec> specs(wave.back().start_bank + 1);
        for (const Placement &pl : wave) {
            const JobPlan &plan = jobs[pl.job];
            const ByteAddr base =
                static_cast<ByteAddr>(pl.start_bank) *
                static_cast<ByteAddr>(kBankBytes);
            validate_job(plan, base);
            for (const MemStage &s : plan.stages)
                machine_->stage(base + s.offset, s.data);
            JobSpec &js = specs[pl.start_bank];
            js.program = plan.program.get();
            js.compiled = plan.compiled;
            js.input = plan.input;
            js.window_base = base;
            js.nfa_mode = plan.nfa_mode;
            js.init_regs = plan.init_regs;
            js.max_cycles = pl.budget;
            // An injected trap is transient: it only fires while the
            // attempt is within the plan's trap window.
            js.trap_cycle = pl.attempt <= plan.trap_attempts
                                ? plan.force_trap_cycle
                                : Cycles{0};
        }
        machine_->assign(std::move(specs));
        const auto t_staged = std::chrono::steady_clock::now();
        // Budgets are carried per JobSpec (they grow per retry), so the
        // machine-wide cap stays wide open here.
        const MachineResult mr = machine_->run_parallel();
        const auto t_simulated = std::chrono::steady_clock::now();

        WaveReport wr;
        wr.jobs = static_cast<unsigned>(wave.size());
        wr.active_lanes = mr.active_lanes;
        wr.banks_used = cum_banks;
        wr.wall_cycles = mr.wall_cycles;
        wr.energy_j = machine_->last_run_energy_j();
        wr.total = mr.total;

        for (const Placement &pl : wave) {
            const JobPlan &plan = jobs[pl.job];
            const ByteAddr base =
                static_cast<ByteAddr>(pl.start_bank) *
                static_cast<ByteAddr>(kBankBytes);
            JobResult jr = harvest_job(*machine_, pl.start_bank, base,
                                       plan, mr.status[pl.start_bank],
                                       &pool_);
            jr.wave = wave_index;
            jr.attempts = pl.attempt;
            jr.queue_wait_cycles = queue_wait;
            jr.service_cycles = jr.stats.cycles;
            jr.e2e_cycles = queue_wait + wr.wall_cycles;

            bool retried_now = false;
            const bool cancelled_now =
                opts_.control && opts_.control->cancelled(pl.job);
            const bool faulted = !cancelled_now &&
                                 (jr.status == LaneStatus::Faulted ||
                                  jr.status == LaneStatus::TimedOut);
            if (cancelled_now) {
                // Cancel-mid-wave: the attempt ran, but its payload is
                // discarded (buffers recycled) and any retry it would
                // have earned is suppressed.  Counters stay for
                // accounting; architectural outputs do not survive.
                if (jr.output.capacity() > 0)
                    pool_.release(std::move(jr.output));
                for (Bytes &e : jr.extracts)
                    if (e.capacity() > 0)
                        pool_.release(std::move(e));
                jr.output = Bytes{};
                jr.extracts.clear();
                jr.accepts.clear();
                jr.regs = {};
                jr.status = LaneStatus::Cancelled;
                jr.cancelled = true;
                jr.fault = LaneFault{};
                ++wr.cancelled;
                ++report.cancelled;
            } else if (faulted) {
                ++report.faulted_runs;
                if (pl.attempt < opts_.retry.max_attempts) {
                    // Requeue into a later wave, growing the watchdog
                    // budget for timeouts when the policy says so.
                    std::uint64_t budget = pl.budget;
                    if (jr.status == LaneStatus::TimedOut &&
                        opts_.retry.grow_cycle_budget &&
                        budget != ~std::uint64_t{0}) {
                        budget = budget > (~std::uint64_t{0} >> 1)
                                     ? ~std::uint64_t{0}
                                     : budget * 2;
                    }
                    // Exponential backoff (RetryPolicy::backoff_waves):
                    // attempt n's retry waits backoff << (n-1) waves,
                    // plus deterministic seeded jitter, before it may
                    // rejoin the queue.  delay 0 requeues immediately —
                    // the bit-identical pre-backoff behavior.
                    std::uint64_t delay = 0;
                    if (opts_.retry.backoff_waves) {
                        const unsigned shift =
                            pl.attempt > 16 ? 16u : pl.attempt - 1;
                        delay = std::uint64_t{opts_.retry.backoff_waves}
                                << shift;
                        if (opts_.retry.backoff_jitter)
                            delay +=
                                mix64(opts_.retry.backoff_seed ^
                                      (std::uint64_t(pl.job) << 20) ^
                                      pl.attempt) %
                                (std::uint64_t{
                                     opts_.retry.backoff_jitter} +
                                 1);
                    }
                    const Pending next{pl.job, pl.attempt + 1, budget};
                    if (delay == 0)
                        pending.push_back(next);
                    else
                        delayed.push_back(
                            {next,
                             wave_index + 1 +
                                 static_cast<unsigned>(std::min<
                                     std::uint64_t>(delay, 1u << 20))});
                    retried_now = true;
                    ++wr.retried;
                    ++report.retries;
                } else {
                    jr.quarantined = true;
                    ++wr.quarantined;
                    ++report.quarantined;
                }
            } else {
                ++wr.completed;
            }
            if (faulted && capture_postmortems) {
                const std::uint64_t tid =
                    opts_.spans ? opts_.spans->trace_id(pl.job) : 0;
                FaultReport fr;
                fr.job_name = plan.name;
                fr.job_index = pl.job;
                fr.trace_id = tid;
                fr.wave = wave_index;
                fr.attempt = pl.attempt;
                fr.max_attempts = opts_.retry.max_attempts;
                fr.lane = pl.start_bank;
                fr.status = jr.status;
                fr.fault = jr.fault;
                fr.quarantined = jr.quarantined;
                fr.will_retry = retried_now;
                fr.queue_wait_cycles = queue_wait;
                fr.service_cycles = jr.service_cycles;
                fr.attempt_history = fault_history[pl.job];
                // The lane's recent micro-events — rings still hold this
                // wave's run (they are cleared only after harvesting).
                if (const Tracer *t = machine_->tracer()) {
                    fr.recent_events = t->events(pl.start_bank);
                    fr.dropped_events = t->dropped(pl.start_bank);
                }
                fr.disassembly = disassemble_state(*plan.program,
                                                   jr.fault.state_base);
                if (!opts_.postmortem.dir.empty() &&
                    postmortem_files_written < opts_.postmortem.max_files) {
                    write_fault_report_file(opts_.postmortem.dir + "/" +
                                                postmortem_filename(fr),
                                            fr);
                    ++postmortem_files_written;
                }
                if (opts_.postmortem.keep_last > 0) {
                    postmortems_.push_back(std::move(fr));
                    while (postmortems_.size() >
                           opts_.postmortem.keep_last)
                        postmortems_.pop_front();
                }
            }
            if (faulted && capture_postmortems)
                fault_history[pl.job].push_back({wave_index, pl.attempt,
                                                 jr.status, jr.fault.code,
                                                 jr.fault.cycle});
            if (opts_.telemetry || opts_.spans || opts_.recorder) {
                JobRunEvent ev;
                ev.job_name = plan.name;
                ev.job_index = pl.job;
                ev.wave = wave_index;
                ev.attempt = pl.attempt;
                ev.lane = pl.start_bank;
                ev.status = jr.status;
                ev.fault = jr.fault.code;
                ev.queue_wait_cycles = jr.queue_wait_cycles;
                ev.service_cycles = jr.service_cycles;
                ev.e2e_cycles = jr.e2e_cycles;
                ev.input_bytes =
                    static_cast<std::uint64_t>(jr.stats.input_bytes());
                ev.final_disposition = !retried_now;
                ev.retried = retried_now;
                ev.quarantined = jr.quarantined;
                ev.cancelled = jr.cancelled;
                if (opts_.telemetry)
                    opts_.telemetry->on_job_run(ev);
                if (opts_.spans)
                    opts_.spans->on_job_run(ev);
                if (opts_.recorder) {
                    opts_.recorder->record(
                        FlightEventKind::JobRun, ev.lane,
                        static_cast<std::uint64_t>(ev.status),
                        ev.attempt);
                    if (ev.quarantined)
                        opts_.recorder->record(
                            FlightEventKind::Quarantine, ev.lane,
                            static_cast<std::uint64_t>(ev.fault),
                            ev.attempt);
                }
            }
            // Always the latest attempt's result; a retried job's entry
            // is overwritten when its final attempt lands — its buffers
            // go back to the pool instead of being freed.
            recycle(std::move(report.jobs[pl.job]));
            report.jobs[pl.job] = std::move(jr);
        }

        report.wall_cycles += wr.wall_cycles;
        report.energy_j += wr.energy_j;
        report.total.add(wr.total);
        const auto t_done = std::chrono::steady_clock::now();
        wr.host_seconds =
            std::chrono::duration<double>(t_done - t_wave).count();
        wr.host_setup_seconds =
            std::chrono::duration<double>(t_staged - t_wave).count();
        wr.host_simulate_seconds =
            std::chrono::duration<double>(t_simulated - t_staged).count();
        wr.host_harvest_seconds =
            std::chrono::duration<double>(t_done - t_simulated).count();
        report.host_setup_seconds += wr.host_setup_seconds;
        report.host_simulate_seconds += wr.host_simulate_seconds;
        report.host_harvest_seconds += wr.host_harvest_seconds;
        if (opts_.telemetry || opts_.spans || opts_.recorder) {
            WaveEvent ev;
            ev.index = wave_index;
            ev.jobs = wr.jobs;
            ev.banks_used = wr.banks_used;
            ev.completed = wr.completed;
            ev.retried = wr.retried;
            ev.quarantined = wr.quarantined;
            ev.cancelled = wr.cancelled;
            ev.wall_cycles = wr.wall_cycles;
            ev.host_seconds = wr.host_seconds;
            if (opts_.telemetry)
                opts_.telemetry->on_wave(ev);
            if (opts_.spans)
                opts_.spans->on_wave(ev);
            if (opts_.recorder)
                opts_.recorder->record(FlightEventKind::WaveClose,
                                       wave_index & 0xFF, ev.jobs,
                                       ev.wall_cycles);
        }
        if (opts_.spans) {
            // Merge this wave's lane micro-events onto the shared
            // timeline, then clear the rings: lane cycle stamps restart
            // every wave (Machine::assign hard-resets lanes), so stale
            // events would rebase against the wrong wave start.
            if (Tracer *t = machine_->tracer()) {
                opts_.spans->absorb_lane_events(*t, queue_wait);
                t->clear();
            }
        }
        report.waves.push_back(std::move(wr));
        ++wave_index;
    }
    report.host_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    return report;
}

void
Scheduler::recycle(JobResult &&r)
{
    if (r.output.capacity() > 0)
        pool_.release(std::move(r.output));
    for (Bytes &e : r.extracts)
        if (e.capacity() > 0)
            pool_.release(std::move(e));
    r.extracts.clear();
}

void
Scheduler::recycle(ScheduleReport &&rep)
{
    for (JobResult &jr : rep.jobs)
        recycle(std::move(jr));
}

JobLatencySummary
summarize_job_latencies(const std::vector<JobResult> &jobs)
{
    Histogram queue_wait, service, e2e;
    for (const JobResult &jr : jobs) {
        queue_wait.record(jr.queue_wait_cycles);
        service.record(jr.service_cycles);
        e2e.record(jr.e2e_cycles);
    }
    return {queue_wait.snapshot(), service.snapshot(), e2e.snapshot()};
}

} // namespace udp::runtime
