/**
 * @file
 * Runtime layer tests: wave scheduling equivalences, >64-job runs,
 * threaded-backend determinism, instrumentation neutrality, and the
 * between-batches lane reset (docs/RUNTIME.md).
 */
#include "baselines/csv.hpp"
#include "baselines/dictionary.hpp"
#include "baselines/histogram.hpp"
#include "core/profile.hpp"
#include "core/trace.hpp"
#include "kernels/csv.hpp"
#include "kernels/dictionary.hpp"
#include "kernels/histogram.hpp"
#include "kernels/pattern.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

using namespace udp;
using namespace udp::runtime;

namespace {

/// Field-by-field LaneStats equality (no operator== on the POD).
void
expect_stats_eq(const LaneStats &a, const LaneStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.sig_misses, b.sig_misses);
    EXPECT_EQ(a.actions, b.actions);
    EXPECT_EQ(a.mem_reads, b.mem_reads);
    EXPECT_EQ(a.mem_writes, b.mem_writes);
    EXPECT_EQ(a.dispatch_reads, b.dispatch_reads);
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.stream_bits, b.stream_bits);
    EXPECT_EQ(a.output_bytes, b.output_bytes);
    EXPECT_EQ(a.accepts, b.accepts);
}

/// Complete architectural equality of two job results.
void
expect_results_eq(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.status, b.status);
    expect_stats_eq(a.stats, b.stats);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.extracts, b.extracts);
    ASSERT_EQ(a.accepts.size(), b.accepts.size());
    for (std::size_t i = 0; i < a.accepts.size(); ++i)
        EXPECT_EQ(a.accepts[i].stream_bit_pos,
                  b.accepts[i].stream_bit_pos);
}

/// >64 single-bank histogram jobs over a shared fp stream.
std::vector<JobPlan>
histogram_fleet(const KernelSpec &spec, const Bytes &packed,
                std::size_t jobs_wanted)
{
    const std::size_t values = packed.size() / 8;
    const std::size_t shard =
        std::max<std::size_t>(1, ceil_div(values, jobs_wanted)) * 8;
    return chunk_jobs(spec, packed, shard);
}

} // namespace

TEST(Runtime, MultiWaveEqualsConcatenatedSingleWaves)
{
    const auto xs = workloads::fp_values(40'000, 3);
    const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const Bytes packed = kernels::pack_fp_stream(xs);
    const auto jobs = histogram_fleet(spec, packed, 100);
    ASSERT_GT(jobs.size(), kNumLanes);

    Scheduler all_at_once;
    const ScheduleReport whole = all_at_once.run(jobs);
    ASSERT_EQ(whole.waves.size(), 2u);

    // The same jobs split at the wave boundary and run as two separate
    // scheduled batches must cost exactly the same machine time.
    const std::size_t cut = whole.waves[0].jobs;
    const std::vector<JobPlan> first(jobs.begin(), jobs.begin() + cut);
    const std::vector<JobPlan> second(jobs.begin() + cut, jobs.end());
    Scheduler split;
    const ScheduleReport ra = split.run(first);
    const ScheduleReport rb = split.run(second);
    EXPECT_EQ(whole.wall_cycles, ra.wall_cycles + rb.wall_cycles);
    EXPECT_DOUBLE_EQ(whole.energy_j, ra.energy_j + rb.energy_j);

    for (std::size_t i = 0; i < jobs.size(); ++i)
        expect_results_eq(whole.jobs[i], i < cut ? ra.jobs[i]
                                                 : rb.jobs[i - cut]);
}

TEST(Runtime, OverSixtyFourHistogramJobsMatchBaseline)
{
    const auto xs = workloads::fp_values(50'000, 7);
    auto h = baselines::Histogram::uniform(10, 41.2, 42.5);
    const auto spec = kernels::histogram_kernel_spec(h.edges());
    const auto jobs =
        histogram_fleet(spec, kernels::pack_fp_stream(xs), 150);
    ASSERT_GT(jobs.size(), 2 * std::size_t{kNumLanes});

    Scheduler sched;
    const ScheduleReport rep = sched.run(jobs);
    ASSERT_EQ(rep.waves.size(), 3u);
    EXPECT_EQ(rep.jobs[jobs.size() - 1].wave, 2u);

    std::vector<std::uint64_t> counts(10, 0);
    for (const JobResult &r : rep.jobs) {
        const auto res = kernels::decode_histogram_result(r);
        for (std::size_t b = 0; b < counts.size(); ++b)
            counts[b] += res.counts[b];
    }
    h.add_all(xs);
    EXPECT_EQ(counts, h.counts());
}

TEST(Runtime, OverSixtyFourCsvJobsMatchBaseline)
{
    // Two-bank windows: 32 jobs per wave, so ~70 chunks span 3 waves.
    const std::string text = workloads::crimes_csv(2500);
    const Bytes data(text.begin(), text.end());
    const auto jobs = chunk_jobs(
        kernels::csv_kernel_spec(), data,
        std::max<std::size_t>(1, ceil_div(data.size(), 70)),
        align_after_delim('\n'));
    ASSERT_GT(jobs.size(), 64u);

    Scheduler sched;
    const ScheduleReport rep = sched.run(jobs);
    EXPECT_GE(rep.waves.size(), 3u);

    std::uint64_t rows = 0, fields = 0;
    for (const JobResult &r : rep.jobs) {
        const auto res = kernels::decode_csv_result(r);
        rows += res.rows;
        fields += res.fields;
    }
    const auto base = baselines::parse_csv(data);
    EXPECT_EQ(rows, base.rows);
    EXPECT_EQ(fields, base.fields);
}

TEST(Runtime, ThreadCountDoesNotChangeResults)
{
    const std::string text = workloads::crimes_csv(1200);
    const Bytes data(text.begin(), text.end());
    const auto jobs = chunk_jobs(
        kernels::csv_kernel_spec(), data,
        std::max<std::size_t>(1, ceil_div(data.size(), 40)),
        align_after_delim('\n'));
    ASSERT_GT(jobs.size(), 32u); // at least two waves of 2-bank jobs

    auto run_with = [&](unsigned threads) {
        SchedulerOptions opts;
        opts.threads = threads;
        Scheduler sched(opts);
        return sched.run(jobs);
    };
    const ScheduleReport serial = run_with(1);
    for (const unsigned threads : {4u, 16u}) {
        const ScheduleReport pooled = run_with(threads);
        EXPECT_EQ(pooled.sim_threads, threads);
        EXPECT_EQ(serial.wall_cycles, pooled.wall_cycles);
        EXPECT_DOUBLE_EQ(serial.energy_j, pooled.energy_j);
        expect_stats_eq(serial.total, pooled.total);
        ASSERT_EQ(serial.jobs.size(), pooled.jobs.size());
        for (std::size_t i = 0; i < serial.jobs.size(); ++i)
            expect_results_eq(serial.jobs[i], pooled.jobs[i]);
    }
}

TEST(Runtime, TracerIsNeutralUnderThreads)
{
    const auto xs = workloads::fp_values(20'000, 9);
    const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const auto jobs =
        histogram_fleet(spec, kernels::pack_fp_stream(xs), 64);

    Machine bare(AddressingMode::Restricted);
    Scheduler plain(bare, {.threads = 1});
    const ScheduleReport ref = plain.run(jobs);

    Machine instrumented(AddressingMode::Restricted);
    Tracer tracer;
    instrumented.set_tracer(&tracer);
    Scheduler traced(instrumented, {.threads = 4});
    const ScheduleReport rep = traced.run(jobs);

    EXPECT_EQ(rep.sim_threads, 4u);
    EXPECT_EQ(ref.wall_cycles, rep.wall_cycles);
    EXPECT_DOUBLE_EQ(ref.energy_j, rep.energy_j);
    expect_stats_eq(ref.total, rep.total);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expect_results_eq(ref.jobs[i], rep.jobs[i]);
}

TEST(Runtime, ProfilerForcesSerialBackendAndStaysNeutral)
{
    const auto xs = workloads::fp_values(10'000, 11);
    const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const auto jobs =
        histogram_fleet(spec, kernels::pack_fp_stream(xs), 32);

    Machine bare(AddressingMode::Restricted);
    Scheduler plain(bare, {.threads = 1});
    const ScheduleReport ref = plain.run(jobs);

    Machine profiled(AddressingMode::Restricted);
    Profiler profiler;
    profiled.set_profiler(&profiler);
    // Even when a pool is requested, a profiled machine must resolve to
    // the serial backend (shared aggregation maps).
    Scheduler sched(profiled, {.threads = 16});
    EXPECT_EQ(profiled.resolved_sim_threads(), 1u);
    const ScheduleReport rep = sched.run(jobs);
    EXPECT_EQ(rep.sim_threads, 1u);
    EXPECT_EQ(ref.wall_cycles, rep.wall_cycles);
    expect_stats_eq(ref.total, rep.total);
}

TEST(Runtime, SimThreadsEnvAcceptsOnlyOneTo256)
{
    // UDP_SIM_THREADS is a decimal thread count in 1..256.  Anything
    // else is an error naming that range — never a silent serial run,
    // a clamp or a truncated number.
    struct EnvRestore {
        std::optional<std::string> saved;
        EnvRestore() {
            if (const char *v = std::getenv("UDP_SIM_THREADS"))
                saved = v;
        }
        ~EnvRestore() {
            if (saved)
                setenv("UDP_SIM_THREADS", saved->c_str(), 1);
            else
                unsetenv("UDP_SIM_THREADS");
        }
    } restore;

    Machine m(AddressingMode::Restricted);
    unsetenv("UDP_SIM_THREADS");
    EXPECT_EQ(m.resolved_sim_threads(), 1u);
    for (const auto &[text, n] :
         {std::pair{"1", 1u}, {"8", 8u}, {"256", 256u}}) {
        setenv("UDP_SIM_THREADS", text, 1);
        EXPECT_EQ(m.resolved_sim_threads(), n) << text;
    }
    for (const char *bad : {"8x", "abc", "0", "-2", "1000", "257", "",
                            " 8", "+8"}) {
        SCOPED_TRACE(bad);
        setenv("UDP_SIM_THREADS", bad, 1);
        try {
            m.resolved_sim_threads();
            ADD_FAILURE() << "accepted a malformed thread count";
        } catch (const UdpError &e) {
            EXPECT_NE(std::string(e.what()).find("1..256"),
                      std::string::npos)
                << e.what();
        }
    }
    // An explicit count takes precedence over the environment.
    m.set_sim_threads(4);
    EXPECT_EQ(m.resolved_sim_threads(), 4u);
}

TEST(Runtime, AssignResetsStaleLaneState)
{
    // Batch 1: dictionary jobs on lanes 0 and 1 leave registers, output
    // and a non-trivial stream position behind.
    const std::vector<std::string> rows(200, "value");
    const auto base = baselines::dictionary_encode(rows);
    const auto spec = kernels::dictionary_kernel_spec(base.dict, false);
    const Bytes input = kernels::dict_input(rows);

    Machine m(AddressingMode::Restricted);
    Scheduler sched(m, {});
    const std::vector<JobPlan> batch1{spec.make_job(input),
                                      spec.make_job(input)};
    const ScheduleReport r1 = sched.run(batch1);
    ASSERT_EQ(r1.jobs[1].status, LaneStatus::Done);
    ASSERT_FALSE(r1.jobs[1].output.empty());

    // Batch 2 occupies lane 0 only; every other lane must come up from
    // architectural reset, not with wave-1 leftovers.
    std::vector<JobSpec> specs(1);
    const JobPlan plan = spec.make_job(input);
    specs[0].program = plan.program.get();
    specs[0].input = plan.input;
    m.assign(std::move(specs));

    const Lane &stale = m.lane(1);
    for (unsigned r = 0; r < kNumScalarRegs; ++r)
        EXPECT_EQ(stale.reg(r), 0u) << "reg " << r;
    EXPECT_TRUE(stale.output().empty());
    EXPECT_TRUE(stale.accepts().empty());
    EXPECT_EQ(stale.window_base(), 0u);
    EXPECT_EQ(stale.stats().cycles, 0u);
    EXPECT_EQ(stale.stats().stream_bits, 0u);
}

TEST(Runtime, ChunkJobsCoversInputExactlyAndRejectsNoSplit)
{
    const std::string text = workloads::crimes_csv(300);
    const Bytes data(text.begin(), text.end());
    const auto jobs = chunk_jobs(kernels::csv_kernel_spec(), data, 4096,
                                 align_after_delim('\n'));
    std::size_t covered = 0;
    Bytes glued;
    for (const JobPlan &j : jobs) {
        covered += j.input.size();
        glued.insert(glued.end(), j.input.begin(), j.input.end());
    }
    EXPECT_EQ(covered, data.size());
    EXPECT_EQ(glued, data);

    // A delimiter-free input cannot be split on row boundaries.
    const Bytes solid(256, 'a');
    EXPECT_THROW(chunk_jobs(kernels::csv_kernel_spec(), solid, 64,
                            align_after_delim('\n')),
                 UdpError);
}

TEST(Runtime, SchedulerRejectsOversizedWindowsAndBadWaveCap)
{
    const auto spec = kernels::csv_kernel_spec();
    JobPlan plan = spec.make_job(Bytes{'a', ',', 'b', '\n'});
    plan.window_bytes = (std::size_t{kNumBanks} + 1) * kBankBytes;
    Scheduler sched;
    EXPECT_THROW(sched.run({plan}), UdpError);

    SchedulerOptions opts;
    opts.max_jobs_per_wave = 0;
    Scheduler bad(opts);
    EXPECT_THROW(bad.run({spec.make_job(Bytes{'a', '\n'})}), UdpError);

    SchedulerOptions zero_retry;
    zero_retry.retry.max_attempts = 0;
    Scheduler bad_retry(zero_retry);
    EXPECT_THROW(bad_retry.run({spec.make_job(Bytes{'a', '\n'})}),
                 UdpError);
}

// --- Fault containment and recovery (docs/ROBUSTNESS.md) ------------------

namespace {

/// A small histogram fleet shared by the retry tests.
std::vector<JobPlan>
retry_jobs(std::size_t count)
{
    const auto xs = workloads::fp_values(8'000, 21);
    static const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    return histogram_fleet(spec, kernels::pack_fp_stream(xs), count);
}

} // namespace

TEST(Scheduler, TransientTrapRecoversOnRetry)
{
    auto jobs = retry_jobs(8);
    Scheduler clean_sched;
    const ScheduleReport clean = clean_sched.run(jobs);

    // Trap job 2 mid-run on its first attempt only.
    FaultInjector inj(7);
    inj.force_trap(jobs[2], 50, /*attempts=*/1);
    SchedulerOptions opts;
    opts.retry.max_attempts = 3;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);

    EXPECT_EQ(rep.faulted_runs, 1u);
    EXPECT_EQ(rep.retries, 1u);
    EXPECT_EQ(rep.quarantined, 0u);
    ASSERT_EQ(rep.waves.size(), 2u); // retry lands in a second wave
    EXPECT_EQ(rep.waves[0].retried, 1u);
    EXPECT_EQ(rep.waves[1].completed, 1u);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(rep.jobs[i].status, LaneStatus::Done) << "job " << i;
        EXPECT_FALSE(rep.jobs[i].quarantined);
        expect_results_eq(rep.jobs[i], clean.jobs[i]);
    }
    EXPECT_EQ(rep.jobs[2].attempts, 2u);
    EXPECT_EQ(rep.jobs[2].wave, 1u);
}

TEST(Scheduler, PermanentFaultQuarantinesAfterMaxAttempts)
{
    auto jobs = retry_jobs(8);
    Scheduler clean_sched;
    const ScheduleReport clean = clean_sched.run(jobs);

    FaultInjector inj(11);
    inj.poison_program(jobs[5]); // BadDispatch on every attempt
    SchedulerOptions opts;
    opts.retry.max_attempts = 3;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);

    EXPECT_EQ(rep.faulted_runs, 3u);
    EXPECT_EQ(rep.retries, 2u);
    EXPECT_EQ(rep.quarantined, 1u);
    const JobResult &bad = rep.jobs[5];
    EXPECT_EQ(bad.status, LaneStatus::Faulted);
    EXPECT_EQ(bad.fault.code, FaultCode::BadDispatch);
    EXPECT_TRUE(bad.quarantined);
    EXPECT_EQ(bad.attempts, 3u);
    EXPECT_THROW(require_done(bad, "test"), UdpError);

    // Containment: every healthy job's result matches the clean run.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == 5)
            continue;
        expect_results_eq(rep.jobs[i], clean.jobs[i]);
    }
}

TEST(Scheduler, TimeoutRetryGrowsCycleBudget)
{
    auto jobs = retry_jobs(4);
    // Far below what a shard needs: every job must time out at least
    // once, then recover as the policy doubles the budget.
    SchedulerOptions opts;
    opts.max_cycles_per_lane = 64;
    opts.retry.max_attempts = 16;
    opts.retry.grow_cycle_budget = true;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);

    EXPECT_GT(rep.faulted_runs, 0u);
    EXPECT_EQ(rep.quarantined, 0u);
    for (const JobResult &jr : rep.jobs) {
        EXPECT_EQ(jr.status, LaneStatus::Done);
        EXPECT_GT(jr.attempts, 1u);
    }

    // Without budget growth the same starvation budget quarantines as
    // TimedOut, carrying the watchdog fault record.
    SchedulerOptions fixed = opts;
    fixed.retry.max_attempts = 2;
    fixed.retry.grow_cycle_budget = false;
    Scheduler stuck(fixed);
    const ScheduleReport srep = stuck.run(jobs);
    EXPECT_EQ(srep.quarantined, unsigned(jobs.size()));
    for (const JobResult &jr : srep.jobs) {
        EXPECT_EQ(jr.status, LaneStatus::TimedOut);
        EXPECT_EQ(jr.fault.code, FaultCode::WatchdogTimeout);
        EXPECT_TRUE(jr.quarantined);
        EXPECT_EQ(jr.attempts, 2u);
    }
}

TEST(Scheduler, FaultFreeRunsIgnoreRetryPolicy)
{
    // With nothing faulting, a generous retry policy must be invisible:
    // identical packing, identical results, identical accounting.
    const auto jobs = retry_jobs(100);
    ASSERT_GT(jobs.size(), kNumLanes);

    Scheduler plain;
    const ScheduleReport a = plain.run(jobs);
    SchedulerOptions opts;
    opts.retry.max_attempts = 5;
    Scheduler retrying(opts);
    const ScheduleReport b = retrying.run(jobs);

    EXPECT_EQ(a.wall_cycles, b.wall_cycles);
    EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
    expect_stats_eq(a.total, b.total);
    ASSERT_EQ(a.waves.size(), b.waves.size());
    for (std::size_t w = 0; w < a.waves.size(); ++w) {
        EXPECT_EQ(a.waves[w].jobs, b.waves[w].jobs);
        EXPECT_EQ(a.waves[w].completed, b.waves[w].completed);
        EXPECT_EQ(b.waves[w].retried, 0u);
        EXPECT_EQ(b.waves[w].quarantined, 0u);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expect_results_eq(a.jobs[i], b.jobs[i]);
        EXPECT_EQ(a.jobs[i].wave, b.jobs[i].wave);
        EXPECT_EQ(b.jobs[i].attempts, 1u);
    }
    EXPECT_EQ(b.faulted_runs, 0u);
    EXPECT_EQ(b.retries, 0u);
    EXPECT_EQ(b.quarantined, 0u);
}

TEST(Scheduler, NoOutputJobTakesNoPoolBuffer)
{
    // Pattern-scan jobs report accepts only: no output bytes and no
    // extracts.  Harvesting them must not take a pooled buffer (the
    // pool's lock for an empty vector that recycle() would drop).
    const auto pats = workloads::nids_patterns(16, false);
    const Bytes payload = workloads::packet_payloads(4 * 1024, pats, 0.02);
    std::vector<JobPlan> jobs;
    for (const auto &spec :
         kernels::pattern_group_specs(pats, kernels::FaModel::Adfa, 4))
        jobs.push_back(spec.make_job(payload));

    Scheduler sched;
    ScheduleReport rep = sched.run(jobs);
    std::uint64_t accepts = 0;
    for (const JobResult &jr : rep.jobs) {
        EXPECT_EQ(jr.status, LaneStatus::Done);
        EXPECT_TRUE(jr.output.empty());
        EXPECT_TRUE(jr.extracts.empty());
        accepts += jr.accepts.size();
    }
    EXPECT_GT(accepts, 0u); // the scans did run
    sched.recycle(std::move(rep));
    EXPECT_EQ(sched.pool().stats().acquired, 0u);
    EXPECT_EQ(sched.pool().stats().released, 0u);

    // A job with output bytes still harvests through the pool.
    const std::string text = workloads::crimes_csv(40);
    sched.run({kernels::csv_kernel_spec().make_job(
        Bytes(text.begin(), text.end()))});
    EXPECT_GT(sched.pool().stats().acquired, 0u);
}
