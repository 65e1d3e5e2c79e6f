/**
 * @file
 * Causal tracing tests: SpanTracer export (merged scheduler spans +
 * lane micro-events), FlightRecorder ring semantics under threads, and
 * post-mortem FaultReport capture (docs/OBSERVABILITY.md "Tracing &
 * post-mortems").  The SpanTrace and Postmortem suites run under TSan
 * and UBSan in CI.
 */
#include "assembler/disasm.hpp"
#include "baselines/histogram.hpp"
#include "core/metrics_json.hpp"
#include "core/trace.hpp"
#include "kernels/histogram.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/postmortem.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/spantrace.hpp"
#include "runtime/telemetry.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

using namespace udp;
using namespace udp::runtime;

namespace {

/// Histogram-kernel fleet sized to `jobs_wanted` jobs (the shape
/// test_telemetry uses; >64 jobs forces multiple waves).
std::vector<JobPlan>
trace_fleet(std::size_t jobs_wanted)
{
    const auto xs = workloads::fp_values(8'000, 21);
    static const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const Bytes packed = kernels::pack_fp_stream(xs);
    const std::size_t values = packed.size() / 8;
    const std::size_t shard =
        std::max<std::size_t>(1, ceil_div(values, jobs_wanted)) * 8;
    return chunk_jobs(spec, packed, shard);
}

/// The exported Chrome trace as a string (must be a complete document).
std::string
exported(const SpanTracer &spans)
{
    std::ostringstream os;
    spans.write_chrome_trace(os);
    return os.str();
}

/// Complete architectural equality of two job results.
void
expect_results_eq(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.dispatches, b.stats.dispatches);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.extracts, b.extracts);
    EXPECT_EQ(a.accepts.size(), b.accepts.size());
}

} // namespace

// --- Span export ----------------------------------------------------------

TEST(SpanTrace, EmptyExportIsValidJson)
{
    SpanTracer spans;
    const std::string text = exported(spans);
    EXPECT_TRUE(json_parse_ok(text)) << text;
    // Metadata-only: the fixed scheduler tracks are always named.
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("waves"), std::string::npos);
    EXPECT_NE(text.find("jobs"), std::string::npos);
    EXPECT_EQ(spans.timeline_end(), 0u);

    // Absorbing an empty tracer records nothing.
    Tracer t;
    spans.absorb_lane_events(t, 0);
    EXPECT_EQ(spans.lane_event_count(), 0u);
    EXPECT_TRUE(json_parse_ok(exported(spans)));
}

TEST(SpanTrace, SchedulerRunProducesNestedSpans)
{
    const auto jobs = trace_fleet(100);
    ASSERT_GT(jobs.size(), std::size_t{kNumLanes}); // 2+ waves

    Tracer tracer;
    SpanTracer spans;
    SchedulerOptions opts;
    opts.spans = &spans;
    opts.lane_tracer = &tracer;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);

    // One attempt span per run, one wave span per wave.
    EXPECT_EQ(spans.attempts().size(), jobs.size() + rep.retries);
    EXPECT_EQ(spans.waves().size(), rep.waves.size());
    EXPECT_GT(spans.lane_event_count(), 0u);
    EXPECT_EQ(spans.dropped_spans(), 0u);

    // Span invariants on the shared timeline.
    std::set<std::uint64_t> ids;
    for (const AttemptSpan &a : spans.attempts()) {
        EXPECT_LE(a.submit, a.start);
        EXPECT_LE(a.start + a.service, a.end);
        EXPECT_EQ(a.job_name, jobs[a.job_index].name);
        EXPECT_EQ(a.trace_id, spans.trace_id(a.job_index));
        EXPECT_TRUE(a.final_disposition); // no faults in this fleet
        ids.insert(a.trace_id);
    }
    EXPECT_EQ(ids.size(), jobs.size()); // unique id per job
    Cycles wall = 0;
    for (const WaveSpan &w : spans.waves()) {
        EXPECT_EQ(w.start, wall); // waves tile the timeline
        wall += w.wall;
        EXPECT_GT(w.jobs, 0u);
        EXPECT_GE(w.host_seconds, 0.0);
    }
    EXPECT_EQ(wall, rep.wall_cycles);
    EXPECT_EQ(spans.timeline_end(), rep.wall_cycles);

    const std::string text = exported(spans);
    EXPECT_TRUE(json_parse_ok(text));
    for (const char *needle :
         {"udp.attempt", "udp.wave", "udp.job", "\"ph\":\"b\"",
          "\"ph\":\"e\"", "lane 0", "host_seconds"})
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST(SpanTrace, SequentialRunsLayOutAfterEachOtherWithUniqueIds)
{
    const auto jobs = trace_fleet(16); // single wave per run
    SpanTracer spans;
    SchedulerOptions opts;
    opts.spans = &spans;

    Scheduler first(opts);
    first.run(jobs);
    const Cycles first_end = spans.timeline_end();
    const std::size_t first_attempts = spans.attempts().size();

    Scheduler second(opts);
    second.run(jobs);

    // Run 2 starts where run 1 ended; ids never collide across runs.
    std::set<std::uint64_t> ids;
    for (const AttemptSpan &a : spans.attempts())
        ids.insert(a.trace_id);
    EXPECT_EQ(ids.size(), spans.attempts().size());
    for (std::size_t i = first_attempts; i < spans.attempts().size(); ++i)
        EXPECT_GE(spans.attempts()[i].submit, first_end);
    EXPECT_EQ(spans.waves().back().run, 1u);
    EXPECT_TRUE(json_parse_ok(exported(spans)));

    spans.clear();
    EXPECT_EQ(spans.attempts().size(), 0u);
    EXPECT_EQ(spans.timeline_end(), 0u);
}

TEST(SpanTrace, RingWraparoundCountsDrops)
{
    // A tiny lane ring evicts oldest-first; the absorbed drop count
    // carries into the exported instant.
    Tracer tiny(8);
    for (unsigned i = 0; i < 20; ++i)
        tiny.record(0, TraceEventKind::Action, i, i, 0);
    EXPECT_EQ(tiny.total(0), 20u);
    EXPECT_EQ(tiny.dropped(0), 12u);

    SpanTracer spans;
    spans.absorb_lane_events(tiny, 0);
    EXPECT_EQ(spans.lane_event_count(), 8u);
    EXPECT_EQ(spans.dropped_lane_events(), 12u);
    const std::string text = exported(spans);
    EXPECT_TRUE(json_parse_ok(text));
    EXPECT_NE(text.find("trace data dropped"), std::string::npos);

    // The span-side caps drop keep-first as well.
    SpanTracer capped(/*max_spans=*/2, /*max_lane_events=*/4);
    for (unsigned i = 0; i < 5; ++i) {
        JobRunEvent ev;
        ev.job_name = "j";
        ev.job_index = i;
        ev.final_disposition = true;
        capped.on_job_run(ev);
    }
    EXPECT_EQ(capped.attempts().size(), 2u);
    EXPECT_EQ(capped.dropped_spans(), 3u);
    capped.absorb_lane_events(tiny, 0);
    EXPECT_EQ(capped.lane_event_count(), 4u);
    EXPECT_EQ(capped.dropped_lane_events(), 12u + 4u);
    EXPECT_TRUE(json_parse_ok(exported(capped)));
}

TEST(SpanTrace, HostileJobNamesAreEscaped)
{
    SpanTracer spans;
    spans.begin_schedule(3);
    const char *names[] = {"quote\"inside", "back\\slash",
                           "ctrl\x01\ttab\nnewline"};
    for (unsigned i = 0; i < 3; ++i) {
        JobRunEvent ev;
        ev.job_name = names[i];
        ev.job_index = i;
        ev.final_disposition = true;
        spans.on_job_run(ev);
    }
    const std::string text = exported(spans);
    EXPECT_TRUE(json_parse_ok(text)) << text;
    EXPECT_NE(text.find("quote\\\"inside"), std::string::npos);
    EXPECT_NE(text.find("back\\\\slash"), std::string::npos);
    EXPECT_NE(text.find("\\u0001"), std::string::npos);
    // No raw control bytes survive into the document.
    for (const char c : text)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);
}

TEST(SpanTrace, SpanServiceSumMatchesTelemetryHistogram)
{
    // Both sinks watch one fault-injected run; the span view and the
    // aggregate view must describe the same cycles.
    auto jobs = trace_fleet(100);
    FaultInjector inj(7);
    inj.force_trap(jobs[2], 50, /*attempts=*/1);

    MetricRegistry reg;
    RegistryTelemetry sink(reg);
    SpanTracer spans;
    SchedulerOptions opts;
    opts.retry.max_attempts = 3;
    opts.telemetry = &sink;
    opts.spans = &spans;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);
    EXPECT_GT(rep.retries, 0u);

    std::uint64_t service_sum = 0, e2e_final = 0;
    for (const AttemptSpan &a : spans.attempts()) {
        service_sum += a.service;
        if (a.final_disposition)
            ++e2e_final;
    }
    for (const auto &[name, snap] : reg.histograms()) {
        if (name == "job.service_cycles") {
            EXPECT_EQ(snap.sum, service_sum);
            EXPECT_EQ(snap.count, spans.attempts().size());
        }
        if (name == "job.e2e_cycles") {
            EXPECT_EQ(snap.count, e2e_final);
        }
    }
    EXPECT_EQ(e2e_final, jobs.size());
}

// --- The machine.hpp claim: per-lane Tracer rings under threads -----------

TEST(SpanTrace, TracerIsIdenticalUnderThreadedBackend)
{
    // Pin the documented claim that per-lane rings are race-free under
    // run_parallel because each worker writes only its own lane's ring:
    // the threaded backend must produce byte-identical rings (TSan
    // covers the access pattern in CI).
    const auto jobs = trace_fleet(16); // single wave: rings survive run

    Tracer serial_t;
    SchedulerOptions serial;
    serial.threads = 1;
    serial.lane_tracer = &serial_t;
    Scheduler a(serial);
    const ScheduleReport ra = a.run(jobs);

    Tracer pooled_t;
    SchedulerOptions pooled;
    pooled.threads = 8;
    pooled.lane_tracer = &pooled_t;
    Scheduler b(pooled);
    const ScheduleReport rb = b.run(jobs);

    EXPECT_EQ(ra.wall_cycles, rb.wall_cycles);
    EXPECT_EQ(serial_t.active_lanes(), pooled_t.active_lanes());
    for (const unsigned lane : serial_t.active_lanes()) {
        const auto ea = serial_t.events(lane);
        const auto eb = pooled_t.events(lane);
        ASSERT_EQ(ea.size(), eb.size()) << "lane " << lane;
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].cycle, eb[i].cycle);
            EXPECT_EQ(ea[i].kind, eb[i].kind);
            EXPECT_EQ(ea[i].a, eb[i].a);
            EXPECT_EQ(ea[i].b, eb[i].b);
            // Every event in lane N's ring names lane N — no
            // cross-lane writes, the property that makes the
            // lock-free sharing sound.
            EXPECT_EQ(ea[i].lane, lane);
            EXPECT_EQ(eb[i].lane, lane);
        }
    }
}

TEST(SpanTrace, ResultsBitIdenticalWithAllSinksAttached)
{
    const auto jobs = trace_fleet(100);
    Scheduler plain;
    const ScheduleReport ref = plain.run(jobs);

    Tracer tracer;
    SpanTracer spans;
    FlightRecorder recorder;
    SchedulerOptions opts;
    opts.threads = 4;
    opts.spans = &spans;
    opts.recorder = &recorder;
    opts.lane_tracer = &tracer;
    opts.postmortem.keep_last = 4;
    Scheduler observed(opts);
    const ScheduleReport rep = observed.run(jobs);

    EXPECT_EQ(ref.wall_cycles, rep.wall_cycles);
    EXPECT_DOUBLE_EQ(ref.energy_j, rep.energy_j);
    ASSERT_EQ(ref.jobs.size(), rep.jobs.size());
    for (std::size_t i = 0; i < ref.jobs.size(); ++i)
        expect_results_eq(ref.jobs[i], rep.jobs[i]);
}

// --- Flight recorder ------------------------------------------------------

TEST(SpanTrace, FlightRecorderObservesSchedulerLifecycle)
{
    // Serial and pooled runs take the same lane loop: the observer sees
    // every runnable lane of every wave exactly once, start and end, and
    // watching changes no result.
    const auto jobs = trace_fleet(100);
    for (const unsigned threads : {1u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        FlightRecorder rec(/*ring_capacity=*/4096);
        SchedulerOptions opts;
        opts.threads = threads;
        Scheduler plain(opts);
        const ScheduleReport ref = plain.run(jobs);
        opts.recorder = &rec;
        Scheduler sched(opts);
        const ScheduleReport rep = sched.run(jobs);

        ASSERT_EQ(ref.jobs.size(), rep.jobs.size());
        EXPECT_EQ(ref.wall_cycles, rep.wall_cycles);
        for (std::size_t i = 0; i < ref.jobs.size(); ++i)
            expect_results_eq(ref.jobs[i], rep.jobs[i]);

        const auto events = rec.snapshot();
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(rec.total(), events.size() + rec.dropped());
        EXPECT_EQ(rec.dropped(), 0u); // ring big enough for this fleet

        std::uint64_t starts = 0, ends = 0, runs = 0, waves = 0;
        std::uint64_t last_seq = 0;
        std::set<unsigned> started, ended; // lanes of the current wave
        for (std::size_t i = 0; i < events.size(); ++i) {
            const FlightEvent &e = events[i];
            if (i > 0) {
                EXPECT_GT(e.seq, last_seq); // strict global order
            }
            last_seq = e.seq;
            switch (e.kind) {
            case FlightEventKind::LaneStart:
                ++starts;
                EXPECT_TRUE(started.insert(e.lane).second)
                    << "lane " << unsigned{e.lane} << " started twice";
                break;
            case FlightEventKind::LaneEnd:
                ++ends;
                EXPECT_GT(e.b, 0u); // lane cycles
                EXPECT_TRUE(started.count(e.lane) != 0);
                EXPECT_TRUE(ended.insert(e.lane).second)
                    << "lane " << unsigned{e.lane} << " ended twice";
                break;
            case FlightEventKind::JobRun: ++runs; break;
            case FlightEventKind::WaveClose:
                ASSERT_LT(waves, rep.waves.size());
                EXPECT_EQ(started.size(), rep.waves[waves].jobs);
                EXPECT_EQ(ended, started);
                started.clear();
                ended.clear();
                ++waves;
                break;
            case FlightEventKind::Quarantine: break;
            }
        }
        // Worker-thread lane hooks fire once per run; harvest events
        // once per run; one close per wave.
        EXPECT_EQ(starts, jobs.size() + rep.retries);
        EXPECT_EQ(ends, starts);
        EXPECT_EQ(runs, starts);
        EXPECT_EQ(waves, rep.waves.size());
        EXPECT_GT(waves, 1u);
        EXPECT_FALSE(flight_event_kind_name(events[0].kind).empty());
    }
}

TEST(SpanTrace, FlightRecorderRingKeepsMostRecent)
{
    FlightRecorder rec(/*ring_capacity=*/8);
    for (unsigned i = 0; i < 20; ++i)
        rec.record(FlightEventKind::JobRun, 0, /*a=*/i);
    EXPECT_EQ(rec.total(), 20u);
    EXPECT_EQ(rec.dropped(), 12u);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].a, 12u + i); // oldest evicted first
}

TEST(SpanTrace, FlightRecorderConcurrentThreadsKeepExactTotals)
{
    // 8 threads, each overflowing its own ring: totals stay exact and
    // the merged snapshot is seq-sorted (TSan-exercised in CI).  The
    // barrier after the first record keeps all 8 slots claimed at once —
    // without it a fast thread can exit and donate its slot (and ring)
    // to a later thread, which is the intended reuse semantics but not
    // what this test measures.
    FlightRecorder rec(/*ring_capacity=*/64);
    constexpr unsigned kThreads = 8, kPer = 1'000;
    {
        std::atomic<unsigned> claimed{0};
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < kThreads; ++t)
            pool.emplace_back([&rec, &claimed, t] {
                rec.record(FlightEventKind::LaneEnd, t, 0, 1);
                claimed.fetch_add(1);
                while (claimed.load() < kThreads)
                    std::this_thread::yield();
                for (unsigned i = 1; i < kPer; ++i)
                    rec.record(FlightEventKind::LaneEnd, t, i, 1);
            });
    }
    EXPECT_EQ(rec.total(), std::uint64_t{kThreads} * kPer);
    const auto events = rec.snapshot();
    EXPECT_EQ(events.size(), std::size_t{kThreads} * 64);
    EXPECT_EQ(rec.dropped(), std::uint64_t{kThreads} * (kPer - 64));
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GT(events[i].seq, events[i - 1].seq);
}

// --- Post-mortem fault reports --------------------------------------------

TEST(Postmortem, QuarantineCapturesOneReportPerAttempt)
{
    auto jobs = trace_fleet(8);
    FaultInjector inj(11);
    inj.poison_program(jobs[5]); // BadDispatch on every attempt

    Tracer tracer;
    SpanTracer spans;
    SchedulerOptions opts;
    opts.retry.max_attempts = 3;
    opts.spans = &spans;
    opts.lane_tracer = &tracer;
    opts.postmortem.keep_last = 8;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);
    EXPECT_EQ(rep.quarantined, 1u);

    const auto &pms = sched.postmortems();
    ASSERT_EQ(pms.size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        const FaultReport &fr = pms[i];
        EXPECT_EQ(fr.job_index, 5u);
        EXPECT_EQ(fr.attempt, i + 1);
        EXPECT_EQ(fr.max_attempts, 3u);
        EXPECT_EQ(fr.status, LaneStatus::Faulted);
        EXPECT_EQ(fr.fault.code, FaultCode::BadDispatch);
        EXPECT_EQ(fr.trace_id, spans.trace_id(5));
        // History holds exactly the prior attempts, oldest first.
        ASSERT_EQ(fr.attempt_history.size(), i);
        for (unsigned h = 0; h < i; ++h) {
            EXPECT_EQ(fr.attempt_history[h].attempt, h + 1);
            EXPECT_EQ(fr.attempt_history[h].fault,
                      FaultCode::BadDispatch);
        }
        EXPECT_EQ(fr.will_retry, i < 2);
        EXPECT_EQ(fr.quarantined, i == 2);
        // A poisoned program still disassembles (defensively).
        EXPECT_FALSE(fr.disassembly.empty());
    }
}

TEST(Postmortem, ForcedTrapCapturesRecentRingEvents)
{
    auto jobs = trace_fleet(8);
    FaultInjector inj(3);
    inj.force_trap(jobs[2], 500, /*attempts=*/1);

    Tracer tracer;
    SchedulerOptions opts;
    opts.retry.max_attempts = 2;
    opts.lane_tracer = &tracer;
    opts.postmortem.keep_last = 4;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);
    EXPECT_EQ(rep.quarantined, 0u); // recovered on attempt 2

    const auto &pms = sched.postmortems();
    ASSERT_EQ(pms.size(), 1u);
    const FaultReport &fr = pms.front();
    EXPECT_EQ(fr.fault.code, FaultCode::ForcedTrap);
    EXPECT_TRUE(fr.will_retry);
    EXPECT_GT(fr.service_cycles, 0u);
    // 500 cycles of real execution before the trap leave micro-events
    // in the lane's ring, all stamped at or before the trap cycle.
    ASSERT_FALSE(fr.recent_events.empty());
    for (const TraceEvent &ev : fr.recent_events) {
        EXPECT_EQ(ev.lane, fr.lane);
        EXPECT_LE(ev.cycle, fr.fault.cycle);
    }
}

TEST(Postmortem, ReportSerializesToValidJsonFile)
{
    auto jobs = trace_fleet(8);
    FaultInjector inj(5);
    inj.poison_program(jobs[1]);

    const std::string dir =
        (std::filesystem::path(testing::TempDir()) / "pm_out").string();
    std::filesystem::remove_all(dir);
    Tracer tracer;
    SchedulerOptions opts;
    opts.retry.max_attempts = 2;
    opts.lane_tracer = &tracer;
    opts.postmortem.dir = dir;
    Scheduler sched(opts);
    sched.run(jobs);

    // keep_last stayed 0: files were written, memory kept nothing.
    EXPECT_TRUE(sched.postmortems().empty());
    unsigned files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        ++files;
        std::ifstream in(entry.path());
        std::stringstream ss;
        ss << in.rdbuf();
        EXPECT_TRUE(json_parse_ok(ss.str())) << entry.path();
        const std::string text = ss.str();
        EXPECT_NE(text.find("\"fault\""), std::string::npos);
        EXPECT_NE(text.find("\"disassembly\""), std::string::npos);
        EXPECT_NE(text.find("bad-dispatch"), std::string::npos);
    }
    EXPECT_EQ(files, 2u); // one per attempt

    FaultReport fr;
    fr.job_index = 7;
    fr.attempt = 3;
    EXPECT_EQ(postmortem_filename(fr), "postmortem-job7-attempt3.json");
}

TEST(Postmortem, KeepLastTrimsAndMaxFilesCapsWrites)
{
    // Starvation budget: all 8 jobs time out on both attempts — 16
    // faulted runs against keep_last 5 and max_files 3.
    auto jobs = trace_fleet(8);
    const std::string dir =
        (std::filesystem::path(testing::TempDir()) / "pm_cap").string();
    std::filesystem::remove_all(dir);
    SchedulerOptions opts;
    opts.max_cycles_per_lane = 64;
    opts.retry.max_attempts = 2;
    opts.postmortem.dir = dir;
    opts.postmortem.keep_last = 5;
    opts.postmortem.max_files = 3;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);
    EXPECT_EQ(rep.faulted_runs, 2 * jobs.size());
    EXPECT_EQ(rep.quarantined, jobs.size());

    const auto &pms = sched.postmortems();
    ASSERT_EQ(pms.size(), 5u); // oldest evicted
    for (const FaultReport &fr : pms) {
        EXPECT_EQ(fr.status, LaneStatus::TimedOut);
        EXPECT_EQ(fr.attempt, 2u); // only final-wave reports survive
        EXPECT_TRUE(fr.quarantined);
    }
    unsigned files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 3u);
}

TEST(Postmortem, DisassemblyIsDefensiveOnHostileBases)
{
    const auto jobs = trace_fleet(2);
    const Program &prog = *jobs[0].program;
    // A base matching no state renders the raw-window fallback rather
    // than throwing.
    const std::string miss = disassemble_state(prog, 0x00FF'FFFF);
    EXPECT_NE(miss.find("no matching state table"), std::string::npos);

    // A poisoned program's victim state still renders, annotating the
    // undecodable words instead of propagating the decode error.
    auto poisoned = trace_fleet(2);
    FaultInjector inj(13);
    inj.poison_program(poisoned[0]);
    SchedulerOptions opts;
    opts.retry.max_attempts = 1;
    opts.postmortem.keep_last = 1;
    Scheduler sched(opts);
    sched.run(poisoned);
    ASSERT_EQ(sched.postmortems().size(), 1u);
    const FaultReport &fr = sched.postmortems().front();
    EXPECT_FALSE(fr.disassembly.empty());
    EXPECT_EQ(fr.fault.code, FaultCode::BadDispatch);
}
