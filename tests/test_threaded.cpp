/**
 * @file
 * Threaded-code tier vs the decode-per-step reference interpreter
 * (docs/PERFORMANCE.md).
 *
 * The threaded-code tier over a shared `CompiledProgram` must be
 * observationally identical to the reference interpreter for every
 * kernel in src/kernels, in DFA and NFA mode: bit-identical
 * `LaneStats`, registers, outputs, accepts, and memory extracts.  A
 * traced or profiled lane runs on the reference interpreter whichever
 * backend is selected, so its trace event stream and profiler
 * aggregates do not depend on the backend either.  Only host time may
 * differ.
 *
 * Fault behaviour is pinned against the FaultInjector corpus: a
 * single-lane run, serial and pooled Scheduler runs and the reference
 * interpreter must agree on the *full* trap record (stats at the trap
 * cycle included).  The one allowed divergence: the reference decodes
 * eagerly, so it may trap on a word the threaded tier never fetches and
 * rejects instead (docs/ROBUSTNESS.md).
 *
 * Also pinned here: the compiled state index a lane carries between
 * `run_steps` calls (lockstep mode), the `UDP_SIM_BACKEND` toggle and
 * its parser across every run entry point, the content-keyed shared
 * compiled-image cache and its fingerprint, the image a plan carries to
 * every run path (and the guard against a stale one), and one image
 * shared race-free by concurrently simulated lanes.  The `Predecode` tests pin the shared image from
 * the lane's side: instrumented runs against bare ones, step batching,
 * NFA-mode waves on a thread pool, and which image `load()` binds.
 * This file runs under the CI sanitizer jobs.
 */
#include "assembler/builder.hpp"
#include "baselines/dictionary.hpp"
#include "baselines/histogram.hpp"
#include "baselines/huffman.hpp"
#include "baselines/snappy.hpp"
#include "core/decoded_program.hpp"
#include "core/machine.hpp"
#include "core/profile.hpp"
#include "core/threaded_program.hpp"
#include "core/trace.hpp"
#include "kernels/csv.hpp"
#include "kernels/dictionary.hpp"
#include "kernels/histogram.hpp"
#include "kernels/huffman.hpp"
#include "kernels/pattern.hpp"
#include "kernels/snappy.hpp"
#include "kernels/trigger.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace {

using namespace udp;
using namespace udp::kernels;

/// Restore the process default (Threaded) when a test exits early.
struct BackendGuard {
    ~BackendGuard() { set_sim_backend(SimBackend::Threaded); }
};

runtime::JobResult
run_backend(const runtime::JobPlan &plan, SimBackend backend,
            std::uint64_t max_cycles = ~std::uint64_t{0})
{
    BackendGuard guard;
    set_sim_backend(backend);
    Machine m(AddressingMode::Restricted);
    runtime::JobResult res = runtime::run_job_on(m, 0, 0, plan,
                                                 max_cycles);
    // The toggle must control which image the lane actually bound.
    EXPECT_EQ(m.lane(0).compiled() != nullptr,
              backend == SimBackend::Threaded);
    return res;
}

/// Run `copies` copies of `plan` through a Scheduler with `threads`
/// simulation threads; every copy lands on its own lane of one wave.
std::vector<runtime::JobResult>
run_scheduled(const runtime::JobPlan &plan, std::uint64_t max_cycles,
              unsigned threads, std::size_t copies)
{
    runtime::SchedulerOptions opts;
    opts.threads = threads;
    opts.max_cycles_per_lane = max_cycles;
    runtime::Scheduler sched(opts);
    return sched.run(std::vector<runtime::JobPlan>(copies, plan)).jobs;
}

/// Everything observable from one instrumented job run.
struct RunCapture {
    runtime::JobResult res;
    std::vector<TraceEvent> events;
    std::map<std::uint32_t,
             std::tuple<std::uint64_t, Cycles, std::uint64_t,
                        std::uint64_t>>
        states;
    std::map<Opcode, std::pair<std::uint64_t, Cycles>> actions;
};

/// Run `plan` with a tracer and profiler attached under `backend`.
RunCapture
run_instrumented(const runtime::JobPlan &plan, SimBackend backend)
{
    BackendGuard guard;
    set_sim_backend(backend);

    Machine m(AddressingMode::Restricted);
    Tracer tracer;
    Profiler prof;
    m.set_tracer(&tracer);
    m.set_profiler(&prof);

    RunCapture c;
    c.res = runtime::run_job_on(m, 0, 0, plan);
    EXPECT_EQ(m.lane(0).compiled() != nullptr,
              backend == SimBackend::Threaded);
    c.events = tracer.events(0);
    for (const auto &[base, sp] : prof.states())
        c.states[base] = {sp.visits, sp.cycles, sp.sig_misses,
                          sp.stall_cycles};
    for (const auto &[op, ap] : prof.actions())
        c.actions[op] = {ap.count, ap.cycles};
    return c;
}

/// Full architectural equality: stats, registers, output, extracts,
/// accepts, and the complete trap record.
void
expect_identical(const runtime::JobResult &a, const runtime::JobResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.extracts, b.extracts);
    EXPECT_EQ(a.fault.code, b.fault.code);
    EXPECT_EQ(a.fault.cycle, b.fault.cycle);
    EXPECT_EQ(a.fault.state_base, b.fault.state_base);
    ASSERT_EQ(a.accepts.size(), b.accepts.size());
    for (std::size_t i = 0; i < a.accepts.size(); ++i) {
        EXPECT_EQ(a.accepts[i].stream_bit_pos, b.accepts[i].stream_bit_pos);
        EXPECT_EQ(a.accepts[i].id, b.accepts[i].id);
    }
}

/// Full architectural equality plus identical trace and profile streams.
void
expect_identical(const RunCapture &a, const RunCapture &b)
{
    expect_identical(a.res, b.res);

    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const TraceEvent &x = a.events[i];
        const TraceEvent &y = b.events[i];
        ASSERT_TRUE(x.kind == y.kind && x.cycle == y.cycle &&
                    x.a == y.a && x.b == y.b && x.lane == y.lane)
            << "trace diverges at event " << i;
    }

    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.actions, b.actions);
}

/// One named plan per kernel in src/kernels (all ten workloads).
std::vector<std::pair<std::string, runtime::JobPlan>>
kernel_plans()
{
    std::vector<std::pair<std::string, runtime::JobPlan>> plans;

    { // CSV parsing
        const std::string text = workloads::crimes_csv(40);
        plans.emplace_back(
            "csv", csv_kernel_spec().make_job(
                       Bytes(text.begin(), text.end())));
    }

    const Bytes corpus = workloads::text_corpus(8 * 1024, 0.5, 21);
    const auto code = baselines::build_huffman(corpus);
    { // Huffman encode
        plans.emplace_back("huffman_enc",
                           huffman_encoder_spec(code).make_job(corpus));
    }
    { // Huffman decode (variable-symbol dispatch)
        Bytes enc = baselines::huffman_encode(corpus, code);
        enc.push_back(0);
        enc.push_back(0);
        plans.emplace_back(
            "huffman_dec",
            huffman_decoder_spec(code, VarSymDesign::SsRef)
                .make_job(std::move(enc)));
    }

    { // Dictionary and dictionary-RLE
        const auto rows = workloads::zipf_attribute(800, 24);
        const auto base = baselines::dictionary_encode(rows);
        plans.emplace_back(
            "dictionary", dictionary_kernel_spec(base.dict, false)
                              .make_job(dict_input(rows)));

        const auto rle_rows = workloads::runny_attribute(800, 24, 5.0);
        const auto rle_base = baselines::dictionary_encode(rle_rows);
        plans.emplace_back(
            "dictionary_rle", dictionary_kernel_spec(rle_base.dict, true)
                                  .make_job(dict_input(rle_rows)));
    }

    { // Histogram (fp64 binning)
        const auto xs = workloads::fp_values(2000, 0);
        auto h = baselines::Histogram::uniform(10, 41.2, 42.5);
        plans.emplace_back("histogram",
                           histogram_kernel_spec(h.edges())
                               .make_job(pack_fp_stream(xs)));
    }

    { // Snappy compress + decompress
        const Bytes block = workloads::text_corpus(12 * 1024, 0.5, 22);
        plans.emplace_back("snappy_comp",
                           snappy_compress_spec().make_job(block));

        const Bytes comp = baselines::snappy_compress(block);
        std::size_t pos = 0;
        while (comp[pos] & 0x80)
            ++pos;
        ++pos; // skip the length varint, as the kernel ABI expects
        plans.emplace_back(
            "snappy_decomp",
            snappy_decompress_spec().make_job(
                Bytes(comp.begin() + pos, comp.end())));
    }

    { // Signal triggering
        const Bytes packed = workloads::waveform(20'000, 13);
        plans.emplace_back("trigger", trigger_kernel_spec(6).make_job(
                                          samples_from_bits(packed)));
    }

    { // Pattern matching: aDFA groups and NFA groups (run_nfa path)
        const auto pats = workloads::nids_patterns(16, false);
        const Bytes payload = workloads::packet_payloads(16 * 1024, pats);
        const auto adfa = pattern_group_specs(pats, FaModel::Adfa, 4);
        for (std::size_t g = 0; g < adfa.size(); ++g)
            plans.emplace_back("pattern_adfa_g" + std::to_string(g),
                               adfa[g].make_job(payload));

        const auto cpats = workloads::nids_patterns(8, true);
        const Bytes cpay = workloads::packet_payloads(8 * 1024, cpats);
        const auto nfa = pattern_group_specs(cpats, FaModel::Nfa, 2);
        for (std::size_t g = 0; g < nfa.size(); ++g)
            plans.emplace_back("pattern_nfa_g" + std::to_string(g),
                               nfa[g].make_job(cpay));
    }

    return plans;
}

TEST(ThreadedCode, EveryKernelBitIdenticalToLegacy)
{
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        const auto threaded = run_backend(plan, SimBackend::Threaded);
        expect_identical(threaded, run_backend(plan, SimBackend::Legacy));
        // Guard against degenerate plans that would vacuously pass.
        EXPECT_GT(threaded.stats.cycles, 0u) << name;
        EXPECT_EQ(threaded.status, LaneStatus::Done) << name;
    }
}

TEST(Predecode, EveryKernelBitIdenticalToLegacyPath)
{
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        // A bare threaded run matches an instrumented reference run, and
        // instrumented lanes take the reference interpreter under either
        // backend, so the event streams cannot depend on the selection.
        const auto threaded = run_backend(plan, SimBackend::Threaded);
        const RunCapture legacy =
            run_instrumented(plan, SimBackend::Legacy);
        expect_identical(threaded, legacy.res);
        expect_identical(run_instrumented(plan, SimBackend::Threaded),
                         legacy);
        // Guard against degenerate plans that would vacuously pass.
        EXPECT_GT(threaded.stats.cycles, 0u) << name;
        EXPECT_GT(legacy.events.size(), 0u) << name;
    }
}

TEST(ThreadedCode, InstrumentedRunsMatchBareThreadedCounters)
{
    // Attaching a tracer/profiler reroutes the lane off the threaded
    // tier onto the reference interpreter; the simulated counters must
    // not change for it.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        Machine bare(AddressingMode::Restricted);
        const auto res = runtime::run_job_on(bare, 0, 0, plan);
        const RunCapture instr =
            run_instrumented(plan, SimBackend::Threaded);
        EXPECT_EQ(res.stats, instr.res.stats);
        EXPECT_EQ(res.output, instr.res.output);
        if (!plan.nfa_mode) {
            EXPECT_GT(instr.events.size(), 0u);
        }
    }
}

TEST(Predecode, UninstrumentedRunsMatchInstrumentedCounters)
{
    // The reference interpreter's tracer and profiler hooks observe
    // only: under the legacy backend, where bare and instrumented lanes
    // take the same interpreter, attaching them charges nothing extra.
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        const auto bare = run_backend(plan, SimBackend::Legacy);
        const RunCapture instr = run_instrumented(plan, SimBackend::Legacy);
        expect_identical(bare, instr.res);
        if (!plan.nfa_mode) {
            EXPECT_GT(instr.events.size(), 0u);
        }
    }
}

TEST(ThreadedCode, StepOnceTracksRunStepsAndLegacy)
{
    // A threaded lane carries its next state's compiled index between
    // run_steps calls.  Stepping one dispatch at a time must track the
    // reference interpreter bit for bit, also when reset() or load()
    // restarts the lane mid-run (they drop the carry) and when a tracer
    // moves it onto the reference every fifth step (which moves the
    // state without the carry).  Machine::run_lockstep steps its lanes
    // the same way, one arbitrated round per step, and must land on the
    // same counters as a lane stepped by hand under a bank arbiter.
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(10);
    const Bytes data(text.begin(), text.end());
    const auto plan = csv_kernel_spec().make_job(data);

    const auto staged = [&](Machine &m, SimBackend backend) -> Lane & {
        set_sim_backend(backend);
        runtime::stage_job(m, 0, 0, plan);
        return m.lane(0);
    };
    Machine ma(AddressingMode::Restricted);
    Machine mb(AddressingMode::Restricted);
    Machine mc(AddressingMode::Restricted);
    Lane &a = staged(ma, SimBackend::Threaded);
    Lane &b = staged(mb, SimBackend::Threaded);
    Lane &c = staged(mc, SimBackend::Legacy);
    ASSERT_NE(a.compiled(), nullptr);
    ASSERT_EQ(c.compiled(), nullptr);

    // Restart lane `ln` from its entry state under `backend`.
    const auto restart = [&](Lane &ln, SimBackend backend, bool reload) {
        set_sim_backend(backend);
        if (reload)
            ln.load(*plan.program);
        else
            ln.reset();
        for (const auto &[r, v] : plan.init_regs)
            ln.set_reg(r, v);
    };

    BankArbiter arbiter;
    b.set_arbiter([&arbiter](unsigned bank, bool is_write) {
        return arbiter.request(bank, is_write);
    });
    Tracer tracer;
    LaneStatus sa = LaneStatus::Running;
    LaneStatus sb = LaneStatus::Running;
    std::uint64_t steps = 0;
    unsigned restarts = 0;
    while (sa == LaneStatus::Running && steps < 1'000'000) {
        if (steps == 157 || steps == 311) {
            const bool reload = steps == 311;
            restart(a, SimBackend::Threaded, reload);
            restart(c, SimBackend::Legacy, reload);
            ASSERT_NE(a.compiled(), nullptr);
            ++restarts;
        }
        b.set_tracer(steps % 5 == 2 ? &tracer : nullptr);
        sa = a.run_steps(1);
        if (sb == LaneStatus::Running) {
            arbiter.begin_cycle();
            sb = b.run_steps(1);
        }
        const LaneStatus sc = c.run_steps(1);
        ASSERT_EQ(sa, sc) << "backends diverged at step " << steps;
        ASSERT_EQ(a.stats(), c.stats()) << "diverged at step " << steps;
        ++steps;
    }
    EXPECT_NE(sa, LaneStatus::Running);
    EXPECT_EQ(restarts, 2u);
    EXPECT_GT(tracer.events(0).size(), 0u);
    a.finish_output();
    c.finish_output();
    EXPECT_EQ(a.output(), c.output());
    // Lane a's last restart re-ran the job from its entry state.
    EXPECT_EQ(a.stats(), run_backend(plan, SimBackend::Threaded).stats);

    // A one-lane lockstep run: run_steps(1) per arbitrated round.
    set_sim_backend(SimBackend::Threaded);
    Machine ml(AddressingMode::Restricted);
    JobSpec job;
    job.program = plan.program.get();
    job.input = plan.input;
    job.init_regs = plan.init_regs;
    ml.assign({job});
    const MachineResult lock = ml.run_lockstep();
    EXPECT_EQ(lock.status.at(0), sb);
    EXPECT_EQ(lock.total, b.stats());
    EXPECT_GT(b.stats().stall_cycles, 0u);
    b.finish_output();
    ml.lane(0).finish_output();
    EXPECT_EQ(ml.lane(0).output(), b.output());
}

TEST(Predecode, StepOnceMatchesRunSteps)
{
    // The carried compiled index must not depend on how the steps are
    // batched: a lane stepped one dispatch at a time tracks a lane run
    // in chunks of 1 to 4 steps at every chunk boundary.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    const std::string text = workloads::crimes_csv(10);
    const Bytes data(text.begin(), text.end());
    const auto plan = csv_kernel_spec().make_job(data);

    Machine ma(AddressingMode::Restricted);
    Machine mb(AddressingMode::Restricted);
    runtime::stage_job(ma, 0, 0, plan);
    runtime::stage_job(mb, 0, 0, plan);
    Lane &a = ma.lane(0);
    Lane &b = mb.lane(0);
    ASSERT_NE(b.compiled(), nullptr);

    LaneStatus sa = LaneStatus::Running;
    LaneStatus sb = LaneStatus::Running;
    std::uint64_t steps = 0;
    for (unsigned chunk = 0;
         sb == LaneStatus::Running && steps < 1'000'000; ++chunk) {
        const unsigned n = 1 + chunk % 4;
        sb = b.run_steps(n);
        for (unsigned i = 0; i < n && sa == LaneStatus::Running; ++i) {
            sa = a.run_steps(1);
            ++steps;
        }
        ASSERT_EQ(sa, sb) << "diverged at step " << steps;
        ASSERT_EQ(a.stats(), b.stats()) << "diverged at step " << steps;
    }
    EXPECT_EQ(sa, LaneStatus::Done);
    a.finish_output();
    b.finish_output();
    EXPECT_EQ(a.output(), b.output());
    EXPECT_EQ(a.stats(), run_backend(plan, SimBackend::Threaded).stats);
}

TEST(ThreadedCode, SerialBlockPathMatchesPooledAndLegacy)
{
    // A serial Scheduler runs every lane of a wave on the calling
    // thread; a pool of 8 shares the waves' lanes, all reading one
    // compiled image and its IR at once (race-free under TSan in CI).
    // Both must agree with each other, with each job run alone through
    // run_job_on, and with a reference serial run.
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(600);
    const Bytes data(text.begin(), text.end());
    const auto jobs =
        runtime::chunk_jobs(csv_kernel_spec(), data, 4 * 1024,
                            runtime::align_after_delim('\n'));

    const auto run_with = [&](SimBackend backend, unsigned threads) {
        set_sim_backend(backend);
        runtime::SchedulerOptions opts;
        opts.threads = threads;
        runtime::Scheduler sched(opts);
        return sched.run(jobs);
    };

    const auto serial = run_with(SimBackend::Threaded, 1);
    const auto pooled = run_with(SimBackend::Threaded, 8);
    const auto reference = run_with(SimBackend::Legacy, 1);
    EXPECT_GT(serial.waves.size(), 0u);
    EXPECT_GT(jobs.size(), 1u);
    for (const auto *other : {&pooled, &reference}) {
        EXPECT_EQ(serial.total, other->total);
        EXPECT_EQ(serial.wall_cycles, other->wall_cycles);
        ASSERT_EQ(serial.jobs.size(), other->jobs.size());
        for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
            EXPECT_EQ(serial.jobs[i].stats, other->jobs[i].stats);
            EXPECT_EQ(serial.jobs[i].extracts, other->jobs[i].extracts);
        }
    }
    ASSERT_EQ(serial.jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        expect_identical(run_backend(jobs[i], SimBackend::Threaded),
                         serial.jobs[i]);
    }
}

TEST(Predecode, ThreadedWavesShareOneDecodedImage)
{
    // NFA-mode lanes walk the DecodedProgram IR their compiled image
    // owns.  Eight copies of each pattern group on one wave, simulated
    // by a pool of 8 threads all reading one image and its IR (race-free
    // under TSan in CI), must match a serial run and a lone lane copy
    // for copy, accepts included.
    unsigned nfa_groups = 0;
    for (const auto &[name, plan] : kernel_plans()) {
        if (name.rfind("pattern_", 0) != 0)
            continue;
        SCOPED_TRACE(name);
        const auto lone = run_backend(plan, SimBackend::Threaded);
        const auto serial = run_scheduled(plan, ~std::uint64_t{0}, 1, 8);
        const auto pooled = run_scheduled(plan, ~std::uint64_t{0}, 8, 8);
        ASSERT_EQ(serial.size(), 8u);
        ASSERT_EQ(pooled.size(), 8u);
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(i);
            expect_identical(lone, serial[i]);
            expect_identical(lone, pooled[i]);
        }
        nfa_groups += plan.nfa_mode;
    }
    EXPECT_GT(nfa_groups, 0u);
}

TEST(ThreadedCode, FaultCorpusBitIdenticalAcrossFastPaths)
{
    // A deterministic malformed-image corpus: every mutated plan must
    // produce the identical full trap record (stats included) on the
    // threaded tier's run paths — a single lane through run_job_on,
    // and serial and pooled Schedulers, each running four copies of
    // the plan side by side on one wave — and on the legacy path
    // wherever it does not trap early (below).
    const std::string text = workloads::crimes_csv(30);
    const Bytes data(text.begin(), text.end());
    const auto spec = csv_kernel_spec();

    std::vector<std::pair<std::string, runtime::JobPlan>> corpus;
    runtime::FaultInjector inj(0xC0FFEEu);
    {
        auto p = spec.make_job(data);
        inj.poison_program(p);
        corpus.emplace_back("poison_program", std::move(p));
    }
    {
        auto p = spec.make_job(data);
        inj.poison_dispatch_word(
            p, inj.next_below(p.program->dispatch.size()));
        corpus.emplace_back("poison_dispatch_word", std::move(p));
    }
    for (int i = 0; i < 4; ++i) {
        auto p = spec.make_job(data);
        inj.poison_action_word(p,
                               inj.next_below(p.program->actions.size()));
        corpus.emplace_back("poison_action_" + std::to_string(i),
                            std::move(p));
    }
    for (int i = 0; i < 8; ++i) {
        auto p = spec.make_job(data);
        inj.flip_program_bit(p);
        corpus.emplace_back("flip_bit_" + std::to_string(i),
                            std::move(p));
    }
    for (int i = 0; i < 3; ++i) {
        auto p = spec.make_job(data);
        inj.corrupt_input(p, 4);
        corpus.emplace_back("corrupt_input_" + std::to_string(i),
                            std::move(p));
    }
    {
        auto p = spec.make_job(data);
        inj.truncate_input(p, data.size() / 2);
        corpus.emplace_back("truncate_half", std::move(p));
    }
    {
        auto p = spec.make_job(data);
        inj.truncate_input(p, 1);
        corpus.emplace_back("truncate_one", std::move(p));
    }
    {
        auto p = spec.make_job(data);
        inj.force_trap(p, 100);
        corpus.emplace_back("force_trap_100", std::move(p));
    }

    // Bound runaway mutants: a flipped bit can loop; the watchdog cut
    // must land on the same cycle on every path.
    constexpr std::uint64_t kBudget = 2'000'000;
    bool saw_fault = false;
    for (const auto &[name, plan] : corpus) {
        SCOPED_TRACE(name);
        const auto threaded =
            run_backend(plan, SimBackend::Threaded, kBudget);
        for (const unsigned threads : {1u, 8u})
            for (const auto &job :
                 run_scheduled(plan, kBudget, threads, 4)) {
                SCOPED_TRACE(threads);
                expect_identical(threaded, job);
                EXPECT_EQ(threaded.fault.detail, job.fault.detail);
            }
        const auto legacy =
            run_backend(plan, SimBackend::Legacy, kBudget);
        // The legacy path decodes state metadata eagerly every step, so
        // it can trap on a poisoned word the threaded tier never fetches
        // (it rejects at the miss walk instead; docs/ROBUSTNESS.md).
        // That one divergence aside, the full trap records agree.
        if (legacy.status == LaneStatus::Faulted &&
            threaded.status != LaneStatus::Faulted) {
            EXPECT_EQ(threaded.status, LaneStatus::Reject)
                << "legacy may out-trap the threaded tier only via its "
                   "eager metadata decode, which the fast path rejects";
            EXPECT_NE(legacy.fault.code, FaultCode::None);
        } else {
            expect_identical(threaded, legacy);
            EXPECT_EQ(threaded.fault.detail, legacy.fault.detail);
        }
        saw_fault |= threaded.status == LaneStatus::Faulted;
    }
    EXPECT_TRUE(saw_fault) << "corpus never trapped: not exercising "
                              "the fault paths at all";
}

TEST(ThreadedCode, WatchdogCutsEveryBackendAtTheSameCycle)
{
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(40);
    const auto plan =
        csv_kernel_spec().make_job(Bytes(text.begin(), text.end()));

    const auto threaded = run_backend(plan, SimBackend::Threaded, 2'000);
    const auto legacy = run_backend(plan, SimBackend::Legacy, 2'000);
    EXPECT_EQ(threaded.status, LaneStatus::TimedOut);
    expect_identical(threaded, legacy);
}

TEST(ThreadedCode, LockstepBitIdenticalAcrossPaths)
{
    // Four lanes under the shared bank arbiter; lane 1 carries a forced
    // trap, which must fire at the first round at or after its cycle
    // with the same trap record on both tiers.
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(20);
    const Bytes data(text.begin(), text.end());
    const auto plan = csv_kernel_spec().make_job(data);

    const auto run_lockstep = [&](SimBackend backend) {
        set_sim_backend(backend);
        Machine m(AddressingMode::Restricted);
        std::vector<JobSpec> jobs(4);
        for (unsigned i = 0; i < 4; ++i) {
            jobs[i].program = plan.program.get();
            jobs[i].input = plan.input;
            jobs[i].window_base =
                static_cast<ByteAddr>(i) * plan.window_bytes;
            jobs[i].init_regs = plan.init_regs;
        }
        jobs[1].trap_cycle = 100;
        m.assign(std::move(jobs));
        return m.run_lockstep();
    };

    const MachineResult threaded = run_lockstep(SimBackend::Threaded);
    const MachineResult legacy = run_lockstep(SimBackend::Legacy);
    EXPECT_EQ(threaded.wall_cycles, legacy.wall_cycles);
    EXPECT_EQ(threaded.total, legacy.total);
    EXPECT_EQ(threaded.status, legacy.status);
    EXPECT_EQ(threaded.status.at(1), LaneStatus::Faulted);
    EXPECT_EQ(threaded.status.at(0), LaneStatus::Done);
    const LaneFault &tf = threaded.faults.at(1);
    const LaneFault &lf = legacy.faults.at(1);
    EXPECT_EQ(tf.code, FaultCode::ForcedTrap);
    EXPECT_GE(tf.cycle, 100u);
    EXPECT_EQ(tf.code, lf.code);
    EXPECT_EQ(tf.cycle, lf.cycle);
    EXPECT_EQ(tf.state_base, lf.state_base);
    EXPECT_EQ(tf.detail, lf.detail);
    EXPECT_GT(threaded.total.stall_cycles, 0u)
        << "lockstep arbitration should see bank conflicts here";
}

TEST(ThreadedCode, FaultCodesAgreeAcrossPaths)
{
    // A corrupt word on the *taken* path must trap with the same
    // terminal status and FaultCode on both interpreter tiers
    // (docs/ROBUSTNESS.md).  Stats at the trap point may differ (the
    // reference decodes eagerly, the threaded tier faults at fetch), so
    // parity is status + code level.
    BackendGuard guard;
    const auto make = [] {
        ProgramBuilder b;
        const StateId s = b.add_state();
        b.on_symbol(s, 'a', s,
                    b.add_block({act_imm(Opcode::Addi, 1, 1, 1)}));
        b.set_entry(s);
        return b.build();
    };

    struct Case {
        const char *name;
        Program prog;
        FaultCode expect;
    };
    std::vector<Case> cases;
    { // Reserved transition type on the arc the input drives into.
        Program p = make();
        p.dispatch[p.entry + 'a'] = Word{7u} << 8;
        cases.push_back({"poisoned dispatch", std::move(p),
                         FaultCode::BadDispatch});
    }
    { // Undefined opcode in the taken arc's action block.
        Program p = make();
        const Transition t = decode_transition(p.dispatch[p.entry + 'a']);
        const std::size_t addr =
            t.attach_mode == AttachMode::Direct
                ? std::size_t{t.attach}
                : std::size_t{p.init_action_base} +
                      (std::size_t{t.attach} << p.init_action_scale);
        p.actions.at(addr) = Word{0x7Fu} << 25;
        cases.push_back({"poisoned actions", std::move(p),
                         FaultCode::BadAction});
    }

    const Bytes input(8, 'a');
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        for (const SimBackend backend :
             {SimBackend::Threaded, SimBackend::Legacy}) {
            SCOPED_TRACE(sim_backend_name(backend));
            set_sim_backend(backend);
            LocalMemory mem;
            Lane lane(0, mem);
            lane.load(c.prog);
            lane.set_input(input);
            EXPECT_EQ(lane.run(), LaneStatus::Faulted);
            EXPECT_EQ(lane.fault().code, c.expect);
        }
    }
}

TEST(ThreadedCode, SharedCacheReturnsOneImagePerProgramContent)
{
    const Program prog = csv_parser_program();
    const auto a = shared_compiled(prog);
    const auto b = shared_compiled(prog);
    EXPECT_EQ(a.get(), b.get());

    // A content-identical copy maps to the same image; the cache is
    // keyed by fingerprint, not address.
    const Program copy = prog;
    EXPECT_EQ(shared_compiled(copy).get(), a.get());
    EXPECT_EQ(a->fingerprint(), program_fingerprint(copy));

    // The compiled image owns the IR NFA mode walks, so lanes running
    // the same content share one IR too.
    EXPECT_EQ(&shared_compiled(copy)->decoded(), &a->decoded());

    // Mutated content gets its own image.
    Program other = prog;
    other.dispatch[other.entry] ^= 1u;
    EXPECT_NE(shared_compiled(other).get(), a.get());
}

TEST(ThreadedCode, FingerprintSeesEverySingleWordEdit)
{
    // The shared image cache is keyed by program_fingerprint, and lanes
    // trust a carried image, so every one-word edit — a FaultInjector
    // bit flip, one appended word, a moved entry — must change the
    // fingerprint, or the edited program would run the old image.
    const auto cpats = workloads::nids_patterns(8, true);
    const auto nfa = pattern_group_specs(cpats, FaModel::Nfa, 2);
    ASSERT_TRUE(nfa[0].nfa_mode);
    for (const Program &base : {csv_parser_program(), *nfa[0].program}) {
        const std::uint64_t fp = program_fingerprint(base);
        Program p = base;
        std::size_t edits = 0, unchanged = 0;
        const auto check_edit = [&] {
            ++edits;
            unchanged += program_fingerprint(p) == fp;
        };
        for (std::vector<Word> *ws : {&p.dispatch, &p.actions})
            for (Word &w : *ws)
                for (unsigned b = 0; b < 32; ++b) {
                    w ^= Word{1} << b;
                    check_edit();
                    w ^= Word{1} << b;
                }
        EXPECT_EQ(program_fingerprint(p), fp); // every flip undone
        EXPECT_EQ(edits, 32 * (base.dispatch.size() + base.actions.size()));

        p.dispatch.push_back(0);
        check_edit();
        p.dispatch.pop_back();
        p.actions.push_back(0);
        check_edit();
        p.actions.pop_back();
        ASSERT_GT(p.states.size(), 1u);
        p.entry = p.states[0].base == base.entry ? p.states[1].base
                                                 : p.states[0].base;
        check_edit();
        EXPECT_EQ(unchanged, 0u) << "of " << edits << " edits";
    }
}

TEST(ThreadedCode, StalePlanImageIsRejected)
{
    // A plan whose program was swapped without resolve_image() still
    // carries the old program's image.  Lanes no longer hash a program
    // they are handed an image for, so Lane::load's shape check must
    // reject the stale image on both run paths instead of running the
    // old code.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    const auto pats = workloads::nids_patterns(16, false);
    const Bytes payload = workloads::packet_payloads(4 * 1024, pats);
    const auto specs = pattern_group_specs(pats, FaModel::Adfa, 2);
    ASSERT_EQ(specs.size(), 2u);

    runtime::JobPlan plan = specs[0].make_job(payload);
    plan.program = specs[1].program; // swapped; image not re-resolved
    ASSERT_NE(plan.compiled, nullptr);
    ASSERT_FALSE(plan.compiled->shape_matches(*plan.program));

    Machine m(AddressingMode::Restricted);
    EXPECT_THROW(runtime::run_job_on(m, 0, 0, plan), UdpError);
    runtime::Scheduler sched;
    EXPECT_THROW(sched.run({plan}), UdpError);

    // Re-resolved, the plan runs the new program on both paths.
    plan.resolve_image();
    const auto fresh = run_backend(specs[1].make_job(payload),
                                   SimBackend::Threaded);
    EXPECT_EQ(fresh.status, LaneStatus::Done);
    expect_identical(fresh, runtime::run_job_on(m, 0, 0, plan));
    expect_identical(fresh, sched.run({plan}).jobs.at(0));
}

TEST(ThreadedCode, CarriedImageIsInvisibleOnEveryRunPath)
{
    // The Scheduler hands each lane the plan's image (JobSpec::compiled)
    // instead of hashing the program again.  For every kernel, a plan
    // with its image, the same plan with the image cleared (the lane
    // looks it up in the shared cache) and a lone run_job_on lane must
    // agree on the full record, on a serial and an 8-thread Scheduler.
    // Plans resolved under one backend must also run unchanged under
    // the other: a legacy plan carries no image, and a legacy lane
    // drops a threaded plan's image.
    BackendGuard guard;
    set_sim_backend(SimBackend::Legacy);
    const auto legacy_made = kernel_plans();
    set_sim_backend(SimBackend::Threaded);
    const auto plans = kernel_plans();
    ASSERT_EQ(plans.size(), legacy_made.size());
    constexpr std::size_t kCopies = 4;
    constexpr std::uint64_t kNoCap = ~std::uint64_t{0};
    for (std::size_t k = 0; k < plans.size(); ++k) {
        const auto &[name, plan] = plans[k];
        SCOPED_TRACE(name);
        ASSERT_NE(plan.compiled, nullptr);
        const auto lone = run_backend(plan, SimBackend::Threaded);
        EXPECT_EQ(lone.status, LaneStatus::Done);

        runtime::JobPlan bare = plan;
        bare.compiled = nullptr;
        for (const unsigned threads : {1u, 8u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            const auto carried =
                run_scheduled(plan, kNoCap, threads, kCopies);
            const auto looked_up =
                run_scheduled(bare, kNoCap, threads, kCopies);
            ASSERT_EQ(carried.size(), kCopies);
            ASSERT_EQ(looked_up.size(), kCopies);
            for (std::size_t i = 0; i < kCopies; ++i) {
                SCOPED_TRACE(i);
                expect_identical(lone, carried[i]);
                expect_identical(lone, looked_up[i]);
            }
        }

        const runtime::JobPlan &legacy = legacy_made[k].second;
        ASSERT_EQ(legacy_made[k].first, name);
        EXPECT_EQ(legacy.compiled, nullptr);
        ASSERT_EQ(program_fingerprint(*legacy.program),
                  program_fingerprint(*plan.program));
        expect_identical(lone, run_backend(legacy, SimBackend::Threaded));
        expect_identical(lone, run_scheduled(legacy, kNoCap, 1, 1).at(0));
        set_sim_backend(SimBackend::Legacy);
        expect_identical(lone, run_scheduled(plan, kNoCap, 1, 1).at(0));
        set_sim_backend(SimBackend::Threaded);
    }
}

TEST(ThreadedCode, WavesAndLanesShareOneCompiledImage)
{
    // Every lane the scheduler stages a chunk on must bind the exact
    // same CompiledProgram instance (resolved once in make_job).
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    const std::string text = workloads::crimes_csv(80);
    const Bytes data(text.begin(), text.end());
    const auto jobs = runtime::chunk_jobs(
        csv_kernel_spec(), data, 1024, runtime::align_after_delim('\n'));
    ASSERT_GT(jobs.size(), 1u);
    const auto *first = jobs[0].compiled.get();
    ASSERT_NE(first, nullptr);
    for (const auto &j : jobs)
        EXPECT_EQ(j.compiled.get(), first);
    EXPECT_EQ(first, shared_compiled(*jobs[0].program).get());
}

TEST(ThreadedCode, JobsOfAnOwnedSpecShareOneImage)
{
    // A spec that owns its program resolves the image on its first
    // make_job and hands every later job (and every copy of the spec)
    // that same image without a cache lookup: it stays even after the
    // shared cache has dropped it.  Reassigning the spec's program
    // resolves the new one.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    const auto pats = workloads::nids_patterns(16, false);
    const Bytes payload = workloads::packet_payloads(2 * 1024, pats);
    const auto specs = pattern_group_specs(pats, FaModel::Adfa, 2);
    ASSERT_EQ(specs.size(), 2u);
    runtime::KernelSpec spec = specs[0];
    ASSERT_NE(spec.program.use_count(), 0);

    const runtime::JobPlan first = spec.make_job(payload);
    ASSERT_NE(first.compiled, nullptr);
    // Flood the shared cache past its bound: it drops every entry.
    Program filler = *specs[1].program;
    for (int i = 0; i < 130; ++i) {
        filler.actions.push_back(
            encode_action(act_imm(Opcode::Addi, 1, 1, i, true)));
        shared_compiled(filler);
    }
    ASSERT_NE(shared_compiled(*spec.program), first.compiled);

    const runtime::JobPlan second = spec.make_job(payload);
    EXPECT_EQ(second.compiled, first.compiled);
    const runtime::KernelSpec copy = spec;
    EXPECT_EQ(copy.make_job(payload).compiled, first.compiled);
    expect_identical(run_backend(first, SimBackend::Legacy),
                     run_backend(second, SimBackend::Threaded));

    spec.program = specs[1].program;
    const runtime::JobPlan swapped = spec.make_job(payload);
    ASSERT_NE(swapped.compiled, nullptr);
    EXPECT_NE(swapped.compiled, first.compiled);
    EXPECT_TRUE(swapped.compiled->shape_matches(*specs[1].program));
    EXPECT_EQ(swapped.compiled->fingerprint(),
              program_fingerprint(*specs[1].program));
    expect_identical(run_backend(swapped, SimBackend::Legacy),
                     run_backend(swapped, SimBackend::Threaded));

    // Under the reference backend a spec hands out no image.
    set_sim_backend(SimBackend::Legacy);
    EXPECT_EQ(spec.make_job(payload).compiled, nullptr);
}

TEST(ThreadedCode, BorrowedProgramIsResolvedPerJob)
{
    // A borrowed program's owner may change it in place between
    // make_job calls, so each job resolves the image of what the
    // program holds then.  A plan made before the swap keeps the old
    // image, which the shape guard rejects.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    const auto pats = workloads::nids_patterns(16, false);
    const Bytes payload = workloads::packet_payloads(2 * 1024, pats);
    const auto specs = pattern_group_specs(pats, FaModel::Adfa, 2);
    ASSERT_EQ(specs.size(), 2u);

    Program prog = *specs[0].program;
    runtime::KernelSpec spec = specs[0];
    spec.program = runtime::borrow_program(prog);
    const runtime::JobPlan before = spec.make_job(payload);
    ASSERT_NE(before.compiled, nullptr);
    EXPECT_EQ(before.compiled->fingerprint(), program_fingerprint(prog));

    prog = *specs[1].program; // swapped in place
    const runtime::JobPlan after = spec.make_job(payload);
    ASSERT_NE(after.compiled, nullptr);
    EXPECT_NE(after.compiled, before.compiled);
    EXPECT_EQ(after.compiled->fingerprint(), program_fingerprint(prog));
    expect_identical(run_backend(after, SimBackend::Legacy),
                     run_backend(after, SimBackend::Threaded));

    ASSERT_FALSE(before.compiled->shape_matches(prog));
    Machine m(AddressingMode::Restricted);
    EXPECT_THROW(runtime::run_job_on(m, 0, 0, before), UdpError);
}

TEST(ThreadedCode, ToggleControlsEveryRunEntryPoint)
{
    // load/run/run_steps/run_lockstep must all honor set_sim_backend
    // consistently — no entry may silently run a different tier than
    // the toggle selects.
    BackendGuard guard;
    const Program prog = csv_parser_program();
    const std::string text = workloads::crimes_csv(5);
    const Bytes input(text.begin(), text.end());

    LocalMemory mem;
    Lane lane(0, mem);

    set_sim_backend(SimBackend::Legacy);
    lane.load(prog);
    EXPECT_EQ(lane.compiled(), nullptr);
    EXPECT_EQ(sim_backend(), SimBackend::Legacy);

    set_sim_backend(SimBackend::Threaded);
    lane.load(prog);
    EXPECT_NE(lane.compiled(), nullptr);
    EXPECT_EQ(sim_backend(), SimBackend::Threaded);

    // Each entry point, each backend: identical architectural outcome.
    struct Outcome {
        LaneStats stats;
        Bytes output;
    };
    const auto run_entry = [&](SimBackend backend, int entry) {
        set_sim_backend(backend);
        LocalMemory lm;
        Lane ln(0, lm);
        ln.load(prog);
        ln.set_input(input);
        EXPECT_EQ(ln.compiled() != nullptr,
                  backend == SimBackend::Threaded);
        LaneStatus st = LaneStatus::Running;
        switch (entry) {
        case 0:
            st = ln.run();
            break;
        case 1:
            while (st == LaneStatus::Running)
                st = ln.run_steps(7);
            break;
        default:
            while (st == LaneStatus::Running)
                st = ln.run_steps(1);
            break;
        }
        EXPECT_EQ(st, LaneStatus::Done);
        ln.finish_output();
        return Outcome{ln.stats(), ln.output()};
    };

    const Outcome ref = run_entry(SimBackend::Threaded, 0);
    EXPECT_GT(ref.stats.cycles, 0u);
    for (const SimBackend backend :
         {SimBackend::Legacy, SimBackend::Threaded})
        for (int entry = 0; entry < 3; ++entry) {
            SCOPED_TRACE(std::string(sim_backend_name(backend)) +
                         " entry " + std::to_string(entry));
            const Outcome got = run_entry(backend, entry);
            EXPECT_EQ(got.stats, ref.stats);
            EXPECT_EQ(got.output, ref.output);
        }
}

TEST(Predecode, ToggleControlsThePathLanesTake)
{
    BackendGuard guard;
    const Program prog = csv_parser_program();
    LocalMemory mem;
    Lane lane(0, mem);

    set_sim_backend(SimBackend::Threaded);
    lane.load(prog);
    EXPECT_NE(lane.compiled(), nullptr);

    set_sim_backend(SimBackend::Legacy);
    lane.load(prog);
    EXPECT_EQ(lane.compiled(), nullptr);

    // A pre-resolved image is dropped when the toggle says legacy.
    lane.load(prog, shared_compiled(prog));
    EXPECT_EQ(lane.compiled(), nullptr);
}

TEST(ThreadedCode, BackendParserAcceptsOnlyTheTwoTiers)
{
    // UDP_SIM_BACKEND goes through parse_sim_backend: the two tier
    // names round-trip, and anything else — including the removed
    // "predecode" tier — is an error naming the accepted values, never
    // a silent fallback to another tier.
    for (const SimBackend b : {SimBackend::Legacy, SimBackend::Threaded})
        EXPECT_EQ(parse_sim_backend(sim_backend_name(b)), b);
    for (const char *bad : {"predecode", "Threaded", "", "fast"}) {
        SCOPED_TRACE(bad);
        try {
            parse_sim_backend(bad);
            ADD_FAILURE() << "accepted an unknown backend name";
        } catch (const UdpError &e) {
            EXPECT_NE(std::string(e.what()).find("legacy|threaded"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ThreadedCode, DisassembleCompiledListsStatesArcsAndOps)
{
    const auto cp = shared_compiled(csv_parser_program());
    const std::string text = disassemble_compiled(*cp);
    // Eyeballable next to disassemble_state output: state headers with
    // full word addresses, per-symbol arc lines, and the op stream.
    EXPECT_NE(text.find("state @0x"), std::string::npos);
    EXPECT_NE(text.find("miss:"), std::string::npos);
    EXPECT_NE(text.find("ops:"), std::string::npos);
    EXPECT_NE(text.find("take -> @0x"), std::string::npos);
    EXPECT_NE(text.find("<trap: fetch out of range>"), std::string::npos);
    EXPECT_GT(cp->op_count(), 0u);
    EXPECT_GT(cp->num_states(), 0u);
}

} // namespace
