/**
 * @file
 * Threaded-code tier equivalence properties (docs/PERFORMANCE.md).
 *
 * The threaded-code tier over a shared `CompiledProgram` must be
 * observationally identical to the reference interpreter for every
 * kernel in src/kernels, in DFA and NFA mode: bit-identical
 * `LaneStats`, registers, outputs, accepts, and memory extracts.  Only
 * host time may differ.
 *
 * Fault behaviour is pinned against the FaultInjector corpus: the
 * threaded tier's single-lane engine, its LaneBlock batch runner and
 * the reference interpreter must agree on the *full* trap record (stats
 * at the trap cycle included).  The one allowed divergence: the
 * reference decodes eagerly, so it may trap on a word the threaded tier
 * never fetches and rejects instead (docs/ROBUSTNESS.md).
 *
 * Also pinned here: the resumable `step_once` entry, the
 * `UDP_SIM_BACKEND` toggle and its parser across every run entry point,
 * the content-keyed shared compiled-image cache, and the LaneBlock
 * batch path Machine::run_parallel takes serially.  This file runs
 * under the CI sanitizer jobs.
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

#include <string>
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

/// Run `plan` alone through a serial Scheduler, whose Machine batches
/// the wave's lanes through ThreadedEngine::run_block.
runtime::JobResult
run_block_path(const runtime::JobPlan &plan, std::uint64_t max_cycles)
{
    runtime::SchedulerOptions opts;
    opts.threads = 1;
    opts.max_cycles_per_lane = max_cycles;
    runtime::Scheduler sched(opts);
    return sched.run({plan}).jobs.at(0);
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
        const auto legacy = run_backend(plan, SimBackend::Legacy);
        expect_identical(threaded, legacy);
        // Guard against degenerate plans that would vacuously pass.
        EXPECT_GT(threaded.stats.cycles, 0u) << name;
        EXPECT_EQ(threaded.status, LaneStatus::Done) << name;
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

        Machine m(AddressingMode::Restricted);
        Tracer tracer;
        Profiler prof;
        m.set_tracer(&tracer);
        m.set_profiler(&prof);
        const auto instr = runtime::run_job_on(m, 0, 0, plan);

        EXPECT_EQ(res.stats, instr.stats);
        EXPECT_EQ(res.output, instr.output);
        if (!plan.nfa_mode) {
            EXPECT_GT(tracer.events(0).size(), 0u);
        }
    }
}

TEST(ThreadedCode, StepOnceTracksRunStepsAndLegacy)
{
    // step_once carries the compiled state across calls (resume_cs_);
    // stepping one dispatch at a time must track run_steps(1) exactly,
    // including interleaved use of both entries — and must track the
    // reference interpreter's step_once bit for bit.
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(10);
    const Bytes data(text.begin(), text.end());
    const auto plan = csv_kernel_spec().make_job(data);

    set_sim_backend(SimBackend::Threaded);
    Machine ma(AddressingMode::Restricted);
    Machine mb(AddressingMode::Restricted);
    runtime::stage_job(ma, 0, 0, plan);
    runtime::stage_job(mb, 0, 0, plan);
    Lane &a = ma.lane(0);
    Lane &b = mb.lane(0);
    ASSERT_NE(a.compiled(), nullptr);

    set_sim_backend(SimBackend::Legacy);
    Machine mc(AddressingMode::Restricted);
    runtime::stage_job(mc, 0, 0, plan);
    Lane &c = mc.lane(0);
    ASSERT_EQ(c.compiled(), nullptr);

    LaneStatus sa = LaneStatus::Running;
    std::uint64_t steps = 0;
    while (sa == LaneStatus::Running && steps < 1'000'000) {
        sa = a.step_once();
        // Interleave to exercise the resume cache invalidation.
        const LaneStatus sb =
            (steps % 3 == 0) ? b.run_steps(1) : b.step_once();
        const LaneStatus sc = c.step_once();
        ASSERT_EQ(sa, sb) << "threaded entries diverged at step " << steps;
        ASSERT_EQ(sa, sc) << "backends diverged at step " << steps;
        ASSERT_EQ(a.stats(), b.stats()) << "diverged at step " << steps;
        ASSERT_EQ(a.stats(), c.stats()) << "diverged at step " << steps;
        ++steps;
    }
    EXPECT_NE(sa, LaneStatus::Running);
    EXPECT_EQ(a.output(), b.output());
    EXPECT_EQ(a.output(), c.output());
}

TEST(ThreadedCode, SerialBlockPathMatchesPooledAndLegacy)
{
    // threads == 1 routes whole waves through ThreadedEngine::run_block
    // (the LaneBlock batch path); a thread pool runs per-lane.  Both
    // must agree with each other and with a reference serial run.
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(600);
    const Bytes data(text.begin(), text.end());

    const auto run_with = [&](SimBackend backend, unsigned threads) {
        set_sim_backend(backend);
        const auto jobs = runtime::chunk_jobs(
            csv_kernel_spec(), data, 4 * 1024,
            runtime::align_after_delim('\n'));
        runtime::SchedulerOptions opts;
        opts.threads = threads;
        runtime::Scheduler sched(opts);
        return sched.run(jobs);
    };

    const auto serial = run_with(SimBackend::Threaded, 1);
    const auto pooled = run_with(SimBackend::Threaded, 8);
    const auto reference = run_with(SimBackend::Legacy, 1);
    EXPECT_GT(serial.waves.size(), 0u);
    for (const auto *other : {&pooled, &reference}) {
        EXPECT_EQ(serial.total, other->total);
        EXPECT_EQ(serial.wall_cycles, other->wall_cycles);
        ASSERT_EQ(serial.jobs.size(), other->jobs.size());
        for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
            EXPECT_EQ(serial.jobs[i].stats, other->jobs[i].stats);
            EXPECT_EQ(serial.jobs[i].extracts, other->jobs[i].extracts);
        }
    }
}

TEST(ThreadedCode, FaultCorpusBitIdenticalAcrossFastPaths)
{
    // A deterministic malformed-image corpus: every mutated plan must
    // produce the identical full trap record (stats included) on the
    // threaded tier's two run paths — the single-lane engine behind
    // Lane::run and the LaneBlock batch behind a serial run_parallel —
    // and on the legacy path wherever it does not trap early (below).
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
        const auto block = run_block_path(plan, kBudget);
        const auto legacy =
            run_backend(plan, SimBackend::Legacy, kBudget);
        expect_identical(threaded, block);
        EXPECT_EQ(threaded.fault.detail, block.fault.detail);
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

TEST(ThreadedCode, ToggleControlsEveryRunEntryPoint)
{
    // The satellite fix: load/run/run_steps/step_once/run_lockstep must
    // all honor set_sim_backend consistently — no entry may silently
    // run a different tier than the toggle selects.
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
                st = ln.step_once();
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
