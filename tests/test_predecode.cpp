/**
 * @file
 * Predecoded fast tier vs the decode-per-step reference
 * (docs/PERFORMANCE.md).
 *
 * The threaded tier, which runs programs predecoded and compiled, must
 * be observationally identical to the reference interpreter for every
 * kernel in src/kernels: an *uninstrumented* threaded run matches an
 * instrumented reference run on status, `LaneStats`, registers,
 * outputs, accepts and memory extracts.  A traced or profiled lane runs
 * on the reference interpreter whichever backend is selected, so its
 * trace event stream and profiler aggregates do not depend on the
 * backend either.  Only host time may differ.
 *
 * Also pinned here: the resumable `step_once` entry (lockstep mode),
 * the backend toggle, and the thread-safety of one compiled image (and
 * its DecodedProgram IR) shared across concurrently simulated lanes
 * (this file runs under the CI ThreadSanitizer job).
 */
#include "assembler/builder.hpp"
#include "baselines/dictionary.hpp"
#include "baselines/histogram.hpp"
#include "baselines/huffman.hpp"
#include "baselines/snappy.hpp"
#include "core/decoded_program.hpp"
#include "core/threaded_program.hpp"
#include "core/machine.hpp"
#include "core/profile.hpp"
#include "core/trace.hpp"
#include "kernels/csv.hpp"
#include "kernels/dictionary.hpp"
#include "kernels/histogram.hpp"
#include "kernels/huffman.hpp"
#include "kernels/pattern.hpp"
#include "kernels/snappy.hpp"
#include "kernels/trigger.hpp"
#include "runtime/executor.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

namespace {

using namespace udp;
using namespace udp::kernels;

/// Restore the default tier (Threaded) when a test exits early.
struct BackendGuard {
    ~BackendGuard() { set_sim_backend(SimBackend::Threaded); }
};

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
run_path(const runtime::JobPlan &plan, SimBackend backend)
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

/// Run `plan` bare (no tracer or profiler) on the threaded tier.
runtime::JobResult
run_bare(const runtime::JobPlan &plan)
{
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    Machine m(AddressingMode::Restricted);
    runtime::JobResult res = runtime::run_job_on(m, 0, 0, plan);
    EXPECT_NE(m.lane(0).compiled(), nullptr);
    return res;
}

/// Architectural equality: status, stats, registers, output, extracts
/// and accepts.
void
expect_same_result(const runtime::JobResult &fast,
                   const runtime::JobResult &legacy)
{
    EXPECT_EQ(fast.status, legacy.status);
    EXPECT_EQ(fast.stats, legacy.stats);
    EXPECT_EQ(fast.regs, legacy.regs);
    EXPECT_EQ(fast.output, legacy.output);
    EXPECT_EQ(fast.extracts, legacy.extracts);

    ASSERT_EQ(fast.accepts.size(), legacy.accepts.size());
    for (std::size_t i = 0; i < fast.accepts.size(); ++i) {
        EXPECT_EQ(fast.accepts[i].stream_bit_pos,
                  legacy.accepts[i].stream_bit_pos);
        EXPECT_EQ(fast.accepts[i].id, legacy.accepts[i].id);
    }
}

/// Architectural equality plus identical trace and profile streams.
void
expect_identical(const RunCapture &fast, const RunCapture &legacy)
{
    expect_same_result(fast.res, legacy.res);

    ASSERT_EQ(fast.events.size(), legacy.events.size());
    for (std::size_t i = 0; i < fast.events.size(); ++i) {
        const TraceEvent &a = fast.events[i];
        const TraceEvent &b = legacy.events[i];
        ASSERT_TRUE(a.kind == b.kind && a.cycle == b.cycle &&
                    a.a == b.a && a.b == b.b && a.lane == b.lane)
            << "trace diverges at event " << i;
    }

    EXPECT_EQ(fast.states, legacy.states);
    EXPECT_EQ(fast.actions, legacy.actions);
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

TEST(Predecode, EveryKernelBitIdenticalToLegacyPath)
{
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        const runtime::JobResult fast = run_bare(plan);
        const RunCapture legacy = run_path(plan, SimBackend::Legacy);
        expect_same_result(fast, legacy.res);
        // Instrumented lanes take the reference interpreter under either
        // backend, so the event streams cannot depend on the selection.
        expect_identical(run_path(plan, SimBackend::Threaded), legacy);
        // Guard against degenerate plans that would vacuously pass.
        EXPECT_GT(fast.stats.cycles, 0u) << name;
        EXPECT_GT(legacy.events.size(), 0u) << name;
    }
}

TEST(Predecode, UninstrumentedRunsMatchInstrumentedCounters)
{
    // Routing instrumented lanes to the reference interpreter must not
    // leak into the simulated counters: a bare run charges exactly what
    // a fully instrumented one does.
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        Machine bare(AddressingMode::Restricted);
        const auto res = runtime::run_job_on(bare, 0, 0, plan);
        const RunCapture instr = run_path(plan, SimBackend::Threaded);
        EXPECT_EQ(res.stats, instr.res.stats);
        EXPECT_EQ(res.output, instr.res.output);
    }
}

TEST(Predecode, StepOnceMatchesRunSteps)
{
    // step_once carries the compiled state across calls (resume_cs_);
    // stepping a lane one dispatch at a time must track run_steps(1)
    // exactly, including interleaved use of both entries.
    const std::string text = workloads::crimes_csv(10);
    const Bytes data(text.begin(), text.end());
    const auto plan = csv_kernel_spec().make_job(data);

    Machine ma(AddressingMode::Restricted);
    Machine mb(AddressingMode::Restricted);
    runtime::stage_job(ma, 0, 0, plan);
    runtime::stage_job(mb, 0, 0, plan);
    Lane &a = ma.lane(0);
    Lane &b = mb.lane(0);

    LaneStatus sa = LaneStatus::Running;
    LaneStatus sb = LaneStatus::Running;
    std::uint64_t steps = 0;
    while (sa == LaneStatus::Running && steps < 1'000'000) {
        sa = a.step_once();
        // Interleave to exercise the resume cache invalidation.
        sb = (steps % 3 == 0) ? b.run_steps(1) : b.step_once();
        ASSERT_EQ(sa, sb) << "diverged at step " << steps;
        ASSERT_EQ(a.stats(), b.stats()) << "diverged at step " << steps;
        ++steps;
    }
    EXPECT_NE(sa, LaneStatus::Running);
    EXPECT_EQ(a.output(), b.output());
}

TEST(Predecode, LockstepBitIdenticalAcrossPaths)
{
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
        m.assign(std::move(jobs));
        return m.run_lockstep();
    };

    const MachineResult fast = run_lockstep(SimBackend::Threaded);
    const MachineResult legacy = run_lockstep(SimBackend::Legacy);
    EXPECT_EQ(fast.wall_cycles, legacy.wall_cycles);
    EXPECT_EQ(fast.total, legacy.total);
    EXPECT_EQ(fast.status, legacy.status);
    EXPECT_GT(fast.total.stall_cycles, 0u)
        << "lockstep arbitration should see bank conflicts here";
}

TEST(Predecode, ThreadedWavesShareOneDecodedImage)
{
    // Many lanes simulated by a thread pool, all running the same
    // read-only compiled image and its DecodedProgram IR: TSan (CI)
    // proves the sharing is race-free, and the totals must match a
    // serial run bit for bit.
    const std::string text = workloads::crimes_csv(600);
    const Bytes data(text.begin(), text.end());

    const auto run_with_threads = [&](unsigned threads) {
        const auto jobs = runtime::chunk_jobs(
            csv_kernel_spec(), data, 4 * 1024,
            runtime::align_after_delim('\n'));
        runtime::SchedulerOptions opts;
        opts.threads = threads;
        runtime::Scheduler sched(opts);
        return sched.run(jobs);
    };

    const auto serial = run_with_threads(1);
    const auto pooled = run_with_threads(8);
    EXPECT_GT(serial.waves.size(), 0u);
    EXPECT_EQ(serial.total, pooled.total);
    EXPECT_EQ(serial.wall_cycles, pooled.wall_cycles);
    ASSERT_EQ(serial.jobs.size(), pooled.jobs.size());
    for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
        EXPECT_EQ(serial.jobs[i].stats, pooled.jobs[i].stats);
        EXPECT_EQ(serial.jobs[i].extracts, pooled.jobs[i].extracts);
    }
}

TEST(Predecode, FaultCodesAgreeAcrossPaths)
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

} // namespace
