/**
 * @file
 * Differential slice for the threaded tier's packed dispatch table and
 * its byte-run loops (ArcWord, ThreadedEngine::run_steps_body and
 * ThreadedEngine::nfa_run, core/threaded_program.hpp) against the
 * reference interpreter.
 *
 * DFA programs come from a seeded (splitmix64) builder generator that
 * mixes every arc kind the packed table distinguishes: plain labeled
 * arcs, majority/default miss arcs, common arcs, refill arcs (non-byte
 * push-backs leave an 8-bit stream unaligned), arcs with action chains,
 * rejects, and, patched into the built image, undecodable slots and
 * arcs into unknown states.  Some states dispatch from r0 instead of
 * the stream, and some chains change the symbol width or move the
 * stream by a few bits.  Each program runs on random streams through
 * the reference interpreter and the threaded tier via Lane::run,
 * run_steps in random chunk sizes (compared after every chunk),
 * run_lockstep, and a serial and an 8-thread Scheduler; random watchdog
 * budgets and forced-trap cycles cut runs inside byte runs.  NFA
 * programs run with a warm transition memo under random cuts, on
 * aligned and on unaligned streams.  Every run must agree on status,
 * the full LaneStats, registers, output, accepts and the trap record.
 * This file runs under the CI sanitizer jobs.
 */
#include "assembler/builder.hpp"
#include "automata/compile.hpp"
#include "core/decoded_program.hpp"
#include "core/machine.hpp"
#include "core/threaded_program.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace udp;

/// splitmix64: tiny, seedable, identical on every platform.
struct SplitMix {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }
    bool chance(unsigned pct) { return below(100) < pct; }
};

/// Restore the process default (Threaded) when a test exits early.
struct BackendGuard {
    ~BackendGuard() { set_sim_backend(SimBackend::Threaded); }
};

/// Everything observable from one run.
struct Outcome {
    LaneStatus status = LaneStatus::Running;
    LaneStats stats;
    std::vector<std::pair<std::uint64_t, Word>> accepts;
    std::array<Word, kNumScalarRegs> regs{};
    Bytes output;
    FaultCode code = FaultCode::None;
    Cycles fault_cycle = 0;
    std::uint32_t fault_state = 0;
    std::string detail;
};

Outcome
outcome_of(LaneStatus st, const LaneStats &stats,
           const std::vector<AcceptEvent> &accepts,
           const std::array<Word, kNumScalarRegs> &regs, const Bytes &out,
           const LaneFault &f)
{
    Outcome o;
    o.status = st;
    o.stats = stats;
    for (const AcceptEvent &a : accepts)
        o.accepts.emplace_back(a.stream_bit_pos, a.id);
    o.regs = regs;
    o.output = out;
    o.code = f.code;
    o.fault_cycle = f.cycle;
    o.fault_state = f.state_base;
    o.detail = f.detail;
    return o;
}

Outcome
outcome_of(Lane &ln, LaneStatus st)
{
    ln.finish_output();
    std::array<Word, kNumScalarRegs> regs{};
    for (unsigned r = 0; r < kNumScalarRegs; ++r)
        regs[r] = ln.reg(r);
    return outcome_of(st, ln.stats(), ln.accepts(), regs, ln.output(),
                      ln.fault());
}

Outcome
outcome_of(const runtime::JobResult &r)
{
    return outcome_of(r.status, r.stats, r.accepts, r.regs, r.output,
                      r.fault);
}

void
expect_same(const Outcome &want, const Outcome &got)
{
    EXPECT_EQ(want.status, got.status);
    EXPECT_EQ(want.stats, got.stats);
    EXPECT_EQ(want.accepts, got.accepts);
    EXPECT_EQ(want.regs, got.regs);
    EXPECT_EQ(want.output, got.output);
    EXPECT_EQ(want.code, got.code);
    EXPECT_EQ(want.fault_cycle, got.fault_cycle);
    EXPECT_EQ(want.fault_state, got.fault_state);
    EXPECT_EQ(want.detail, got.detail);
}

/// Steps a chunked drive takes at most: register-sourced states and
/// stream-moving chains can loop without reaching the end of the stream.
constexpr std::uint64_t kMaxChunkedSteps = 100'000;

/// How one run is driven: `chunks` empty runs Lane::run(max_cycles) (or
/// run_nfa); otherwise run_steps with these chunk sizes, cycled, for at
/// most kMaxChunkedSteps steps.  The default budget stops such loops.
struct Drive {
    std::uint64_t max_cycles = 200'000;
    Cycles trap = 0;
    std::vector<std::uint64_t> chunks;
    bool nfa = false;
};

/// Load `prog` on `ln` under `backend` and drive it over `input`.  With
/// chunks, `trail` (if given) records status and stats after each one.
Outcome
drive(Lane &ln, SimBackend backend, const Program &prog, const Bytes &input,
      const Drive &d,
      std::vector<std::pair<LaneStatus, LaneStats>> *trail = nullptr)
{
    BackendGuard guard;
    set_sim_backend(backend);
    ln.load(prog);
    EXPECT_EQ(ln.compiled() != nullptr, backend == SimBackend::Threaded);
    ln.set_input(input);
    ln.set_forced_trap(d.trap);
    if (d.nfa)
        return outcome_of(ln, ln.run_nfa(d.max_cycles));
    if (d.chunks.empty())
        return outcome_of(ln, ln.run(d.max_cycles));
    LaneStatus st = LaneStatus::Running;
    std::uint64_t steps = 0;
    for (std::size_t i = 0;
         st == LaneStatus::Running && steps < kMaxChunkedSteps; ++i) {
        const std::uint64_t n = d.chunks[i % d.chunks.size()];
        st = ln.run_steps(n);
        steps += n;
        if (trail)
            trail->emplace_back(st, ln.stats());
    }
    return outcome_of(ln, st);
}

Outcome
drive_fresh(SimBackend backend, const Program &prog, const Bytes &input,
            const Drive &d,
            std::vector<std::pair<LaneStatus, LaneStats>> *trail = nullptr)
{
    LocalMemory mem;
    Lane ln(0, mem);
    return drive(ln, backend, prog, input, d, trail);
}

// --- Program sources -------------------------------------------------------

constexpr char kAlphabet[] = "abcdefgh";

Word
random_symbol(SplitMix &rng)
{
    return rng.chance(90) ? static_cast<Word>(kAlphabet[rng.below(8)])
                          : static_cast<Word>(rng.below(256));
}

/// One random action.  Most leave the stream alone; a few move it by
/// non-byte amounts or change the symbol width, which must take the
/// general step.  Local memory is written only at window offsets below
/// 128, so a run's behaviour does not depend on what earlier runs
/// stored anywhere it reads.
Action
random_action(SplitMix &rng)
{
    switch (rng.below(24)) {
      case 0:
        return act_imm(Opcode::Lastsym, 0, 0, 0); // feeds r0 states
      case 1:
        return act_imm(Opcode::Movi, 0, 0,
                       static_cast<std::int32_t>(random_symbol(rng)));
      case 2:
        return act_reg(Opcode::Add, 3, 3, 0);
      case 3:
        return act_imm(Opcode::Outi, 0, 0,
                       static_cast<std::int32_t>('A' + rng.below(26)));
      case 4:
        return act_imm(Opcode::Stb, 1, 4,
                       static_cast<std::int32_t>(rng.below(128)));
      case 5:
        return act_imm(Opcode::Read, 5, 0,
                       static_cast<std::int32_t>(1 + rng.below(8)));
      case 6:
        return act_imm(Opcode::Peek, 6, 0, 8);
      case 7:
        return act_imm(Opcode::Skip, 0, 0,
                       static_cast<std::int32_t>(1 + rng.below(8)));
      case 8:
        return act_imm(Opcode::Setss, 0, 0, rng.chance(30) ? 4 : 8);
      case 9:
        return act_imm(rng.chance(50) ? Opcode::Halt : Opcode::Fail, 0, 0,
                       0);
      case 10:
        return act_reg(Opcode::Xor, 7, 7, 1);
      case 11:
      case 12:
      case 13:
        return act_imm(Opcode::Addi, 1, 1, 1);
      default:
        return act_imm(Opcode::Accept, 0, 0,
                       static_cast<std::int32_t>(rng.below(8)));
    }
}

/// A random DFA program over kAlphabet (plus stray bytes) with every
/// arc kind of the packed table; see the file comment.
Program
dfa_program(SplitMix &rng)
{
    for (;;) {
        ProgramBuilder b;
        const unsigned n = 2 + rng.below(10);
        std::vector<StateId> stream_states;
        std::vector<bool> reg(n);
        for (unsigned i = 0; i < n; ++i) {
            reg[i] = i != 0 && rng.chance(15);
            b.add_state(reg[i]);
            if (!reg[i])
                stream_states.push_back(static_cast<StateId>(i));
        }
        std::vector<BlockId> blocks;
        for (unsigned k = 2 + rng.below(4); k-- > 0;) {
            std::vector<Action> acts;
            for (unsigned a = 1 + rng.below(3); a-- > 0;)
                acts.push_back(random_action(rng));
            blocks.push_back(b.add_block(std::move(acts)));
        }
        // Chains are rare enough that long plain runs form.
        const auto block = [&] {
            return rng.chance(10) ? blocks[rng.below(
                                        static_cast<unsigned>(blocks.size()))]
                                  : kNoBlock;
        };
        // A register-sourced state consumes nothing, so its arcs lead
        // back to the stream (no loop runs without input).
        StateId from = 0;
        const auto state = [&] {
            return reg[from] ? stream_states[rng.below(static_cast<unsigned>(
                                   stream_states.size()))]
                             : static_cast<StateId>(rng.below(n));
        };
        for (unsigned s = 0; s < n; ++s) {
            from = static_cast<StateId>(s);
            if (rng.chance(10)) {
                b.on_any(s, state(), block());
                continue;
            }
            std::vector<bool> used(256, false);
            for (unsigned k = 4 + rng.below(10); k-- > 0;) {
                const Word sym = random_symbol(rng);
                if (used[sym])
                    continue;
                used[sym] = true;
                if (rng.chance(8))
                    b.on_symbol_refill(s, sym, state(), 1 + rng.below(7),
                                       block());
                else
                    b.on_symbol(s, sym, state(), block());
            }
            switch (rng.below(8)) {
              case 0:
                break; // a miss rejects
              case 1:
              case 2:
              case 3:
                b.on_majority(s, state(), block());
                break;
              default:
                b.on_default(s, state(), block());
                break;
            }
        }
        b.set_entry(0);
        Program prog;
        try {
            prog = b.build();
        } catch (const UdpError &) {
            continue; // layout rejected this shape; draw another
        }
        // Patch labeled slots: an arc into a base that names no state,
        // and an undecodable word.
        std::vector<std::size_t> labeled;
        for (std::size_t w = 0; w < prog.dispatch.size(); ++w)
            if (decode_transition(prog.dispatch[w]).type ==
                TransitionType::Labeled)
                labeled.push_back(w);
        if (!labeled.empty() && rng.chance(30)) {
            Word &w = prog.dispatch[labeled[rng.below(
                static_cast<unsigned>(labeled.size()))]];
            Transition t = decode_transition(w);
            for (;;) {
                t.target = static_cast<DispatchAddr>(rng.below(4096));
                if (!prog.find_state(prog.init_dispatch_base + t.target))
                    break;
            }
            w = encode_transition(t);
        }
        if (!labeled.empty() && rng.chance(30)) {
            Word &w = prog.dispatch[labeled[rng.below(
                static_cast<unsigned>(labeled.size()))]];
            w = (w & ~Word{0xF00}) | (Word{7} << 8);
        }
        return prog;
    }
}

Bytes
random_input(SplitMix &rng, std::size_t len)
{
    Bytes in(len);
    for (auto &c : in)
        c = static_cast<std::uint8_t>(random_symbol(rng));
    return in;
}

std::vector<std::uint64_t>
random_chunks(SplitMix &rng)
{
    std::vector<std::uint64_t> chunks;
    for (unsigned k = 1 + rng.below(6); k-- > 0;)
        chunks.push_back(rng.chance(20) ? 1 + rng.below(4)
                                        : 1 + rng.below(400));
    return chunks;
}

/// Run `d` on both tiers and compare; with chunks, also after each one.
void
check_drive(const Program &prog, const Bytes &in, const Drive &d)
{
    std::vector<std::pair<LaneStatus, LaneStats>> want_trail, got_trail;
    const Outcome want =
        drive_fresh(SimBackend::Legacy, prog, in, d, &want_trail);
    expect_same(want, drive_fresh(SimBackend::Threaded, prog, in, d,
                                  &got_trail));
    ASSERT_EQ(want_trail.size(), got_trail.size());
    for (std::size_t i = 0; i < want_trail.size(); ++i) {
        SCOPED_TRACE("after chunk " + std::to_string(i));
        EXPECT_EQ(want_trail[i].first, got_trail[i].first);
        EXPECT_EQ(want_trail[i].second, got_trail[i].second);
    }
}

// --- DFA -------------------------------------------------------------------

TEST(ByteRun, PackedTableMatchesTheReferenceOnLaneRunAndChunks)
{
    SplitMix rng{0xB17E0001};
    std::size_t faults = 0, rejects = 0, done = 0;
    for (int k = 0; k < 150; ++k) {
        SCOPED_TRACE("program " + std::to_string(k));
        const Program prog = dfa_program(rng);
        for (int r = 0; r < 4; ++r) {
            SCOPED_TRACE("input " + std::to_string(r));
            const Bytes in = random_input(rng, 1 + rng.below(600));
            const Outcome want =
                drive_fresh(SimBackend::Legacy, prog, in, Drive{});
            faults += want.code != FaultCode::None;
            rejects += want.status == LaneStatus::Reject;
            done += want.status == LaneStatus::Done;
            expect_same(want,
                        drive_fresh(SimBackend::Threaded, prog, in, Drive{}));
            Drive chunked;
            chunked.chunks = random_chunks(rng);
            check_drive(prog, in, chunked);
        }
    }
    // The generator reaches every ending.
    EXPECT_GT(faults, 0u);
    EXPECT_GT(rejects, 0u);
    EXPECT_GT(done, 0u);
}

TEST(ByteRun, WatchdogAndForcedTrapCutsInsideByteRuns)
{
    SplitMix rng{0xB17E0002};
    for (int k = 0; k < 100; ++k) {
        SCOPED_TRACE("program " + std::to_string(k));
        const Program prog = dfa_program(rng);
        const Bytes in = random_input(rng, 200 + rng.below(800));
        const Outcome full =
            drive_fresh(SimBackend::Legacy, prog, in, Drive{});
        const auto span = static_cast<unsigned>(full.stats.cycles + 2);
        for (int c = 0; c < 6; ++c) {
            Drive d;
            if (c % 2)
                d.trap = 1 + rng.below(span);
            else
                d.max_cycles = rng.below(span);
            if (c >= 2)
                d.chunks = random_chunks(rng);
            SCOPED_TRACE("max_cycles " + std::to_string(d.max_cycles) +
                         ", trap " + std::to_string(d.trap) + ", " +
                         std::to_string(d.chunks.size()) + " chunk sizes");
            check_drive(prog, in, d);
        }
    }
}

TEST(ByteRun, NonByteRefillsLeaveTheStreamUnalignedAndExact)
{
    // A refill of 3 bits on every 'a' shifts the 8-bit stream off byte
    // alignment; 'b' refills 5 more, which realigns it.  Byte runs must
    // stop at the first and may resume only after the second.
    ProgramBuilder b;
    const StateId s = b.add_state();
    const StateId t = b.add_state();
    const BlockId acc = b.add_block({act_imm(Opcode::Accept, 0, 0, 1)});
    for (const char c : {'c', 'd', 'e', 'f', 'g', 'h'}) {
        b.on_symbol(s, static_cast<Word>(c), s);
        b.on_symbol(t, static_cast<Word>(c), t);
    }
    b.on_symbol_refill(s, 'a', t, 3);
    b.on_symbol_refill(t, 'b', s, 5, acc);
    b.on_default(t, t);
    b.on_majority(s, s);
    b.set_entry(s);
    const Program prog = b.build();

    SplitMix rng{0xB17E0003};
    for (int k = 0; k < 30; ++k) {
        SCOPED_TRACE("input " + std::to_string(k));
        const Bytes in = random_input(rng, 1 + rng.below(900));
        const Outcome want =
            drive_fresh(SimBackend::Legacy, prog, in, Drive{});
        expect_same(want,
                    drive_fresh(SimBackend::Threaded, prog, in, Drive{}));
        Drive d;
        d.chunks = random_chunks(rng);
        check_drive(prog, in, d);
    }
}

TEST(ByteRun, LockstepAndSchedulersMatchTheReference)
{
    SplitMix rng{0xB17E0004};
    for (int k = 0; k < 16; ++k) {
        SCOPED_TRACE("program " + std::to_string(k));
        const auto prog = std::make_shared<const Program>(dfa_program(rng));
        std::vector<Bytes> inputs;
        for (int i = 0; i < 4; ++i)
            inputs.push_back(random_input(rng, 1 + rng.below(500)));

        // run_lockstep: four lanes, one with a forced trap.
        const auto lockstep = [&](SimBackend backend) {
            BackendGuard guard;
            set_sim_backend(backend);
            Machine m(AddressingMode::Restricted);
            std::vector<JobSpec> jobs(inputs.size());
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                jobs[i].program = prog.get();
                jobs[i].input = inputs[i];
                jobs[i].window_base = static_cast<ByteAddr>(i) * kBankBytes;
            }
            jobs[1].trap_cycle = 1 + rng.below(400);
            m.assign(std::move(jobs));
            const MachineResult res = m.run_lockstep();
            std::vector<Outcome> lanes;
            for (std::size_t i = 0; i < inputs.size(); ++i)
                lanes.push_back(outcome_of(m.lane(static_cast<unsigned>(i)),
                                           res.status.at(i)));
            return std::make_pair(res, lanes);
        };
        const std::uint64_t seed = rng.s;
        const auto [want_res, want_lanes] = lockstep(SimBackend::Legacy);
        rng.s = seed; // the same trap cycle
        const auto [got_res, got_lanes] = lockstep(SimBackend::Threaded);
        EXPECT_EQ(want_res.wall_cycles, got_res.wall_cycles);
        EXPECT_EQ(want_res.total, got_res.total);
        EXPECT_EQ(want_res.status, got_res.status);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            SCOPED_TRACE("lockstep lane " + std::to_string(i));
            expect_same(want_lanes[i], got_lanes[i]);
        }

        // Schedulers: the plans of one owned-program spec.
        std::vector<Outcome> want;
        for (const Bytes &in : inputs)
            want.push_back(drive_fresh(SimBackend::Legacy, *prog, in,
                                       Drive{}));
        runtime::KernelSpec spec;
        spec.name = "dfa";
        spec.program = prog;
        std::vector<runtime::JobPlan> plans;
        for (const Bytes &in : inputs)
            plans.push_back(spec.make_job(in));
        for (const unsigned threads : {1u, 8u}) {
            runtime::SchedulerOptions opts;
            opts.threads = threads;
            runtime::Scheduler sched(opts);
            SCOPED_TRACE("scheduler, " + std::to_string(threads) +
                         " threads");
            const auto rep = sched.run(plans);
            ASSERT_EQ(rep.jobs.size(), inputs.size());
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                SCOPED_TRACE("job " + std::to_string(i));
                expect_same(want[i], outcome_of(rep.jobs[i]));
            }
        }
    }
}

TEST(ByteRun, EveryWordExpandsToTheArcItPacks)
{
    // A plain word is exactly a Take with no action or refill into a
    // known stream-source state; every other arc is a slow word.
    SplitMix rng{0xB17E0005};
    std::size_t plain = 0, slow = 0;
    for (int k = 0; k < 40; ++k) {
        const Program prog = dfa_program(rng);
        const CompiledProgram cp(prog, nullptr);
        for (std::size_t ix = 0; ix < cp.num_rows(); ++ix) {
            const CompiledState &cs = cp.state(ix);
            if (cp.state_index(cs.base) != static_cast<std::int32_t>(ix))
                continue;
            if (!cs.reg_source) {
                EXPECT_GE(cs.row_len, 256u);
            }
            const std::uint32_t *row =
                cp.words() + (ix << CompiledProgram::kRowShift);
            for (std::uint32_t sym = 0; sym <= cs.row_len; ++sym) {
                const std::uint32_t w = sym < cs.row_len ? row[sym] : cs.over;
                const ResolvedArc a = cp.arc(w);
                if (ArcWord::slow(w)) {
                    ++slow;
                    const bool qualifies =
                        a.kind == ResolvedArc::Take && !a.has_act &&
                        a.refill_bits == 0 && a.next_state >= 0 &&
                        !cp.state(static_cast<std::size_t>(a.next_state))
                             .reg_source;
                    EXPECT_FALSE(qualifies) << "sym " << sym;
                    continue;
                }
                ++plain;
                ASSERT_GE(a.next_state, 0);
                const CompiledState &to =
                    cp.state(static_cast<std::size_t>(a.next_state));
                EXPECT_EQ(cp.state_index(to.base), a.next_state);
                EXPECT_EQ(to.reg_source, 0u);
                EXPECT_EQ(a.next_full, to.base);
            }
        }
    }
    EXPECT_GT(plain, 0u);
    EXPECT_GT(slow, 0u);
}

// --- NFA -------------------------------------------------------------------

/// A regex set over kAlphabet's first letters, compiled for run_nfa:
/// its steps fire chains only on accepting arcs.
Program
regex_program(SplitMix &rng)
{
    static const char *const kAtoms[] = {"a", "b", "[a-c]", "[^d]", "c",
                                         "(ab|cd)", "(a|b)*", "d+"};
    for (;;) {
        std::vector<std::unique_ptr<RegexNode>> asts;
        std::vector<const RegexNode *> ptrs;
        for (unsigned i = 1 + rng.below(4); i-- > 0;) {
            std::string re;
            for (unsigned k = 2 + rng.below(4); k-- > 0;)
                re += kAtoms[rng.below(8)];
            asts.push_back(parse_regex(re));
            ptrs.push_back(asts.back().get());
        }
        try {
            return compile_nfa(eliminate_epsilon(build_multi_nfa(ptrs)));
        } catch (const UdpError &) {
            // Past one dispatch window; draw another.
        }
    }
}

TEST(ByteRun, NfaMemoRunsCutMidRunMatchTheReference)
{
    SplitMix rng{0xB17E0006};
    for (int k = 0; k < 30; ++k) {
        SCOPED_TRACE("program " + std::to_string(k));
        Program prog = regex_program(rng);
        // Half the programs read 3 bits on the entry's accepting
        // chains, so the 8-bit stream goes unaligned mid-run.
        if (k % 2) {
            for (Word &w : prog.actions) {
                Action a = decode_action(w);
                if (a.op == Opcode::Accept && a.last) {
                    a.op = Opcode::Read;
                    a.dst = 5;
                    a.imm = 3;
                    w = encode_action(a);
                    break;
                }
            }
        }
        const Bytes in = random_input(rng, 300 + rng.below(900));
        Drive d;
        d.nfa = true;
        const Outcome full = drive_fresh(SimBackend::Legacy, prog, in, d);
        const auto span = static_cast<unsigned>(full.stats.cycles + 2);

        LocalMemory mem;
        Lane warm(0, mem);
        expect_same(full, drive(warm, SimBackend::Threaded, prog, in, d));
        ASSERT_NE(warm.nfa_memo(), nullptr);
        for (int c = 0; c < 8; ++c) {
            Drive cut = d;
            if (c % 2)
                cut.trap = 1 + rng.below(span);
            else
                cut.max_cycles = rng.below(span);
            SCOPED_TRACE("max_cycles " + std::to_string(cut.max_cycles) +
                         ", trap " + std::to_string(cut.trap));
            const Outcome want =
                drive_fresh(SimBackend::Legacy, prog, in, cut);
            expect_same(want, drive(warm, SimBackend::Threaded, prog, in,
                                    cut));
            expect_same(want,
                        drive_fresh(SimBackend::Threaded, prog, in, cut));
        }
    }
}

} // namespace
