/**
 * @file
 * Differential slice for the threaded tier's NFA transition memo
 * (NfaMemo, core/threaded_program.hpp) against the reference
 * interpreter's NFA walk (`run_nfa_legacy`).
 *
 * Programs come from two seeded (splitmix64) sources: random regex sets
 * through compile_nfa(eliminate_epsilon(...)), and random builder-made
 * NFA programs with epsilon splits, fallback arcs and action chains
 * (accepts, register arithmetic, output, stores, stream reads).  Each
 * program runs on random inputs through the reference interpreter and
 * the threaded tier with a cold memo, a warm memo on the same lane,
 * after an image swap on that lane, and in a serial and an 8-thread
 * Scheduler.  Every run must agree on status, the full LaneStats,
 * registers, output, accepts (position and id) and the trap record
 * (code, cycle and message).
 *
 * Also covered: random watchdog budgets and forced-trap cycles, a chain
 * that faults only on a replayed step, images that move a window
 * (Setbase into the dispatch window, Setab) or use 16-bit symbols and
 * so must take the plain walk, and a program with more reachable active
 * sets than the memo keeps.  The memo's read-only size accessors show
 * which path ran.  This file runs under the CI sanitizer jobs.
 */
#include "assembler/builder.hpp"
#include "automata/compile.hpp"
#include "core/decoded_program.hpp"
#include "core/machine.hpp"
#include "core/threaded_program.hpp"
#include "runtime/executor.hpp"
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

/// Everything observable from one NFA run.
struct Outcome {
    LaneStatus status = LaneStatus::Running;
    LaneStats stats;
    std::vector<std::pair<std::uint64_t, Word>> accepts;
    std::array<Word, kNumScalarRegs> regs{};
    Bytes output;
    FaultCode code = FaultCode::None;
    Cycles fault_cycle = 0;
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
    o.detail = f.detail;
    return o;
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
    EXPECT_EQ(want.detail, got.detail);
}

/// Run limits of one case: the watchdog budget and forced-trap cycle.
struct Cut {
    std::uint64_t max_cycles = ~std::uint64_t{0};
    Cycles trap = 0;
};

/// Load `prog` on `ln`, run it in NFA mode over `input`, capture.
Outcome
run_lane(Lane &ln, const Program &prog, const Bytes &input, Cut cut = {})
{
    ln.load(prog);
    ln.set_input(input);
    ln.set_forced_trap(cut.trap);
    const LaneStatus st = ln.run_nfa(cut.max_cycles);
    ln.finish_output();
    std::array<Word, kNumScalarRegs> regs{};
    for (unsigned r = 0; r < kNumScalarRegs; ++r)
        regs[r] = ln.reg(r);
    return outcome_of(st, ln.stats(), ln.accepts(), regs, ln.output(),
                      ln.fault());
}

/// The reference interpreter's outcome (a fresh lane under Legacy).
Outcome
run_legacy(const Program &prog, const Bytes &input, Cut cut = {})
{
    BackendGuard guard;
    set_sim_backend(SimBackend::Legacy);
    LocalMemory mem;
    Lane ln(0, mem);
    Outcome o = run_lane(ln, prog, input, cut);
    EXPECT_EQ(ln.compiled(), nullptr);
    return o;
}

Outcome
outcome_of(const runtime::JobResult &r)
{
    return outcome_of(r.status, r.stats, r.accepts, r.regs, r.output,
                      r.fault);
}

// --- Program sources -------------------------------------------------------

constexpr char kAlphabet[] = "abcd";

std::string
random_regex(SplitMix &rng, int depth)
{
    std::string atom;
    switch (rng.below(depth > 0 ? 5 : 3)) {
      case 0:
        atom = "[a-c]";
        break;
      case 1:
        atom = "[^b]";
        break;
      case 2:
        atom = std::string(1, kAlphabet[rng.below(4)]);
        break;
      case 3:
        atom = "(" + random_regex(rng, depth - 1) + "|" +
               random_regex(rng, depth - 1) + ")";
        break;
      default:
        atom = "(" + random_regex(rng, depth - 1) +
               random_regex(rng, depth - 1) + ")";
        break;
    }
    static const char *const kQuant[] = {"", "", "", "*", "+", "?", "{1,3}"};
    return atom + kQuant[rng.below(7)];
}

/// A random regex set compiled for run_nfa, the pattern-kernel way.
Program
regex_program(SplitMix &rng)
{
    for (;;) {
        std::vector<std::unique_ptr<RegexNode>> asts;
        std::vector<const RegexNode *> ptrs;
        const unsigned n = 1 + rng.below(4);
        for (unsigned i = 0; i < n; ++i) {
            std::string re;
            for (unsigned k = 1 + rng.below(3); k-- > 0;)
                re += random_regex(rng, 2);
            asts.push_back(parse_regex(re));
            ptrs.push_back(asts.back().get());
        }
        try {
            return compile_nfa(eliminate_epsilon(build_multi_nfa(ptrs)));
        } catch (const UdpError &) {
            // Past one dispatch window (wide classes); draw another.
        }
    }
}

/// One random action; never reads local memory, so a run's behaviour
/// does not depend on what earlier runs stored.
Action
random_action(SplitMix &rng)
{
    switch (rng.below(9)) {
      case 0:
      case 1:
        return act_imm(Opcode::Accept, 0, 0,
                       static_cast<std::int32_t>(rng.below(8)));
      case 2:
        return act_imm(Opcode::Addi, 1, 1, 1);
      case 3:
        return act_imm(Opcode::Lastsym, 2, 0, 0);
      case 4:
        return act_reg(Opcode::Add, 3, 3, 2);
      case 5:
        return act_imm(Opcode::Outi, 0, 0,
                       static_cast<std::int32_t>('A' + rng.below(26)));
      case 6:
        return act_imm(Opcode::Stb, 1, 4,
                       static_cast<std::int32_t>(rng.below(64)));
      case 7:
        return act_imm(Opcode::Read, 5, 0,
                       static_cast<std::int32_t>(1 + rng.below(4)));
      default:
        return act_reg(Opcode::Xor, 6, 6, 1);
    }
}

/// A random builder-made NFA program: labeled arcs over kAlphabet,
/// default and common fallbacks, epsilon splits, action chains on any
/// arc.  `extra` (if non-empty) is appended to the first block, which an
/// epsilon split out of the entry state fires.
Program
builder_program(SplitMix &rng, std::vector<Action> extra = {})
{
    for (;;) {
        ProgramBuilder b;
        const unsigned n = 2 + rng.below(8);
        for (unsigned i = 0; i < n; ++i)
            b.add_state();
        std::vector<BlockId> blocks;
        for (unsigned k = 2 + rng.below(4); k-- > 0;) {
            std::vector<Action> acts;
            for (unsigned a = 1 + rng.below(3); a-- > 0;)
                acts.push_back(random_action(rng));
            if (!extra.empty() && blocks.empty())
                acts.insert(acts.end(), extra.begin(), extra.end());
            blocks.push_back(b.add_block(std::move(acts)));
        }
        const auto block = [&] {
            return rng.chance(40) ? blocks[rng.below(
                                        static_cast<unsigned>(blocks.size()))]
                                  : kNoBlock;
        };
        const auto state = [&] { return static_cast<StateId>(rng.below(n)); };
        for (unsigned s = 0; s < n; ++s) {
            // A common arc replaces the labeled table: such a state has
            // no labeled arcs.
            if (rng.chance(12)) {
                b.on_any(s, state(), block());
            } else {
                for (unsigned c = 0; c < 4; ++c)
                    if (rng.chance(55))
                        b.on_symbol(s, static_cast<Word>(kAlphabet[c]),
                                    state(), block());
                if (rng.chance(25))
                    b.on_default(s, state(), block());
            }
            for (unsigned e = rng.below(3); e-- > 0;)
                b.on_epsilon(s, state(), block());
        }
        // The extra actions must be reachable: put their block on the
        // entry's epsilon split.
        if (!extra.empty())
            b.on_epsilon(0, state(), blocks[0]);
        b.set_entry(0);
        try {
            return b.build();
        } catch (const UdpError &) {
            // Layout rejected this shape; draw another.
        }
    }
}

/// Input over kAlphabet with the odd out-of-alphabet byte.
Bytes
random_input(SplitMix &rng, std::size_t len)
{
    Bytes in(len);
    for (auto &c : in)
        c = rng.chance(8) ? static_cast<std::uint8_t>(rng.below(256))
                          : static_cast<std::uint8_t>(kAlphabet[rng.below(4)]);
    return in;
}

// --- The differential harness ---------------------------------------------

/// One program through every path on `inputs`: cold, warm (the same
/// lane), after an image swap on that lane, and serial and 8-thread
/// Schedulers, each against the reference interpreter.  `other` is the
/// program swapped in; `memo_expected` says whether a cold run on
/// `prog` builds a memo (the image is eligible) or takes the plain walk.
void
check_program(const Program &prog, const Program &other,
              const std::vector<Bytes> &inputs, bool memo_expected)
{
    std::vector<Outcome> want;
    for (const Bytes &in : inputs)
        want.push_back(run_legacy(prog, in));

    LocalMemory mem;
    Lane ln(3, mem);
    {
        SCOPED_TRACE("cold memo");
        expect_same(want[0], run_lane(ln, prog, inputs[0]));
    }
    const NfaMemo *memo = ln.nfa_memo();
    ASSERT_EQ(memo != nullptr, memo_expected);
    const std::size_t steps = memo ? memo->steps() : 0;
    if (memo) {
        EXPECT_GT(steps, 0u);
    }
    {
        SCOPED_TRACE("warm memo, same input");
        expect_same(want[0], run_lane(ln, prog, inputs[0]));
        // Every step of a repeated input is a hit, unless the memo
        // overflowed and started over.
        if (memo && memo->drops() == 0) {
            EXPECT_EQ(ln.nfa_memo(), memo);
            EXPECT_EQ(memo->steps(), steps);
        }
    }
    for (std::size_t i = 1; i < inputs.size(); ++i) {
        SCOPED_TRACE("warm memo, input " + std::to_string(i));
        expect_same(want[i], run_lane(ln, prog, inputs[i]));
    }
    {
        SCOPED_TRACE("image swap");
        const Outcome other_want = run_legacy(other, inputs[0]);
        expect_same(other_want, run_lane(ln, other, inputs[0]));
        if (ln.nfa_memo()) {
            EXPECT_EQ(ln.nfa_memo()->image(), ln.compiled());
        }
        expect_same(want[0], run_lane(ln, prog, inputs[0]));
    }

    // Schedulers: every copy of the plan on its own lane, twice (the
    // second run finds each lane's memo warm).
    const auto sp = runtime::borrow_program(prog);
    std::vector<runtime::JobPlan> plans;
    for (const Bytes &in : inputs) {
        runtime::KernelSpec spec;
        spec.name = "nfa";
        spec.program = sp;
        spec.nfa_mode = true;
        plans.push_back(spec.make_job(in));
    }
    for (const unsigned threads : {1u, 8u}) {
        runtime::SchedulerOptions opts;
        opts.threads = threads;
        runtime::Scheduler sched(opts);
        for (int pass = 0; pass < 2; ++pass) {
            SCOPED_TRACE("scheduler, " + std::to_string(threads) +
                         " threads, pass " + std::to_string(pass));
            const auto rep = sched.run(plans);
            ASSERT_EQ(rep.jobs.size(), inputs.size());
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                SCOPED_TRACE("job " + std::to_string(i));
                expect_same(want[i], outcome_of(rep.jobs[i]));
            }
        }
    }
}

std::vector<Bytes>
random_inputs(SplitMix &rng, unsigned n, std::size_t max_len)
{
    std::vector<Bytes> ins;
    for (unsigned i = 0; i < n; ++i)
        ins.push_back(random_input(
            rng, 1 + rng.below(static_cast<unsigned>(max_len))));
    return ins;
}

TEST(NfaMemo, RegexSetsMatchTheReferenceOnEveryPath)
{
    SplitMix rng{0x5EED0001};
    const Program other = regex_program(rng);
    for (int k = 0; k < 24; ++k) {
        SCOPED_TRACE("regex program " + std::to_string(k));
        const Program prog = regex_program(rng);
        check_program(prog, other, random_inputs(rng, 4, 400), true);
    }
}

TEST(NfaMemo, BuilderProgramsMatchTheReferenceOnEveryPath)
{
    SplitMix rng{0x5EED0002};
    const Program other = builder_program(rng);
    for (int k = 0; k < 40; ++k) {
        SCOPED_TRACE("builder program " + std::to_string(k));
        const Program prog = builder_program(rng);
        check_program(prog, other, random_inputs(rng, 4, 300), true);
    }
}

TEST(NfaMemo, WatchdogAndForcedTrapCutsMatchTheReference)
{
    SplitMix rng{0x5EED0003};
    for (int k = 0; k < 40; ++k) {
        SCOPED_TRACE("program " + std::to_string(k));
        const Program prog =
            k % 2 ? builder_program(rng) : regex_program(rng);
        const Bytes in = random_input(rng, 64 + rng.below(256));
        const Outcome full = run_legacy(prog, in);
        const std::uint64_t span = full.stats.cycles + 2;

        LocalMemory mem;
        Lane ln(0, mem);
        run_lane(ln, prog, in); // warm the memo on the uncut run
        for (int c = 0; c < 6; ++c) {
            Cut cut;
            if (c % 2)
                cut.trap = 1 + rng.below(static_cast<unsigned>(span));
            else
                cut.max_cycles = rng.below(static_cast<unsigned>(span));
            SCOPED_TRACE("max_cycles " + std::to_string(cut.max_cycles) +
                         ", trap " + std::to_string(cut.trap));
            const Outcome want = run_legacy(prog, in, cut);
            expect_same(want, run_lane(ln, prog, in, cut));
            LocalMemory cold_mem;
            Lane cold(0, cold_mem);
            expect_same(want, run_lane(cold, prog, in, cut));
        }
    }
}

TEST(NfaMemo, ChainFaultingOnReplayMatchesTheReference)
{
    // Every 'a' fires the same chain: r7 += 1, then Setssr r7, which
    // traps once r7 passes 32.  The step is recorded on the first 'a'
    // and replayed until the chain faults mid-replay.
    ProgramBuilder b;
    const StateId s = b.add_state();
    const StateId t = b.add_state();
    const BlockId blk = b.add_block({act_imm(Opcode::Accept, 0, 0, 1),
                                     act_imm(Opcode::Addi, 7, 7, 1),
                                     act_imm(Opcode::Setssr, 0, 7, 0)});
    b.on_symbol(s, 'a', s, blk);
    for (const char c : {'b', 'c', 'd'})
        b.on_symbol(s, static_cast<Word>(c), s); // s never dies
    b.on_epsilon(s, t, b.add_block({act_imm(Opcode::Addi, 1, 1, 1)}));
    b.on_symbol(t, 'b', s);
    b.set_entry(s);
    const Program prog = b.build();

    SplitMix rng{0x5EED0004};
    LocalMemory mem;
    Lane ln(0, mem);
    for (int k = 0; k < 8; ++k) {
        SCOPED_TRACE("input " + std::to_string(k));
        Bytes in(200);
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = i % 3 ? static_cast<std::uint8_t>(kAlphabet[rng.below(4)])
                          : 'a';
        const Outcome want = run_legacy(prog, in);
        ASSERT_EQ(want.code, FaultCode::BadAction);
        expect_same(want, run_lane(ln, prog, in));
        ASSERT_NE(ln.nfa_memo(), nullptr);
        EXPECT_GT(ln.nfa_memo()->steps(), 0u);
    }
}

TEST(NfaMemo, WindowMovingAndWideSymbolImagesTakeThePlainWalk)
{
    // Setbase into the dispatch window and Setab write the values the
    // windows already hold, so the programs behave like their plain
    // twins; the static check alone must keep them off the memo.
    // 16-bit symbols overflow the memo's 256-wide rows.
    SplitMix rng{0x5EED0005};
    Action setab = act_imm(Opcode::Setab, 0, 0, 0);
    setab.imm1 = 0;
    const std::vector<std::vector<Action>> movers = {
        {act_imm(Opcode::Setbase, 1, 0, 0)}, {setab}};
    for (int k = 0; k < 12; ++k) {
        SCOPED_TRACE("program " + std::to_string(k));
        Program prog = k < 8 ? builder_program(rng, movers[k % 2])
                             : builder_program(rng);
        if (k >= 8)
            prog.initial_symbol_bits = 16;
        const Program other = builder_program(rng);
        check_program(prog, other, random_inputs(rng, 3, 300), false);
    }
}

TEST(NfaMemo, MoreSetsThanTheBoundDropsAndStaysExact)
{
    // "a" followed by any 9 symbols: the active set remembers which of
    // the last 10 positions held an 'a', so a random a/b stream reaches
    // hundreds of distinct sets, past NfaMemo::kMaxSets.
    const auto ast = parse_regex("a[ab][ab][ab][ab][ab][ab][ab][ab][ab]");
    const Program prog =
        compile_nfa(eliminate_epsilon(build_multi_nfa({ast.get()})));
    SplitMix rng{0x5EED0006};
    Bytes in(6000);
    for (auto &c : in)
        c = rng.chance(50) ? 'a' : 'b';

    const Outcome want = run_legacy(prog, in);
    ASSERT_GT(want.accepts.size(), 0u);
    LocalMemory mem;
    Lane ln(0, mem);
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE("pass " + std::to_string(pass));
        expect_same(want, run_lane(ln, prog, in));
        const NfaMemo *memo = ln.nfa_memo();
        ASSERT_NE(memo, nullptr);
        EXPECT_GT(memo->drops(), 0u);
        EXPECT_LE(memo->sets(), NfaMemo::kMaxSets);
    }
    const Program other = regex_program(rng);
    check_program(prog, other, {in}, true);
}

TEST(NfaMemo, ActivationPastTheImageFaultsOnBothTiers)
{
    // A target past the dispatch image (here set by hand; a flipped
    // dispatch bit does the same) names no state.  Both walks fault
    // with BadDispatch instead of indexing their activation stamps out
    // of bounds.
    ProgramBuilder b;
    const StateId s = b.add_state();
    const StateId t = b.add_state();
    b.on_symbol(s, 'a', s);
    b.on_epsilon(s, t, b.add_block({act_imm(Opcode::Accept, 0, 0, 1)}));
    b.on_symbol(t, 'b', s);
    b.set_entry(s);
    const Program good = b.build();
    const Bytes in{'a', 'b', 'a', 'b'};

    for (const TransitionType kind :
         {TransitionType::Epsilon, TransitionType::Labeled}) {
        SCOPED_TRACE(std::string(transition_type_name(kind)));
        Program bad = good;
        for (Word &w : bad.dispatch) {
            Transition tr = decode_transition(w);
            if (tr.type == kind) {
                tr.target = kDispatchWords - 1;
                w = encode_transition(tr);
            }
        }
        ASSERT_NE(bad.dispatch, good.dispatch);
        const Outcome want = run_legacy(bad, in);
        EXPECT_EQ(want.code, FaultCode::BadDispatch);
        LocalMemory mem;
        Lane ln(0, mem);
        for (int pass = 0; pass < 2; ++pass)
            expect_same(want, run_lane(ln, bad, in));
    }
}

TEST(NfaMemo, MemoSurvivesReassignmentAndIsFreedWithItsImage)
{
    SplitMix rng{0x5EED0007};
    const Program prog = regex_program(rng);
    const Program other = regex_program(rng);
    const Bytes in = random_input(rng, 512);
    const auto job = [&](const Program &p) {
        JobSpec j;
        j.program = &p;
        j.input = in;
        j.nfa_mode = true;
        return std::vector<JobSpec>{j};
    };

    Machine m(AddressingMode::Restricted);
    m.assign(job(prog));
    const MachineResult first = m.run_parallel();
    const NfaMemo *memo = m.lane(0).nfa_memo();
    ASSERT_NE(memo, nullptr);
    const std::size_t steps = memo->steps();

    // assign() hard-resets every lane; the memo and its steps stay.
    m.assign(job(prog));
    EXPECT_EQ(m.lane(0).nfa_memo(), memo);
    const MachineResult again = m.run_parallel();
    EXPECT_EQ(m.lane(0).nfa_memo(), memo);
    EXPECT_EQ(memo->steps(), steps);
    EXPECT_EQ(first.total, again.total);
    EXPECT_EQ(first.status, again.status);

    // Another image frees it before anything runs.
    m.assign(job(other));
    EXPECT_EQ(m.lane(0).nfa_memo(), nullptr);
    m.run_parallel();
    ASSERT_NE(m.lane(0).nfa_memo(), nullptr);
    EXPECT_EQ(m.lane(0).nfa_memo()->image(), m.lane(0).compiled());
}

} // namespace
