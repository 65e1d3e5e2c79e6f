/**
 * @file
 * Semantic unit tests for every action opcode, executed through real
 * programs on a lane (not by poking internals).
 *
 * Every program runs on both interpreter tiers: the reference
 * interpreter, then the threaded tier.  The two must agree on the whole
 * observable outcome, and each test's own expectations then read the
 * threaded lane — so opcodes no kernel emits (Crc, Hash2, Sari, Select,
 * Outbitsr, Setab, ...) have their one shared definition checked on
 * both tiers.
 */
#include "assembler/builder.hpp"
#include "core/decoded_program.hpp"
#include "core/lane.hpp"

#include <gtest/gtest.h>

namespace udp {
namespace {

/// Run programs on both tiers and require identical outcomes.
struct ActionRunner {
    LocalMemory ref_mem{AddressingMode::Restricted};
    Lane ref{0, ref_mem}; ///< reference interpreter
    LocalMemory mem{AddressingMode::Restricted};
    Lane lane{0, mem};    ///< threaded tier: what the tests inspect
    Bytes input{'x', 'y', 'z', 'w'};
    Program prog;

    /// Run `p` over `in` on both tiers, expect the same status, stats,
    /// registers, output, accepts, fault record and local memory, and
    /// return the status.
    LaneStatus run_program(const Program &p, BytesView in,
                           std::vector<std::pair<unsigned, Word>> init = {}) {
        LaneStatus st[2];
        Lane *lanes[2] = {&ref, &lane};
        const SimBackend tiers[2] = {SimBackend::Legacy,
                                     SimBackend::Threaded};
        for (int i = 0; i < 2; ++i) {
            set_sim_backend(tiers[i]);
            lanes[i]->load(p);
            lanes[i]->set_input(in);
            for (const auto &[r, v] : init)
                lanes[i]->set_reg(r, v);
            st[i] = lanes[i]->run();
        }
        set_sim_backend(SimBackend::Threaded); // the process default
        EXPECT_EQ(ref.compiled(), nullptr);
        EXPECT_NE(lane.compiled(), nullptr);

        EXPECT_EQ(st[0], st[1]);
        EXPECT_EQ(ref.stats(), lane.stats());
        for (unsigned r = 0; r < kNumScalarRegs; ++r)
            EXPECT_EQ(ref.reg(r), lane.reg(r)) << "r" << r;
        EXPECT_EQ(ref.output(), lane.output());
        EXPECT_EQ(ref.accepts().size(), lane.accepts().size());
        EXPECT_EQ(ref.fault().code, lane.fault().code);
        EXPECT_EQ(ref.fault().cycle, lane.fault().cycle);
        EXPECT_EQ(ref.fault().detail, lane.fault().detail);
        EXPECT_TRUE(ref_mem.raw() == mem.raw()) << "local memory differs";
        return st[1];
    }

    /// Run a single action block to completion.
    Lane &run(std::vector<Action> actions,
              std::vector<std::pair<unsigned, Word>> init = {}) {
        prog = block_program(std::move(actions));
        EXPECT_EQ(run_program(prog, input, std::move(init)),
                  LaneStatus::Done);
        return lane;
    }

    /// Variant for blocks that must trap: asserts the lane faults with
    /// the expected code instead of completing.
    Lane &run_faulting(std::vector<Action> actions, FaultCode expect) {
        prog = block_program(std::move(actions));
        EXPECT_EQ(run_program(prog, input), LaneStatus::Faulted);
        EXPECT_EQ(lane.fault().code, expect);
        return lane;
    }

    /// One self-looping state running `actions` then Halt on any symbol.
    static Program block_program(std::vector<Action> actions) {
        actions.push_back(act_imm(Opcode::Halt, 0, 0, 0, true));
        ProgramBuilder b;
        const StateId s = b.add_state();
        b.on_any(s, s, b.add_block(std::move(actions)));
        b.set_entry(s);
        return b.build();
    }
};

struct ActionsFixture : ::testing::Test, ActionRunner {
};

TEST_F(ActionsFixture, ArithmeticImmediates)
{
    run({
        act_imm(Opcode::Movi, 1, 0, -5),
        act_imm(Opcode::Addi, 2, 1, 15),   // 10
        act_imm(Opcode::Subi, 3, 2, 4),    // 6
        act_imm(Opcode::Muli, 4, 3, 7),    // 42
        act_imm(Opcode::Shli, 5, 4, 2),    // 168
        act_imm(Opcode::Shri, 6, 5, 3),    // 21
        act_imm(Opcode::Sari, 7, 1, 1),    // -5 >> 1 = -3 (arith)
    });
    EXPECT_EQ(lane.reg(2), 10u);
    EXPECT_EQ(lane.reg(3), 6u);
    EXPECT_EQ(lane.reg(4), 42u);
    EXPECT_EQ(lane.reg(5), 168u);
    EXPECT_EQ(lane.reg(6), 21u);
    EXPECT_EQ(static_cast<std::int32_t>(lane.reg(7)), -3);
}

TEST_F(ActionsFixture, LogicalAndComparisons)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 0b1100),
        act_imm(Opcode::Andi, 2, 1, 0b1010), // 0b1000
        act_imm(Opcode::Ori, 3, 1, 0b0011),  // 0b1111
        act_imm(Opcode::Xori, 4, 1, 0b0101), // 0b1001
        act_imm(Opcode::Cmpeqi, 5, 1, 12),   // 1
        act_imm(Opcode::Cmplti, 6, 1, -1),   // signed: 12 < -1 = 0
        act_imm(Opcode::Cmpltui, 7, 1, 13),  // 1
        act_imm(Opcode::Lui, 8, 0, 0xABCD),  // high half
    });
    EXPECT_EQ(lane.reg(2), 0b1000u);
    EXPECT_EQ(lane.reg(3), 0b1111u);
    EXPECT_EQ(lane.reg(4), 0b1001u);
    EXPECT_EQ(lane.reg(5), 1u);
    EXPECT_EQ(lane.reg(6), 0u);
    EXPECT_EQ(lane.reg(7), 1u);
    EXPECT_EQ(lane.reg(8), 0xABCD0000u);
}

TEST_F(ActionsFixture, RegisterAluForms)
{
    run({
            act_imm(Opcode::Movi, 1, 0, 20),
            act_imm(Opcode::Movi, 2, 0, 6),
            act_reg(Opcode::Sub, 3, 1, 2),    // 14
            act_reg(Opcode::Mul, 4, 1, 2),    // 120
            act_reg(Opcode::Min, 5, 1, 2),    // 6
            act_reg(Opcode::Max, 6, 1, 2),    // 20
            act_reg(Opcode::Xor, 7, 1, 2),    // 18
            act_reg(Opcode::Not, 8, 0, 2),    // ~6
            act_reg(Opcode::Neg, 9, 0, 2),    // -6
            act_reg(Opcode::Shl, 10, 1, 2),   // 20<<6
            act_reg(Opcode::Shr, 11, 10, 2),  // back to 20
            act_reg(Opcode::Cmpeq, 12, 1, 1), // 1
            act_reg(Opcode::Cmplt, 13, 2, 1), // 6<20 = 1
        });
    EXPECT_EQ(lane.reg(3), 14u);
    EXPECT_EQ(lane.reg(4), 120u);
    EXPECT_EQ(lane.reg(5), 6u);
    EXPECT_EQ(lane.reg(6), 20u);
    EXPECT_EQ(lane.reg(7), 18u);
    EXPECT_EQ(lane.reg(8), ~6u);
    EXPECT_EQ(lane.reg(9), static_cast<Word>(-6));
    EXPECT_EQ(lane.reg(10), 20u << 6);
    EXPECT_EQ(lane.reg(11), 20u);
    EXPECT_EQ(lane.reg(12), 1u);
    EXPECT_EQ(lane.reg(13), 1u);
}

TEST_F(ActionsFixture, SelectIsConditionalMove)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 111),
        act_imm(Opcode::Movi, 2, 0, 222),
        act_imm(Opcode::Movi, 3, 0, 1),      // condition true
        act_reg(Opcode::Select, 3, 1, 2),    // r3 = r3 ? r1 : r2 = 111
        act_imm(Opcode::Movi, 4, 0, 0),      // condition false
        act_reg(Opcode::Select, 4, 1, 2),    // 222
    });
    EXPECT_EQ(lane.reg(3), 111u);
    EXPECT_EQ(lane.reg(4), 222u);
}

TEST_F(ActionsFixture, MemoryOpsAndBininc)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 0x1234),
        act_imm(Opcode::Stw, 1, 0, 0x80),
        act_imm(Opcode::Ldw, 2, 0, 0x80),
        act_imm(Opcode::Ldb, 3, 0, 0x80),   // low byte 0x34
        act_imm(Opcode::Movi, 4, 0, 0x7F),
        act_imm(Opcode::Stb, 4, 0, 0x90),
        act_imm(Opcode::Ldb, 5, 0, 0x90),
        act_imm(Opcode::Movi, 6, 0, 3),     // bin index 3
        act_imm(Opcode::Bininc, 0, 6, 0x100),
        act_imm(Opcode::Bininc, 0, 6, 0x100),
        act_imm(Opcode::Ldw, 7, 6, 0x100 - 3 * 4 + 3 * 4), // dummy calc
    });
    EXPECT_EQ(lane.reg(2), 0x1234u);
    EXPECT_EQ(lane.reg(3), 0x34u);
    EXPECT_EQ(lane.reg(5), 0x7Fu);
    EXPECT_EQ(mem.read32(0x100 + 3 * 4), 2u);
}

TEST_F(ActionsFixture, HashFamilyAndCrc)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 777),
        act_imm(Opcode::Hash, 2, 1, 8),   // 8-bit range
        act_imm(Opcode::Movi, 3, 0, 888),
        act_reg(Opcode::Hash2, 4, 1, 3),
        act_imm(Opcode::Movi, 5, 0, 0),
        act_imm(Opcode::Movi, 6, 0, 'a'),
        act_reg(Opcode::Crc, 5, 0, 6),
    });
    EXPECT_LT(lane.reg(2), 256u);
    EXPECT_NE(lane.reg(4), 0u);
    EXPECT_NE(lane.reg(5), 0u); // CRC step of 'a' over 0

    const Word h1 = lane.reg(2);
    run({
        act_imm(Opcode::Movi, 1, 0, 777),
        act_imm(Opcode::Hash, 2, 1, 8),
    });
    EXPECT_EQ(lane.reg(2), h1); // deterministic
}

TEST_F(ActionsFixture, StreamOpsPeekReadSkipSetstream)
{
    run({
        act_imm(Opcode::Peek, 1, 0, 8),      // 'y' (x consumed by arc)
        act_imm(Opcode::Read, 2, 0, 8),      // 'y'
        act_imm(Opcode::Skip, 0, 0, 8),      // past 'z'
        act_imm(Opcode::Tell, 3, 0, 0),      // 24 bits
        act_imm(Opcode::Movi, 4, 0, 8),
        act_imm(Opcode::Setstream, 0, 4, 0), // back to bit 8
        act_imm(Opcode::Read, 5, 0, 8),      // 'y' again
        act_imm(Opcode::Lastsym, 6, 0, 0),   // dispatch symbol was 'x'
    });
    EXPECT_EQ(lane.reg(1), 'y');
    EXPECT_EQ(lane.reg(2), 'y');
    EXPECT_EQ(lane.reg(3), 24u);
    EXPECT_EQ(lane.reg(5), 'y');
    EXPECT_EQ(lane.reg(6), 'x');
}

TEST_F(ActionsFixture, SetssrAndOutbitsr)
{
    run({
            act_imm(Opcode::Movi, 1, 0, 4),
            act_imm(Opcode::Setssr, 0, 1, 0), // SSR = 4 (dynamic)
            act_imm(Opcode::Movi, 2, 0, 0b1011),
            act_imm(Opcode::Movi, 3, 0, 4),
            act_reg(Opcode::Outbitsr, 3, 0, 2), // 4 bits of r2
            act_reg(Opcode::Outbitsr, 3, 0, 2), // again -> one byte
        });
    ASSERT_EQ(lane.output().size(), 1u);
    EXPECT_EQ(lane.output()[0], 0b10111011u);
}

TEST_F(ActionsFixture, OutputFamily)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 0x4241),
        act_imm(Opcode::Outb, 0, 1, 0),   // 'A'
        act_imm(Opcode::Outi, 0, 0, '!'),
        act_imm(Opcode::Outw, 0, 1, 0),   // 41 42 00 00 LE
    });
    const Bytes expect{'A', '!', 0x41, 0x42, 0x00, 0x00};
    EXPECT_EQ(lane.output(), expect);
}

TEST_F(ActionsFixture, GotoactChainsBlocks)
{
    // Block A jumps into shared code at a fixed action address.  The
    // tail's owning state is created first, so the backend interns the
    // tail block at action address 0 (stable layout order).
    ProgramBuilder b;
    const StateId t = b.add_state(true);
    const BlockId tail = b.add_block({
        act_imm(Opcode::Addi, 2, 2, 100),
        act_imm(Opcode::Halt, 0, 0, 0, true),
    });
    b.on_any(t, t, tail); // anchor the tail block in the image
    const StateId s = b.add_state();
    b.on_any(s, t, b.add_block({
                 act_imm(Opcode::Movi, 2, 0, 5),
                 act_imm(Opcode::Gotoact, 0, 0, 0, true), // jump to addr 0
             }));
    b.set_entry(s);
    const Program p = b.build();
    // Confirm the layout assumption before relying on it.
    ASSERT_EQ(decode_action(p.actions[0]).op, Opcode::Addi);

    EXPECT_EQ(run_program(p, input), LaneStatus::Done);
    EXPECT_EQ(lane.reg(2), 105u); // 5 + 100 via the shared tail
}

TEST_F(ActionsFixture, SetabRedirectsScaledBlocks)
{
    // Setab changes where scaled-offset attach refs resolve; verified
    // indirectly: a program whose action image exceeds the direct
    // region still runs correctly (builder emits Setab config).
    ProgramBuilder b;
    const StateId s = b.add_state();
    std::vector<StateId> sinks;
    for (int i = 0; i < 300; ++i) {
        const StateId t = b.add_state(true);
        b.on_any(t, s, b.add_block({act_imm(Opcode::Movi, 1, 0, i, true)}));
        sinks.push_back(t);
    }
    for (int i = 0; i < 300; ++i)
        b.on_symbol(s, static_cast<Word>(i), sinks[i]);
    b.set_entry(s);
    b.set_initial_symbol_bits(16);
    const Program p = b.build();
    EXPECT_GT(p.actions.size(), 255u);

    // Feed exactly one 16-bit MSB-first symbol (299); the stream then
    // exhausts so the sink's register write survives.
    const Bytes in16{static_cast<std::uint8_t>(299 >> 8),
                     static_cast<std::uint8_t>(299 & 0xFF)};
    run_program(p, in16);
    EXPECT_EQ(lane.reg(1), 299u);
}

TEST_F(ActionsFixture, RefillActionRewindsStream)
{
    run({
        act_imm(Opcode::Read, 1, 0, 8),
        act_imm(Opcode::Refill, 0, 0, 8),
        act_imm(Opcode::Read, 2, 0, 8),
    });
    EXPECT_EQ(lane.reg(1), lane.reg(2));
}

TEST_F(ActionsFixture, FailStopsWithReject)
{
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_any(s, s, b.add_block({act_imm(Opcode::Fail, 0, 0, 0, true)}));
    b.set_entry(s);
    const Program p = b.build();
    EXPECT_EQ(run_program(p, input), LaneStatus::Reject);
}

TEST_F(ActionsFixture, IllegalConfigurationsFaultTheLane)
{
    // Illegal action operands trap the lane with a structured fault
    // (docs/ROBUSTNESS.md) instead of escaping as host exceptions.
    run_faulting({act_imm(Opcode::Setss, 0, 0, 0)}, FaultCode::BadAction);
    run_faulting({act_imm(Opcode::Setss, 0, 0, 33)}, FaultCode::BadAction);
    run_faulting({act_imm(Opcode::Movi, 1, 0, 40),
                  act_imm(Opcode::Setssr, 0, 1, 0)},
                 FaultCode::BadAction);
    run_faulting({act_imm(Opcode::Skip, 0, 0, 1 << 14)},
                 FaultCode::FetchOutOfRange);
}

} // namespace
} // namespace udp
