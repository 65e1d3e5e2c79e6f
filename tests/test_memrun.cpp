/**
 * @file
 * Equivalence tests for the local-memory run path (`LocalMemory::span`,
 * `Lane::mem_span`).
 *
 * Loopcpy runs on raw bytes whenever both of its runs sit inside the
 * lane's window; otherwise, and on any lane with an arbiter or tracer
 * attached, it takes the per-byte path.  Loopcpyo, Loopcmp and Emitlut's
 * tail bytes always take the per-byte path; their cases here pin the
 * behaviour at the window edge, at 32-bit wrap and with pending output
 * bits for any later run path.  The oracle is the per-byte path: the
 * same program on a lane with a Tracer attached.  Bare lanes on both
 * tiers must then match it in LaneStats, registers, output, accepts, the
 * fault record and every local-memory byte, including runs that fault
 * part way.
 */
#include "assembler/builder.hpp"
#include "core/decoded_program.hpp"
#include "core/lane.hpp"
#include "core/trace.hpp"

#include <gtest/gtest.h>

namespace udp {
namespace {

/// Where a run happens: addressing mode, lane, window base, initial
/// registers, and bytes poked into memory on top of the fixed pattern.
struct Place {
    AddressingMode mode = AddressingMode::Restricted;
    unsigned lane = 5;
    ByteAddr base = 0x8000;
    std::vector<std::pair<unsigned, Word>> regs{};
    std::vector<std::pair<ByteAddr, std::uint8_t>> pokes{};
};

/// Pseudo-random memory image with a short alphabet, so compares find
/// both long matches and mismatches.
const Bytes &
pattern()
{
    static const Bytes img = [] {
        Bytes b(kLocalMemBytes);
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (auto &v : b) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = static_cast<std::uint8_t>(x % 4);
        }
        return b;
    }();
    return img;
}

/// One self-looping state running `actions` then Halt on any symbol.
Program
block_program(std::vector<Action> actions)
{
    actions.push_back(act_imm(Opcode::Halt, 0, 0, 0, true));
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_any(s, s, b.add_block(std::move(actions)));
    b.set_entry(s);
    return b.build();
}

struct Outcome {
    LaneStatus status = LaneStatus::Running;
    LaneStats stats;
    std::array<Word, kNumScalarRegs> regs{};
    Bytes output;
    std::size_t accepts = 0;
    LaneFault fault;
    Bytes mem;
};

/// Run `p` on a fresh lane per `s`; `traced` attaches a Tracer (the
/// per-byte oracle), otherwise the lane runs bare on tier `tier`.
Outcome
run_once(const Program &p, const Place &s, bool traced, SimBackend tier)
{
    LocalMemory mem(s.mode);
    mem.raw() = pattern();
    for (const auto &[addr, v] : s.pokes)
        mem.raw()[addr] = v;
    Lane lane(s.lane, mem);
    Tracer tracer;
    if (traced)
        lane.set_tracer(&tracer);
    set_sim_backend(tier);
    lane.load(p);
    set_sim_backend(SimBackend::Threaded); // the process default
    lane.set_window_base(s.base);
    const Bytes in{'x'};
    lane.set_input(in);
    for (const auto &[r, v] : s.regs)
        lane.set_reg(r, v);

    Outcome o;
    o.status = lane.run();
    lane.finish_output();
    o.stats = lane.stats();
    for (unsigned r = 0; r < kNumScalarRegs; ++r)
        o.regs[r] = lane.reg(r);
    o.output = lane.output();
    o.accepts = lane.accepts().size();
    o.fault = lane.fault();
    o.mem = std::move(mem.raw());
    return o;
}

/// Run `p` per-byte (traced) and bare on both tiers; require identical
/// outcomes and return the oracle's.
Outcome
expect_same(const Program &p, const Place &s, const std::string &what)
{
    SCOPED_TRACE(what);
    const Outcome ref = run_once(p, s, true, SimBackend::Legacy);
    for (const SimBackend tier : {SimBackend::Legacy, SimBackend::Threaded}) {
        SCOPED_TRACE(tier == SimBackend::Legacy ? "bare reference tier"
                                                : "bare threaded tier");
        const Outcome got = run_once(p, s, false, tier);
        EXPECT_EQ(got.status, ref.status);
        EXPECT_EQ(got.stats, ref.stats);
        EXPECT_EQ(got.regs, ref.regs);
        EXPECT_EQ(got.output, ref.output);
        EXPECT_EQ(got.accepts, ref.accepts);
        EXPECT_EQ(got.fault.code, ref.fault.code);
        EXPECT_EQ(got.fault.lane, ref.fault.lane);
        EXPECT_EQ(got.fault.state_base, ref.fault.state_base);
        EXPECT_EQ(got.fault.cycle, ref.fault.cycle);
        EXPECT_EQ(got.fault.detail, ref.fault.detail);
        EXPECT_TRUE(got.mem == ref.mem) << "local memory differs";
    }
    return ref;
}

/// Lane-relative address one past the last in-window byte.
Word
window_end(const Place &s)
{
    switch (s.mode) {
      case AddressingMode::Local: return kBankBytes;
      case AddressingMode::Global: return kLocalMemBytes;
      case AddressingMode::Restricted: return kLocalMemBytes - s.base;
    }
    return 0;
}

const Program &
loopcpy_program()
{
    // mem[r1 ..] <- mem[r2 ..], r3 bytes.
    static const Program p =
        block_program({act_reg(Opcode::Loopcpy, 3, 1, 2)});
    return p;
}

const Program &
loopcmp_program()
{
    // r3 <- match length of mem[r1 ..] vs mem[r2 ..], bound r3.
    static const Program p =
        block_program({act_reg(Opcode::Loopcmp, 3, 1, 2)});
    return p;
}

std::string
label(std::string_view what, long long a, long long b)
{
    return std::string(what) + " " + std::to_string(a) + "/" +
           std::to_string(b);
}

TEST(MemRun, SpanAgreesWithTranslateByteByByte)
{
    for (const auto mode : {AddressingMode::Local, AddressingMode::Global,
                            AddressingMode::Restricted}) {
        LocalMemory mem(mode);
        const Place s{.mode = mode,
                      .lane = 7,
                      .base = ByteAddr{kLocalMemBytes - 64}};
        const Word end = window_end(s);
        for (const Word addr : {Word{0}, end - 9, end - 8, end - 1, end,
                                ~Word{0} - 3}) {
            for (const std::size_t n : {0, 1, 2, 7, 8, 9, 16}) {
                SCOPED_TRACE(label(addressing_mode_name(mode), addr,
                                   static_cast<long long>(n)));
                bool all_in = n > 0;
                for (std::size_t i = 0; i < n && all_in; ++i) {
                    const std::uint64_t a = std::uint64_t{addr} + i;
                    if (a > ~Word{0}) {
                        all_in = false; // the lane address would wrap
                        break;
                    }
                    try {
                        const ByteAddr phys = mem.translate(
                            s.lane, static_cast<Word>(a), s.base);
                        EXPECT_EQ(phys, mem.translate(s.lane, addr, s.base) +
                                            i);
                    } catch (const UdpFaultError &e) {
                        EXPECT_EQ(e.code(), FaultCode::FetchOutOfRange);
                        all_in = false;
                    }
                }
                const std::uint8_t *p = mem.span(s.lane, addr, n, s.base);
                EXPECT_EQ(p != nullptr, all_in);
                if (p) {
                    EXPECT_EQ(p, mem.raw().data() +
                                     mem.translate(s.lane, addr, s.base));
                }
            }
        }
    }
}

TEST(MemRun, LoopcpyOverlapDistances)
{
    // Distances 1..9 replicate the prefix (LZ77); negative distances and
    // 0 copy backwards-overlapping or in place.
    for (int d = -9; d <= 9; ++d) {
        for (Word n = 0; n <= 64; ++n) {
            Place s;
            s.regs = {{1, static_cast<Word>(0x200 + d)}, {2, 0x200}, {3, n}};
            expect_same(loopcpy_program(), s, label("dist/n", d, n));
        }
    }
}

TEST(MemRun, RunsCrossingTheWindowEndFaultAtTheSameByte)
{
    for (const auto mode : {AddressingMode::Local, AddressingMode::Global,
                            AddressingMode::Restricted}) {
        Place s{.mode = mode,
                .lane = 9,
                .base = ByteAddr{kLocalMemBytes - 0x1000}};
        const Word end = window_end(s);
        for (const Word over : {0u, 1u, 5u, 40u}) {
            const Word n = 32;
            const Word last = end - n + over; // run [last, last + n)
            const std::string tag =
                label(addressing_mode_name(mode), over, 0);
            // Destination crosses; source crosses; both cross.
            s.regs = {{1, last}, {2, 0x100}, {3, n}};
            Outcome o = expect_same(loopcpy_program(), s, tag + " dst");
            EXPECT_EQ(o.status, over ? LaneStatus::Faulted
                                     : LaneStatus::Done);
            s.regs = {{1, 0x100}, {2, last}, {3, n}};
            expect_same(loopcpy_program(), s, tag + " src");
            s.regs = {{1, last}, {2, last - 3}, {3, n}};
            expect_same(loopcpy_program(), s, tag + " both");
            // Loopcmp over a crossing run that matches up to the end.
            s.regs = {{1, last}, {2, last}, {3, n}};
            o = expect_same(loopcmp_program(), s, tag + " cmp");
            EXPECT_EQ(o.status, over ? LaneStatus::Faulted
                                     : LaneStatus::Done);
        }
    }
}

TEST(MemRun, LaneAddressesWrapAt32Bits)
{
    // A run that wraps the 32-bit lane address space is never a span,
    // even though its wrapped tail would land back inside the window.
    for (const auto mode : {AddressingMode::Local, AddressingMode::Global,
                            AddressingMode::Restricted}) {
        Place s{.mode = mode, .base = 0};
        const std::string tag(addressing_mode_name(mode));
        for (const Word start : {0xFFFFFFF0u, 0xFFFFFFFFu}) {
            s.regs = {{1, start}, {2, 0x40}, {3, 32}};
            expect_same(loopcpy_program(), s, tag + " cpy dst");
            s.regs = {{1, 0x40}, {2, start}, {3, 32}};
            expect_same(loopcpy_program(), s, tag + " cpy src");
            s.regs = {{1, start}, {2, start}, {3, 32}};
            expect_same(loopcmp_program(), s, tag + " cmp");
        }
        const Program cpyo =
            block_program({act_reg(Opcode::Loopcpyo, 3, 0, 2)});
        s.regs = {{2, 0xFFFFFFF0u}, {3, 32}};
        expect_same(cpyo, s, tag + " cpyo");
    }
}

TEST(MemRun, LoopcmpBounds)
{
    const Word a = 0x300, b = 0x700;
    Place s;
    Bytes same(48);
    for (Word i = 0; i < same.size(); ++i)
        same[i] = static_cast<std::uint8_t>(i * 7 + 1);
    for (Word i = 0; i < same.size(); ++i) {
        s.pokes.push_back({s.base + a + i, same[i]});
        s.pokes.push_back({s.base + b + i, same[i]});
    }

    // Bound 0: no compare, no reference.
    s.regs = {{1, a}, {2, b}, {3, 0}};
    Outcome o = expect_same(loopcmp_program(), s, "bound 0");
    EXPECT_EQ(o.regs[3], 0u);
    EXPECT_EQ(o.stats.mem_reads, 0u);

    // Full match over the whole bound.
    s.regs = {{1, a}, {2, b}, {3, 48}};
    o = expect_same(loopcmp_program(), s, "full match");
    EXPECT_EQ(o.regs[3], 48u);
    EXPECT_EQ(o.stats.mem_reads, 96u);

    // Mismatch at the last byte of the bound.
    Place m = s;
    m.pokes.push_back({s.base + b + 47, 0xEE});
    o = expect_same(loopcmp_program(), m, "last-byte mismatch");
    EXPECT_EQ(o.regs[3], 47u);
    EXPECT_EQ(o.stats.mem_reads, 96u);

    // A bound far past the window end with an early mismatch: neither
    // path reaches the edge, so neither faults.
    Place edge = s;
    edge.base = ByteAddr{kLocalMemBytes - 0x1000};
    edge.pokes.clear();
    const Word near_end = 0x1000 - 16;
    for (Word i = 0; i < 8; ++i) {
        edge.pokes.push_back({edge.base + near_end + i, 0x11});
        edge.pokes.push_back({edge.base + 0x100 + i, 0x11});
    }
    edge.pokes.push_back({edge.base + near_end + 8, 0x22});
    edge.pokes.push_back({edge.base + 0x100 + 8, 0x33});
    edge.regs = {{1, near_end}, {2, 0x100}, {3, 4096}};
    o = expect_same(loopcmp_program(), edge, "early mismatch past window");
    EXPECT_EQ(o.status, LaneStatus::Done);
    EXPECT_EQ(o.regs[3], 8u);
}

TEST(MemRun, LoopcpyoWithPendingOutputBits)
{
    for (unsigned k = 0; k <= 7; ++k) {
        std::vector<Action> acts;
        acts.push_back(act_imm(Opcode::Movi, 4, 0, 0x5A));
        if (k != 0)
            acts.push_back(act_imm(Opcode::Outbits, 0, 4,
                                   static_cast<std::int32_t>(k)));
        acts.push_back(act_reg(Opcode::Loopcpyo, 3, 0, 2));
        const Program p = block_program(std::move(acts));
        for (const Word n : {0u, 1u, 5u, 8u, 33u}) {
            Place s;
            s.regs = {{2, 0x480}, {3, n}};
            const Outcome o = expect_same(p, s, label("bits/n", k, n));
            EXPECT_EQ(o.stats.mem_reads, n);
            EXPECT_EQ(o.output.size(), n + (k ? 1 : 0));
        }
    }
}

TEST(MemRun, EmitlutAtTheWindowEdge)
{
    // entry = r2 + ((imm << 8) | last symbol) * 16; the symbol is 'x'.
    // An optional Outbits first leaves 3 output bits pending.
    const Word sym_off = Word{'x'} * 16;
    for (const unsigned pending : {0u, 3u}) {
        std::vector<Action> acts;
        if (pending != 0)
            acts.push_back(act_imm(Opcode::Outbits, 0, 0, pending));
        acts.push_back(act_imm(Opcode::Emitlut, 0, 2, 0));
        const Program p = block_program(std::move(acts));
        for (const auto mode : {AddressingMode::Local, AddressingMode::Global,
                                AddressingMode::Restricted}) {
            for (const Word count : {0u, 1u, 8u, 15u}) {
                // Tail ends exactly at the window end, then one past it.
                for (const Word past : {0u, 1u}) {
                    if (count == 0 && past)
                        continue; // the count byte itself would be outside
                    Place s{.mode = mode,
                            .lane = 3,
                            .base = ByteAddr{kLocalMemBytes - 0x2000}};
                    const Word entry = window_end(s) - 1 - count + past;
                    s.regs = {{2, entry - sym_off}};
                    LocalMemory probe(mode);
                    s.pokes.push_back(
                        {probe.translate(s.lane, entry, s.base),
                         static_cast<std::uint8_t>(count)});
                    const Outcome o = expect_same(
                        p, s,
                        label(addressing_mode_name(mode), count,
                              past + 10 * pending));
                    EXPECT_EQ(o.status, past && count ? LaneStatus::Faulted
                                                      : LaneStatus::Done);
                }
            }
        }
    }
}

TEST(MemRun, ArbiterOrTracerForcesThePerBytePath)
{
    // An attached arbiter hook sees every byte of a run as one request.
    LocalMemory mem(AddressingMode::Restricted);
    Lane lane(0, mem);
    std::uint64_t requests = 0;
    lane.set_arbiter([&](unsigned, bool) -> Cycles {
        ++requests;
        return 0;
    });
    lane.load(loopcpy_program());
    const Bytes in{'x'};
    lane.set_input(in);
    lane.set_reg(1, 0x100);
    lane.set_reg(2, 0x200);
    lane.set_reg(3, 40);
    ASSERT_EQ(lane.run(), LaneStatus::Done);
    EXPECT_EQ(requests, 80u);
    EXPECT_EQ(lane.stats().mem_reads, 40u);
    EXPECT_EQ(lane.stats().mem_writes, 40u);

    // A tracer records one MemRead and one MemWrite per byte.
    Tracer tracer;
    Lane traced(1, mem);
    traced.set_tracer(&tracer);
    traced.load(loopcpy_program());
    traced.set_input(in);
    traced.set_reg(1, 0x100);
    traced.set_reg(2, 0x200);
    traced.set_reg(3, 40);
    ASSERT_EQ(traced.run(), LaneStatus::Done);
    EXPECT_EQ(tracer.count(1, TraceEventKind::MemRead), 40u);
    EXPECT_EQ(tracer.count(1, TraceEventKind::MemWrite), 40u);
}

} // namespace
} // namespace udp
