/**
 * @file
 * The action unit's opcode semantics, written once (internal header).
 *
 * `Lane::exec_op` is the only definition of what each action opcode
 * does.  Both host tiers run it:
 *  - the reference interpreter (`Lane::exec_actions`, lane.cpp) calls it
 *    with the runtime opcode of each decoded word, charging the lane's
 *    own `LaneStats` and keeping the tracer hooks;
 *  - the threaded tier (threaded_program.cpp) instantiates it once per
 *    opcode value as `ThreadedEngine::handler<OP>`, charging its
 *    `ThreadedCtx` accumulators; with `OP` a constant the switch folds
 *    away, leaving one straight-line handler per opcode.
 *
 * The header also holds the lane helpers both tiers' loops share (the
 * symbol fetch, attach resolution, local-memory access and the fault
 * boundary), inline so the threaded tier pays no cross-TU call per
 * access.  Only lane.cpp and threaded_program.cpp include it.
 */
#pragma once

#include "lane.hpp"
#include "trace.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>

namespace udp {

/// CRC32-C (Castagnoli) byte-step table, built on first use.
inline const std::array<Word, 256> &
crc32c_table()
{
    static const std::array<Word, 256> table = [] {
        std::array<Word, 256> t{};
        for (Word i = 0; i < 256; ++i) {
            Word c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : (c >> 1);
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/// Snappy-style multiplicative hash (Section 3.2.5 "hash action").
inline Word
hash_mix(Word v, unsigned table_log2)
{
    const Word h = v * 0x1E35A7BDu;
    if (table_log2 == 0 || table_log2 >= 32)
        return h;
    return h >> (32 - table_log2);
}

inline Word
Lane::fetch_symbol_bits(unsigned width)
{
    stats_.stream_bits += width;
    last_symbol_ = sb_.read(width);
    return last_symbol_;
}

inline bool
Lane::attach_addr(const Transition &t, std::size_t &addr) const
{
    std::uint8_t ref = t.attach;
    if (t.type == TransitionType::Refill) {
        // Refill attach ABI: high 3 bits = push-back count, low 5 bits =
        // action ref (31 = none).
        ref = t.attach & 0x1F;
        if (ref == 0x1F)
            return false;
    } else if (ref == kNoActions && t.attach_mode == AttachMode::Direct) {
        return false;
    }
    if (t.attach_mode == AttachMode::Direct) {
        addr = ref;
    } else {
        addr = std::size_t{action_base_} +
               (std::size_t{ref} << action_scale_);
    }
    return true;
}

// ---------------------------------------------------------------------------
// Local-memory access.
// ---------------------------------------------------------------------------

inline ByteAddr
Lane::mem_translate(Word lane_addr) const
{
    return mem_.translate(id_, lane_addr, window_base_);
}

inline void
Lane::charge_mem(ByteAddr phys, bool is_write)
{
    if (is_write)
        ++stats_.mem_writes;
    else
        ++stats_.mem_reads;
    if (arbiter_ || tracer_)
        charge_mem_hooks(phys, is_write);
}

inline std::uint8_t
Lane::mem_read8(Word lane_addr)
{
    const ByteAddr phys = mem_translate(lane_addr);
    charge_mem(phys, false);
    return mem_.read8(phys);
}

inline void
Lane::mem_write8(Word lane_addr, std::uint8_t v)
{
    const ByteAddr phys = mem_translate(lane_addr);
    charge_mem(phys, true);
    mem_.write8(phys, v);
}

inline Word
Lane::mem_read32(Word lane_addr)
{
    const ByteAddr phys = mem_translate(lane_addr);
    charge_mem(phys, false);
    return mem_.read32(phys);
}

inline void
Lane::mem_write32(Word lane_addr, Word v)
{
    const ByteAddr phys = mem_translate(lane_addr);
    charge_mem(phys, true);
    mem_.write32(phys, v);
}

inline std::uint8_t *
Lane::mem_span(Word lane_addr, Word n)
{
    if (arbiter_ || tracer_)
        return nullptr;
    return mem_.span(id_, lane_addr, n, window_base_);
}

/// `n` bytes from `src` to `dst` in forward byte order, as the per-byte
/// loop writes them: when `dst` starts inside the source run, each byte
/// reads one the copy already wrote, so the first `dst - src` bytes
/// repeat (the LZ77 overlap Snappy decode relies on).
inline void
copy_forward(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    if (dst <= src || dst >= src + n) {
        std::memmove(dst, src, n); // equals forward order without overlap
        return;
    }
    const std::size_t dist = static_cast<std::size_t>(dst - src);
    // Chunks of `dist` bytes never overlap their own source.
    for (std::size_t k = 0; k < n; k += dist)
        std::memcpy(dst + k, src + k, std::min(dist, n - k));
}

template <typename Body>
LaneStatus
Lane::run_guarded(Body &&body)
{
    // The conversion boundary: tagged interpreter errors become the
    // lane's fault record here, on both tiers.  An untagged UdpError
    // reaching this frame is a defensive fallback (every lane-reachable
    // site carries a code); anything else — a host-side bug — keeps
    // unwinding.
    try {
        return body();
    } catch (const UdpFaultError &e) {
        return trap(e.code(), e.what());
    } catch (const UdpError &e) {
        return trap(FaultCode::BadAction, e.what());
    }
}

template <class Acc, class A>
[[gnu::always_inline]] inline OpExit
Lane::exec_op(Opcode op, const A &a, Acc &acc)
{
    // The reference interpreter charges LaneStats directly and is the
    // only tier that runs with a tracer attached.
    constexpr bool kHooks = std::is_same_v<Acc, LaneStats>;

    const auto rs = [&] {
        return a.src == kRegStreamIdx ? static_cast<Word>(sb_.pos_bytes())
                                      : regs_[a.src];
    };
    const auto rr = [&] {
        return a.ref == kRegStreamIdx ? static_cast<Word>(sb_.pos_bytes())
                                      : regs_[a.ref];
    };
    // set_reg without the range check: dst is a 4-bit field.
    const auto wr = [&](Word v) {
        if (a.dst == kRegStreamIdx)
            sb_.seek_bits(std::uint64_t{v} * 8);
        else
            regs_[a.dst] = v;
    };
    const Word imm = static_cast<Word>(a.imm);

    switch (op) {
      case Opcode::Addi: wr(rs() + imm); break;
      case Opcode::Subi: wr(rs() - imm); break;
      case Opcode::Andi: wr(rs() & imm); break;
      case Opcode::Ori: wr(rs() | imm); break;
      case Opcode::Xori: wr(rs() ^ imm); break;
      case Opcode::Shli: wr(rs() << (a.imm & 31)); break;
      case Opcode::Shri: wr(rs() >> (a.imm & 31)); break;
      case Opcode::Sari:
        wr(static_cast<Word>(static_cast<std::int32_t>(rs()) >>
                             (a.imm & 31)));
        break;
      case Opcode::Movi: wr(imm); break;
      case Opcode::Lui: wr((regs_[a.dst] & 0xFFFFu) | (imm << 16)); break;
      case Opcode::Cmpeqi: wr(rs() == imm); break;
      case Opcode::Cmplti: wr(static_cast<std::int32_t>(rs()) < a.imm); break;
      case Opcode::Cmpltui: wr(rs() < imm); break;
      case Opcode::Muli: wr(rs() * imm); break;

      case Opcode::Add: wr(rr() + rs()); break;
      case Opcode::Sub: wr(rr() - rs()); break;
      case Opcode::And: wr(rr() & rs()); break;
      case Opcode::Or: wr(rr() | rs()); break;
      case Opcode::Xor: wr(rr() ^ rs()); break;
      case Opcode::Shl: wr(rr() << (rs() & 31)); break;
      case Opcode::Shr: wr(rr() >> (rs() & 31)); break;
      case Opcode::Mov: wr(rs()); break;
      case Opcode::Not: wr(~rs()); break;
      case Opcode::Neg: wr(0u - rs()); break;
      case Opcode::Mul: wr(rr() * rs()); break;
      case Opcode::Min: wr(std::min(rr(), rs())); break;
      case Opcode::Max: wr(std::max(rr(), rs())); break;
      case Opcode::Cmpeq: wr(rr() == rs()); break;
      case Opcode::Cmplt: wr(rr() < rs()); break;
      case Opcode::Select: wr(regs_[a.dst] ? rr() : rs()); break;

      case Opcode::Ldw: wr(mem_read32(rs() + imm)); break;
      case Opcode::Stw: mem_write32(rs() + imm, regs_[a.dst]); break;
      case Opcode::Ldb: wr(mem_read8(rs() + imm)); break;
      case Opcode::Stb:
        mem_write8(rs() + imm, static_cast<std::uint8_t>(regs_[a.dst]));
        break;
      case Opcode::Bininc: {
        const Word addr_b = rs() * 4 + imm;
        mem_write32(addr_b, mem_read32(addr_b) + 1);
        break;
      }

      case Opcode::Setss:
        if (a.imm < 1 || a.imm > 32)
            throw UdpFaultError(FaultCode::BadAction,
                                "Lane: setss width must be 1..32");
        symbol_bits_ = static_cast<unsigned>(a.imm);
        break;
      case Opcode::Setssr: {
        const Word w = rs();
        if (w < 1 || w > 32)
            throw UdpFaultError(FaultCode::BadAction,
                                "Lane: setssr width must be 1..32");
        symbol_bits_ = w;
        break;
      }
      case Opcode::Setbase:
        if (a.dst == 0)
            window_base_ = rs() + imm;
        else
            dispatch_base_ = rs() + imm;
        break;
      case Opcode::Setab:
        action_base_ = rs() + imm;
        action_scale_ = static_cast<unsigned>(a.imm1);
        break;
      case Opcode::Skip:
        sb_.skip(static_cast<std::uint64_t>(a.imm));
        acc.stream_bits += static_cast<std::uint64_t>(a.imm);
        break;
      case Opcode::Refill:
        sb_.refill(static_cast<std::uint64_t>(a.imm));
        acc.stream_bits -= static_cast<std::uint64_t>(a.imm);
        break;
      case Opcode::Peek:
        wr(sb_.exhausted(static_cast<unsigned>(a.imm))
               ? 0u
               : sb_.peek(static_cast<unsigned>(a.imm)));
        break;
      case Opcode::Read:
        // An action-unit read; does not disturb the dispatch unit's
        // latched symbol (Lastsym).
        acc.stream_bits += static_cast<unsigned>(a.imm);
        wr(sb_.read(static_cast<unsigned>(a.imm)));
        break;
      case Opcode::Tell: wr(static_cast<Word>(sb_.pos_bits())); break;
      case Opcode::Lastsym: wr(last_symbol_); break;
      case Opcode::Setstream: {
        const std::uint64_t bit_pos =
            std::uint64_t{rs()} + static_cast<std::uint64_t>(a.imm);
        const std::uint64_t old = sb_.pos_bits();
        sb_.seek_bits(bit_pos);
        acc.stream_bits += bit_pos - old; // net consumption delta
        break;
      }

      case Opcode::Emitlut: {
        const Word entry = rs() + ((imm << 8) | last_symbol_) * 16;
        const std::uint8_t count = mem_read8(entry);
        if (count > 15)
            throw UdpFaultError(FaultCode::BadAction,
                                "Lane: emitlut entry count exceeds 15");
        ++acc.cycles; // table fetch pipeline stage
        for (unsigned i = 0; i < count; ++i)
            out_byte(mem_.read8(mem_translate(entry + 1 + i)));
        ++stats_.mem_reads; // one 8-byte-wide entry fetch
        if constexpr (kHooks) {
            if (tracer_)
                tracer_->record(id_, TraceEventKind::MemRead, stats_.cycles,
                                entry, 0);
        }
        break;
      }
      case Opcode::Hash: wr(hash_mix(rs(), static_cast<unsigned>(a.imm))); break;
      case Opcode::Hash2: wr(hash_mix(rr() ^ (rs() * 0x85EBCA6Bu), 0)); break;
      case Opcode::Loopcmp: {
        const Word r = rr(), s = rs();
        const Word bound = regs_[a.dst];
        Word n = 0;
        while (n < bound && mem_read8(r + n) == mem_read8(s + n))
            ++n;
        // The byte loop above charged per-byte refs; model the 8-byte
        // datapath by charging ceil cycles instead of per-byte ones.
        acc.cycles += ceil_div(std::max<Word>(n, 1), 8) - 1;
        wr(n);
        break;
      }
      case Opcode::Loopcpy: {
        const Word r = rr(), s = rs();
        const Word n = regs_[a.dst];
        // Forward byte order: overlapping copies replicate the prefix
        // (LZ77 semantics required by Snappy decode).
        std::uint8_t *dst = mem_span(r, n);
        const std::uint8_t *src = dst ? mem_span(s, n) : nullptr;
        if (src) {
            copy_forward(dst, src, n);
            stats_.mem_reads += n;
            stats_.mem_writes += n;
        } else {
            for (Word i = 0; i < n; ++i)
                mem_write8(r + i, mem_read8(s + i));
        }
        acc.cycles += n ? ceil_div(n, 8) - 1 : 0;
        break;
      }
      case Opcode::Loopcpyo: {
        const Word s = rs();
        const Word n = regs_[a.dst];
        for (Word i = 0; i < n; ++i)
            out_byte(mem_read8(s + i));
        acc.cycles += n ? ceil_div(n, 8) - 1 : 0;
        break;
      }
      case Opcode::Crc:
        wr(crc32c_table()[(regs_[a.dst] ^ rs()) & 0xFF] ^
           (regs_[a.dst] >> 8));
        break;

      case Opcode::Outb: out_byte(static_cast<std::uint8_t>(rs())); break;
      case Opcode::Outw: {
        const Word v = rs();
        out_byte(static_cast<std::uint8_t>(v));
        out_byte(static_cast<std::uint8_t>(v >> 8));
        out_byte(static_cast<std::uint8_t>(v >> 16));
        out_byte(static_cast<std::uint8_t>(v >> 24));
        break;
      }
      case Opcode::Outbits: out_bits(rs(), static_cast<unsigned>(a.imm)); break;
      case Opcode::Outflush: out_flush(); break;
      case Opcode::Outi: out_byte(static_cast<std::uint8_t>(a.imm)); break;
      case Opcode::Outbitsr: {
        const Word w = regs_[a.dst];
        if (w >= 1 && w <= 32)
            out_bits(rs(), w);
        else if (w != 0)
            throw UdpFaultError(FaultCode::BadAction,
                                "Lane: outbitsr width must be 0..32");
        break;
      }

      case Opcode::Accept:
        ++stats_.accepts;
        if constexpr (kHooks) {
            if (tracer_)
                tracer_->record(id_, TraceEventKind::Accept, stats_.cycles,
                                imm, 0);
        }
        if (accepts_.size() < kAcceptCapacity)
            accepts_.push_back({sb_.pos_bits(), imm});
        break;
      case Opcode::Halt: return OpExit::Done;
      case Opcode::Fail: return OpExit::Reject;
      case Opcode::Gotoact: break; // the chain walker follows the jump
      case Opcode::Nop: break;

      default:
        throw UdpFaultError(FaultCode::UnimplementedOpcode,
                            "Lane: unimplemented opcode");
    }
    return OpExit::Next;
}

} // namespace udp
