/**
 * @file
 * Multi-bank UDP local memory (paper Sections 3.1 and 3.2.4, Figure 10).
 *
 * 1 MiB organized as 64 banks x 16 KiB, each bank with one read and one
 * write port.  Three addressing models:
 *
 *  - Local: each lane is hard-wired to its own bank; a lane's addresses are
 *    offsets within that bank (UAP model).  No sharing hardware needed.
 *  - Global: every lane addresses the full 1 MiB; needs wider addresses and
 *    a crossbar, roughly doubling reference energy (Fig 11c: 8.8 pJ/ref vs
 *    4.3 pJ/ref).
 *  - Restricted: a per-lane base register opens a window; code is generated
 *    as if local, the base shifts the window (the UDP choice).
 *
 * Consistency: the UDP "detects and stalls" conflicting same-cycle
 * references; we model per-bank port contention by counting serialized
 * extra cycles (see `BankArbiter`).
 */
#pragma once

#include "types.hpp"

#include <array>
#include <utility>

namespace udp {

/// Memory addressing model (Figure 10).
enum class AddressingMode : std::uint8_t { Local, Global, Restricted };

/// Printable name of an addressing mode.
std::string_view addressing_mode_name(AddressingMode m);

/// Per-reference access energy in picojoules (Fig 11c; CACTI 6.5 model).
double memory_ref_energy_pj(AddressingMode m);

/**
 * The shared 1 MiB local memory.
 *
 * Lanes access it through lane-relative addresses that are translated per
 * the addressing mode.  All accesses are bounds-checked; a lane escaping
 * its window is a program bug and raises UdpError.
 */
class LocalMemory
{
  public:
    explicit LocalMemory(AddressingMode mode = AddressingMode::Restricted);

    AddressingMode mode() const { return mode_; }

    /// Raw backing store (tests, DMA-style staging by the host).
    Bytes &raw() { return mem_; }
    const Bytes &raw() const { return mem_; }

    /// Zero all contents.
    void clear();

    /**
     * The physical bytes of the n-byte lane-relative run starting at
     * `addr`, or nullptr.  Non-null exactly when every byte of the run
     * translates in range and the run does not wrap the 32-bit lane
     * address space; n == 0 yields nullptr.  Never throws.  This is the
     * one statement of each addressing mode's bounds rule:
     *  - Local: the lane's own 16 KiB bank, offsets [0, 16 KiB);
     *  - Global: the whole 1 MiB;
     *  - Restricted: `base + addr` must stay inside the 1 MiB.
     */
    const std::uint8_t *span(unsigned lane, ByteAddr addr, std::size_t n,
                             ByteAddr base) const
    {
        if (n == 0)
            return nullptr;
        // 64-bit, so a run wrapping the 32-bit lane space fails below.
        const std::uint64_t last = std::uint64_t{addr} + n - 1;
        std::size_t phys = 0;
        switch (mode_) {
          case AddressingMode::Local:
            if (last >= kBankBytes || lane >= kNumBanks)
                return nullptr;
            phys = std::size_t{lane} * kBankBytes + addr;
            break;
          case AddressingMode::Global:
            if (last >= kLocalMemBytes)
                return nullptr;
            phys = addr;
            break;
          case AddressingMode::Restricted:
            if (std::uint64_t{base} + last >= kLocalMemBytes)
                return nullptr;
            phys = std::size_t{base} + addr;
            break;
          default: return nullptr;
        }
        return mem_.data() + phys;
    }
    std::uint8_t *span(unsigned lane, ByteAddr addr, std::size_t n,
                       ByteAddr base)
    {
        return const_cast<std::uint8_t *>(
            std::as_const(*this).span(lane, addr, n, base));
    }

    /**
     * Translate a lane-relative byte address to a physical byte address
     * (a one-byte span()).  An address outside the mode's range raises
     * FaultCode::FetchOutOfRange: Local mode faults past the lane's
     * bank rather than wrapping inside it.
     *
     * @param lane       issuing lane id
     * @param addr       lane-relative byte address
     * @param base       lane's window base register (Restricted mode only)
     */
    ByteAddr translate(unsigned lane, ByteAddr addr, ByteAddr base) const
    {
        if (const std::uint8_t *p = span(lane, addr, 1, base))
            return static_cast<ByteAddr>(p - mem_.data());
        translate_fault();
    }

    /// Bank holding a physical byte address.
    static unsigned bank_of(ByteAddr phys) {
        return static_cast<unsigned>(phys / kBankBytes);
    }

    std::uint8_t read8(ByteAddr phys) const
    {
        check(phys, 1);
        return mem_[phys];
    }
    void write8(ByteAddr phys, std::uint8_t v)
    {
        check(phys, 1);
        mem_[phys] = v;
    }
    Word read32(ByteAddr phys) const          ///< little-endian
    {
        check(phys, 4);
        return Word{mem_[phys]} | (Word{mem_[phys + 1]} << 8) |
               (Word{mem_[phys + 2]} << 16) | (Word{mem_[phys + 3]} << 24);
    }
    void write32(ByteAddr phys, Word v)
    {
        check(phys, 4);
        mem_[phys] = static_cast<std::uint8_t>(v);
        mem_[phys + 1] = static_cast<std::uint8_t>(v >> 8);
        mem_[phys + 2] = static_cast<std::uint8_t>(v >> 16);
        mem_[phys + 3] = static_cast<std::uint8_t>(v >> 24);
    }

  private:
    void check(ByteAddr phys, std::size_t len) const
    {
        if (std::uint64_t{phys} + len > mem_.size())
            range_fault();
    }
    /// The out-of-range throws, kept out of line (cold paths).
    [[noreturn]] void translate_fault() const;
    [[noreturn]] static void range_fault();

    AddressingMode mode_;
    Bytes mem_;
};

/**
 * Per-cycle bank port arbiter.
 *
 * Each bank serves 1 read + 1 write per cycle; same-cycle excess requests
 * on a bank stall the requesting lanes (paper: "detects and stalls
 * conflicting references ... simple arbitration").  Usage per machine
 * cycle: `begin_cycle()`, then `request()` per access returning the number
 * of extra stall cycles that access experiences.
 */
class BankArbiter
{
  public:
    void begin_cycle();

    /// Register an access; returns stall cycles (0 when the port was free).
    Cycles request(unsigned bank, bool is_write);

    /// Total stall cycles handed out since construction.
    Cycles total_stalls() const { return total_stalls_; }

  private:
    std::array<std::uint8_t, kNumBanks> reads_{};
    std::array<std::uint8_t, kNumBanks> writes_{};
    Cycles total_stalls_ = 0;
};

} // namespace udp
