/**
 * @file
 * Fundamental types and small helpers shared across the UDP simulator.
 *
 * The UDP (Unstructured Data Processor, Fang et al., MICRO-50 2017) is a
 * 64-lane accelerator for ETL-style data transformation.  Every lane is a
 * 32-bit engine; dispatch targets are 12-bit word addresses into the lane's
 * dispatch window, and actions generate 32-bit byte addresses.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace udp {

/// 32-bit machine word: the width of registers, transitions and actions.
using Word = std::uint32_t;

/// 12-bit dispatch-memory word address (the `target` field width).
using DispatchAddr = std::uint16_t;

/// Lane-local byte address produced by actions.
using ByteAddr = std::uint32_t;

/// Simulation time in lane clock cycles (1 GHz nominal clock).
using Cycles = std::uint64_t;

/// Identifier of a state in an (un-laid-out) automaton / UDP program.
using StateId = std::uint32_t;

/// Sentinel for "no state".
inline constexpr StateId kNoState = std::numeric_limits<StateId>::max();

/// Number of lanes in a full UDP (paper Figure 3a).
inline constexpr unsigned kNumLanes = 64;

/// Local-memory bank size in bytes (16 KiB; 64 banks = 1 MiB total).
inline constexpr std::size_t kBankBytes = 16 * 1024;

/// Number of local-memory banks.
inline constexpr unsigned kNumBanks = 64;

/// Total local memory (1 MiB).
inline constexpr std::size_t kLocalMemBytes = kBankBytes * kNumBanks;

/// Dispatch window size in 32-bit words addressable by a 12-bit target.
inline constexpr std::size_t kDispatchWords = 1u << 12;

/// Number of scalar data registers per lane (r0..r15; r15 = stream index).
inline constexpr unsigned kNumScalarRegs = 16;

/// Register aliases with architectural meaning.
inline constexpr unsigned kRegDispatch = 0;   ///< r0: scalar dispatch source.
inline constexpr unsigned kRegStreamIdx = 15; ///< r15: stream byte index.

/// Nominal clock (Section 6: synthesized lane closes timing at ~1 GHz).
inline constexpr double kClockHz = 1.0e9;

/// Error raised on malformed programs or illegal machine operations.
class UdpError : public std::runtime_error
{
  public:
    explicit UdpError(const std::string &what) : std::runtime_error(what) {}
};

/// Byte buffer used for streams, memories and outputs.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over bytes.
using BytesView = std::span<const std::uint8_t>;

/// Extract bit field [lo, lo+width) from a word.
constexpr Word
bits(Word value, unsigned lo, unsigned width)
{
    return (value >> lo) & ((width >= 32) ? ~Word{0} : ((Word{1} << width) - 1));
}

/// Insert `field` into bits [lo, lo+width) of zero background.
constexpr Word
make_bits(Word field, unsigned lo, unsigned width)
{
    const Word mask = (width >= 32) ? ~Word{0} : ((Word{1} << width) - 1);
    return (field & mask) << lo;
}

/// Ceiling division for cycle-cost formulas.
constexpr std::uint64_t
ceil_div(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace udp
