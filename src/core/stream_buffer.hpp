/**
 * @file
 * Per-lane stream buffer with prefetch and variable-size symbol support
 * (paper Sections 3.2.2 and 3.2.3, "SBP Unit" in Figure 23).
 *
 * The stream buffer presents the input as a bit stream.  Symbols of the
 * configured width (symbol-size register: 1..8, 16 or 32 bits) are fetched
 * MSB-first within each byte, which matches bit-packed encodings such as
 * Huffman.  `refill` pushes back over-consumed bits (the SsRef mechanism).
 *
 * The hardware prefetcher keeps the next symbol ready, so fetches cost no
 * extra cycles in the lane model; what the model does charge is the refill
 * transition itself (one dispatch slot).
 */
#pragma once

#include "types.hpp"

namespace udp {

/// Bit-granular input stream for a UDP lane.
class StreamBuffer
{
  public:
    StreamBuffer() = default;

    /// Attach the buffer to `data` and rewind. The data is not copied;
    /// the caller keeps it alive while the lane runs.
    void attach(BytesView data);

    /// Current cursor, in bits from the start.
    std::uint64_t pos_bits() const { return pos_bits_; }

    /// Current cursor in whole bytes (architectural r15 value).
    std::uint64_t pos_bytes() const { return pos_bits_ / 8; }

    /// Bits remaining.
    std::uint64_t remaining_bits() const { return size_bits_ - pos_bits_; }

    /// True when fewer than `width` bits remain.
    bool exhausted(unsigned width) const { return remaining_bits() < width; }

    /**
     * Consume `width` bits (1..32) and return them right-aligned.
     * Bits are taken MSB-first. Throws UdpError past end of stream.
     */
    Word read(unsigned width) {
        const Word v = peek(width);
        pos_bits_ += width;
        return v;
    }

    /// Read without consuming.  A byte-aligned whole byte (the common
    /// case) is one load; everything else gathers bits out of line.
    Word peek(unsigned width) const {
        if (width == 8 && (pos_bits_ & 7) == 0 && pos_bits_ < size_bits_)
            return data_[static_cast<std::size_t>(pos_bits_ >> 3)];
        return gather(width);
    }

    /// Advance the cursor by `nbits` without delivering data.
    void skip(std::uint64_t nbits);

    /// Push back `nbits` previously consumed bits (refill transition).
    void refill(std::uint64_t nbits);

    /// Absolute reposition (Setstream action), in bits.
    void seek_bits(std::uint64_t bit_pos);

    /// Byte at absolute byte offset (loop-compare/copy source view).
    BytesView data() const { return data_; }

  private:
    /// The threaded-code backend steps runs of byte-aligned whole-byte
    /// symbols straight from data_ (core/threaded_program.hpp) — the
    /// same values read(8) returns.
    friend class ThreadedEngine;

    /// peek() for unaligned or non-byte widths, and its faults.
    Word gather(unsigned width) const;

    BytesView data_{};
    std::uint64_t size_bits_ = 0;
    std::uint64_t pos_bits_ = 0;
};

} // namespace udp
