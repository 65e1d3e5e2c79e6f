/**
 * @file
 * Decoded program images: the lowering IR of the threaded tier.
 *
 * A `DecodedProgram` expands a `Program`'s packed words once:
 *
 *  - every dispatch word as a decoded `Transition`;
 *  - every action word as a decoded `Action`;
 *  - per state: the signature, the auxiliary-chain walk results the
 *    reference interpreter recomputes per step (the `common` override,
 *    the DFA and NFA signature-miss fallbacks with their exact
 *    dispatch-read charge, and the epsilon activation list);
 *  - a dense slot→state table replacing `Program::find_state`.
 *
 * Each `CompiledProgram` (threaded_program.hpp) owns the image it was
 * lowered from: the compiler reads the DFA tables, and the threaded NFA
 * mode walks the per-state epsilon and fallback chains at run time.  The
 * image is immutable after construction and self-contained (it never
 * aliases the source Program), so it is shared read-only across lanes,
 * waves and host threads along with its compiled image.
 *
 * Every charge derived here is the one the reference interpreter makes
 * (pinned by tests/test_threaded.cpp).  This header also holds the
 * backend switch that selects a tier.
 */
#pragma once

#include "isa.hpp"
#include "program.hpp"

#include <string_view>
#include <vector>

namespace udp {

/// Sentinel stored for a dispatch word that does not decode (reserved
/// transition kind 7).  The reference interpreter throws only if such a
/// word is actually fetched; the threaded tier re-decodes the raw word
/// on fetch to raise the identical error.
inline constexpr TransitionType kInvalidTransitionType =
    static_cast<TransitionType>(7);

/// Sentinel opcode for an action word that does not decode (undefined
/// opcode).  Same fetch-time error contract as kInvalidTransitionType.
inline constexpr Opcode kInvalidOpcode = static_cast<Opcode>(0x7F);

/**
 * Per-state decoded metadata: everything `Lane::step` derives from
 * StateMeta plus per-step auxiliary-chain scans.
 */
struct DecodedState {
    std::uint32_t base = 0;         ///< full word address of the state
    std::uint16_t max_symbol = 255; ///< largest labeled slot offset
    std::uint8_t signature = 0;     ///< expected slot signature
    bool reg_source = false;        ///< dispatch symbol comes from r0

    /// First signature-matching `common` transition in the aux chain
    /// (replaces the whole labeled table when present).
    bool has_common = false;
    Transition common{};

    /// DFA signature-miss fallback: first majority/default hit of the
    /// chain walk.  `miss_reads` is the exact number of dispatch-word
    /// reads the reference walk charges (including the terminating word).
    bool has_miss = false;
    std::uint8_t miss_reads = 0;
    Transition miss{};

    /// NFA-mode fallback walk (also accepts `common`).
    bool has_miss_nfa = false;
    std::uint8_t miss_nfa_reads = 0;
    Transition miss_nfa{};

    /// Epsilon activations, chain order: [eps_begin, eps_end) into
    /// DecodedProgram's flattened epsilon pool.
    std::uint32_t eps_begin = 0;
    std::uint32_t eps_end = 0;
};

/**
 * The decoded image.  Built once per program; immutable after.
 */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const Program &prog);

    std::size_t dispatch_words() const { return transitions_.size(); }
    std::size_t action_words() const { return actions_.size(); }

    const Transition &transition(std::size_t slot) const {
        return transitions_[slot];
    }
    const Action &action(std::size_t addr) const { return actions_[addr]; }

    /// Dense replacement for Program::find_state; nullptr when `base`
    /// is not a state.
    const DecodedState *state_at(std::size_t base) const {
        if (base >= slot_state_.size())
            return nullptr;
        const std::int32_t ix = slot_state_[base];
        return ix < 0 ? nullptr : &states_[static_cast<std::size_t>(ix)];
    }

    const Transition *eps_begin(const DecodedState &s) const {
        return epsilons_.data() + s.eps_begin;
    }
    const Transition *eps_end(const DecodedState &s) const {
        return epsilons_.data() + s.eps_end;
    }

    /// Content fingerprint of the source program (the cache key).
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    std::vector<Transition> transitions_; ///< one per dispatch word
    std::vector<Action> actions_;         ///< one per action word
    std::vector<DecodedState> states_;
    std::vector<std::int32_t> slot_state_; ///< base -> index into states_
    std::vector<Transition> epsilons_;     ///< flattened per-state chains
    std::uint64_t fingerprint_ = 0;
};

/// 64-bit content fingerprint of a program (images, directory, init
/// configuration) — the identity key of the shared image cache.
std::uint64_t program_fingerprint(const Program &prog);

/**
 * Host interpreter tier (docs/PERFORMANCE.md, "Backend tiers").  Both
 * tiers produce bit-identical simulated results; they differ only in
 * host speed:
 *  - Legacy: the decode-per-step reference interpreter (the oracle);
 *  - Threaded: the flat threaded-code micro-op stream compiled from the
 *    DecodedProgram (core/threaded_program.hpp).
 */
enum class SimBackend : std::uint8_t {
    Legacy = 0,
    Threaded = 1,
};

/// Stable lower-case backend name ("legacy", "threaded").
std::string_view sim_backend_name(SimBackend b);

/// Parse a backend name as accepted by UDP_SIM_BACKEND; throws UdpError
/// naming the accepted values (legacy|threaded) for anything else.
SimBackend parse_sim_backend(std::string_view name);

/// The active backend.  Defaults to Threaded; the UDP_SIM_BACKEND
/// environment variable (legacy|threaded) overrides the default (read
/// on first query; an unknown value throws from every query).
SimBackend sim_backend();

/// Process-wide override of the environment default (benches and the
/// equivalence tests toggle this around whole runs).
void set_sim_backend(SimBackend b);

} // namespace udp
