/**
 * @file
 * KernelSpec: a kernel's reusable description of how to turn input bytes
 * into a JobPlan.
 *
 * Each kernel states once — program, window footprint, per-job input
 * cap, static register initialization, and a `prepare` hook for
 * input-dependent staging/extraction — and every harness (tests,
 * benches, the ETL loader, the wave Scheduler) derives its jobs from
 * that single description via `make_job` or `chunk_jobs`.
 */
#pragma once

#include "runtime/job.hpp"

#include <functional>
#include <mutex>

namespace udp::runtime {

/**
 * The compiled image of a spec's program, resolved once for all the
 * jobs made from it (KernelSpec::make_job).  It holds the program it
 * was resolved for, so a spec whose `program` is reassigned resolves
 * again (a freed program's address cannot alias the new one).  Copies
 * carry the resolved image.  Thread-safe.
 */
class SpecImage
{
  public:
    SpecImage() = default;
    SpecImage(const SpecImage &o);
    SpecImage &operator=(const SpecImage &o);

    /// The shared image of `prog` (shared_compiled), looked up only
    /// when `prog` is not the program last resolved.
    std::shared_ptr<const CompiledProgram>
    get(const std::shared_ptr<const Program> &prog) const;

  private:
    mutable std::mutex mu_;
    mutable std::shared_ptr<const Program> prog_;           ///< by mu_
    mutable std::shared_ptr<const CompiledProgram> image_; ///< by mu_
};

/// How one kernel maps input bytes onto lane jobs.
struct KernelSpec {
    std::string name;
    std::shared_ptr<const Program> program;
    std::size_t window_bytes = kBankBytes;
    std::size_t max_input_bytes = 0; ///< per-job input cap (0 = none)
    bool nfa_mode = false;
    std::vector<std::pair<unsigned, Word>> init_regs;

    /// Input-dependent setup, run after the plan's input is set: push
    /// MemStage / MemExtract entries, add input-derived init registers.
    std::function<void(JobPlan &)> prepare;

    /// Build one job over `input` (throws when the cap is exceeded).
    /// Takes an ArenaSlice — a pinned view, cheap to pass by value.
    /// `Bytes` still converts implicitly (a private single-job arena is
    /// materialized from it), but multi-job call sites should build one
    /// arena and slice it: the bytes are then never copied at all.
    /// Under the Threaded backend the jobs of a spec that owns its
    /// program share one image, resolved on the first call; a borrowed
    /// program (borrow_program) is looked up per job, as its owner may
    /// change it in place between calls.
    JobPlan make_job(ArenaSlice input) const;

    /// make_job's image of an owned `program`.
    SpecImage image;
};

/**
 * Chunk-boundary adjuster: given the whole input and a tentative chunk
 * [begin, end), return a new end in (begin, end] that is a legal split
 * point.  Returning `begin` means no legal split exists (error).
 */
using ChunkAlign =
    std::function<std::size_t(BytesView data, std::size_t begin,
                              std::size_t end)>;

/// ChunkAlign that shrinks `end` to just past the last `delim` byte.
ChunkAlign align_after_delim(std::uint8_t delim);

/**
 * Split `input` into jobs of at most `chunk_bytes` each (clamped to the
 * spec's per-job cap), aligning every split with `align` when given.
 * Chunks cover the input exactly, in order.
 *
 * Zero-copy: every chunk is a sub-slice pinning `input`'s arena — no
 * chunk ever copies payload bytes.  Callers with a view they do not
 * own wrap it first (`ArenaSlice::copy_of` — one copy total — or
 * `ArenaSlice::borrow` when the storage provably outlives the jobs).
 */
std::vector<JobPlan> chunk_jobs(const KernelSpec &spec, ArenaSlice input,
                                std::size_t chunk_bytes,
                                const ChunkAlign &align = nullptr);

/// Non-owning shared_ptr view of a caller-owned program (the caller
/// guarantees the program outlives every job built from it).
std::shared_ptr<const Program> borrow_program(const Program &prog);

} // namespace udp::runtime
