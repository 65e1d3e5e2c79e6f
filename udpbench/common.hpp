/**
 * @file
 * Shared pieces of the udpbench measuring program: options, the span
 * recorder, per-layer accumulators and the raw-report writer.
 *
 * udpbench measures; run.py turns the raw report into metrics.  All
 * timing uses std::chrono::steady_clock.  Spans are recorded only
 * around calls into the simulator's public functions — the benchmark
 * adds no instrumentation inside src/.
 */
#pragma once

#include "core/metrics_json.hpp"
#include "core/stats.hpp"
#include "runtime/scheduler.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace udpbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
seconds_between(std::int64_t from_ns, std::int64_t to_ns)
{
    return double(to_ns - from_ns) * 1e-9;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Only build inputs, check the oracle and record the simulated pin.
    bool pin_only = false;
    std::string out;       ///< raw report path
    std::string trace_out; ///< Chrome trace path (traced runs)
};

/**
 * In-memory span recorder.  A span is a name, start, end, parent span
 * and request id; spans nest on the benchmark's main thread.  Request
 * lifetimes (due -> terminal) are recorded separately as async spans.
 * Per-name totals keep counting after the stored-span cap is reached.
 * Disabled, a Scope costs one branch.
 */
class Spans
{
  public:
    struct Total {
        std::uint64_t count = 0;
        std::int64_t ns = 0;
    };

    void set_enabled(bool on) { enabled_ = on; }

    class Scope
    {
      public:
        Scope(Spans &s, const char *name, std::uint64_t req = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *spans_;
        const char *name_;
        std::int64_t start_ = 0;
        std::int32_t index_ = -1;
        std::int32_t saved_open_ = -1;
    };

    /// Record one request's lifetime, from when it was due to when its
    /// terminal outcome was known.
    void request(std::uint64_t req, std::int64_t due_ns,
                 std::int64_t end_ns);

    /// Chrome trace_event JSON: X slices for calls, nestable async b/e
    /// pairs for request lifetimes.  Returns false when unwritable.
    bool write_chrome_trace(const std::string &path) const;

    void write_totals(udp::JsonWriter &w) const;

  private:
    void add_total(const char *name, std::int64_t ns);

    struct Span {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::int32_t parent;
        std::uint64_t req;
    };
    struct Request {
        std::uint64_t req;
        std::int64_t due;
        std::int64_t end;
    };

    static constexpr std::size_t kMaxSpans = 100000;
    static constexpr std::size_t kMaxRequests = 20000;

    bool enabled_ = false;
    std::int64_t epoch_ = now_ns();
    std::vector<Span> spans_;
    std::vector<Request> requests_;
    std::int32_t open_ = -1;
    std::uint64_t dropped_ = 0;
    std::unordered_map<std::string, Total> totals_;
};

/// Per-kernel host/simulated accounting, summed over Scheduler::run
/// reports (the public phase times and LaneStats).
struct KernelTotals {
    double run_s = 0;      ///< benchmark-measured Scheduler::run time
    double setup_s = 0;    ///< ScheduleReport::host_setup_seconds
    double simulate_s = 0; ///< ScheduleReport::host_simulate_seconds
    double harvest_s = 0;  ///< ScheduleReport::host_harvest_seconds
    std::uint64_t jobs = 0;
    std::uint64_t waves = 0;
    std::uint64_t active_lanes = 0;
    std::uint64_t retries = 0;
    std::uint64_t quarantined = 0;
    udp::LaneStats stats;

    void add(const udp::runtime::ScheduleReport &rep, double run_seconds);
    void write(udp::JsonWriter &w) const;
};

/// One timed request of a closed-loop workload.
struct Request {
    std::uint32_t input = 0; ///< index into the workload's input pool
    double host_s = 0;       ///< request latency, host seconds
    std::uint64_t bytes = 0; ///< input bytes the request processed
    std::uint64_t jobs = 0;  ///< lane jobs it ran
};

/// Outcome of checking outputs against a workload's oracle.
struct Check {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< refused, expired or wrong operations
    std::uint64_t wrong = 0;  ///< outputs that differ from the oracle
    std::string first_error;

    /// A wrong output: the run is incorrect.
    void fail(const std::string &why) {
        ++failed;
        ++wrong;
        if (first_error.empty())
            first_error = why;
    }
    /// Operations the service refused or let expire: they count as
    /// failed but say nothing about correctness.
    void refuse(std::uint64_t n) { failed += n; }
    void write(udp::JsonWriter &w) const;
};

/// Simulated counters of one deterministic pass over a workload's
/// input pool: identical on every pass and every run of one seed.
struct Pin {
    udp::LaneStats stats;
    udp::Cycles wall_cycles = 0;
    std::uint64_t bytes = 0;
    std::uint64_t jobs = 0;
    std::uint64_t waves = 0;
    bool repeat_identical = true; ///< later passes matched the first

    void add(const udp::runtime::ScheduleReport &rep);
    void add(const Pin &other);
    bool same_counters(const Pin &other) const;
    void write(udp::JsonWriter &w) const;
};

/**
 * Host times of set-ups.  One set-up builds the workload's kernel
 * programs (assembler, EffCLiP, automata compilers), then lowers each
 * image cold (DecodedProgram + CompiledProgram).  Set-ups run in short
 * bursts spread over the whole run, so they meet the same host states
 * as the measured loop; metrics.py keeps the quietest quarter of bursts.
 */
class Setup
{
  public:
    using Programs = std::vector<std::shared_ptr<const udp::Program>>;

    /// A burst repeats set-ups for this long (at least one set-up).
    static constexpr std::int64_t kBurstNs = 50'000'000;
    /// Bursts start this far apart during a run.
    static constexpr std::int64_t kEveryNs = 500'000'000;

    /// `automata`: the kernel builds run the automata compiler.
    Setup(Spans &spans, bool automata, std::function<Programs()> build)
        : spans_(spans), automata_(automata), build_(std::move(build))
    {
    }

    void burst();
    /// A burst when kEveryNs has passed since the last one started.
    void burst_if_due();
    void write(udp::JsonWriter &w) const;

  private:
    struct Sample {
        double setup_s, spec_build_ms, compile_us;
    };

    Spans &spans_;
    bool automata_;
    std::function<Programs()> build_;
    std::vector<std::vector<Sample>> bursts_;
    std::int64_t next_ = 0;
};

/**
 * On a shared host the CPUs this process may use differ in speed from
 * second to second (busy hyperthread siblings, co-located load), by up
 * to 1.5x.  The benchmark therefore runs its measuring thread on the
 * allowed CPU that currently completes a fixed probe loop fastest, and
 * re-picks periodically, so a run measures the program rather than its
 * neighbours.  The probe does not touch the simulator.
 */
class CpuPicker
{
  public:
    /// Records the calling thread's allowed CPUs: construct before
    /// pinning anything.
    CpuPicker();

    /// Allowed CPUs, fastest first.
    std::vector<int> ranked();

    /// Pin the calling thread to `cpu` (threads it creates inherit it).
    static void pin(int cpu);

    /// Pin the calling thread to the fastest CPU when `period_ns` has
    /// passed since the last pick.
    void repin_if_due(std::int64_t period_ns);

    /// Probe time of the fastest CPU at each ranking: how fast the host
    /// ran this run, for comparing runs made at different times.
    const std::vector<double> &fastest_probe_ms() const { return best_; }

  private:
    std::vector<int> allowed_;
    std::vector<double> best_;
    std::int64_t next_ = 0;
};

/// One measured stretch of a closed loop: its requests and what the
/// public reports said about them.
struct Phase {
    bool traced = false;
    std::vector<Request> requests;
    std::map<std::string, KernelTotals> kernels; ///< by kernel role
    std::uint64_t rows = 0;   ///< etl_load: table rows deserialized
    double deserialize_s = 0; ///< etl_load: CPU deserialize time
    udp::runtime::BufferPool::Stats pool; ///< acquires during the phase

    void write(udp::JsonWriter &w) const;
};

/// How often a closed loop re-picks its CPU.
inline constexpr std::int64_t kRepinNs = 250'000'000;

/**
 * Drive a closed loop for --seconds: `request(i, phase)` issues request
 * i and records it in `phase`.  An untraced run is one phase; a traced
 * run is an untraced half then a traced half, whose difference is the
 * tracing overhead.  Set-up bursts run between requests.  `pool` is
 * the scheduler's buffer pool.
 */
template <typename Fn>
std::vector<Phase>
run_closed_loop(const Options &opt, Spans &spans, CpuPicker &cpus,
                Setup &setup, const udp::runtime::BufferPool &pool,
                Fn &&request)
{
    std::vector<Phase> phases;
    if (opt.pin_only)
        return phases;
    const int n = opt.trace ? 2 : 1;
    for (int p = 0; p < n; ++p) {
        Phase ph;
        ph.traced = opt.trace && p == 1;
        spans.set_enabled(ph.traced);
        const auto before = pool.stats();
        const std::int64_t end =
            now_ns() + std::int64_t(opt.seconds / n * 1e9);
        for (std::size_t i = 0; now_ns() < end; ++i) {
            cpus.repin_if_due(kRepinNs);
            setup.burst_if_due();
            request(i, ph);
        }
        const auto after = pool.stats();
        ph.pool.acquired = after.acquired - before.acquired;
        ph.pool.reused = after.reused - before.reused;
        phases.push_back(std::move(ph));
    }
    spans.set_enabled(false);
    return phases;
}

/// The fields every workload reports: set-up times, the simulated pin,
/// the host probe times and the oracle verdict.
void write_common(udp::JsonWriter &w, const Setup &setup, const Pin &pin,
                  const CpuPicker &cpus, const Check &check);

/// Scheduler options of every batch the benchmark runs: serial
/// simulation on the calling thread.
udp::runtime::SchedulerOptions serial_options();

void write_array(udp::JsonWriter &w, const std::vector<double> &v);

/// Peak resident set size of this process, KiB.
std::uint64_t peak_rss_kb();

// Workloads.  Each writes its fields into the open top-level object.
void run_etl_load(const Options &opt, Spans &spans, udp::JsonWriter &w);
void run_scan_small(const Options &opt, Spans &spans, udp::JsonWriter &w);
void run_service_open(const Options &opt, Spans &spans,
                      udp::JsonWriter &w);

} // namespace udpbench
