/**
 * @file
 * udpbench: the measuring half of the repository benchmark.
 *
 *   udpbench --workload etl_load|scan_small|service_open --seed N
 *            --seconds S --out RAW.json [--trace-out TRACE.json]
 *            [--pin-only]
 *
 * Writes a raw report (samples, counters, simulated pins, oracle
 * verdict) to --out; run.py derives the metrics from it.  With
 * --trace-out the workload's spans are recorded and written there as
 * Chrome trace_event JSON.  Exits 0 when the report was written, even
 * if outputs were wrong (the verdict is in the report); 2 on bad usage.
 */
#include "common.hpp"

#include "core/decoded_program.hpp"
#include "core/threaded_program.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace udpbench {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

Spans::Scope::Scope(Spans &s, const char *name, std::uint64_t req)
    : spans_(s.enabled_ ? &s : nullptr), name_(name)
{
    if (!spans_)
        return;
    start_ = now_ns();
    saved_open_ = s.open_;
    if (s.spans_.size() < kMaxSpans) {
        index_ = static_cast<std::int32_t>(s.spans_.size());
        s.spans_.push_back({name, start_, start_, s.open_, req});
        s.open_ = index_;
    } else {
        ++s.dropped_;
    }
}

Spans::Scope::~Scope()
{
    if (!spans_)
        return;
    const std::int64_t end = now_ns();
    if (index_ >= 0)
        spans_->spans_[static_cast<std::size_t>(index_)].end = end;
    spans_->open_ = saved_open_;
    spans_->add_total(name_, end - start_);
}

void
Spans::add_total(const char *name, std::int64_t ns)
{
    Total &t = totals_[name];
    ++t.count;
    t.ns += ns;
}

void
Spans::request(std::uint64_t req, std::int64_t due_ns, std::int64_t end_ns)
{
    if (!enabled_)
        return;
    if (requests_.size() < kMaxRequests)
        requests_.push_back({req, due_ns, std::max(due_ns, end_ns)});
    else
        ++dropped_;
}

namespace {

/// Trace timestamps in 1/1024 µs ticks: every value is an exact binary
/// fraction, so a checker summing ts + dur in doubles sees exactly the
/// recorded nesting (decimal microseconds would round).
double
trace_us(std::int64_t ns_since_epoch)
{
    const std::int64_t ticks = (ns_since_epoch * 1024 + 500) / 1000;
    return double(ticks) / 1024.0;
}

} // namespace

bool
Spans::write_chrome_trace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    udp::JsonWriter w(os, false);
    w.begin_object();
    w.key("traceEvents").begin_array();
    const auto meta = [&](const char *what, int tid, const char *name) {
        w.begin_object()
            .field("ph", "M")
            .field("name", what)
            .field("pid", 1)
            .field("tid", tid);
        w.key("args").begin_object().field("name", name).end_object();
        w.end_object();
    };
    meta("process_name", 0, "udpbench");
    meta("thread_name", 1, "benchmark calls");
    meta("thread_name", 2, "requests");

    // Calls: already in start order, parents before their children.
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double ts = trace_us(s.start - epoch_);
        w.begin_object()
            .field("ph", "X")
            .field("cat", "call")
            .field("name", s.name)
            .field("pid", 1)
            .field("tid", 1)
            .field("ts", ts)
            .field("dur", trace_us(s.end - epoch_) - ts);
        w.key("args")
            .begin_object()
            .field("span", std::uint64_t(i))
            .field("parent", std::int64_t(s.parent))
            .field("req", s.req)
            .end_object();
        w.end_object();
    }

    // Request lifetimes on their own track, sorted by time.
    struct Edge {
        std::int64_t at;
        bool begin;
        std::uint64_t req;
    };
    std::vector<Edge> edges;
    edges.reserve(2 * requests_.size());
    for (const Request &r : requests_) {
        edges.push_back({r.due, true, r.req});
        edges.push_back({r.end, false, r.req});
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const Edge &a, const Edge &b) {
                         return a.at < b.at;
                     });
    for (const Edge &e : edges) {
        const std::string id = "req-" + std::to_string(e.req);
        w.begin_object()
            .field("ph", e.begin ? "b" : "e")
            .field("cat", "request")
            .field("name", "request")
            .field("id", id)
            .field("pid", 1)
            .field("tid", 2)
            .field("ts", trace_us(e.at - epoch_));
        w.key("args").begin_object().field("req", e.req).end_object();
        w.end_object();
    }
    if (dropped_) {
        w.begin_object()
            .field("ph", "i")
            .field("name", "spans dropped past cap")
            .field("pid", 1)
            .field("tid", 1)
            .field("s", "g")
            .field("ts", spans_.empty()
                             ? 0.0
                             : trace_us(spans_.back().start - epoch_));
        w.key("args").begin_object().field("dropped", dropped_).end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
    return bool(os);
}

void
Spans::write_totals(udp::JsonWriter &w) const
{
    std::vector<std::string> names;
    for (const auto &[name, t] : totals_)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    w.begin_object();
    for (const std::string &name : names) {
        const Total &t = totals_.at(name);
        w.key(name)
            .begin_object()
            .field("count", t.count)
            .field("ns", t.ns)
            .end_object();
    }
    w.end_object();
}

// ---------------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------------

void
KernelTotals::add(const udp::runtime::ScheduleReport &rep, double run_seconds)
{
    run_s += run_seconds;
    setup_s += rep.host_setup_seconds;
    simulate_s += rep.host_simulate_seconds;
    harvest_s += rep.host_harvest_seconds;
    jobs += rep.jobs.size();
    waves += rep.waves.size();
    for (const auto &wave : rep.waves)
        active_lanes += wave.active_lanes;
    retries += rep.retries;
    quarantined += rep.quarantined;
    stats.add(rep.total);
}

void
KernelTotals::write(udp::JsonWriter &w) const
{
    w.begin_object()
        .field("run_s", run_s)
        .field("setup_s", setup_s)
        .field("simulate_s", simulate_s)
        .field("harvest_s", harvest_s)
        .field("jobs", jobs)
        .field("waves", waves)
        .field("active_lanes", active_lanes)
        .field("retries", retries)
        .field("quarantined", quarantined);
    w.key("stats");
    udp::write_lane_stats(w, stats);
    w.end_object();
}

void
Check::write(udp::JsonWriter &w) const
{
    w.begin_object()
        .field("attempted", attempted)
        .field("failed", failed)
        .field("wrong", wrong)
        .field("first_error", first_error)
        .end_object();
}

void
Pin::add(const udp::runtime::ScheduleReport &rep)
{
    stats.add(rep.total);
    wall_cycles += rep.wall_cycles;
    jobs += rep.jobs.size();
    waves += rep.waves.size();
}

void
Pin::add(const Pin &other)
{
    stats.add(other.stats);
    wall_cycles += other.wall_cycles;
    bytes += other.bytes;
    jobs += other.jobs;
    waves += other.waves;
}

bool
Pin::same_counters(const Pin &other) const
{
    return stats == other.stats && wall_cycles == other.wall_cycles &&
           bytes == other.bytes && jobs == other.jobs &&
           waves == other.waves;
}

void
Pin::write(udp::JsonWriter &w) const
{
    w.begin_object();
    w.key("stats");
    udp::write_lane_stats(w, stats);
    w.field("wall_cycles", std::uint64_t(wall_cycles))
        .field("bytes", bytes)
        .field("jobs", jobs)
        .field("waves", waves)
        .field("repeat_identical", repeat_identical)
        .end_object();
}

namespace {

volatile std::uint64_t probe_sink;

/// Host milliseconds of a fixed probe shaped like an interpreter loop:
/// data-dependent dispatch over a small byte program plus loads and
/// stores into a 64 KiB table.  It slows under the same contention as
/// the simulator (an integer-only loop tracks it far less well).
double
probe_ms()
{
    static const std::vector<std::uint8_t> prog = [] {
        std::vector<std::uint8_t> v(4096);
        std::uint32_t x = 7;
        for (auto &e : v) {
            x = x * 1103515245u + 12345u;
            e = static_cast<std::uint8_t>((x >> 16) & 7);
        }
        return v;
    }();
    static std::vector<std::uint32_t> table(16384, 3);
    const std::int64_t t0 = now_ns();
    std::uint64_t acc = 1;
    std::uint32_t pc = 0;
    for (int i = 0; i < 100000; ++i) {
        switch (prog[pc]) {
        case 0: acc += table[acc & 16383]; break;
        case 1: acc ^= acc << 5; break;
        case 2: acc = acc * 33 + 1; break;
        case 3: table[acc & 16383] = static_cast<std::uint32_t>(acc); break;
        case 4: acc += pc; break;
        case 5: acc ^= acc >> 3; break;
        case 6: acc -= table[(acc >> 7) & 16383]; break;
        default: acc += 7; break;
        }
        pc = (pc + 1 + static_cast<std::uint32_t>(acc & 3)) & 4095;
    }
    probe_sink = acc;
    return double(now_ns() - t0) * 1e-6;
}

} // namespace

CpuPicker::CpuPicker()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                allowed_.push_back(c);
}

void
CpuPicker::pin(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

std::vector<int>
CpuPicker::ranked()
{
    std::vector<std::pair<double, int>> speed;
    for (const int c : allowed_) {
        pin(c);
        speed.emplace_back(std::min(probe_ms(), probe_ms()), c);
    }
    std::sort(speed.begin(), speed.end());
    if (!speed.empty())
        best_.push_back(speed.front().first);
    std::vector<int> out;
    for (const auto &[ms, c] : speed)
        out.push_back(c);
    return out;
}

void
CpuPicker::repin_if_due(std::int64_t period_ns)
{
    const std::int64_t now = now_ns();
    if (now < next_ || allowed_.empty())
        return;
    pin(ranked().front());
    next_ = now_ns() + period_ns;
}

udp::runtime::SchedulerOptions
serial_options()
{
    udp::runtime::SchedulerOptions o;
    o.threads = 1;
    return o;
}

void
write_array(udp::JsonWriter &w, const std::vector<double> &v)
{
    w.begin_array();
    for (const double x : v)
        w.value(x);
    w.end_array();
}

void
Setup::burst()
{
    const std::int64_t start = now_ns();
    next_ = start + kEveryNs;
    std::vector<Sample> &samples = bursts_.emplace_back();
    do {
        const std::int64_t t0 = now_ns();
        Programs programs;
        {
            Spans::Scope s(spans_, "kernels.spec_build");
            programs = build_();
        }
        const std::int64_t t1 = now_ns();
        for (const auto &p : programs) {
            const udp::CompiledProgram cp(
                *p, std::make_shared<udp::DecodedProgram>(*p));
            if (cp.op_count() == 0)
                throw udp::UdpError("set-up: empty compiled image");
        }
        const std::int64_t t2 = now_ns();
        samples.push_back({seconds_between(t0, t2),
                           seconds_between(t0, t1) * 1e3,
                           seconds_between(t1, t2) * 1e6});
    } while (now_ns() - start < kBurstNs);
}

void
Setup::burst_if_due()
{
    if (now_ns() >= next_)
        burst();
}

void
Setup::write(udp::JsonWriter &w) const
{
    const auto field = [&](const char *name, double Sample::*member) {
        w.key(name).begin_array();
        for (const auto &b : bursts_) {
            w.begin_array();
            for (const Sample &s : b)
                w.value(s.*member);
            w.end_array();
        }
        w.end_array();
    };
    w.begin_object().field("automata", automata_);
    field("setup_s", &Sample::setup_s);
    field("spec_build_ms", &Sample::spec_build_ms);
    field("compile_us", &Sample::compile_us);
    w.end_object();
}

void
Phase::write(udp::JsonWriter &w) const
{
    w.begin_object().field("traced", traced);
    w.key("requests").begin_array();
    for (const Request &r : requests) {
        w.begin_array()
            .value(std::uint64_t(r.input))
            .value(r.host_s)
            .value(r.bytes)
            .value(r.jobs);
        w.end_array();
    }
    w.end_array();
    w.key("kernels").begin_object();
    for (const auto &[role, k] : kernels) {
        w.key(role);
        k.write(w);
    }
    w.end_object();
    w.field("rows", rows)
        .field("deserialize_s", deserialize_s)
        .field("pool_acquired", pool.acquired)
        .field("pool_reused", pool.reused)
        .end_object();
}

void
write_common(udp::JsonWriter &w, const Setup &setup, const Pin &pin,
             const CpuPicker &cpus, const Check &check)
{
    w.key("setup");
    setup.write(w);
    w.key("pin");
    pin.write(w);
    w.key("probe_ms");
    write_array(w, cpus.fastest_probe_ms());
    w.key("check");
    check.write(w);
}

std::uint64_t
peak_rss_kb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

} // namespace udpbench

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "udpbench: %s\nusage: udpbench --workload W --seed N "
                 "--seconds S --out RAW.json [--trace-out TRACE.json] "
                 "[--pin-only]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace udpbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--pin-only") {
            opt.pin_only = true;
        } else if (!has_value) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = argv[++i];
        } else if (a == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--out") {
            opt.out = argv[++i];
        } else if (a == "--trace-out") {
            opt.trace_out = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    opt.trace = !opt.trace_out.empty();
    if (opt.out.empty())
        return usage("--out is required");
    if (!(opt.seconds > 0) && !opt.pin_only)
        return usage("--seconds must be positive");

    std::ofstream os(opt.out);
    if (!os)
        return usage(("cannot write " + opt.out).c_str());
    Spans spans;
    udp::JsonWriter w(os, false);
    w.begin_object()
        .field("workload", opt.workload)
        .field("seed", opt.seed)
        .field("seconds", opt.seconds)
        .field("trace", opt.trace)
        .field("pin_only", opt.pin_only);
    try {
        if (opt.workload == "etl_load")
            run_etl_load(opt, spans, w);
        else if (opt.workload == "scan_small")
            run_scan_small(opt, spans, w);
        else if (opt.workload == "service_open")
            run_service_open(opt, spans, w);
        else
            return usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "udpbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    w.key("spans");
    spans.write_totals(w);
    w.field("peak_rss_kb", peak_rss_kb());
    w.end_object();
    os << '\n';
    if (!os)
        return 1;
    if (opt.trace && !spans.write_chrome_trace(opt.trace_out)) {
        std::fprintf(stderr, "udpbench: cannot write %s\n",
                     opt.trace_out.c_str());
        return 1;
    }
    return 0;
}
