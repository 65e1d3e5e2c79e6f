/**
 * @file
 * Workload `service_open`: open-loop Poisson arrivals into one
 * service::Service at fixed absolute rates.
 *
 * One generator thread (the caller) owns the arrival schedule: it
 * submits each request when due, polls outcomes without blocking, and
 * samples the service backlog.  Tenants are ids, not threads: three
 * well-behaved tenants submit trigger-kernel jobs, a hostile one
 * submits a FaultInjector corpus (poisoned programs, transient traps),
 * and every 16th well-behaved request is cancelled right after submit.
 * A request's latency runs from when it was due to its terminal
 * outcome, so generator stalls count against the service.
 *
 * Each rate gets its own window and its own Service.  The low and high
 * rates are the reported operating points; their well-behaved requests
 * must not be refused or expire.  The rates above them probe for the
 * highest sustainable rate; refusals there are the expected sign of
 * overload and are reported, not counted as failures.
 *
 * Oracle: every Done well-behaved result is bit-identical to a direct
 * Scheduler::run of the same plan.
 */
#include "common.hpp"

#include "kernels/trigger.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "service/service.hpp"
#include "workloads/generators.hpp"

#include <cmath>
#include <deque>
#include <thread>

namespace udpbench {
namespace {

using namespace udp;
using service::JobState;

/// Fixed absolute arrival rates, jobs/s over all tenants.  Never scaled
/// by a capacity probe: a faster build is offered the same load.
constexpr double kLowRate = 1000;
constexpr double kHighRate = 4000;
constexpr double kProbeRates[] = {8000, 16000, 24000, 32000, 48000};
/// Share of --seconds each window gets: the reported rates run longer.
constexpr double kLowWeight = 2, kHighWeight = 3, kProbeWeight = 1;
/// Share of --seconds spent on saturated bursts (closed loop).
constexpr double kBurstWeight = 2;

constexpr unsigned kGoodTenants = 3;
constexpr unsigned kTenants = kGoodTenants + 1; ///< last one is hostile
constexpr unsigned kCancelEvery = 16;
constexpr double kDeadlineS = 0.5;
constexpr std::size_t kCorpusSamples = 200000;
constexpr unsigned kTriggerWidth = 6;
constexpr std::size_t kHostilePlans = 32;
constexpr std::int64_t kBacklogSampleNs = 10'000'000;
constexpr std::int64_t kPollEveryNs = 200'000;
constexpr std::int64_t kSpinNs = 300'000;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Exponential inter-arrival gap in ns for `rate` arrivals/s.
std::int64_t
exp_gap_ns(std::uint64_t &state, double rate)
{
    state = mix64(state);
    const double u = (double(state >> 11) + 0.5) / 9007199254740992.0;
    return std::int64_t(-std::log(u) / rate * 1e9);
}

bool
same_result(const runtime::JobResult &a, const runtime::JobResult &b)
{
    if (a.status != b.status || !(a.stats == b.stats) || a.regs != b.regs ||
        a.output != b.output || a.extracts != b.extracts ||
        a.accepts.size() != b.accepts.size())
        return false;
    for (std::size_t i = 0; i < a.accepts.size(); ++i)
        if (a.accepts[i].stream_bit_pos != b.accepts[i].stream_bit_pos)
            return false;
    return true;
}

struct Outcomes {
    std::uint64_t submitted = 0, done = 0, cancelled = 0, refused = 0,
                  expired = 0, quarantined = 0, wrong = 0;

    void write(JsonWriter &w) const {
        w.begin_object()
            .field("submitted", submitted)
            .field("done", done)
            .field("cancelled", cancelled)
            .field("refused", refused)
            .field("expired", expired)
            .field("quarantined", quarantined)
            .field("wrong", wrong)
            .end_object();
    }
};

struct Window {
    double rate = 0;
    double seconds = 0;
    bool gated = false; ///< reported rate: good requests must not fail
    std::vector<double> latency_ms; ///< good Done requests, from due
    std::vector<double> late_us;    ///< submit time minus due time
    std::vector<double> submit_us;  ///< Service::submit call time
    std::vector<std::pair<double, std::uint64_t>> backlog;
    std::uint64_t backlog_end = 0;
    std::uint64_t good_bytes = 0;
    Outcomes good, hostile;
    service::ServiceStats stats;
    std::uint64_t retries = 0, quarantined = 0, breaker_trips = 0, shed = 0;
};

struct Corpus {
    std::vector<runtime::JobPlan> good;
    std::vector<runtime::JobPlan> hostile;
    std::vector<runtime::JobResult> reference; ///< direct run of `good`
};

service::ServiceOptions
service_options(runtime::MetricRegistry &reg)
{
    service::ServiceOptions so;
    so.sched = serial_options();
    so.sched.retry.max_attempts = 2;
    so.registry = &reg;
    return so;
}

std::uint64_t
backlog_of(const service::ServiceStats &st)
{
    std::uint64_t n = 0;
    for (const auto &t : st.tenants)
        n += t.queue_depth + t.in_flight;
    return n;
}

struct Pending {
    service::JobId id;
    std::int64_t due, submitted;
    std::uint64_t req;
    std::size_t plan;
    bool good;
};

/// Run one open-loop window at `rate` for `seconds`.
Window
run_window(const Corpus &corpus, double rate, double seconds, bool gated,
           std::uint64_t seed, CpuPicker &picker, Spans &spans,
           Check &check, std::uint64_t &next_req)
{
    Window win;
    win.rate = rate;
    win.seconds = seconds;
    win.gated = gated;
    // The service's run loop inherits the second-fastest CPU; the
    // generator then moves to the fastest.
    const std::vector<int> cpus = picker.ranked();
    CpuPicker::pin(cpus[cpus.size() > 1 ? 1 : 0]);
    runtime::MetricRegistry reg;
    service::Service svc(service_options(reg));
    CpuPicker::pin(cpus[0]);
    for (unsigned t = 0; t < kTenants; ++t) {
        service::TenantOptions topt;
        topt.name = t < kGoodTenants ? "tenant" + std::to_string(t)
                                     : "hostile";
        // Token refill well above any offered per-tenant rate: overload
        // shows as queueing and QueueFull, not as rate limiting.
        topt.rate_jobs_per_s = 2 * kProbeRates[std::size(kProbeRates) - 1];
        topt.burst = 64;
        topt.queue_capacity = 256;
        topt.overflow = service::OverflowPolicy::Shed;
        svc.register_tenant(topt);
    }

    // Sized up front so sample storage does not grow mid-window.
    const auto expected = static_cast<std::size_t>(rate * seconds * 1.2);
    win.latency_ms.reserve(expected);
    win.late_us.reserve(expected);
    win.submit_us.reserve(expected);

    std::uint64_t rng = mix64(seed);
    std::uint64_t good_n = 0, hostile_n = 0;
    std::deque<Pending> pending;
    const auto settle = [&](const Pending &p,
                            const service::JobOutcome &out) {
        Outcomes &o = p.good ? win.good : win.hostile;
        switch (out.state) {
        case JobState::Done: {
            ++o.done;
            const std::int64_t end =
                p.submitted + std::int64_t(out.e2e_seconds * 1e9);
            spans.request(p.req, p.due, end);
            if (!p.good)
                break;
            if (!same_result(out.result, corpus.reference[p.plan])) {
                ++o.wrong;
                check.fail("service result of plan " +
                           std::to_string(p.plan) +
                           " differs from a direct Scheduler::run");
            }
            win.latency_ms.push_back(double(end - p.due) * 1e-6);
            win.good_bytes += corpus.good[p.plan].input.size();
            break;
        }
        case JobState::Cancelled: ++o.cancelled; break;
        case JobState::Rejected: ++o.refused; break;
        case JobState::Expired: ++o.expired; break;
        case JobState::Quarantined: ++o.quarantined; break;
        case JobState::Queued:
        case JobState::Running: break;
        }
    };
    const auto poll_front = [&] {
        while (!pending.empty()) {
            std::optional<service::JobOutcome> out;
            {
                Spans::Scope s(spans, "service.poll", pending.front().req);
                out = svc.poll(pending.front().id);
            }
            if (out && !out->terminal())
                return;
            if (out) {
                settle(pending.front(), *out);
                svc.recycle(std::move(*out));
            }
            pending.pop_front();
        }
    };

    const std::int64_t start = now_ns();
    const std::int64_t end = start + std::int64_t(seconds * 1e9);
    std::int64_t due = start + exp_gap_ns(rng, rate);
    std::int64_t next_sample = start, next_poll = start;
    for (;;) {
        std::int64_t now = now_ns();
        if (now >= end)
            break;
        // Submit everything due; a generator that falls behind shows as
        // lateness, and arrivals it cannot send before `end` are dropped.
        while (due <= now && now < end) {
            rng = mix64(rng);
            const unsigned tenant = unsigned(rng % kTenants);
            const bool good = tenant < kGoodTenants;
            const std::size_t plan =
                good ? (good_n++ % corpus.good.size())
                     : (hostile_n++ % corpus.hostile.size());
            const std::uint64_t req = ++next_req;
            runtime::JobPlan jp =
                good ? corpus.good[plan] : corpus.hostile[plan];
            service::SubmitOptions so;
            so.deadline_s = kDeadlineS;
            const std::int64_t t0 = now_ns();
            service::JobId id;
            {
                Spans::Scope s(spans, "service.submit", req);
                id = svc.submit(tenant, std::move(jp), so);
            }
            const std::int64_t t1 = now_ns();
            win.submit_us.push_back(double(t1 - t0) * 1e-3);
            win.late_us.push_back(double(t0 - due) * 1e-3);
            ++(good ? win.good : win.hostile).submitted;
            if (good && good_n % kCancelEvery == kCancelEvery / 2) {
                Spans::Scope s(spans, "service.cancel", req);
                svc.cancel(id);
            }
            pending.push_back({id, due, t0, req, plan, good});
            due += exp_gap_ns(rng, rate);
            now = now_ns();
        }
        now = now_ns();
        if (now >= next_poll) {
            poll_front();
            next_poll = now + kPollEveryNs;
        }
        if (now >= next_sample) {
            win.backlog.emplace_back(seconds_between(start, now),
                                     backlog_of(svc.stats()));
            next_sample += kBacklogSampleNs;
        }
        // Sleep through long gaps; spin through short ones, where an
        // oversleeping wake-up would make the generator late.
        const std::int64_t wake = std::min({due, next_poll, end});
        if (wake - now > kSpinNs)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(wake - now - kSpinNs));
    }
    win.backlog_end = backlog_of(svc.stats());

    // Let everything submitted finish; its latency still counts.
    const std::int64_t give_up = now_ns() + 20'000'000'000;
    while (!pending.empty() && now_ns() < give_up) {
        poll_front();
        if (!pending.empty())
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (!pending.empty())
        throw UdpError("service_open: requests still pending 20 s after "
                       "the window closed");
    svc.drain();

    win.stats = svc.stats();
    win.retries = reg.counter("scheduler.retries").value();
    win.quarantined = reg.counter("scheduler.jobs.quarantined").value();
    for (const auto &t : win.stats.tenants) {
        win.breaker_trips += t.breaker_trips;
        win.shed += t.rejected_total();
    }
    if (gated) {
        // Refusals and expiries at a reported rate are failed operations
        // (the host can cause them); a quarantined well-behaved job is a
        // wrong outcome.
        check.refuse(win.good.refused + win.good.expired);
        for (std::uint64_t i = 0; i < win.good.quarantined; ++i)
            check.fail("well-behaved request quarantined at " +
                       std::to_string(int(rate)) + " jobs/s");
    }
    return win;
}

void
write_window(JsonWriter &w, const Window &win)
{
    w.begin_object()
        .field("rate", win.rate)
        .field("seconds", win.seconds)
        .field("gated", win.gated);
    w.key("latency_ms");
    write_array(w, win.latency_ms);
    w.key("late_us");
    write_array(w, win.late_us);
    w.key("submit_us");
    write_array(w, win.submit_us);
    w.key("backlog").begin_array();
    for (const auto &[t, n] : win.backlog)
        w.begin_array().value(t).value(n).end_array();
    w.end_array();
    w.field("backlog_end", win.backlog_end)
        .field("good_bytes", win.good_bytes);
    w.key("good");
    win.good.write(w);
    w.key("hostile");
    win.hostile.write(w);
    w.field("batches", win.stats.batches)
        .field("waves", win.stats.waves)
        .field("jobs_run", win.stats.jobs_run)
        .field("retries", win.retries)
        .field("quarantined", win.quarantined)
        .field("breaker_trips", win.breaker_trips)
        .field("shed", win.shed)
        .end_object();
}

/**
 * Saturated cost of the Service: the whole corpus submitted as one
 * burst, waited for, and each result checked against the direct run.
 * One Service serves every burst of a segment, so its run loop and
 * buffer pool are warm after the first.
 */
class Bursts
{
  public:
    Bursts(const Corpus &corpus, Spans &spans)
        : corpus_(corpus), spans_(spans), svc_(service_options(reg_))
    {
        service::TenantOptions topt;
        topt.name = "closed";
        topt.burst = double(corpus.good.size());
        // Refills a whole burst's worth of tokens in well under the time
        // one burst takes, so admission never throttles.
        topt.rate_jobs_per_s = 1e9;
        topt.queue_capacity = corpus.good.size();
        tenant_ = svc_.register_tenant(topt);
    }

    /// One burst; returns host seconds per job.
    double run(Check &check)
    {
        const std::int64_t t0 = now_ns();
        ids_.clear();
        for (const auto &p : corpus_.good) {
            Spans::Scope s(spans_, "service.submit");
            ids_.push_back(svc_.submit(tenant_, p));
        }
        for (std::size_t i = 0; i < ids_.size(); ++i) {
            auto out = svc_.wait(ids_[i], 60.0);
            ++check.attempted;
            if (!out || out->state != JobState::Done)
                check.fail("saturated burst: job " + std::to_string(i) +
                           " did not complete");
            else if (!same_result(out->result, corpus_.reference[i]))
                check.fail("saturated burst: result of plan " +
                           std::to_string(i) +
                           " differs from a direct Scheduler::run");
            if (out)
                svc_.recycle(std::move(*out));
        }
        return seconds_between(t0, now_ns()) / double(ids_.size());
    }

  private:
    const Corpus &corpus_;
    Spans &spans_;
    runtime::MetricRegistry reg_;
    service::Service svc_;
    service::TenantId tenant_ = 0;
    std::vector<service::JobId> ids_;
};

} // namespace

void
run_service_open(const Options &opt, Spans &spans, JsonWriter &w)
{
    // Set-up: build the trigger kernel and lower it cold.
    CpuPicker picker;
    picker.repin_if_due(0);
    Setup setup(spans, false, [] {
        return Setup::Programs{
            kernels::trigger_kernel_spec(kTriggerWidth).program};
    });
    setup.burst();
    const runtime::KernelSpec spec =
        kernels::trigger_kernel_spec(kTriggerWidth);

    // Inputs: one job per 1/64 of a seeded waveform, and a hostile
    // corpus derived from it.
    const Bytes samples = kernels::samples_from_bits(workloads::waveform(
        kCorpusSamples, 13, static_cast<unsigned>(opt.seed)));
    const auto arena = runtime::ArenaSlice::borrow(samples);
    Corpus corpus;
    corpus.good = runtime::chunk_jobs(spec, arena,
                                      ceil_div(samples.size(), kNumLanes));
    runtime::FaultInjector inj(mix64(opt.seed ^ 0xF01Dull));
    for (std::size_t i = 0; i < kHostilePlans; ++i) {
        runtime::JobPlan p = corpus.good[i % corpus.good.size()];
        if (i % 2 == 0)
            inj.poison_program(p);
        else
            inj.force_trap(p, 500 + inj.next_below(2000), 1);
        corpus.hostile.push_back(std::move(p));
    }

    // Oracle and simulated pin: a direct serial Scheduler::run.
    runtime::Scheduler direct(serial_options());
    Pin pin;
    KernelTotals trigger;
    {
        const std::int64_t t0 = now_ns();
        auto rep = direct.run(corpus.good);
        trigger.add(rep, seconds_between(t0, now_ns()));
        pin.add(rep);
        for (const auto &p : corpus.good)
            pin.bytes += p.input.size();
        corpus.reference = std::move(rep.jobs);
    }
    Check check;
    for (const auto &r : corpus.reference)
        if (r.status != LaneStatus::Done)
            check.fail("direct run of the corpus did not complete");

    std::vector<Window> windows;
    std::vector<double> direct_s, service_s, service_traced_s;
    std::vector<double> make_job_us;
    runtime::BufferPool::Stats pool{};
    std::uint64_t gated_peak_rss_kb = peak_rss_kb();
    if (!opt.pin_only) {
        const double total_weight = kLowWeight + kHighWeight +
                                    kProbeWeight * std::size(kProbeRates) +
                                    kBurstWeight;
        const double unit_s = opt.seconds / total_weight;
        struct Plan {
            double rate, weight;
            bool gated;
        };
        std::vector<Plan> plan = {{kLowRate, kLowWeight, true},
                                  {kHighRate, kHighWeight, true}};
        for (const double r : kProbeRates)
            plan.push_back({r, kProbeWeight, false});

        // Saturated cost: the whole corpus as one burst through a
        // Service, each burst next to a direct Scheduler::run of it.  It
        // runs in one segment before every window, so its bursts meet
        // the host states of the whole run.  The segment's Service gets
        // the second-fastest CPU for its run loop; the caller then moves
        // to the fastest.  The first segment of a traced run also times
        // traced bursts and chunk_jobs.
        const double segment_s = unit_s * kBurstWeight / double(plan.size());
        const auto saturate = [&](bool first) {
            spans.set_enabled(false);
            const std::vector<int> ranked = picker.ranked();
            CpuPicker::pin(ranked[ranked.size() > 1 ? 1 : 0]);
            Bursts bursts(corpus, spans);
            CpuPicker::pin(ranked[0]);
            const auto pool0 = direct.pool().stats();
            const std::int64_t end = now_ns() + std::int64_t(segment_s * 1e9);
            while (now_ns() < end) {
                setup.burst_if_due();
                const std::int64_t t0 = now_ns();
                auto r = direct.run(corpus.good);
                const double s = seconds_between(t0, now_ns());
                trigger.add(r, s);
                Pin again;
                again.add(r);
                if (!(again.stats == pin.stats) ||
                    again.wall_cycles != pin.wall_cycles) {
                    pin.repeat_identical = false;
                    check.fail("direct corpus run changed between repeats");
                }
                direct.recycle(std::move(r));
                direct_s.push_back(s / double(corpus.good.size()));
                service_s.push_back(bursts.run(check));
            }
            const auto pool1 = direct.pool().stats();
            pool.acquired += pool1.acquired - pool0.acquired;
            pool.reused += pool1.reused - pool0.reused;
            spans.set_enabled(opt.trace);
            if (!first || !opt.trace)
                return;
            for (int rep = 0; rep < 15; ++rep) {
                service_traced_s.push_back(bursts.run(check));
                const std::int64_t t0 = now_ns();
                {
                    Spans::Scope s(spans, "runtime.chunk_jobs");
                    runtime::chunk_jobs(spec, arena,
                                        ceil_div(samples.size(), kNumLanes));
                }
                make_job_us.push_back(seconds_between(t0, now_ns()) * 1e6 /
                                      double(corpus.good.size()));
            }
        };

        std::uint64_t next_req = 0;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            // Set-ups and saturated bursts between windows, never during
            // one.
            setup.burst();
            saturate(i == 0);
            windows.push_back(run_window(
                corpus, plan[i].rate, unit_s * plan[i].weight, plan[i].gated,
                opt.seed * 131 + i, picker, spans, check, next_req));
            // Peak memory through the reported rates; the probes' queues
            // grow as far as the host's speed lets them.
            if (plan[i].gated)
                gated_peak_rss_kb = peak_rss_kb();
        }
        spans.set_enabled(false);
    }
    for (const Window &win : windows)
        check.attempted += win.good.submitted;
    if (opt.pin_only)
        check.attempted = corpus.reference.size();

    write_common(w, setup, pin, picker, check);
    w.key("kernels").begin_object();
    w.key("trigger");
    trigger.write(w);
    w.end_object();
    w.field("pool_acquired", pool.acquired)
        .field("pool_reused", pool.reused)
        .field("gated_peak_rss_kb", gated_peak_rss_kb);
    w.key("direct_s_per_job");
    write_array(w, direct_s);
    w.key("service_s_per_job");
    write_array(w, service_s);

    w.key("service_traced_s_per_job");
    write_array(w, service_traced_s);
    w.key("make_job_us");
    write_array(w, make_job_us);
    w.key("windows").begin_array();
    for (const Window &win : windows)
        write_window(w, win);
    w.end_array();
}

} // namespace udpbench
