/**
 * @file
 * Workload `scan_small`: many small independent scan requests.  Each
 * request takes one 1 KiB slice of a packet_payloads stream and runs it
 * against every NIDS pattern group — aDFA groups for a string set, NFA
 * groups for a complex-regex set — as one make_job + Scheduler::run
 * batch.  Serial simulation, closed loop, one caller.  Oracle: each
 * group's match count equals kernels::software_matches on the slice.
 */
#include "common.hpp"

#include "kernels/pattern.hpp"
#include "runtime/kernel_spec.hpp"
#include "workloads/generators.hpp"

#include <memory>

namespace udpbench {
namespace {

using namespace udp;
using kernels::FaModel;

/// Distinct request payloads the loop cycles over, and their size.
constexpr std::size_t kSlices = 64;
constexpr std::size_t kSliceBytes = 1024;
/// Pattern sets: literal signatures on aDFA lanes, regexes on NFA lanes.
constexpr std::size_t kStrings = 32, kStringGroups = 8;
constexpr std::size_t kRegexes = 16, kRegexGroups = 8;
constexpr unsigned kPatternSeed = 5;
/// Share of payload packets that carry a planted signature prefix.
constexpr double kPlantRate = 0.05;

struct Sets {
    std::vector<std::string> strings, regexes;
};

std::vector<runtime::KernelSpec>
build_specs(const Sets &sets)
{
    auto specs = kernels::pattern_group_specs(sets.strings, FaModel::Adfa,
                                              kStringGroups);
    auto nfa = kernels::pattern_group_specs(sets.regexes, FaModel::Nfa,
                                            kRegexGroups);
    specs.insert(specs.end(), std::make_move_iterator(nfa.begin()),
                 std::make_move_iterator(nfa.end()));
    return specs;
}

} // namespace

void
run_scan_small(const Options &opt, Spans &spans, JsonWriter &w)
{
    // The pattern sets are part of the workload, fixed like its kernels;
    // the seed draws the traffic.
    const unsigned seed = static_cast<unsigned>(opt.seed);
    const Sets sets{workloads::nids_patterns(kStrings, false, kPatternSeed),
                    workloads::nids_patterns(kRegexes, true,
                                             kPatternSeed + 1)};

    // Set-up: regex -> NFA -> DFA -> aDFA (or epsilon-free NFA) per
    // group, EffCLiP layout, then cold lowering of every group image.
    CpuPicker cpus;
    cpus.repin_if_due(0);
    // Every kernel built here comes out of the automata compiler.
    Setup setup(spans, true, [&] {
        Setup::Programs programs;
        for (const auto &spec : build_specs(sets))
            programs.push_back(spec.program);
        return programs;
    });
    setup.burst();
    const std::vector<runtime::KernelSpec> specs = build_specs(sets);

    // Inputs and the software oracle per (slice, group) (not timed).
    std::vector<std::string> all = sets.strings;
    all.insert(all.end(), sets.regexes.begin(), sets.regexes.end());
    const Bytes payload = workloads::packet_payloads(
        kSlices * kSliceBytes, all, kPlantRate, seed);
    const auto arena = runtime::ArenaSlice::borrow(payload);
    std::vector<std::vector<std::string>> group_patterns;
    for (const auto &g :
         kernels::pattern_groups(sets.strings, FaModel::Adfa, kStringGroups))
        group_patterns.push_back(g.patterns);
    for (const auto &g :
         kernels::pattern_groups(sets.regexes, FaModel::Nfa, kRegexGroups))
        group_patterns.push_back(g.patterns);
    if (group_patterns.size() != specs.size())
        throw UdpError("scan_small: group partition mismatch");
    std::vector<std::vector<std::uint64_t>> oracle(kSlices);
    for (std::size_t s = 0; s < kSlices; ++s)
        for (const auto &pats : group_patterns)
            oracle[s].push_back(kernels::software_matches(
                pats, arena.subslice(s * kSliceBytes, kSliceBytes).view()));

    runtime::Scheduler sched(serial_options());
    Check check;
    std::uint64_t req = 0;
    const auto scan = [&](std::size_t s, Phase &ph) {
        Pin got;
        const std::uint64_t id = ++req;
        const std::int64_t t0 = now_ns();
        runtime::ScheduleReport rep;
        {
            Spans::Scope rs(spans, "scan.request", id);
            std::vector<runtime::JobPlan> jobs;
            jobs.reserve(specs.size());
            for (const auto &spec : specs) {
                Spans::Scope ms(spans, "runtime.make_job", id);
                jobs.push_back(spec.make_job(
                    arena.subslice(s * kSliceBytes, kSliceBytes)));
            }
            Spans::Scope ss(spans, "runtime.scheduler.run", id);
            const std::int64_t r0 = now_ns();
            rep = sched.run(jobs);
            ph.kernels["scan"].add(rep, seconds_between(r0, now_ns()));
        }
        const std::int64_t t1 = now_ns();
        got.add(rep);
        got.bytes = kSliceBytes;
        ++check.attempted;
        for (std::size_t g = 0; g < rep.jobs.size(); ++g) {
            const auto &r = rep.jobs[g];
            if (r.status != LaneStatus::Done ||
                r.accepts.size() != oracle[s][g])
                check.fail("slice " + std::to_string(s) + " group " +
                           std::to_string(g) + ": " +
                           std::to_string(r.accepts.size()) +
                           " matches, software_matches says " +
                           std::to_string(oracle[s][g]));
        }
        sched.recycle(std::move(rep));
        ph.requests.push_back(
            {std::uint32_t(s), seconds_between(t0, t1), kSliceBytes,
             got.jobs});
        return got;
    };

    // Warm-up pass over every slice: fills caches, records the pin.
    Pin pin;
    std::vector<Pin> slice_pins(kSlices);
    Phase warm;
    for (std::size_t s = 0; s < kSlices; ++s) {
        slice_pins[s] = scan(s, warm);
        pin.add(slice_pins[s]);
    }

    const std::vector<Phase> phases = run_closed_loop(
        opt, spans, cpus, setup, sched.pool(),
        [&](std::size_t i, Phase &ph) {
            const std::size_t s = i % kSlices;
            if (!scan(s, ph).same_counters(slice_pins[s])) {
                pin.repeat_identical = false;
                check.fail("simulated counters of slice " +
                           std::to_string(s) + " changed between scans");
            }
        });

    write_common(w, setup, pin, cpus, check);
    w.key("phases").begin_array();
    for (const Phase &ph : phases)
        ph.write(w);
    w.end_array();
}

} // namespace udpbench
