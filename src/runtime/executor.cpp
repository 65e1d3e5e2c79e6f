/**
 * @file
 * Single-job executor implementation.
 */
#include "executor.hpp"

#include "telemetry.hpp"

namespace udp::runtime {

void
validate_job(const JobPlan &plan, ByteAddr window_base)
{
    if (!plan.program)
        throw UdpError("runtime: job '" + plan.name + "' has no program");
    if (std::uint64_t{window_base} + plan.window_bytes > kLocalMemBytes)
        throw UdpError("runtime: job '" + plan.name +
                       "' window escapes local memory");
    for (const MemStage &s : plan.stages)
        if (std::uint64_t{s.offset} + s.data.size() > plan.window_bytes)
            throw UdpError("runtime: job '" + plan.name +
                           "' stages outside its window");
}

void
stage_job(Machine &m, unsigned lane, ByteAddr window_base,
          const JobPlan &plan)
{
    validate_job(plan, window_base);
    // The lane streams straight from arena memory: enforce the pin now,
    // before any bytes are read (see executor.hpp lifetime contract).
    plan.input.check_pinned("stage_job", plan.name);
    for (const MemStage &s : plan.stages) {
        s.data.check_pinned("stage_job", plan.name);
        m.stage(window_base + s.offset, s.data);
    }
    Lane &ln = m.lane(lane);
    ln.load(*plan.program, plan.compiled);
    ln.set_input(plan.input);
    ln.set_window_base(window_base);
    // Single-lane runs are always "attempt 1" of the plan's trap window.
    ln.set_forced_trap(plan.trap_attempts != 0 ? plan.force_trap_cycle
                                               : Cycles{0});
    for (const auto &[r, v] : plan.init_regs)
        ln.set_reg(r, v);
}

JobResult
harvest_job(Machine &m, unsigned lane, ByteAddr window_base,
            const JobPlan &plan, LaneStatus status, BufferPool *pool)
{
    // The lane streamed from the plan's arena for the whole run; catch
    // a pin that was dropped between staging and harvesting.
    plan.input.check_pinned("harvest_job", plan.name);
    Lane &ln = m.lane(lane);
    ln.finish_output();

    JobResult res;
    res.status = status;
    res.fault = ln.fault();
    res.stats = ln.stats();
    for (unsigned r = 0; r < kNumScalarRegs; ++r)
        res.regs[r] = ln.reg(r);
    // Only a non-empty region takes a pooled buffer: an empty one would
    // cost the pool's lock for nothing, and recycle() drops it anyway.
    if (pool && !ln.output().empty()) {
        // Pooled buffers retain capacity across waves: the assign below
        // copies bytes but — once the pool is warm — allocates nothing.
        res.output = pool->acquire();
        res.output.assign(ln.output().begin(), ln.output().end());
    } else {
        res.output = ln.output();
    }
    res.accepts = ln.accepts();
    res.lane = lane;

    res.extracts.reserve(plan.extracts.size());
    for (const MemExtract &e : plan.extracts) {
        std::uint64_t len = e.len;
        if (e.end_reg >= 0) {
            const Word end = ln.reg(static_cast<unsigned>(e.end_reg));
            if (end < e.offset)
                throw UdpError("runtime: job '" + plan.name +
                               "' extract cursor before its base");
            len = end - e.offset;
        }
        if (std::uint64_t{e.offset} + len > plan.window_bytes)
            throw UdpError("runtime: job '" + plan.name +
                           "' extract outside its window");
        Bytes buf = pool && len ? pool->acquire() : Bytes{};
        m.unstage(window_base + e.offset, static_cast<std::size_t>(len),
                  buf);
        res.extracts.push_back(std::move(buf));
    }
    return res;
}

JobResult
run_job_on(Machine &m, unsigned lane, ByteAddr window_base,
           const JobPlan &plan, std::uint64_t max_cycles,
           TelemetrySink *telemetry)
{
    stage_job(m, lane, window_base, plan);
    Lane &ln = m.lane(lane);
    const LaneStatus st = plan.nfa_mode ? ln.run_nfa(max_cycles)
                                        : ln.run(max_cycles);
    JobResult res = harvest_job(m, lane, window_base, plan, st);
    res.service_cycles = res.stats.cycles;
    res.e2e_cycles = res.stats.cycles; // no queue ahead of a direct run
    if (telemetry) {
        JobRunEvent ev;
        ev.job_name = plan.name;
        ev.lane = lane;
        ev.status = res.status;
        ev.fault = res.fault.code;
        ev.service_cycles = res.service_cycles;
        ev.e2e_cycles = res.e2e_cycles;
        ev.input_bytes =
            static_cast<std::uint64_t>(res.stats.input_bytes());
        ev.final_disposition = true;
        telemetry->on_job_run(ev);
    }
    return res;
}

} // namespace udp::runtime
