"""Turn a udpbench raw report into named metrics.

End-to-end metrics come from the untraced part of a run, per-layer
metrics from its traced part (a traced run measures the first half of
its time untraced and the second half traced; the difference is the
tracing overhead).  Metrics that a workload does not exercise are 0.
See METRICS.md for what each metric means and which layer moves it.
"""

import statistics

from stats import (TooFewSamples, blocked_percentile, median, metric,
                   percentile, quiet_bursts, quiet_pass, ratio,
                   unbased_ratios)

# service_open: a rate is sustained when its well-behaved p99 stays
# within this limit, none of its well-behaved requests is refused or
# expires, and its backlog does not grow.
P99_LIMIT_MS = 10.0
# Backlog growth: the last quarter of a window holds more than one
# 64-job batch beyond its first quarter.
BACKLOG_GROWTH_JOBS = 64
# Tail percentiles are taken per block of consecutive requests and the
# median over blocks is reported, so one host stall moves one block.
TAIL_BLOCK = 1000

# Host throughput takes each repeated input at this quantile of its
# host times (stats.quiet_pass; service_open: of its corpus bursts).
QUIET_Q = 0.1
# Set-ups run in bursts spread over the run; the quietest quarter of
# bursts is kept (stats.quiet_bursts).
SETUP_KEEP = 0.25

LANES = 64


def latency(samples, scale=1.0):
    """p50, p90 and blocked p99 of `samples` times `scale`, plus the
    sample count; a percentile without ten samples beyond it is None."""
    def pct(q):
        try:
            return percentile(samples, q) * scale
        except TooFewSamples:
            return None
    try:
        p99 = blocked_percentile(samples, 0.99, TAIL_BLOCK)[0] * scale
    except TooFewSamples:
        p99 = None
    return pct(0.5), pct(0.9), p99, len(samples)


def latency_metrics(samples, scale, out, **ctx):
    """p50_ms, p90_ms and p99_ms, reported but not gated: on a shared
    host they sit on the host's own wake-up delays and stalls."""
    p50, p90, p99, n = latency(samples, scale)
    if p90 is None:
        raise TooFewSamples(f'{n} requests cannot support a p90')
    out['p50_ms'] = metric(p50, 'ms', n=n, **ctx)
    out['p90_ms'] = metric(p90, 'ms', n=n, **ctx)
    if p99 is not None:
        out['p99_ms'] = metric(p99, 'ms', n=n, block=TAIL_BLOCK, **ctx)


def closed_loop_e2e(raw, phase, out):
    reqs = phase['requests']
    seconds, nbytes, jobs, repeats = quiet_pass(reqs, QUIET_Q)
    ctx = dict(inputs=len({r[0] for r in reqs}), min_repeats=repeats,
               quantile=QUIET_Q)
    out['host_mbps'] = metric(nbytes / seconds / 1e6, 'MB/s', **ctx)
    out['jobs_per_s'] = metric(jobs / seconds, 'jobs/s', **ctx)
    latency_metrics([r[1] for r in reqs], 1e3, out)


def setup_samples(raw):
    """Set-up samples of the quietest bursts, by field, and the number
    of bursts kept and run."""
    setup = raw['setup']
    kept = quiet_bursts(setup['setup_s'], SETUP_KEEP)
    samples = {key: [x for i in kept for x in setup[key][i]]
               for key in ('setup_s', 'spec_build_ms', 'compile_us')}
    return samples, len(kept), len(setup['setup_s'])


def common_e2e(raw, out):
    samples, kept, bursts = setup_samples(raw)
    setup = samples['setup_s']
    out['setup_s'] = metric(median(setup), 's', n=len(setup),
                            bursts_kept=kept, bursts=bursts)
    pin = raw['pin']
    out['sim_mbps'] = metric(
        pin['bytes'] / (pin['wall_cycles'] / 1e9) / 1e6, 'MB/s',
        bytes=pin['bytes'], sim_cycles=pin['wall_cycles'])
    # service_open: the peak through its reported rates (its overload
    # probes queue as deep as the host's speed lets them).
    peak_kb = raw.get('gated_peak_rss_kb', raw['peak_rss_kb'])
    out['peak_rss_mb'] = metric(peak_kb / 1024.0, 'MB',
                                process_peak_mb=raw['peak_rss_kb'] / 1024.0)


def sum_kernels(kernels):
    tot = {k: 0 for k in ('run_s', 'setup_s', 'simulate_s', 'harvest_s',
                          'jobs', 'waves', 'active_lanes', 'retries',
                          'quarantined')}
    stats = {'dispatches': 0, 'actions': 0, 'mem_reads': 0,
             'mem_writes': 0}
    for k in kernels.values():
        for key in tot:
            tot[key] += k[key]
        for key in stats:
            stats[key] += k['stats'][key]
    tot.update(stats)
    return tot


def ns_per_byte(kernel):
    consumed = kernel['stats']['stream_bits'] / 8
    return kernel['simulate_s'] * 1e9 / consumed if consumed else 0.0


def core_runtime_layers(raw, kernels, pool, make_job_us, out):
    t = sum_kernels(kernels)
    sim_ns = t['simulate_s'] * 1e9
    mem = t['mem_reads'] + t['mem_writes']
    for name in ('decompress', 'parse', 'scan'):
        out[f'core.{name}.ns_per_byte'] = metric(
            ns_per_byte(kernels[name]) if name in kernels else 0.0, 'ns/B')
    out['core.ns_per_dispatch'] = metric(
        sim_ns / t['dispatches'] if t['dispatches'] else 0.0, 'ns',
        dispatches=t['dispatches'])
    out['core.ns_per_action'] = metric(
        sim_ns / t['actions'] if t['actions'] else 0.0, 'ns',
        actions=t['actions'])
    out['core.ns_per_mem_access'] = metric(
        sim_ns / mem if mem else 0.0, 'ns', mem_accesses=mem)

    # Exact simulated counts of one pinned pass over the input pool.
    s = raw['pin']['stats']
    for name, value in (('dispatches', s['dispatches']),
                        ('actions', s['actions']),
                        ('mem_accesses', s['mem_reads'] + s['mem_writes']),
                        ('stall_cycles', s['stall_cycles']),
                        ('sig_misses', s['sig_misses']),
                        ('sim_cycles', raw['pin']['wall_cycles'])):
        out[f'core.{name}'] = metric(value, 'count')

    setup = setup_samples(raw)[0]
    build_ms = median(setup['spec_build_ms'])
    out['core.compile_us'] = metric(median(setup['compile_us']), 'us')
    out['kernels.spec_build_ms'] = metric(build_ms, 'ms')
    out['automata.compile_ms'] = metric(
        build_ms if raw['setup']['automata'] else 0.0, 'ms')

    jobs = t['jobs']
    out['runtime.make_job_us'] = metric(make_job_us, 'us')
    out['runtime.setup_us_per_job'] = metric(
        t['setup_s'] * 1e6 / jobs if jobs else 0.0, 'us', jobs=jobs)
    out['runtime.harvest_us_per_job'] = metric(
        t['harvest_s'] * 1e6 / jobs if jobs else 0.0, 'us', jobs=jobs)
    out['runtime.overhead_share'] = ratio(
        t['run_s'] - t['simulate_s'], t['run_s'], 'Scheduler::run seconds')
    out['runtime.lane_occupancy'] = ratio(
        t['active_lanes'], t['waves'] * LANES, 'wave lane slots')
    out['runtime.pool_reuse'] = ratio(
        pool[1], pool[0], 'BufferPool acquires')
    out['runtime.waves'] = metric(raw['pin']['waves'], 'count')
    out['runtime.retries'] = metric(t['retries'], 'count')
    out['runtime.quarantined'] = metric(t['quarantined'], 'count')


SERVICE_LAYER = (
    ('service.submit_us.p50', 'us'), ('service.submit_us.p99', 'us'),
    ('service.jobs_per_batch', 'jobs'), ('service.waves_per_batch', 'waves'),
    ('service.overhead_us_per_job', 'us'), ('service.breaker_trips', 'count'),
    ('service.hostile_quarantined', 'count'), ('service.expired', 'count'),
    ('service.cancelled', 'count'), ('service.p50_ms.low', 'ms'),
    ('service.p99_ms.low', 'ms'), ('service.p50_ms.high', 'ms'),
    ('service.p99_ms.high', 'ms'), ('service.goodput_jobs_s.high', 'jobs/s'),
    ('service.sustained_jobs_s', 'jobs/s'), ('loadgen.late_us.p99', 'us'),
    ('loadgen.late_us.max', 'us'), ('loadgen.backlog_end.high', 'jobs'),
)


def zero_service_layer(out):
    for name, unit in SERVICE_LAYER:
        out[name] = metric(0.0, unit)
    out['service.shed_ratio'] = ratio(0, 0, 'submissions')


def backlog_grows(window):
    series = [n for _, n in window['backlog']]
    q = max(1, len(series) // 4)
    first = statistics.fmean(series[:q])
    last = statistics.fmean(series[-q:])
    return last > first + BACKLOG_GROWTH_JOBS


def window_summary(w):
    p50, p90, p99, n = latency(w['latency_ms'])
    good = w['good']
    grows = backlog_grows(w)
    sustained = (p99 is not None and p99 <= P99_LIMIT_MS and
                 not good['refused'] and not good['expired'] and not grows)
    late = w['late_us']
    try:
        late_p99 = percentile(late, 0.99)
    except TooFewSamples:
        late_p99 = None
    return {
        'rate': w['rate'], 'seconds': w['seconds'], 'gated': w['gated'],
        'p50_ms': p50, 'p90_ms': p90, 'p99_ms': p99, 'n': n,
        'goodput_jobs_s': good['done'] / w['seconds'],
        'late_us_p99': late_p99, 'late_us_max': max(late) if late else 0,
        'backlog_end': w['backlog_end'], 'backlog_grows': grows,
        'sustained': sustained, 'good': good, 'hostile': w['hostile'],
        'shed': w['shed'], 'breaker_trips': w['breaker_trips'],
        'retries': w['retries'], 'batches': w['batches'],
        'waves': w['waves'],
    }


def service_derive(raw, out, detail):
    windows = raw['windows']
    summaries = [window_summary(w) for w in windows]
    detail['windows'] = summaries
    low, high = windows[0], windows[1]
    lo, hi = summaries[0], summaries[1]
    if hi['p99_ms'] is None or lo['p99_ms'] is None:
        raise TooFewSamples('a reported rate has too few requests for p99')

    # End to end: saturated throughput of the corpus pushed through the
    # Service as bursts (the open-loop figures below sit on host noise).
    burst = raw['service_s_per_job']
    per_job_s = percentile(burst, QUIET_Q)
    bytes_per_job = raw['pin']['bytes'] / raw['pin']['jobs']
    out['jobs_per_s'] = metric(1.0 / per_job_s, 'jobs/s', n=len(burst),
                               quantile=QUIET_Q)
    out['host_mbps'] = metric(bytes_per_job / per_job_s / 1e6, 'MB/s',
                              n=len(burst), quantile=QUIET_Q)
    latency_metrics(high['latency_ms'], 1.0, out, rate=hi['rate'])

    # Service layer, from the reported rates unless stated.
    gated = [w for w in windows if w['gated']]
    submit = [x for w in gated for x in w['submit_us']]
    late = [x for w in gated for x in w['late_us']]
    sustained = 0.0
    for s in summaries:
        if not s['sustained']:
            break
        sustained = s['rate']
    batches = sum(w['batches'] for w in windows)
    submitted = sum(w['good']['submitted'] + w['hostile']['submitted']
                    for w in windows)
    values = {
        'service.submit_us.p50': median(submit),
        'service.submit_us.p99': percentile(submit, 0.99),
        'service.jobs_per_batch':
            sum(w['jobs_run'] for w in windows) / batches,
        'service.waves_per_batch': sum(w['waves'] for w in windows) / batches,
        'service.overhead_us_per_job':
            (median(raw['service_s_per_job']) -
             median(raw['direct_s_per_job'])) * 1e6,
        'service.breaker_trips': sum(w['breaker_trips'] for w in windows),
        'service.hostile_quarantined':
            sum(w['hostile']['quarantined'] for w in windows),
        'service.expired': sum(w['good']['expired'] + w['hostile']['expired']
                               for w in windows),
        'service.cancelled': sum(w['good']['cancelled'] +
                                 w['hostile']['cancelled'] for w in windows),
        'service.p50_ms.low': lo['p50_ms'],
        'service.p99_ms.low': lo['p99_ms'],
        'service.p50_ms.high': hi['p50_ms'],
        'service.p99_ms.high': hi['p99_ms'],
        'service.goodput_jobs_s.high': hi['goodput_jobs_s'],
        'service.sustained_jobs_s': sustained,
        'loadgen.late_us.p99': percentile(late, 0.99),
        'loadgen.late_us.max': max(late),
        'loadgen.backlog_end.high': high['backlog_end'],
    }
    for name, unit in SERVICE_LAYER:
        out[name] = metric(values[name], unit)
    out['service.shed_ratio'] = ratio(
        sum(w['shed'] for w in windows), submitted, 'submissions')

    mj = raw['make_job_us']
    core_runtime_layers(raw, raw['kernels'],
                        (raw['pool_acquired'], raw['pool_reused']),
                        median(mj) if mj else 0.0, out)
    out['runtime.retries'] = metric(sum(w['retries'] for w in windows),
                                    'count')
    out['runtime.quarantined'] = metric(
        sum(w['quarantined'] for w in windows), 'count')
    untraced = median(raw['service_s_per_job'])
    traced = raw['service_traced_s_per_job']
    out['trace.overhead_share'] = ratio(
        (median(traced) - untraced) if traced else 0.0, untraced,
        'untraced service seconds per job')
    out['etl.deserialize_ns_per_row'] = metric(0.0, 'ns')


def closed_loop_layers(raw, phase, out):
    kernels = phase['kernels']
    spans = raw['spans']
    # make_job spans time one job each, chunk_jobs spans a whole batch.
    make_ns = sum(spans.get(n, {}).get('ns', 0)
                  for n in ('runtime.make_job', 'runtime.chunk_jobs'))
    made = sum(k['jobs'] for k in kernels.values())
    core_runtime_layers(raw, kernels,
                        (phase['pool_acquired'], phase['pool_reused']),
                        make_ns / made / 1e3 if made else 0.0, out)
    rows = phase.get('rows', 0)
    out['etl.deserialize_ns_per_row'] = metric(
        phase.get('deserialize_s', 0.0) * 1e9 / rows if rows else 0.0, 'ns',
        rows=rows)
    zero_service_layer(out)


def derive(raw):
    """Metrics of one raw report: {'metrics': {...}, 'detail': {...}}."""
    out, detail = {}, {}
    common_e2e(raw, out)
    if raw['workload'] == 'service_open':
        service_derive(raw, out, detail)
    else:
        phases = raw['phases']
        try:
            closed_loop_e2e(raw, phases[0], out)
        except TooFewSamples:
            # A traced run measures end to end for only half its time;
            # its end-to-end numbers are not reported.
            if not raw['trace']:
                raise
        if len(phases) > 1:
            closed_loop_layers(raw, phases[1], out)
            untraced = median([r[1] for r in phases[0]['requests']])
            traced = median([r[1] for r in phases[1]['requests']])
            out['trace.overhead_share'] = ratio(
                traced - untraced, untraced, 'untraced request seconds')
    bursts = raw['setup']['setup_s']
    detail['setup_bursts'] = {
        'bursts': len(bursts), 'samples': sum(len(b) for b in bursts),
        'burst_medians_s': sorted(median(b) for b in bursts)}
    detail['host_probe_ms'] = median(raw['probe_ms'])
    detail['check'] = raw['check']
    return {'metrics': out, 'detail': detail}
