#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, check
its outputs, and print its metrics.

    python3 udpbench/run.py --workload etl_load|scan_small|service_open
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
udpbench/ (which compiles ../src) into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs rebuild only what changed.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  The line before it is the full report:
every metric with its unit, sample count or base, the simulated pin and
the load generator's health.  A traced run also writes its spans as a
Chrome trace and validates them with tools/check_trace.py.

    python3 udpbench/run.py --update-pins --seeds 0-63,1009 [--workload W]

records the simulated counters of the given seeds in udpbench/pins.json.
Later runs of a pinned seed must reproduce them exactly.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ('etl_load', 'scan_small', 'service_open')
PINS = os.path.join(HERE, 'pins.json')
PIN_KEYS = ('wall_cycles', 'bytes', 'jobs', 'waves')
# LaneStats counters; the derived input_bytes and rate_mbps are left out.
PIN_STATS = ('cycles', 'dispatches', 'sig_misses', 'actions', 'mem_reads',
             'mem_writes', 'dispatch_reads', 'stall_cycles', 'stream_bits',
             'output_bytes', 'accepts')
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f'run.py: {msg}', file=sys.stderr, flush=True)


def run(cmd, timeout, **kw):
    """Run `cmd` in its own process group; on timeout kill the whole
    group and wait for it.  Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build():
    """Configure and build udpbench; returns the build directory or
    None."""
    bdir = os.path.abspath(os.environ.get('CARGO_TARGET_DIR')
                           or '.bench_build')
    configure = ['cmake', '-S', HERE, '-B', bdir,
                 '-DCMAKE_BUILD_TYPE=RelWithDebInfo']
    if shutil.which('ninja') and not os.path.exists(
            os.path.join(bdir, 'CMakeCache.txt')):
        configure += ['-G', 'Ninja']
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure,
                ['cmake', '--build', bdir, '--target', 'udpbench',
                 '-j', jobs]):
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            log('build failed: ' + ' '.join(cmd))
            return None
    return bdir


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def pin_of(raw):
    pin = {k: raw['pin'][k] for k in PIN_KEYS}
    pin.update((k, raw['pin']['stats'][k]) for k in PIN_STATS)
    return pin


def measure(bdir, workload, seed, seconds, trace, pin_only=False):
    """Run udpbench once; returns (raw report, trace path or None)."""
    out_dir = os.path.join(bdir, 'runs')
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f'{workload}-{seed}-{int(trace)}')
    cmd = [os.path.join(bdir, 'udpbench'), '--workload', workload,
           '--seed', str(seed), '--out', stem + '.raw.json']
    cmd += ['--pin-only'] if pin_only else ['--seconds', str(seconds)]
    trace_path = stem + '.trace.json' if trace else None
    if trace_path:
        cmd += ['--trace-out', trace_path]
    rc = run(cmd, RUN_TIMEOUT_S)
    if rc != 0:
        log(f'udpbench exited with {rc}')
        return None, None
    with open(stem + '.raw.json') as f:
        return json.load(f), trace_path


def update_pins(args):
    bdir = build()
    if not bdir:
        return 1
    pins = load_pins()
    seeds = []
    for part in args.seeds.split(','):
        lo, _, hi = part.partition('-')
        seeds += range(int(lo), int(hi or lo) + 1)
    for workload in ([args.workload] if args.workload else WORKLOADS):
        for seed in seeds:
            raw, _ = measure(bdir, workload, seed, 0, False, pin_only=True)
            if raw is None or raw['check']['wrong'] or \
                    not raw['pin']['repeat_identical']:
                log(f'{workload} seed {seed}: oracle check failed')
                return 1
            pins.setdefault(workload, {})[str(seed)] = pin_of(raw)
            log(f'pinned {workload} seed {seed}')
    with open(PINS, 'w') as f:
        f.write('{\n')
        for i, workload in enumerate(sorted(pins)):
            f.write(f' "{workload}": {{\n')
            seeds = sorted(pins[workload], key=int)
            for j, seed in enumerate(seeds):
                entry = json.dumps(pins[workload][seed], sort_keys=True)
                f.write(f'  "{seed}": {entry}' +
                        (',\n' if j + 1 < len(seeds) else '\n'))
            f.write(' }' + (',\n' if i + 1 < len(pins) else '\n'))
        f.write('}\n')
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', choices=WORKLOADS)
    ap.add_argument('--seed', type=int, default=1)
    ap.add_argument('--seconds', type=int, default=10)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--update-pins', action='store_true')
    ap.add_argument('--seeds', default='0-63,1009')
    args = ap.parse_args()
    if args.update_pins:
        return update_pins(args)
    if not args.workload:
        ap.error('--workload is required')
    if args.seconds < 1:
        ap.error('--seconds must be at least 1')

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        bench = json.load(f)
    bdir = build()
    if not bdir:
        return 1
    raw, trace_path = measure(bdir, args.workload, args.seed, args.seconds,
                              args.trace)
    if raw is None:
        return 1

    problems = []
    if raw['check']['wrong']:
        problems.append('oracle: ' + raw['check']['first_error'])
    if not raw['pin']['repeat_identical']:
        problems.append('simulated counters changed between passes')
    pinned = load_pins().get(args.workload, {}).get(str(args.seed))
    if pinned is None:
        pin_state = 'unpinned'
    elif pinned == pin_of(raw):
        pin_state = 'match'
    else:
        pin_state = 'MISMATCH'
        problems.append(f'simulated counters differ from pins.json '
                        f'for seed {args.seed}')
    if trace_path:
        checker = os.path.join(ROOT, 'tools', 'check_trace.py')
        rc = run([sys.executable, checker, trace_path, '--min-events', '1'],
                 RUN_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            problems.append(f'check_trace.py rejected {trace_path}')

    try:
        report = metrics.derive(raw)
    except metrics.TooFewSamples as e:
        log(f'run too short for its statistics: {e}')
        return 1
    problems += [f'ratio {n} lacks its base'
                 for n in metrics.unbased_ratios(report['metrics'])]
    wanted = bench['per_layer' if args.trace else 'end_to_end']
    final = {}
    for m in wanted:
        entry = report['metrics'].get(m['name'])
        if entry is None or entry['unit'] != m['unit']:
            log(f"metric {m['name']} [{m['unit']}] not derived")
            return 1
        final[m['name']] = {'value': entry['value'], 'unit': entry['unit']}

    report.update(workload=args.workload, seed=args.seed,
                  trace=bool(args.trace), pin=pin_state,
                  trace_file=trace_path, problems=problems)
    print(json.dumps(report, sort_keys=True))
    for p in problems:
        log('INCORRECT: ' + p)
    print(json.dumps({
        'correct': not problems,
        'attempted': raw['check']['attempted'],
        'failed': raw['check']['failed'],
        'metrics': final,
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
