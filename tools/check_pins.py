#!/usr/bin/env python3
"""Exact pin gate: every workload's simulated counters on every pinned
seed must equal udpbench/pins.json.

    python3 tools/check_pins.py [--seeds 0-63,1009] [--workload W]

Run from the repository root.  Builds udpbench the way udpbench/run.py
does (into .bench_build/, or $CARGO_TARGET_DIR when set), runs
`udpbench --pin-only` once per (workload, seed), and compares each
result with its pins.json entry through run.py's own load_pins/pin_of.
Exits 0 when every pair matches and passes its oracle check, 1
otherwise (each mismatching counter is printed).  Host-time metrics are
not read: this gate holds simulated results bit-identical, whatever the
host.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, 'udpbench'))

import run  # noqa: E402  (udpbench/run.py, used read-only)


def parse_seeds(spec):
    seeds = []
    for part in spec.split(','):
        lo, _, hi = part.partition('-')
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', choices=run.WORKLOADS)
    ap.add_argument('--seeds', default='0-63,1009')
    args = ap.parse_args()

    pins = run.load_pins()
    bdir = run.build()
    if not bdir:
        print('check_pins: udpbench build failed', file=sys.stderr)
        return 1

    checked = 0
    failures = []
    for workload in ([args.workload] if args.workload else run.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            name = f'{workload} seed {seed}'
            want = pins.get(workload, {}).get(str(seed))
            if want is None:
                failures.append(f'{name}: no entry in pins.json')
                continue
            raw, _ = run.measure(bdir, workload, seed, 0, False,
                                 pin_only=True)
            checked += 1
            if raw is None:
                failures.append(f'{name}: udpbench failed')
                continue
            if raw['check']['wrong']:
                failures.append(f'{name}: oracle: ' +
                                raw['check']['first_error'])
            if not raw['pin']['repeat_identical']:
                failures.append(f'{name}: counters changed between passes')
            got = run.pin_of(raw)
            for key in sorted(set(want) | set(got)):
                if want.get(key) != got.get(key):
                    failures.append(f'{name}: {key} pinned '
                                    f'{want.get(key)}, got {got.get(key)}')

    for f in failures:
        print('MISMATCH', f)
    print(f'check_pins: {checked} runs, {len(failures)} mismatches')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
