"""Self-checks of the benchmark's statistics and report rules.

    python3 -m unittest discover -s udpbench -p 'test_*.py'
"""

import json
import os
import unittest

from metrics import SERVICE_LAYER, backlog_grows
from stats import (MIN_BEYOND, TooFewSamples, blocked_percentile,
                   min_samples, percentile, quiet_bursts, quiet_pass,
                   ratio, unbased_ratios)

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(min_samples(0.99), 1000)
        self.assertEqual(min_samples(0.5), 20)
        self.assertEqual(min_samples(0.9), 100)
        with self.assertRaises(TooFewSamples):
            percentile(list(range(999)), 0.99)
        with self.assertRaises(TooFewSamples):
            percentile(list(range(19)), 0.5)

    def test_lower_quantile_needs_ten_below(self):
        self.assertEqual(min_samples(0.1), 101)
        with self.assertRaises(TooFewSamples):
            percentile(list(range(100)), 0.1)
        samples = list(range(101))
        p = percentile(samples, 0.1)
        self.assertGreaterEqual(sum(1 for x in samples if x < p), MIN_BEYOND)

    def test_reported_rank_leaves_ten_above(self):
        for n in (1000, 1001, 1234, 5000):
            samples = list(range(n))
            p = percentile(samples, 0.99)
            self.assertGreaterEqual(sum(1 for x in samples if x > p),
                                    MIN_BEYOND, n)

    def test_nearest_rank_values(self):
        samples = list(range(1, 1001))  # 1..1000
        self.assertEqual(percentile(samples, 0.99), 990)
        self.assertEqual(percentile(list(reversed(samples)), 0.5), 500)
        self.assertEqual(percentile([5.0] * 20, 0.5), 5.0)

    def test_rejects_bad_quantile(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with self.assertRaises(ValueError):
                percentile(list(range(5000)), q)

    def test_blocked_percentile_is_median_of_block_tails(self):
        # Three blocks of 1000; one block carries a long stall.
        block = list(range(1000))
        stalled = list(range(980)) + [10**6] * 20
        value, nblocks = blocked_percentile(block + stalled + block, 0.99,
                                            1000)
        self.assertEqual(nblocks, 3)
        self.assertEqual(value, percentile(block, 0.99))
        # A trailing partial block joins the last full one.
        value, nblocks = blocked_percentile(block + block[:500], 0.99, 1000)
        self.assertEqual(nblocks, 1)
        self.assertEqual(value, percentile(block + block[:500], 0.99))

    def test_blocked_percentile_refuses_small_blocks(self):
        with self.assertRaises(ValueError):
            blocked_percentile(list(range(5000)), 0.99, 999)
        with self.assertRaises(TooFewSamples):
            blocked_percentile(list(range(999)), 0.99, 1000)


class QuietPassTest(unittest.TestCase):
    def test_each_input_at_its_quantile(self):
        # Input 0: 1 s except 20 slow repeats; input 1: always 2 s.
        reqs = [(0, 9.0 if i < 20 else 1.0, 100, 1) for i in range(120)]
        reqs += [(1, 2.0, 50, 2)] * 120
        seconds, nbytes, jobs, repeats = quiet_pass(reqs, 0.1)
        self.assertEqual((seconds, nbytes, jobs, repeats), (3.0, 150, 3, 120))

    def test_uniform_slowdown_scales_the_pass(self):
        reqs = [(i % 4, 0.01 * (1 + i % 7), 1000, 1) for i in range(700)]
        slow = [(k, t * 1.5, b, j) for k, t, b, j in reqs]
        self.assertAlmostEqual(quiet_pass(slow, 0.1)[0] /
                               quiet_pass(reqs, 0.1)[0], 1.5)

    def test_needs_ten_repeats_below_the_quantile(self):
        reqs = [(0, 1.0, 1, 1)] * 100
        with self.assertRaises(TooFewSamples):
            quiet_pass(reqs, 0.1)


class QuietBurstsTest(unittest.TestCase):
    def test_keeps_bursts_with_lowest_median(self):
        bursts = [[2.0, 2.1], [1.0, 9.0, 1.1], [3.0], [1.5, 1.4]]
        self.assertEqual(quiet_bursts(bursts, 0.5), [1, 3])

    def test_keeps_at_least_one(self):
        self.assertEqual(quiet_bursts([[2.0], [1.0]], 0.1), [1])


class RatioTest(unittest.TestCase):
    def test_ratio_carries_base(self):
        r = ratio(3, 4, 'things')
        self.assertEqual(r['value'], 0.75)
        self.assertEqual((r['numerator'], r['base'], r['base_of']),
                         (3, 4, 'things'))
        self.assertEqual(ratio(0, 0, 'things')['value'], 0.0)

    def test_unbased_ratio_is_found(self):
        report = {
            'good': ratio(1, 2, 'x'),
            'time': {'value': 1.0, 'unit': 's'},
            'bad': {'value': 0.5, 'unit': 'ratio'},
        }
        self.assertEqual(unbased_ratios(report), ['bad'])

    def test_every_declared_ratio_is_built_with_its_base(self):
        with open(os.path.join(os.path.dirname(HERE),
                               'BENCHMARK.json')) as f:
            bench = json.load(f)
        declared = {m['name'] for m in bench['per_layer'] + bench['end_to_end']
                    if m['unit'] == 'ratio'}
        self.assertTrue(declared)
        with open(os.path.join(HERE, 'metrics.py')) as f:
            source = f.read()
        for name in declared:
            self.assertIn(f"out['{name}'] = ratio(", source, name)
        units = dict(SERVICE_LAYER)
        self.assertFalse(any(u == 'ratio' for u in units.values()))


class BacklogTest(unittest.TestCase):
    def test_growth_needs_more_than_a_batch(self):
        flat = {'backlog': [(i * 0.01, 5 + i % 3) for i in range(100)]}
        growing = {'backlog': [(i * 0.01, 10 * i) for i in range(100)]}
        self.assertFalse(backlog_grows(flat))
        self.assertTrue(backlog_grows(growing))


if __name__ == '__main__':
    unittest.main()
