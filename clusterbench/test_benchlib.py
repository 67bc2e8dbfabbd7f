"""Tests of the benchmark's own arithmetic.

Run from the repository root:
  python3 -m unittest discover -s clusterbench -p 'test_*.py'
"""

import unittest

import benchlib


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile(values, 1), 1)

    def test_unsorted_and_small(self):
        self.assertEqual(benchlib.percentile([5, 1, 3], 50), 3)
        self.assertEqual(benchlib.percentile([7], 99), 7)
        self.assertEqual(benchlib.percentile([4, 2], 50), 2)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertFalse(benchlib.tail_supported(999, 99))
        self.assertTrue(benchlib.tail_supported(1000, 99))
        self.assertTrue(benchlib.tail_supported(20, 50))
        self.assertFalse(benchlib.tail_supported(19, 50))


class ExpectedOutputTest(unittest.TestCase):
    def test_concat(self):
        data = b"abcdefghij" + b'{"field_0_x": 1}'
        self.assertEqual(benchlib.expected_concat_output(data), b'abcdefghij|{"fie')
        self.assertEqual(len(benchlib.expected_concat_output(data)), 16)

    def test_scf_hand_worked(self):
        # 600: piece 100, fee per tranche 100*25//10000 = 0 -> 600.
        self.assertEqual(benchlib.expected_scf_output(
            b"ar-cert-0\nsupplier-alpha\nbank-one\n600"), (600).to_bytes(8, "little"))
        # 5599: piece 933, per tranche 933*25//10000 = 2, fee 12 -> 5587.
        self.assertEqual(benchlib.expected_scf_output(
            b"ar-cert-3\nsupplier-alpha\nbank-one\n5599"), (5587).to_bytes(8, "little"))
        # 2400: piece 400, per tranche 1, fee 6 -> 2394.
        self.assertEqual(benchlib.expected_scf_output(
            b"ar-cert-1\nsupplier-alpha\nbank-one\n2400"), (2394).to_bytes(8, "little"))


class TimelineTest(unittest.TestCase):
    def test_visible_at(self):
        timeline = [(100, 3), (150, 4), (190, 6)]
        self.assertEqual(benchlib.visible_at(timeline, 2), 100)
        self.assertEqual(benchlib.visible_at(timeline, 3), 150)
        self.assertEqual(benchlib.visible_at(timeline, 4), 190)
        self.assertEqual(benchlib.visible_at(timeline, 5), 190)
        with self.assertRaises(ValueError):
            benchlib.visible_at(timeline, 6)


def snapshot(counters, histograms):
    return {"counters": counters, "gauges": {}, "histograms": histograms}


def histogram(count, total, counts=None):
    bounds = [1000, 2000, 5000]
    return {"bounds": bounds, "counts": counts or [0, 0, 0, 0], "count": count,
            "sum": total}


class LayerMetricsTest(unittest.TestCase):
    def setUp(self):
        leader = snapshot(
            {"net.send.bytes": 9000, "net.send.count": 90,
             "cluster.retransmit.count": 1, "chain.block.count": 10,
             "confide.preverify_cache.hit.count": 30,
             "confide.preverify_cache.miss.count": 10,
             "confide.state.get_ocall.count": 40, "tee.transition.count": 100,
             "crypto.ecdsa.verify.count": 20, "storage.wal.append.bytes": 2000,
             "storage.wal.sync.count": 10, "storage.lsm.read.count": 50,
             "storage.lsm.read.structures_probed": 25,
             "storage.cache.hit.count": 3, "storage.cache.miss.count": 1,
             "storage.memtable.flush.count": 2},
            {"chain.block.execute.latency_ns": histogram(10, 40_000_000),
             "chain.preverify.batch.latency_ns": histogram(
                 4, 3_000_000_000, [1, 0, 3, 0]),
             "confide.phase.p5_execute_ns": histogram(20, 2_000_000)})
        follower = snapshot(
            {"net.send.bytes": 1000, "net.send.count": 10, "chain.block.count": 10,
             "confide.preverify_cache.miss.count": 20,
             "confide.state.get_ocall.count": 40, "tee.transition.count": 60,
             "crypto.ecdsa.verify.count": 20, "storage.wal.append.bytes": 2000,
             "storage.lsm.read.count": 50, "storage.lsm.read.structures_probed": 25,
             "storage.cache.hit.count": 1, "storage.cache.miss.count": 3},
            {"chain.block.execute.latency_ns": histogram(10, 80_000_000),
             "confide.phase.p5_execute_ns": histogram(20, 6_000_000)})
        self.m = benchlib.layer_metrics([leader, follower, follower, follower],
                                        leader=0, committed=20, load_wall_s=2.0)

    def test_network_totals_per_tx(self):
        self.assertAlmostEqual(self.m["net.send_bytes_per_tx"], 12000 / 20)
        self.assertAlmostEqual(self.m["net.send_msgs_per_tx"], 120 / 20)
        self.assertEqual(self.m["net.cluster.retransmits"], 1)
        self.assertEqual(self.m["net.cluster.view_changes"], 0)

    def test_leader_and_follower_split(self):
        self.assertAlmostEqual(self.m["chain.block.execute_ms.leader"], 4.0)
        self.assertAlmostEqual(self.m["chain.block.execute_ms.follower"], 8.0)
        self.assertAlmostEqual(self.m["chain.block.busy_share.leader"], 0.04 / 2.0)
        self.assertAlmostEqual(self.m["chain.preverify.busy_s.leader"], 3.0)
        # Highest non-empty bucket is 5 ms (overflow bucket empty).
        self.assertAlmostEqual(self.m["chain.preverify.max_batch_ms.leader"], 5e-3)
        self.assertAlmostEqual(self.m["confide.phase.p5_us.leader"], 100.0)
        self.assertAlmostEqual(self.m["confide.phase.p5_us.follower"], 300.0)
        self.assertEqual(self.m["confide.phase.p1_us.leader"], 0.0)
        self.assertAlmostEqual(self.m["confide.preverify_cache.hit_ratio.leader"], 0.75)
        self.assertEqual(self.m["confide.preverify_cache.hit_ratio.follower"], 0.0)

    def test_per_node_means_per_tx(self):
        self.assertAlmostEqual(self.m["confide.state_ocalls_per_tx"], 2.0)
        self.assertAlmostEqual(self.m["tee.transitions_per_tx"], (100 + 180) / 4 / 20)
        self.assertAlmostEqual(self.m["crypto.ecdsa_verify_per_tx"], 1.0)
        self.assertAlmostEqual(self.m["storage.wal_bytes_per_tx"], 100.0)
        self.assertAlmostEqual(self.m["storage.wal_syncs_per_block"], 10 / 40)
        self.assertAlmostEqual(self.m["storage.read_amp"], 0.5)
        self.assertAlmostEqual(self.m["storage.cache.hit_ratio"], 6 / 16)
        self.assertEqual(self.m["storage.memtable_flushes"], 2)


class InprocTest(unittest.TestCase):
    def test_self_time_and_rates(self):
        m = benchlib.inproc_metrics({
            "txs": 100, "blocks": 10, "wall_ns": 2_000_000_000,
            "preverify_ns": 50_000_000, "propose_ns": 1_000_000,
            "apply_ns": 1_500_000_000, "execute_ns": 1_400_000_000,
            "conf_execute_ns": 1_000_000_000, "conf_execute_count": 50,
            "pub_execute_ns": 400_000_000, "pub_execute_count": 50})
        self.assertAlmostEqual(m["chain.node.preverify_us_per_tx"], 500.0)
        self.assertAlmostEqual(m["chain.node.propose_us_per_block"], 100.0)
        self.assertAlmostEqual(m["chain.node.apply_ms_per_block"], 150.0)
        self.assertAlmostEqual(m["chain.node.apply_self_ms_per_block"], 10.0)
        self.assertAlmostEqual(m["confide.engine.execute_us.confidential"], 20_000.0)
        self.assertAlmostEqual(m["confide.engine.execute_us.public"], 8_000.0)
        self.assertAlmostEqual(m["chain.node.inproc_tps"], 50.0)

    def test_span_medians(self):
        spans = [{"name": "a", "start": 0, "end": 10},
                 {"name": "a", "start": 5, "end": 35},
                 {"name": "a", "start": 0, "end": 20},
                 {"name": "b", "start": 1, "end": 2}]
        self.assertEqual(benchlib.span_medians(spans), {"a": 20, "b": 1})


if __name__ == "__main__":
    unittest.main()
