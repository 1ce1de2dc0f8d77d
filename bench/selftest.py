"""Self-test of the benchmark's own arithmetic; runs no workload.

    python3 bench/selftest.py
"""

import types
import unittest

import reference
import run
import spans
from workloads import QUERY, QUERY_PINS, SWEEP, SWEEP_PINS, WORKLOADS, planned_instances, plan


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def _module(**functions) -> types.ModuleType:
    mod = types.ModuleType("fake")
    for name, fn in functions.items():
        setattr(mod, name, fn)
    return mod


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        mod = _module(inner=lambda: 1)
        mod.outer = lambda: mod.inner() + mod.inner()
        rec = spans.Recorder(clock=_ticking_clock())
        rec.wrap(mod, "inner", "inner", "call")
        rec.wrap(mod, "outer", "outer", "call")
        self.assertEqual(mod.outer(), 2)
        # outer: open 0, close 5; inner: 1..2 and 3..4
        table = rec.table()
        self.assertEqual(table["outer"], {"calls": 1, "s": 5.0, "self_s": 3.0})
        self.assertEqual(table["inner"], {"calls": 2, "s": 2.0, "self_s": 2.0})

    def test_recursion_counts_inclusive_time_once(self):
        mod = _module()
        mod.down = lambda n: 0 if n == 0 else mod.down(n - 1)
        rec = spans.Recorder(clock=_ticking_clock())
        rec.wrap(mod, "down", "down", "call")
        mod.down(2)
        # spans 0..5, 1..4, 2..3: self times 2 + 2 + 1
        self.assertEqual(rec.table()["down"], {"calls": 3, "s": 5.0, "self_s": 5.0})

    def test_generator_is_timed_as_consumed(self):
        mod = _module(inner=lambda: None)

        def gen():
            mod.inner()
            yield 1
            yield 2

        mod.gen = gen
        rec = spans.Recorder(clock=_ticking_clock())
        rec.wrap(mod, "inner", "inner", "call")
        rec.wrap(mod, "gen", "gen", "generator")
        it = mod.gen()
        self.assertEqual(rec.spans, [])  # creating the generator runs nothing
        self.assertEqual(list(it), [1, 2])
        # resumptions 0..3 (holding inner 1..2), 4..5, 6..7 (exhausted)
        self.assertEqual(rec.table()["gen"], {"calls": 1, "s": 5.0, "self_s": 4.0})
        self.assertEqual(rec.stack, [])

    def test_exception_closes_span_and_uninstall_restores(self):
        def boom():
            raise KeyError("x")

        mod = _module(boom=boom)
        rec = spans.Recorder(clock=_ticking_clock())
        rec.wrap(mod, "boom", "boom", "call")
        with self.assertRaises(KeyError):
            mod.boom()
        self.assertEqual(rec.stack, [])
        self.assertEqual(rec.table()["boom"]["s"], 1.0)
        rec.uninstall()
        self.assertIs(mod.boom, boom)

    def test_missing_site_is_reported_unmeasured(self):
        rec = spans.Recorder()
        rec.wrap(_module(), "gone", "gone", "call")
        self.assertEqual(len(rec.unmeasured), 1)
        self.assertIn("gone", rec.unmeasured[0])

    def test_group_seconds_and_child_count(self):
        mod = _module(leaf=lambda: None)
        mod.mid = lambda: (mod.leaf(), mod.leaf())
        mod.top = lambda: mod.mid()
        rec = spans.Recorder(clock=_ticking_clock())
        rec.wrap(mod, "leaf", "g.leaf", "call")
        rec.wrap(mod, "mid", "g.mid", "call")
        rec.wrap(mod, "top", "top", "call")
        mod.top()
        # top 0..7, g.mid 1..6 holding g.leaf 2..3 and 4..5
        self.assertEqual(rec.group_seconds("g."), 5.0)
        self.assertEqual(rec.child_count("g.mid", "g.leaf"), 2)
        self.assertEqual(rec.child_count("top", "g.leaf"), 0)

    def test_captured_functions_are_named(self):
        import sys

        fake = types.ModuleType("benchfakepkg")
        fake.TABLE = {"a": _ticking_clock}
        fake.PLAIN = {"a": 1}
        sys.modules["benchfakepkg"] = fake
        try:
            found = spans.captured_functions("benchfakepkg")
        finally:
            del sys.modules["benchfakepkg"]
        self.assertEqual(len(found), 1)
        self.assertIn("benchfakepkg.TABLE", found[0])

    def test_units_follow_names(self):
        self.assertEqual(spans.unit_of("packing.chi_rho.self_s"), "s")
        self.assertEqual(spans.unit_of("verify.payload_s"), "s")
        self.assertEqual(spans.unit_of("enumeration.classes"), "count")
        self.assertEqual(spans.unit_of("iso.find_isomorphism.hit_ratio"), "ratio")
        self.assertEqual(spans.unit_of("criticality.deletions_per_call"), "count/call")


class Percentiles(unittest.TestCase):
    def test_tail_leaves_at_least_ten_above(self):
        self.assertEqual(run.tail_percentile(4303), 99.5)  # 21.5 above
        self.assertEqual(planned_instances("families"), 868)
        self.assertEqual(planned_instances("radius1"), 1460)
        self.assertEqual(run.tail_percentile(1460), 99.0)  # 14.6 above
        self.assertEqual(run.tail_percentile(868), 98.0)  # 17.4 above
        self.assertEqual(run.tail_percentile(1000), 99.0)  # exactly 10 above
        self.assertEqual(run.tail_percentile(999), 98.0)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(3), 50.0)

    def test_tail_percentile_is_the_documented_rule(self):
        for n in range(1, 5000):
            p = run.tail_percentile(n)
            if p != 50.0:
                self.assertGreaterEqual(n * (100 - p) / 100, 10 - 1e-9)
            higher = [q for q in run.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(n * (100 - q) / 100, 10 - 1e-9)

    def test_percentile_interpolates_between_order_statistics(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile([5], 99), 5)
        self.assertAlmostEqual(run.percentile(list(range(101)), 98), 98.0)
        self.assertAlmostEqual(run.percentile([0, 10], 99), 9.9)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_end_to_end_scales_items_medians_times_and_minimises_latencies(self):
        def result(scale, rss_kb):
            item = {"name": "thm12", "seconds": 2.0, "scale": scale, "instances_us": [9, 19]}
            return {"items": [item], "peak_rss_kb": rss_kb}

        m = run.end_to_end("radius1", [result(1.0, 1024), result(0.5, 2048), result(2.0, 4096)], [0.2, 0.1, 0.3])
        self.assertEqual(m["wall_s"]["value"], 2.0)  # median of 2, 1, 4
        self.assertEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["peak_rss_mb"]["value"], 2.0)
        # per-instance minima (9.5 and 19.5 us at scale 0.5) are 4.75 and 9.75 us
        self.assertAlmostEqual(m["instance_ms_p50"]["value"], 0.00725)


def _passing_items(workload):
    items = []
    for kind, name in WORKLOADS[workload]:
        if kind == SWEEP:
            count, digest = SWEEP_PINS[name]
            items.append({"kind": kind, "name": name, "error": None, "count": count,
                          "digest": digest, "disagreements": 0})
        else:
            items.append({"kind": kind, "name": name, "error": None,
                          "value": QUERY_PINS[name], "witness_ok": True})
    return items


class FailureCounting(unittest.TestCase):
    def test_clean_pass(self):
        n = planned_instances("families")
        self.assertEqual(run.count_failures("families", _passing_items("families")), (n, 0, []))

    def test_digest_mismatch_fails_every_instance_of_the_sweep(self):
        items = _passing_items("radius1")
        cor1 = next(it for it in items if it["name"] == "cor1")
        cor1["digest"] = "0" * 64
        attempted, failed, reasons = run.count_failures("radius1", items)
        self.assertEqual((attempted, failed), (1460, SWEEP_PINS["cor1"][0]))
        self.assertEqual(len(reasons), 1)

    def test_count_mismatch_error_and_disagreement(self):
        items = _passing_items("families")
        by = {it["name"]: it for it in items}
        by["pro4"]["count"] = 28
        by["pro8"]["error"] = "CharacterizationError: x"
        by["teo1"]["disagreements"] = 1
        attempted, failed, _ = run.count_failures("families", items)
        pinned = SWEEP_PINS["pro4"][0] + SWEEP_PINS["pro8"][0] + SWEEP_PINS["teo1"][0]
        self.assertEqual((attempted, failed), (planned_instances("families"), pinned))

    def test_query_value_witness_and_missing_items(self):
        items = _passing_items("families")
        by = {it["name"]: it for it in items}
        by["P40"]["value"] = 4
        by["W12"]["witness_ok"] = False
        items.remove(by["T8"])
        _, failed, reasons = run.count_failures("families", items)
        self.assertEqual(failed, 3)
        self.assertEqual(len(reasons), 3)

    def test_no_result_fails_the_whole_pass(self):
        n = planned_instances("radius1")
        attempted, failed, _ = run.count_failures("radius1", None)
        self.assertEqual((attempted, failed), (n, n))
        self.assertEqual(failed / attempted, 1.0)


class ReferenceSpeed(unittest.TestCase):
    def test_scale_is_reference_over_median_sample(self):
        sampler = reference.SpeedSampler()
        sampler.samples = [9.0, 1e-3, 2e-3, 4e-3]
        self.assertAlmostEqual(sampler.scale_since(1), reference.REFERENCE_S / 2e-3)

    def test_take_times_the_reference_work(self):
        sampler = reference.SpeedSampler()
        sampler.take()
        sampler.take()
        self.assertEqual(len(sampler.samples), 2)
        self.assertTrue(all(t > 0 for t in sampler.samples))
        self.assertEqual(reference.reference_work(3), reference.reference_work(3))


class SeedOrder(unittest.TestCase):
    def test_seed_permutes_but_keeps_the_work_set(self):
        for workload in WORKLOADS:
            self.assertEqual(plan(workload, 3), plan(workload, 3))
            self.assertEqual(sorted(plan(workload, 3)), sorted(WORKLOADS[workload]))
        self.assertNotEqual(plan("families", 1), plan("families", 2))
        self.assertTrue(all(kind in (SWEEP, QUERY) for kind, _ in WORKLOADS["families"]))


if __name__ == "__main__":
    unittest.main()
