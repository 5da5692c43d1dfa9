"""Tests for the benchmark's own arithmetic and checks.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import speed
from tracer import COUNT, SPAN, Tracer

BENCH = Path(__file__).resolve().parent


def _clock(*ticks: float):
    return iter(ticks).__next__


class TestSelfTime:
    def test_nested_and_sibling_spans(self):
        # root [0, 10] holds child [1, 5] (with grandchild [2, 4]) and
        # sibling [6, 9].
        tracer = Tracer(clock=_clock(0, 1, 2, 4, 5, 6, 9, 10))
        root = tracer.enter("root", "experiments", span=True)
        child = tracer.enter("child", "vca", span=True)
        grandchild = tracer.enter("grandchild", "netsim.fabric")
        tracer.leave(grandchild)
        tracer.leave(child)
        sibling = tracer.enter("sibling", "vca", span=True)
        tracer.leave(sibling)
        assert tracer.leave(root) == 10
        by_name = tracer.by_name()
        assert by_name["root"][3] == pytest.approx(10 - 4 - 3)
        assert by_name["child"][3] == pytest.approx(4 - 2)
        assert by_name["grandchild"][3] == pytest.approx(2)
        assert by_name["sibling"][3] == pytest.approx(3)
        assert tracer.layer_self == pytest.approx(
            {"experiments": 3, "vca": 5, "netsim.fabric": 2})

    def test_layer_self_times_sum_to_the_wall(self):
        ticks = [0.0]
        for step in (0.5, 0.25, 0.125, 1.0, 0.0625, 2.0, 0.5, 0.75, 0.3,
                     0.01, 1.5):
            ticks.append(ticks[-1] + step)
        tracer = Tracer(clock=_clock(*ticks))
        root = tracer.enter("root", "scenario", span=True)
        for layer in ("netsim.batch", "geo", "faults"):
            tracer.leave(tracer.enter(layer, layer))
        inner = tracer.enter("cell", "core", span=True)
        tracer.leave(tracer.enter("codec", "keypoints"))
        tracer.leave(inner)
        wall = tracer.leave(root)
        assert wall == pytest.approx(ticks[-1])
        assert layers.self_time_gap(tracer.layer_self, wall) < 1e-12
        assert layers.self_time_gap({"scenario": wall * 0.9}, wall) == \
            pytest.approx(0.1)

    def test_spans_share_their_cell_id_and_link_parents(self):
        tracer = Tracer(clock=_clock(*range(20)))
        outer = tracer.enter("run", "core", span=True)
        previous = tracer.begin_cell()
        cell = tracer.enter("cell", "scenario", span=True)
        tracer.leave(tracer.enter("packet", "netsim.fabric"))
        tracer.leave(tracer.enter("engine", "netsim.batch", span=True))
        tracer.leave(cell)
        tracer.end_cell(previous)
        tracer.leave(outer)
        spans = {s["name"]: s for s in tracer.spans}
        assert spans["run"]["cell"] == 0
        assert spans["cell"]["cell"] == spans["engine"]["cell"] == 1
        assert spans["engine"]["parent"] == spans["cell"]["id"]
        assert spans["cell"]["parent"] == spans["run"]["id"]
        # count boundaries keep per-cell totals, not span records
        assert "packet" not in spans
        assert tracer.calls[(1, "packet")][1] == 1

    def test_out_of_order_close_is_refused(self):
        tracer = Tracer(clock=_clock(0, 1, 2))
        outer = tracer.enter("outer", "vca")
        tracer.enter("inner", "vca")
        with pytest.raises(RuntimeError):
            tracer.leave(outer)


class TestPatch:
    def test_wraps_functions_imported_by_name_and_restores(self):
        owner = types.ModuleType("repro_perfbench_fixture")
        exec("def work(x):\n    return [b'ab', b'c'] * x\n"
             "class Box:\n    def size(self):\n        return 3\n",
             owner.__dict__)
        user = types.ModuleType("repro_perfbench_user")
        user.work = owner.work
        sys.modules[owner.__name__] = owner
        sys.modules[user.__name__] = user
        original = owner.work
        try:
            tracer = Tracer()
            tracer.patch(owner.__name__, "work", "transport", COUNT,
                         ("bytes", layers._quic_bytes))
            tracer.patch(owner.__name__, "Box.size", "vca", SPAN)
            assert user.work(2) == [b"ab", b"c", b"ab", b"c"]
            assert owner.Box().size() == 3
            assert owner.work.__name__ == "work"
            assert tracer.counters == {"bytes": 6}
            names = tracer.by_name()
            assert names["repro_perfbench_fixture.work"][1] == 1
            assert names["repro_perfbench_fixture.Box.size"][0] == "vca"
            tracer.restore()
            assert owner.work is original and user.work is original
        finally:
            del sys.modules[owner.__name__], sys.modules[user.__name__]


class TestRatios:
    def test_events_per_merge(self):
        assert layers.events_per_merge(771095, 156662) == \
            pytest.approx(4.922, abs=1e-3)
        assert layers.events_per_merge(10, 0) == 0.0

    def test_delivered_ratio(self):
        assert layers.delivered_ratio(950, 1000) == 0.95
        assert layers.delivered_ratio(0, 0) == 0.0

    def test_per_layer_metrics_from_hand_built_counts(self):
        summary = {
            "layer_self": {"netsim.fabric": 2.0, "netsim.batch": 3.0},
            "by_name": {
                "netsim.network.Network.send": ["netsim.fabric", 400, 2.5,
                                                1.5],
                "netsim.node.Host.deliver": ["netsim.fabric", 300, 0.6, 0.5],
                "geo.latency.PathModel.one_way_ms": ["geo", 7, 0.1, 0.1],
            },
            "counters": {"transport.quic.bytes": 1234.0},
            "obs": {"counters": {"netsim.batch.events_fired": 50,
                                 "netsim.batch.merges": 20},
                    "gauges": {}},
            "cache": {"hits": 1, "misses": 3},
        }
        runner = {"cells": 2.0, "overhead_s": 0.1, "worker_user_s": 0.0,
                  "worker_sys_s": 0.0}
        out = layers.per_layer_metrics([summary, summary], {}, runner, 0.05)
        assert out["netsim.fabric.packets"] == 800
        assert out["netsim.fabric.delivered_ratio"] == 0.75
        assert out["netsim.fabric.us_per_packet"] == pytest.approx(
            4.0 / 800 * 1e6)
        assert out["netsim.batch.events_per_merge"] == 2.5
        assert out["geo.calls"] == 14
        assert out["transport.quic.bytes"] == 2468
        assert out["core.cache.hit_ratio"] == 0.25
        assert set(out) == set(layers.metric_names())


class TestChecks:
    PINNED = {"seed": 0, "report-quick": "a" * 64, "calls": "b" * 64,
              "fanout": "c" * 64}

    def test_digest_check_fails_on_a_one_byte_change(self):
        import hashlib

        text = "# Reproduction report\n| W | 12.0 |\n"
        good = hashlib.sha256(text.encode()).hexdigest()
        bad = hashlib.sha256(text.replace("12.0", "12.1").encode()
                             ).hexdigest()
        pinned = dict(self.PINNED, calls=good)
        assert run.check_digests("calls", 0, [good, good], pinned) == []
        failures = run.check_digests("calls", 0, [good, bad], pinned)
        assert any("cold/warm" in f for f in failures)
        failures = run.check_digests("calls", 0, [bad, bad], pinned)
        assert any("pinned" in f for f in failures)

    def test_pinned_digest_only_at_its_seed_except_report(self):
        assert run.check_digests("calls", 5, ["d" * 64] * 2,
                                 self.PINNED) == []
        assert run.check_digests("report-quick", 5, ["d" * 64] * 2,
                                 self.PINNED) != []

    def test_failed_cells_count_quarantine_and_timeouts(self):
        manifest = {"counts": {"ok": 3, "failed": 1, "quarantined": 1},
                    "timeouts": 2}
        assert run.failed_cells(manifest) == 4


class TestSpeed:
    def test_mean_speed_is_the_time_average(self):
        # Half the window at full speed, half at half speed: three
        # quarters of the work of a quiet window.
        assert speed.mean_speed([1.0, 1.0, 0.5, 0.5]) == 0.75

    def test_clock_leaves_out_sampling_time(self, monkeypatch):
        sampler = speed.SpeedSampler()
        ticks = iter([10.0, 12.5])
        monkeypatch.setattr(speed.time, "perf_counter", lambda: next(ticks))
        start = sampler.clock()
        sampler.spent = 0.5
        assert sampler.clock() - start == 2.0

    def test_speed_averages_the_samples_inside_its_window(self):
        sampler = speed.SpeedSampler()
        sampler.samples = [(1.0, 0.5), (2.0, 1.0), (3.0, 0.9), (4.0, 0.2)]
        assert sampler.speed(1.5, 3.5) == pytest.approx(0.95)
        # a window without a sample takes one on the spot
        assert sampler.speed(5.0, 6.0) > 0
        assert len(sampler.samples) == 5

    def test_a_stalled_sample_does_not_nest_another(self):
        sampler = speed.SpeedSampler()
        sampler._sampling = True
        sampler._sample()
        assert sampler.samples == [] and sampler.spent == 0.0

    def test_sampler_samples_and_restores_the_alarm_handler(self):
        import signal
        import time

        previous = signal.getsignal(signal.SIGALRM)
        sampler = speed.SpeedSampler(interval=0.01)
        sampler.start()
        try:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
        finally:
            sampler.stop()
        assert len(sampler.samples) >= 5
        assert sampler.spent > 0
        assert signal.getsignal(signal.SIGALRM) == previous

    def test_passes_are_scaled_to_reference_seconds(self):
        report = {
            "speeds": [0.5, 2.0], "walls": [4.0, 3.0], "worker_user_s": 2.0,
            "worker_sys_s": 1.0, "manifest": {"executed_s": 3.0},
            "trace": {"layer_self": {"vca": 3.0, "core": 1.0},
                      "by_name": {"vca.x": ["vca", 7, 3.5, 3.0]},
                      "counters": {}},
        }
        scaled = run.at_reference_speed(report)
        # each run at its own speed; pass-wide figures at the first run's
        assert scaled["walls"] == [2.0, 6.0]
        assert scaled["worker_user_s"] == 1.0
        assert scaled["worker_sys_s"] == 0.5
        assert scaled["manifest"]["executed_s"] == 1.5
        assert scaled["trace"]["layer_self"] == {"vca": 1.5, "core": 0.5}
        assert scaled["trace"]["by_name"]["vca.x"] == ["vca", 7, 1.75, 1.5]
        assert report["walls"] == [4.0, 3.0]

    def test_self_time_check_reads_measured_figures(self):
        report = {"speeds": [0.5], "walls": [4.0], "worker_user_s": 0.0,
                  "worker_sys_s": 0.0, "manifest": {"executed_s": 0.0},
                  "trace": {"layer_self": {"vca": 3.0, "core": 1.0},
                            "by_name": {}}}
        assert run.check_self_time(run.at_reference_speed(report)) is None

    def test_self_time_check_fails_when_layers_miss_wall(self):
        report = {"speeds": [1.0], "walls": [4.0], "worker_user_s": 0.0,
                  "worker_sys_s": 0.0, "manifest": {"executed_s": 0.0},
                  "trace": {"layer_self": {"vca": 3.0}, "by_name": {}}}
        assert "traced wall" in run.check_self_time(
            run.at_reference_speed(report))


class TestBenchmarkFile:
    def test_per_layer_entries_match_the_layer_table(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        entries = {e["name"]: e for e in spec["per_layer"]}
        assert list(entries) == layers.metric_names()
        for name, entry in entries.items():
            assert entry["unit"] == layers.unit_of(name)
            assert entry["better"] == layers.better_of(name)
        e2e = {e["name"]: e["unit"] for e in spec["end_to_end"]}
        assert e2e == run.END_TO_END_UNITS
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    def test_pinned_digests_cover_every_workload(self):
        pinned = json.loads((BENCH / "digests.json").read_text())
        for workload in run.WORKLOADS:
            assert len(pinned[workload]) == 64


def test_scenario_inputs_are_a_pure_function_of_the_seed():
    workloads = pytest.importorskip("workloads")
    for seed in (0, 7):
        calls = workloads.call_specs(seed)
        assert [s.to_json() for s in calls] == \
            [s.to_json() for s in workloads.call_specs(seed)]
        assert [(s.profile, tuple(p.device for p in s.participants),
                 s.faults.scenario) for s in calls] == \
            list(workloads.CALL_SHAPES)
        assert [len(s.cross_traffic) for s in calls] == [0, 0, 0, 0, 1]
        fanout = workloads.fanout_specs(seed)
        assert [s.fanout for s in fanout] == list(workloads.FANOUTS)
    assert workloads.call_specs(0) != workloads.call_specs(1)
    assert workloads.fanout_specs(0) != workloads.fanout_specs(1)
