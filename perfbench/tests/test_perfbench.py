"""Tests of the benchmark itself: tiny workloads, tripping checks, tracing.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics, run, spans, suite

ROOT = Path(__file__).resolve().parents[2]

#: Scales that keep every workload well under a second or two while its
#: mechanisms still fire.
TINY = {"population_b1": 0.02, "poisson_b8": 0.02, "control_plane": 0.3,
        "tiered_dag": 0.15}


@functools.lru_cache(maxsize=None)
def served(name: str):
    """(workload, gateways, reports) of one tiny op, built once per name."""
    workload = suite.WORKLOADS[name](seed=3, scale=TINY[name])
    workload.build()
    gateways = [workload.gateway(shard) for shard in range(workload.shards)]
    reports = [workload.serve(gateway, shard)
               for shard, gateway in enumerate(gateways)]
    return workload, gateways, reports


def failures(workload, gateways, reports) -> list[str]:
    """Every check of one op, as ``run.serve_once`` applies them."""
    out = [f for shard, (gateway, report) in enumerate(zip(gateways,
                                                           reports))
           for f in workload.check(report, gateway, shard)]
    return out + workload.check_op(reports)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.per_layer())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_tiny_workload_passes_every_check(name):
    workload, gateways, reports = served(name)
    assert failures(workload, gateways, reports) == []
    sim = workload.sim_metrics(reports)
    assert set(sim) == {n for n, _, _ in metrics.END_TO_END
                        if n.startswith("sim_")}
    assert all(math.isfinite(v) and v > 0 for v in sim.values())
    counters = workload.counters(reports, {})
    assert set(counters) == {n for n, _, _ in metrics.COUNTERS}


def test_shards_draw_independent_inputs_from_one_seed():
    workload, _, _ = served("control_plane")
    arrivals = [[f.arrival_s for f in shard] for shard in workload.inputs]
    assert arrivals[0] != arrivals[1]
    again = suite.ControlPlane(seed=3, scale=TINY["control_plane"])
    again.build()
    assert [[f.arrival_s for f in shard] for shard in again.inputs] \
        == arrivals


@pytest.mark.parametrize("name", ["population_b1", "poisson_b8"])
def test_vector_workloads_match_the_scalar_oracle(name):
    workload, _, _ = served(name)
    assert workload.oracle_failures() == []


def test_oracle_check_trips_when_the_oracle_disagrees():
    workload, _, _ = served("poisson_b8")

    class Skewed(suite.PoissonB8):
        def _gateway(self, mode="auto"):
            gateway = super()._gateway(mode)
            if mode == "scalar":  # a different fleet prices differently
                gateway = suite.FleetGateway(
                    suite.repro.fleet.build_fleet(self.devices, mix="maxn",
                                                  max_batch_size=8),
                    policy="round-robin", mode="scalar")
            return gateway

    skewed = Skewed(seed=3, scale=TINY["poisson_b8"])
    skewed.inputs = workload.inputs
    assert any("scalar oracle" in f for f in skewed.oracle_failures())


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_conservation_trips_on_a_dropped_request(name):
    workload, gateways, reports = served(name)
    dropped = dataclasses.replace(reports[0], offered=reports[0].offered + 1)
    assert any("conservation" in f
               for f in workload.check(dropped, gateways[0], 0))


@pytest.mark.parametrize("name", ["population_b1", "poisson_b8"])
def test_vector_check_trips_on_a_scalar_fallback(name):
    workload, (gateway,), (report,) = served(name)
    saved = gateway.last_mode
    gateway.last_mode = "scalar"
    try:
        assert any("'scalar' core" in f
                   for f in workload.check(report, gateway, 0))
    finally:
        gateway.last_mode = saved


def test_control_plane_checks_trip_when_a_mechanism_stays_idle():
    workload, _, reports = served("control_plane")
    idle = {
        "crash": lambda r: dataclasses.replace(r, devices=tuple(
            dataclasses.replace(d, crashes=0) for d in r.devices)),
        "brownout": lambda r: dataclasses.replace(r, max_brownout_tier=0),
        "hedge": lambda r: dataclasses.replace(r, hedged=0),
        "drain": lambda r: dataclasses.replace(r, autoscale=dataclasses.replace(
            r.autoscale, drains_completed=0)),
        "woke": lambda r: dataclasses.replace(r, autoscale=dataclasses.replace(
            r.autoscale, wakes=0)),
    }
    for word, corrupt in idle.items():
        corrupted = [corrupt(r) for r in reports]
        assert any(word in f for f in workload.check_op(corrupted)), word


def test_tiered_dag_check_trips_when_neither_ladder_nor_budget_engage():
    workload, _, reports = served("tiered_dag")
    idle = [dataclasses.replace(r, tiering=dataclasses.replace(
        r.tiering, max_ladder_level=0, budget_downgrades=0))
        for r in reports]
    assert any("engaged" in f for f in workload.check_op(idle))


class _Flaky(suite.PoissonB8):
    """Serves a different stream on its second op."""

    calls = 0

    def serve(self, gateway, shard):
        _Flaky.calls += 1
        stream = self.inputs[shard]
        return gateway.run(stream if _Flaky.calls != 2 else stream[:-1])


def test_byte_identity_check_fails_only_the_differing_op():
    workload = _Flaky(seed=3, scale=0.002)
    workload.build()
    ops, _ = run.run_ops(workload, 0.0, None, [])
    assert [bool(op.failures) for op in ops] == [False, True, False]
    assert any("differs from the first" in f for f in ops[1].failures)


def test_rate_takes_each_shards_fastest_call_and_calibrates():
    ref = run.REFERENCE_S
    ops = [run.Op(0, False, [2.0, 1.0], [10, 20], reference_seconds=[ref]),
           run.Op(1, False, [1.0, 3.0], [10, 20],
                  reference_seconds=[2 * ref, 3 * ref]),
           run.Op(2, False, [], [], reference_seconds=[0.5 * ref])]
    assert run.rate(ops) == pytest.approx(30 / 2.0)
    slow = [dataclasses.replace(op, reference_seconds=[2 * ref],
                                shard_seconds=[2 * t for t in
                                               op.shard_seconds])
            for op in ops[:2]]
    assert run.rate(slow) == pytest.approx(30 / 2.0)


def test_tracer_nests_spans_and_restores_the_originals():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = spans.Tracer([(Layer, "outer", "outer", None),
                           (Layer, "inner", "inner", None)])
    tracer.install()
    with tracer.root("op", 0):
        assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    table = tracer.arrays()
    assert spans.op_integrity_failures(table, 0) == []
    totals = spans.layer_totals(table, tracer.names, 0)
    assert totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["inner"]["s"])


def test_integrity_check_trips_on_a_span_outside_its_parent():
    tracer = spans.Tracer([])
    with tracer.root("op", 0):
        pass
    tracer.name.append(0)
    tracer.parent.append(0)
    tracer.op.append(0)
    tracer.units.append(0)
    tracer.nested.append(False)
    tracer.start.append(tracer.start[0])
    tracer.end.append(tracer.end[0] + 1.0)
    failures = spans.op_integrity_failures(tracer.arrays(), 0)
    assert any("outside its parent" in f for f in failures)


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_metric(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setitem(suite.WORKLOADS, "poisson_b8",
                        functools.partial(suite.PoissonB8, scale=0.004))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "poisson_b8", "--seed", "2",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    table = metrics.per_layer() if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in table]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_fails_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson_b8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_capacity_pacing_is_positive_and_scales_with_the_fleet():
    small = suite.repro.fleet.build_fleet(2, max_batch_size=4)
    large = suite.repro.fleet.build_fleet(4, max_batch_size=4)
    assert 0 < suite.capacity_qps(small, 150, 192)
    assert suite.capacity_qps(large, 150, 192) == pytest.approx(
        2 * suite.capacity_qps(small, 150, 192))
    assert np.isclose(suite.lognormal_mean(0.0, 0.0), 1.0)
