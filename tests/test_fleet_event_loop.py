"""The gateway's scalar event loop across feature combinations.

Two guards for the one loop every scalar run goes through:

* pinned digests — ``sha256(report.to_json())`` for small streams over
  the feature matrix (each control-plane feature alone, all of them
  together under prefix affinity, and tiered DAG serving with and
  without faults), so any change to event order, sweep order, or
  report assembly shows up as a byte difference;
* conservation over random feature *combinations* — every offered
  request (every DAG child, in tiered runs) reaches exactly one
  terminal outcome, hedged duplicates included.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FleetFaultConfig, FleetFaultSchedule
from repro.fleet import (
    AutoscaleConfig,
    BrownoutConfig,
    FleetGateway,
    HedgeConfig,
    build_fleet,
    poisson_stream,
)
from repro.tiering import TieringConfig
from repro.workloads.agentic import agentic_suite

MODELS = ("dsr1-qwen-1.5b", "dsr1-qwen-1.5b-awq-w4")
#: A ladder low enough that four batch-4 devices walk it.
TIERING = TieringConfig(seed=0, enter_pressure=(0.5, 1.0, 2.0),
                        exit_pressure=(0.25, 0.75, 1.5),
                        session_token_budget=3000)
TIER_MODELS = tuple(dict.fromkeys(
    TIERING.fast_models + TIERING.deep_models + TIERING.verify_models))
CONTROL = ("faults", "brownout", "hedge", "autoscale")


def _stream(rng, policy, n, qps):
    """Two Poisson bursts 60 s apart: the trough lets the autoscaler
    drain and sleep devices, the second burst makes it wake them."""
    sessions = 6 if policy == "prefix-affinity" else 0
    half = n // 2
    head = poisson_stream(rng, qps, half, deadline_s=30.0,
                          sessions=sessions, prefix_tokens=64)
    tail = poisson_stream(rng, qps, n - half, deadline_s=30.0,
                          sessions=sessions, prefix_tokens=64)
    gap = head[-1].arrival_s + 60.0
    return head + [
        dataclasses.replace(
            f, arrival_s=f.arrival_s + gap,
            request=dataclasses.replace(
                f.request, request_id=f.request.request_id + half))
        for f in tail]


def serve(features, policy="least-outstanding", seed=0, n=48, qps=5.0,
          **gateway_kwargs):
    """Serve one small stream (or DAG suite) with ``features`` armed.

    Returns ``(report, offered_ids)``; ``offered_ids`` is None for
    tiered runs, whose child ids the coordinator assigns.
    """
    features = frozenset(features)
    tiered = "tiering" in features
    names = [f"edge-{i:02d}" for i in range(4)]
    schedule = None
    if "faults" in features:
        # Crashes, one flapping device and one slowdown episode, all
        # inside the first burst.
        schedule = FleetFaultSchedule(names, FleetFaultConfig(
            horizon_s=n / (2 * qps), device_crashes=1,
            crash_duration_s=(3.0, 6.0), flapping_devices=1, brownouts=1),
            seed=seed)
    fleet = build_fleet(
        4, mix="balanced", max_batch_size=4,
        models=TIER_MODELS if tiered else MODELS,
        prefix_cache_mb=8.0 if policy == "prefix-affinity" else 0.0,
        faults=schedule)
    gateway = FleetGateway(
        fleet, policy=policy, faults=schedule, seed=seed,
        brownout=(BrownoutConfig(enter_pressure=(0.5, 1.0, 2.0),
                                 exit_pressure=(0.25, 0.75, 1.5),
                                 downgrade_models=(MODELS[1],))
                  if "brownout" in features else None),
        hedge=(HedgeConfig(min_age_s=2.0, age_factor=1.0)
               if "hedge" in features else None),
        autoscale=(AutoscaleConfig(hold_up_s=0.0, hold_down_s=2.0,
                                   wake_latency_s=1.5, drain_grace_s=3.0)
                   if "autoscale" in features else None),
        **gateway_kwargs)
    rng = np.random.default_rng(seed)
    if tiered:
        suite = agentic_suite(rng, 4.0, 16, deadline_s=60.0)
        return gateway.run(suite, tiering=TIERING), None
    stream = _stream(rng, policy, n, qps)
    return (gateway.run(stream),
            {f.request.request_id for f in stream})


def _digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


#: name -> (features, policy, gateway kwargs, sha256 of the report).
PINNED = {
    "plain": (
        (), "least-outstanding", {},
        "f36a0167e702936ea171104639cd11af05adc5f3c72780a0b032c430bd955c40"),
    "vector": (
        (), "round-robin", {},
        "9c9ee76dab9e45034310457014c28b84fcf6d1fa8f468f75f8123b18eee0656b"),
    "faults": (
        ("faults",), "least-outstanding", {},
        "1bb2e6c0862e26dd355a3e8d6b6dbfc6907ba04a2b83dc19f9a122d3c081bb8c"),
    "faults_legacy": (
        ("faults",), "least-outstanding", {"legacy_routing": True},
        "1bb2e6c0862e26dd355a3e8d6b6dbfc6907ba04a2b83dc19f9a122d3c081bb8c"),
    "brownout": (
        ("brownout",), "least-outstanding", {},
        "3b5c7e5ac36f133d5a37040497b7040f88b15977d15f77ef12d5efa76cf5ea5d"),
    "hedge": (
        ("hedge",), "least-outstanding", {},
        "7c9799c50766ab3995e245abe65f2caa2ee3961a104d2a6bcf565f034644f692"),
    "autoscale": (
        ("autoscale",), "least-outstanding", {},
        "b9586c194f2ad21013dfa702df57742247316aaada614782ab662ad953f1489f"),
    "all": (
        CONTROL, "prefix-affinity", {},
        "b767eb2e31866f619b7861debe472fc5b7b56c579eb74022095a220b2378c074"),
    "tiering": (
        ("tiering",), "least-outstanding", {},
        "5052ea36b39054127b4d3ce9077b0a07be0cbfb667d48f9f1594dd41635d01b1"),
    "tiering_faults": (
        ("tiering", "faults"), "least-outstanding", {},
        "e5898c868c4ee2f4192f194e2de48d8831b8fb5b5755ffd99e939ddcc69d0d18"),
    # A short drain limit trips the tiered safety valve.
    "tiering_valve": (
        ("tiering",), "least-outstanding", {"drain_limit_s": 2.0},
        "c10c42474e399fd8d46bb28e003a8e783e27944effc6040ad17c8d0427ccdc4f"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_are_pinned(name):
    features, policy, kwargs, digest = PINNED[name]
    report, _ = serve(features, policy, **kwargs)
    assert _digest(report) == digest


class TestConservationOverCombinations:
    @settings(max_examples=12, deadline=None)
    @given(features=st.sets(st.sampled_from(CONTROL)),
           affinity=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_every_request_has_one_terminal_outcome(self, features,
                                                    affinity, seed):
        policy = "prefix-affinity" if affinity else "least-outstanding"
        report, offered = serve(features, policy, seed=seed, n=24)
        assert report.offered == len(offered) == 24
        assert (report.offered
                == report.completed + report.shed + report.failed)
        # Hedged duplicates count once: every served id was offered.
        assert {r.request_id for r in report.served} <= offered

    @settings(max_examples=4, deadline=None)
    @given(faults=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_every_dag_child_has_one_terminal_outcome(self, faults, seed):
        features = ("tiering", "faults") if faults else ("tiering",)
        report, _ = serve(features, seed=seed)
        assert report.offered == report.tiering.children_offered
        assert (report.offered
                == report.completed + report.shed + report.failed)
