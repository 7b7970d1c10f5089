"""The four benchmark workloads.

Each workload builds its inputs from a seed through repro's public API,
constructs a fresh fleet and gateway for every timed call, serves the
inputs with one public call, checks the report, and derives the modelled
(``sim_*``) metrics and the report-side per-layer counters.  Request
counts scale with ``scale`` so the benchmark's own tests can run every
workload at a tiny size.

A workload may split its inputs into ``shards``: independent sites, each
with its own stream drawn from ``(seed, shard)`` and its own fleet.  One
op serves every shard in turn, timing each serving call on its own, and
the modelled metrics pool all shards.  Sharding keeps every timed call
near a second, where the fastest of a run's calls is steady on a noisy
machine, while the pooled sample stays large enough for a steady p99.

All arrival schedules are open loop in simulated time: they are generated
up front and never react to how fast the fleet serves them.
"""

from __future__ import annotations

import math

import numpy as np

import repro.fleet
import repro.workloads
from repro.faults.injector import DeviceFault, FleetFaultConfig, FleetFaultSchedule
from repro.fleet import (
    AutoscaleConfig,
    BrownoutConfig,
    FleetGateway,
    HealthConfig,
    HedgeConfig,
)
from repro.hardware.thermal import power_mode_speed_factor
from repro.tiering import TieringConfig
from repro.workloads import PopulationConfig, RegionTier
from repro.workloads.arrivals import diurnal_arrivals

from perfbench.metrics import COUNTERS


def capacity_qps(devices, prompt_tokens: float, output_tokens: float) -> float:
    """Closed-form request rate a fleet sustains.

    Per device, a full batch of B requests turns around in one batched
    decode span plus B serialized prefills: ``B / (span + B * prefill)``.
    """
    total = 0.0
    for device in devices:
        engine = device.engine
        batch = device.spec.max_batch_size
        span = engine.kernels.decode_span_seconds(
            engine.profile, int(prompt_tokens), int(output_tokens),
            batch=float(batch))
        prefill = engine.kernels.prefill(engine.profile,
                                         int(prompt_tokens)).seconds
        total += batch / (span + batch * prefill)
    return total


def lognormal_mean(log_mean: float, log_sigma: float) -> float:
    """Mean of a lognormal draw (before the generator's clipping)."""
    return math.exp(log_mean + 0.5 * log_sigma ** 2)


def mean_prompt_output(config: PopulationConfig) -> tuple[float, float]:
    """Mean prompt (regional prefix + suffix) and output tokens."""
    weights = sum(r.weight for r in config.regions)
    prefix = sum(r.weight * r.prefix_tokens for r in config.regions) / weights
    prompt = prefix + lognormal_mean(config.suffix_log_mean,
                                     config.suffix_log_sigma)
    return prompt, lognormal_mean(config.output_log_mean,
                                  config.output_log_sigma)


def _scaled(count: int, scale: float) -> int:
    return max(int(round(count * scale)), 1)


def _frac(num: float, den: float) -> float:
    """``num / den``, or 0 where the layer saw nothing to divide."""
    return num / den if den else 0.0


# -- checks shared by the workloads --------------------------------------
def conservation_failures(report, expected_offered: int) -> list[str]:
    """``offered == served + shed + failed`` and the offered count."""
    failures = []
    if report.offered != expected_offered:
        failures.append(f"offered {report.offered} != expected "
                        f"{expected_offered}")
    accounted = report.completed + report.shed + report.failed
    if report.offered != accounted:
        failures.append(f"conservation broken: offered {report.offered} != "
                        f"served {report.completed} + shed {report.shed} + "
                        f"failed {report.failed}")
    return failures


def vector_failures(report, gateway) -> list[str]:
    """The vector core served the run and every request was served."""
    failures = []
    if gateway.last_mode != "vector":
        failures.append(f"served by the {gateway.last_mode!r} core, "
                        "expected 'vector'")
    if report.completed != report.offered:
        failures.append(f"served {report.completed} of {report.offered}")
    return failures


def oracle_failures(make_gateway, serve, prefix, size: int) -> list[str]:
    """Serve ``prefix`` on the vector core and on the scalar oracle.

    ``make_gateway(mode)`` builds a fresh gateway and ``serve(gateway,
    prefix)`` runs it; the two canonical reports must be byte-identical.
    """
    vector = make_gateway("auto")
    fast = serve(vector, prefix)
    oracle = serve(make_gateway("scalar"), prefix)
    failures = vector_failures(fast, vector)
    if fast.to_json() != oracle.to_json():
        failures.append("vector report differs from the scalar oracle on "
                        f"the first {size} requests")
    return failures


# -- metrics pooled over FleetReport shards --------------------------------
def fleet_sim_metrics(reports) -> dict[str, float]:
    """Modelled metrics pooled over :class:`~repro.fleet.FleetReport` s.

    Attainment counts on-time served requests over everything offered,
    so shed and failed requests are misses.  Energy per served request
    includes the autoscaler's idle, sleep, wake and DVFS ledger when the
    run was autoscaled.
    """
    served = [r for report in reports for r in report.served]
    latencies = np.array([r.latency_s for r in served])
    offered = sum(report.offered for report in reports)
    energy = 0.0
    for report in reports:
        energy += report.energy_joules
        a = report.autoscale
        if a is not None:
            energy += (a.idle_energy_j + a.sleep_energy_j + a.wake_energy_j
                       + a.dvfs_energy_j)
    return {
        "sim_p50_latency_s": float(np.percentile(latencies, 50)),
        "sim_p99_latency_s": float(np.percentile(latencies, 99)),
        "sim_attainment": sum(1 for r in served if r.met_deadline) / offered,
        "sim_energy_j_per_req": energy / len(served),
        "sim_served_frac": len(served) / offered,
    }


def fleet_counters(reports) -> dict[str, float]:
    """Report-side per-layer counters pooled over FleetReport shards."""
    devices = [d for report in reports for d in report.devices]
    busy = sum(r.finish_s - r.start_s for d in devices for r in d.report.served)
    waits = [r.queue_delay_s for report in reports for r in report.served]
    hits = sum(d.prefix_hits for d in devices)
    misses = sum(d.prefix_misses for d in devices)
    hedged = sum(report.hedged for report in reports)
    autoscale = [report.autoscale for report in reports
                 if report.autoscale is not None]
    tiering = [report.tiering for report in reports
               if report.tiering is not None]
    counters = dict.fromkeys((name for name, _, _ in COUNTERS), 0)
    counters.update({
        "engine.prefix_cache.hit_frac": _frac(hits, hits + misses),
        "engine.mean_batch_occupancy": _frac(
            busy, sum(report.device_seconds for report in reports)),
        "engine.queue_wait_p99_s": float(np.percentile(waits, 99)),
        "fleet.brownout.max_tier": max(report.max_brownout_tier
                                       for report in reports),
        "fleet.autoscale.wakes": sum(a.wakes for a in autoscale),
        "fleet.autoscale.drains": sum(a.drains_completed for a in autoscale),
        "fleet.gateway.rerouted": sum(report.rerouted for report in reports),
        "fleet.gateway.hedged": hedged,
        "fleet.gateway.hedge_win_frac": _frac(
            sum(report.hedge_wins for report in reports), hedged),
        "fleet.gateway.shed": sum(report.shed for report in reports),
        "fleet.gateway.failed": sum(report.failed for report in reports),
        "fleet.health.breaker_opens": sum(report.breaker_opens
                                          for report in reports),
        "faults.crashes_delivered": sum(report.device_crashes
                                        for report in reports),
    })
    if tiering:
        completed = sum(t.jobs_completed for t in tiering)
        counters.update({
            "tiering.children_offered": sum(t.children_offered
                                            for t in tiering),
            "tiering.jobs_shed": sum(t.jobs_shed for t in tiering),
            "tiering.budget_downgrades": sum(t.budget_downgrades
                                             for t in tiering),
            "tiering.load_downgrades": sum(t.load_downgrades
                                           for t in tiering),
            # Voted accuracy over every completed job of every shard.
            "tiering.answer_accuracy": _frac(
                sum(t.answer_accuracy * t.jobs_completed for t in tiering
                    if t.jobs_completed), completed),
        })
    return counters


class Workload:
    """One benchmark workload; subclasses fill in the specifics."""

    name = ""
    shards = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        #: One input stream per shard.
        self.inputs: list = []

    def rng(self, shard: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, shard])

    def build(self) -> None:
        """Generate every shard's inputs (the set-up phase, repeated and
        timed)."""
        self.inputs = [self.build_shard(shard)
                       for shard in range(self.shards)]

    def build_shard(self, shard: int):
        raise NotImplementedError

    def gateway(self, shard: int) -> FleetGateway:
        """A fresh fleet and gateway for one shard of one op."""
        raise NotImplementedError

    def serve(self, gateway: FleetGateway, shard: int):
        """The timed call: serve one shard, return its report."""
        return gateway.run(self.inputs[shard])

    def check(self, report, gateway, shard: int) -> list[str]:
        """Correctness failures of one shard's call (empty: it passed)."""
        raise NotImplementedError

    def check_op(self, reports) -> list[str]:
        """Failures that need every shard of an op, such as mechanisms
        that must fire somewhere in the op."""
        return []

    def oracle_failures(self) -> list[str]:
        """Once per run, untimed: a prefix of shard 0 against the scalar
        oracle (vector workloads only)."""
        return []

    def sim_metrics(self, reports) -> dict[str, float]:
        return fleet_sim_metrics(reports)

    def counters(self, reports, kept) -> dict[str, float]:
        """Report-side per-layer counters; ``kept`` maps a span name to
        the results the tracer kept from this op's calls."""
        return fleet_counters(reports)

    def describe(self) -> str:
        """One line naming the input size."""
        raise NotImplementedError


class PopulationB1(Workload):
    """Session population on 32 batch-1 devices through ``run_trace``."""

    name = "population_b1"
    devices = 32
    requests_full = 40_000
    oracle_requests = 600

    def _gateway(self, mode: str = "auto") -> FleetGateway:
        fleet = repro.fleet.build_fleet(self.devices, mix="balanced",
                                        max_batch_size=1,
                                        prefix_cache_mb=32.0)
        # A long session burst can queue for minutes on one device; the
        # default 30 s breaker spike threshold would read that as device
        # failure and send the run to the scalar oracle.
        return FleetGateway(fleet, policy="prefix-affinity",
                            health=HealthConfig(latency_spike_s=3600.0),
                            mode=mode)

    def build_shard(self, shard: int):
        shape = PopulationConfig(requests=_scaled(self.requests_full,
                                                  self.scale),
                                 mean_turns=10.0, users=50_000,
                                 deadline_s=30.0)
        prompt, output = mean_prompt_output(shape)
        # Requests arrive at 0.05x of closed-form capacity at the daily
        # trough and 1.4x that at the peak.  Heavier load makes the p99 a
        # property of a few queueing episodes, which differ from seed to
        # seed by tens of percent.
        base = (0.05 * capacity_qps(self._gateway().devices, prompt, output)
                / shape.mean_turns)
        config = PopulationConfig(
            requests=shape.requests, mean_turns=shape.mean_turns,
            users=shape.users, base_sessions_per_s=base,
            peak_sessions_per_s=1.4 * base, period_s=3600.0,
            deadline_s=shape.deadline_s)
        return repro.workloads.population_trace(self.rng(shard), config)

    def gateway(self, shard: int) -> FleetGateway:
        return self._gateway()

    def serve(self, gateway: FleetGateway, shard: int):
        return gateway.run_trace(self.inputs[shard])

    def check(self, report, gateway, shard: int) -> list[str]:
        return (conservation_failures(report, self.inputs[shard].n)
                + vector_failures(report, gateway))

    def oracle_failures(self) -> list[str]:
        prefix = [self.inputs[0].chunks(self.oracle_requests)[0]]
        return oracle_failures(self._gateway,
                               lambda gateway, p: gateway.run_trace(p),
                               prefix, self.oracle_requests)

    def sim_metrics(self, reports) -> dict[str, float]:
        # One shard: trace reports carry percentiles, not latencies, so
        # they cannot be pooled.  Every population request carries the
        # deadline, so the hit rate's denominator is the whole offered
        # population.
        (report,) = reports
        return {
            "sim_p50_latency_s": report.p50_latency_s,
            "sim_p99_latency_s": report.p99_latency_s,
            "sim_attainment": report.deadline_hit_rate,
            "sim_energy_j_per_req": report.energy_per_request_j,
            "sim_served_frac": report.completed / report.offered,
        }

    def counters(self, reports, kept) -> dict[str, float]:
        arrays = kept.get("engine.vector_run.execute_arrays", [])
        busy = sum(float(np.sum(a.finish_s - a.start_s)) for a in arrays)
        waits = (np.concatenate([a.start_s - a.arrival_s for a in arrays])
                 if arrays else np.zeros(1))
        devices = [d for report in reports for d in report.devices]
        hits = sum(d.prefix_hits for d in devices)
        misses = sum(d.prefix_misses for d in devices)
        counters = dict.fromkeys((name for name, _, _ in COUNTERS), 0)
        counters.update({
            "engine.prefix_cache.hit_frac": _frac(hits, hits + misses),
            "engine.mean_batch_occupancy": _frac(
                busy, sum(report.device_seconds for report in reports)),
            "engine.queue_wait_p99_s": float(np.percentile(waits, 99)),
            "fleet.gateway.shed": sum(report.shed for report in reports),
            "fleet.gateway.failed": sum(report.failed for report in reports),
        })
        return counters

    def describe(self) -> str:
        trace = self.inputs[0]
        return (f"{trace.n} population requests ({trace.num_sessions} "
                f"sessions) on {self.devices} batch-1 devices")


class PoissonB8(Workload):
    """Poisson request objects on 8 batch-8 devices through ``run``."""

    name = "poisson_b8"
    devices = 8
    requests_full = 20_000
    oracle_requests = 600

    def _gateway(self, mode: str = "auto") -> FleetGateway:
        fleet = repro.fleet.build_fleet(self.devices, mix="balanced",
                                        max_batch_size=8)
        return FleetGateway(fleet, policy="round-robin", mode=mode)

    def build_shard(self, shard: int):
        qps = 0.6 * capacity_qps(self._gateway().devices, 150, 192)
        return repro.fleet.poisson_stream(
            self.rng(shard), qps=qps,
            num_requests=_scaled(self.requests_full, self.scale),
            prompt_tokens=150, output_tokens=192, deadline_s=6.5)

    def gateway(self, shard: int) -> FleetGateway:
        return self._gateway()

    def check(self, report, gateway, shard: int) -> list[str]:
        return (conservation_failures(report, len(self.inputs[shard]))
                + vector_failures(report, gateway))

    def oracle_failures(self) -> list[str]:
        return oracle_failures(self._gateway,
                               lambda gateway, p: gateway.run(p),
                               self.inputs[0][:self.oracle_requests],
                               self.oracle_requests)

    def describe(self) -> str:
        return (f"{len(self.inputs[0])} Poisson requests on {self.devices} "
                "batch-8 devices")


class ControlPlane(Workload):
    """Diurnal plus flash-crowd sessions through the scalar event loop
    with every controller armed, at six independent sites."""

    name = "control_plane"
    shards = 6
    devices = 8
    requests_full = 1000
    models = ("dsr1-qwen-1.5b", "dsr1-qwen-1.5b-awq-w4")
    downgrade = ("dsr1-qwen-1.5b-awq-w4",)
    #: Diurnal days in one site's trace, and the share of its sessions
    #: that arrive in the flash crowds.
    periods = 6
    crowd_share = 0.15

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        #: One explicit fault schedule per shard.
        self.schedules: list[FleetFaultSchedule] = []

    def _fleet(self, faults=None):
        return repro.fleet.build_fleet(
            self.devices, mix="balanced", max_batch_size=4,
            models=self.models, prefix_cache_mb=16.0, faults=faults)

    def build(self) -> None:
        self.schedules = []
        super().build()

    def build_shard(self, shard: int):
        shape = PopulationConfig(
            requests=_scaled(self.requests_full, self.scale), users=2000,
            mean_turns=4.0, think_time_s=20.0,
            output_log_mean=math.log(160.0), deadline_s=20.0,
            regions=(RegionTier("us-edge", 0.6, 256),
                     RegionTier("eu-edge", 0.4, 192)))
        capacity = capacity_qps(self._fleet(), *mean_prompt_output(shape))
        # Diurnal traffic swings between 0.1x and 0.5x of closed-form
        # capacity over ``periods`` days.  A flash crowd lands at every
        # trough after the first, when the autoscaler has put most of the
        # fleet to sleep: its sessions start evenly spaced at 1.5x
        # capacity, so each crowd is the same size on every seed.
        crowd_share, periods = self.crowd_share, self.periods
        period = (shape.requests * (1.0 - crowd_share)
                  / (0.3 * capacity) / periods)
        base = 0.1 * capacity / shape.mean_turns
        peak = 0.5 * capacity / shape.mean_turns
        crowd_qps = 1.5 * capacity / shape.mean_turns

        def starts(rng, sessions):
            crowds = np.array_split(np.arange(int(sessions * crowd_share)),
                                    periods - 1)
            diurnal = sessions - sum(len(c) for c in crowds)
            return np.sort(np.concatenate(
                [diurnal_arrivals(rng, base, peak, period, diurnal)]
                + [(k + 1) * period + np.arange(1, len(c) + 1) / crowd_qps
                   for k, c in enumerate(crowds)]), kind="stable")

        trace = repro.workloads.population_trace(
            self.rng(shard), shape, session_starts=starts)
        names = [f"edge-{i:02d}" for i in range(self.devices)]
        thermal = power_mode_speed_factor("15W")
        # Every fault is an explicit event on the period grid, so each
        # seed delivers the same crashes, flaps and thermal cap: a crash
        # at each day's peak, three flap cycles on the first day, and a
        # thermal cap over one middle day.
        events = [DeviceFault(names[k % len(names)], "crash",
                              (k + 0.5) * period, 20.0)
                  for k in range(periods)]
        events += [DeviceFault(names[2], "flap", 0.2 * period + 6.0 * k, 2.0)
                   for k in range(3)]
        events.append(DeviceFault(names[3], "thermal",
                                  (periods // 2) * period, period,
                                  magnitude=thermal))
        self.schedules.append(FleetFaultSchedule(
            names, FleetFaultConfig(horizon_s=float(trace.arrival_s[-1]),
                                    device_crashes=0),
            seed=self.seed, events=events))
        return trace.materialize()

    def gateway(self, shard: int) -> FleetGateway:
        schedule = self.schedules[shard]
        return FleetGateway(
            self._fleet(schedule), policy="prefix-affinity",
            faults=schedule,
            # The ladder enters tier 1 once a full fleet batch is queued;
            # mild trims keep a seed's tier history from swinging the
            # modelled latency and energy.
            brownout=BrownoutConfig(downgrade_models=self.downgrade,
                                    enter_pressure=(1.0, 3.0, 5.0),
                                    exit_pressure=(0.5, 2.0, 4.0),
                                    trim_fraction=0.8,
                                    deep_trim_fraction=0.6),
            hedge=HedgeConfig(min_age_s=10.0, age_factor=2.0),
            autoscale=AutoscaleConfig(), seed=self.seed)

    def check(self, report, gateway, shard: int) -> list[str]:
        return conservation_failures(report, len(self.inputs[shard]))

    def check_op(self, reports) -> list[str]:
        failures = []
        autoscale = [r.autoscale for r in reports if r.autoscale is not None]
        if sum(r.device_crashes for r in reports) < 1:
            failures.append("no crash was delivered")
        if max(r.max_brownout_tier for r in reports) < 1:
            failures.append("the brownout ladder never left tier 0")
        if sum(r.hedged for r in reports) < 1:
            failures.append("no hedge was issued")
        if sum(a.drains_completed for a in autoscale) < 1:
            failures.append("the autoscaler completed no drain")
        if sum(a.wakes for a in autoscale) < 1:
            failures.append("the autoscaler woke no device")
        return failures

    def describe(self) -> str:
        return (f"{self.shards} sites x {len(self.inputs[0])} session "
                f"requests on {self.devices} batch-4 devices, "
                f"{len(self.schedules[0].downs())} scheduled outages each")


class TieredDag(Workload):
    """Agentic DAG jobs through ``run(jobs, tiering=...)`` at three
    independent sites."""

    name = "tiered_dag"
    shards = 5
    devices = 12
    jobs_full = 200

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.config = TieringConfig(session_token_budget=6000, seed=seed)

    def build_shard(self, shard: int):
        jobs = _scaled(self.jobs_full, self.scale)
        return repro.workloads.agentic_suite(
            self.rng(shard), qps=1.0, jobs=jobs,
            sessions=max(jobs // 6, 1), deadline_s=60.0)

    def gateway(self, shard: int) -> FleetGateway:
        c = self.config
        models = tuple(dict.fromkeys(c.fast_models + c.deep_models
                                     + c.verify_models))
        # One power mode: with MAXN and 30W boxes mixed, the p99 sits on
        # the boundary between the two speeds of deep-tier device and
        # swings by a tenth from seed to seed.
        fleet = repro.fleet.build_fleet(self.devices, mix="maxn",
                                        models=models)
        return FleetGateway(fleet, policy="least-outstanding",
                            seed=self.seed)

    def serve(self, gateway: FleetGateway, shard: int):
        return gateway.run(self.inputs[shard], tiering=self.config)

    def check(self, report, gateway, shard: int) -> list[str]:
        tiering = report.tiering
        if tiering is None:
            return ["the report has no tiering section"]
        failures = conservation_failures(report, tiering.children_offered)
        if tiering.jobs != len(self.inputs[shard]):
            failures.append(f"tiering saw {tiering.jobs} jobs of "
                            f"{len(self.inputs[shard])}")
        return failures

    def check_op(self, reports) -> list[str]:
        if all(r.tiering is None or (r.tiering.max_ladder_level < 1
                                     and r.tiering.budget_downgrades < 1)
               for r in reports):
            return ["neither the tier ladder nor the budget manager "
                    "engaged"]
        return []

    def describe(self) -> str:
        return (f"{self.shards} sites x {len(self.inputs[0])} DAG jobs on "
                f"{self.devices} devices (req_per_s counts DAG children)")


WORKLOADS = {w.name: w for w in (PopulationB1, PoissonB8, ControlPlane,
                                 TieredDag)}
