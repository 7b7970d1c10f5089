"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; the benchmark's tests keep the
two in step.
"""

from __future__ import annotations

#: End-to-end metrics (untraced run): (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("req_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
    ("sim_p50_latency_s", "s", "lower"),
    ("sim_p99_latency_s", "s", "lower"),
    ("sim_attainment", "frac", "higher"),
    ("sim_energy_j_per_req", "J", "lower"),
    ("sim_served_frac", "frac", "higher"),
)

#: Generator time in the traced set-up repeats: (name, span).
SETUP_SPANS = (
    ("workloads.population_trace.s", "workloads.population_trace"),
    ("workloads.poisson_stream.s", "workloads.poisson_stream"),
    ("workloads.agentic_suite.s", "workloads.agentic_suite"),
)

#: Per-op span totals: (name, span, field).  ``calls`` counts calls,
#: ``s`` is inclusive time, ``self_s`` excludes wrapped children, and
#: ``us_per_req`` is inclusive time per request the calls served.
OP_SPANS = (
    ("fleet.gateway.run_trace.self_s", "fleet.gateway.run_trace", "self_s"),
    ("fleet.gateway.run.self_s", "fleet.gateway.run", "self_s"),
    ("fleet.device.init.calls", "fleet.device.init", "calls"),
    ("fleet.device.init.s", "fleet.device.init", "s"),
    ("engine.vector_run.execute_arrays.calls",
     "engine.vector_run.execute_arrays", "calls"),
    ("engine.vector_run.execute_arrays.s",
     "engine.vector_run.execute_arrays", "s"),
    ("engine.vector_run.execute_arrays.us_per_req",
     "engine.vector_run.execute_arrays", "us_per_req"),
    ("engine.vector_run.execute.calls", "engine.vector_run.execute",
     "calls"),
    ("engine.vector_run.execute.s", "engine.vector_run.execute", "s"),
    ("engine.vector_run.execute.us_per_req", "engine.vector_run.execute",
     "us_per_req"),
    ("fleet.trace.assemble_trace_report.s",
     "fleet.trace.assemble_trace_report", "s"),
    ("fleet.device.advance_to.calls", "fleet.device.advance_to", "calls"),
    ("fleet.device.advance_to.s", "fleet.device.advance_to", "s"),
    ("fleet.device.inject.calls", "fleet.device.inject", "calls"),
    ("fleet.device.inject.s", "fleet.device.inject", "s"),
    ("fleet.device.cancel.calls", "fleet.device.cancel", "calls"),
    ("fleet.device.crash.calls", "fleet.device.crash", "calls"),
    ("fleet.health.calls", "fleet.health", "calls"),
    ("fleet.health.s", "fleet.health", "s"),
    ("fleet.brownout.calls", "fleet.brownout", "calls"),
    ("fleet.brownout.s", "fleet.brownout", "s"),
    ("fleet.autoscale.tick.calls", "fleet.autoscale.tick", "calls"),
    ("fleet.autoscale.tick.s", "fleet.autoscale.tick", "s"),
    ("tiering.dag.admit.calls", "tiering.dag.admit", "calls"),
    ("tiering.dag.admit.s", "tiering.dag.admit", "s"),
    ("tiering.dag.ready_children.calls", "tiering.dag.ready_children",
     "calls"),
    ("tiering.dag.ready_children.s", "tiering.dag.ready_children", "s"),
    ("tiering.dag.aggregate.calls", "tiering.dag.aggregate", "calls"),
    ("tiering.dag.aggregate.s", "tiering.dag.aggregate", "s"),
    ("tiering.policy.assign.calls", "tiering.policy.assign", "calls"),
    ("tiering.policy.assign.s", "tiering.policy.assign", "s"),
    ("tiering.policy.fit.calls", "tiering.policy.fit", "calls"),
    ("tiering.policy.fit.s", "tiering.policy.fit", "s"),
)

#: Counters read from the op's report (and, on ``population_b1``, from
#: the arrays ``execute_arrays`` returned): (name, unit, better).
COUNTERS = (
    ("engine.prefix_cache.hit_frac", "frac", "higher"),
    ("engine.mean_batch_occupancy", "seqs", "higher"),
    ("engine.queue_wait_p99_s", "s", "lower"),
    ("fleet.brownout.max_tier", "level", "lower"),
    ("fleet.autoscale.wakes", "count", "lower"),
    ("fleet.autoscale.drains", "count", "lower"),
    ("fleet.gateway.rerouted", "count", "lower"),
    ("fleet.gateway.hedged", "count", "lower"),
    ("fleet.gateway.hedge_win_frac", "frac", "higher"),
    ("fleet.gateway.shed", "count", "lower"),
    ("fleet.gateway.failed", "count", "lower"),
    ("fleet.health.breaker_opens", "count", "lower"),
    ("faults.crashes_delivered", "count", "higher"),
    ("tiering.children_offered", "count", "lower"),
    ("tiering.jobs_shed", "count", "lower"),
    ("tiering.budget_downgrades", "count", "lower"),
    ("tiering.load_downgrades", "count", "lower"),
    ("tiering.answer_accuracy", "frac", "higher"),
)

#: Host rate of the untraced and traced ops of one traced run, and the
#: share of the untraced rate that tracing costs.
TRACE_OVERHEAD = (
    ("trace.untraced_req_per_s", "1/s", "higher"),
    ("trace.traced_req_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _span_unit(field: str) -> tuple[str, str]:
    return {"calls": ("count", "lower"), "s": ("s", "lower"),
            "self_s": ("s", "lower"), "us_per_req": ("us", "lower")}[field]


def per_layer() -> tuple[tuple[str, str, str], ...]:
    """Every per-layer metric: (name, unit, better), in print order."""
    return (tuple((name, "s", "lower") for name, _ in SETUP_SPANS)
            + tuple((name, *_span_unit(field)) for name, _, field in OP_SPANS)
            + COUNTERS + TRACE_OVERHEAD)
