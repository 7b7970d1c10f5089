"""In-memory span tracer that wraps public repro calls from outside.

The traced run installs one wrapper per (owner, attribute) pair listed
in :func:`layer_targets`.  Each call records a span: its name, start and
end (``time.perf_counter``), the span that was open when it began, and
the op it belongs to.  Spans stay in parallel Python lists while the run
is measured and are written out once, at the end, by :meth:`Tracer.save`.

Self time is a span's duration minus the durations of its direct
children.  Tracing is single-threaded (every workload runs with
``jobs=1``), so children never overlap and that difference is exactly
the time no child covers.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np


def layer_targets():
    """(owner, attribute, span name, units) for every wrapped call.

    ``units`` maps a call's result to the number of requests it served
    (for the per-request cost metrics), or is None.  Module-level
    functions are wrapped where callers look them up: the benchmark
    calls the generators through their package, and the gateway looks
    up ``assemble_trace_report`` in its own module namespace.
    """
    import repro.fleet
    import repro.fleet.gateway
    import repro.fleet.trace
    import repro.workloads
    from repro.engine.vector_run import VectorServingRun
    from repro.fleet import (
        AutoscaleController,
        BrownoutController,
        CircuitBreaker,
        DeviceHealth,
        FleetDevice,
        FleetGateway,
    )
    from repro.tiering import BudgetManager, DagRun, TierPolicy

    return (
        (repro.workloads, "population_trace", "workloads.population_trace",
         None),
        (repro.fleet, "poisson_stream", "workloads.poisson_stream", None),
        (repro.workloads, "agentic_suite", "workloads.agentic_suite", None),
        (FleetGateway, "run_trace", "fleet.gateway.run_trace", None),
        (FleetGateway, "run", "fleet.gateway.run", None),
        (FleetDevice, "__init__", "fleet.device.init", None),
        (FleetDevice, "advance_to", "fleet.device.advance_to", None),
        (FleetDevice, "inject", "fleet.device.inject", None),
        (FleetDevice, "cancel", "fleet.device.cancel", None),
        (FleetDevice, "crash", "fleet.device.crash", None),
        (VectorServingRun, "execute_arrays",
         "engine.vector_run.execute_arrays", lambda arrays: arrays.n),
        (VectorServingRun, "execute", "engine.vector_run.execute",
         lambda report: report.offered),
        (repro.fleet.gateway, "assemble_trace_report",
         "fleet.trace.assemble_trace_report", None),
        (repro.fleet.trace, "assemble_trace_report",
         "fleet.trace.assemble_trace_report", None),
        (CircuitBreaker, "admits", "fleet.health", None),
        (CircuitBreaker, "allow", "fleet.health", None),
        (DeviceHealth, "routable", "fleet.health", None),
        (DeviceHealth, "observe_completion", "fleet.health", None),
        (BrownoutController, "observe", "fleet.brownout", None),
        (BrownoutController, "admit", "fleet.brownout", None),
        (AutoscaleController, "tick", "fleet.autoscale.tick", None),
        (DagRun, "admit", "tiering.dag.admit", None),
        (DagRun, "ready_children", "tiering.dag.ready_children", None),
        (DagRun, "aggregate", "tiering.dag.aggregate", None),
        (TierPolicy, "assign", "tiering.policy.assign", None),
        (BudgetManager, "fit", "tiering.policy.fit", None),
    )


class Tracer:
    """Records nested spans around wrapped calls."""

    def __init__(self, targets, keep: tuple[str, ...] = ()):
        self._targets = tuple(targets)
        self._keep = frozenset(keep)
        #: Results of calls to the ``keep`` span names, by (op, name).
        self.kept: dict[tuple[int, str], list] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # One entry per span, in start order.
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        #: Requests served by the call (0 where the target has no units).
        self.units = []
        #: Whether a span of the same name was already open (its time is
        #: inside that outer span's, so bucket totals skip it).
        self.nested = []
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self._op = -1

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.units.append(0)
        depth = self._open.get(nid, 0)
        self.nested.append(depth > 0)
        self._open[nid] = depth + 1
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._open[self.name[index]] -= 1

    # -- wrapping ---------------------------------------------------------
    def install(self) -> None:
        """Replace every target with a span-recording wrapper."""
        for owner, attr, name, units in self._targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, units))

    def uninstall(self) -> None:
        """Restore the original functions (reverse install order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, name: str, units):
        nid = self._intern(name)
        enter, exit_ = self._enter, self._exit
        unit_col = self.units
        keep = name in self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(index)
            if units is not None:
                unit_col[index] = units(result)
            if keep:
                self.kept.setdefault((self._op, name), []).append(result)
            return result

        return traced

    # -- roots ------------------------------------------------------------
    def root(self, name: str, op: int) -> "_Root":
        """A context manager opening the root span of op ``op``.

        Setup phases use negative op numbers, timed ops count from 0.
        """
        return _Root(self, self._intern(name), op)

    # -- analysis ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The span table as numpy columns, plus self time."""
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent],
                                 weights=duration[has_parent],
                                 minlength=start.shape[0])
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.asarray(self.op, dtype=np.int64),
            "units": np.asarray(self.units, dtype=np.int64),
            "nested": np.asarray(self.nested, dtype=bool),
            "duration": duration,
            "self": duration - child_time,
        }

    def save(self, path: Path) -> None:
        """Write the span table (``.npz``) once the run is over."""
        path.parent.mkdir(parents=True, exist_ok=True)
        table = self.arrays()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **table)


class _Root:
    def __init__(self, tracer: Tracer, nid: int, op: int):
        self._tracer = tracer
        self._nid = nid
        self._op = op
        self.index = -1

    def __enter__(self) -> "_Root":
        self._tracer._op = self._op
        self.index = self._tracer._enter(self._nid)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._exit(self.index)
        self._tracer._op = -1


def op_integrity_failures(table: dict[str, np.ndarray], op: int) -> list[str]:
    """Checks that op ``op``'s spans nest and their self times add up.

    Every child must lie inside its parent's interval, and the self times
    of all the op's spans must sum to the total duration of its root
    spans (one per shard call).
    """
    in_op = np.flatnonzero(table["op"] == op)
    roots = in_op[table["parent"][in_op] < 0]
    if roots.shape[0] == 0:
        return [f"op {op} has no root span"]
    failures = []
    children = in_op[table["parent"][in_op] >= 0]
    parents = table["parent"][children]
    if np.any(table["start"][children] < table["start"][parents]) or np.any(
            table["end"][children] > table["end"][parents]):
        failures.append(f"op {op} has a span outside its parent")
    root_s = float(table["duration"][roots].sum())
    self_sum = float(table["self"][in_op].sum())
    if abs(self_sum - root_s) > 1e-9 * max(in_op.shape[0], 1) + 1e-12:
        failures.append(f"op {op} self times sum to {self_sum!r} s, "
                        f"its roots last {root_s!r} s")
    return failures


def layer_totals(table: dict[str, np.ndarray], names: list[str],
                 op: int) -> dict[str, dict[str, float]]:
    """Per span name within op ``op``: calls, inclusive s, self s, units.

    Inclusive seconds count only spans with no open ancestor of the same
    name, so a bucket whose calls nest (a breaker check inside a health
    check) is not counted twice.
    """
    in_op = table["op"] == op
    out: dict[str, dict[str, float]] = {}
    for nid, name in enumerate(names):
        mask = in_op & (table["name"] == nid)
        outer = mask & ~table["nested"]
        out[name] = {
            "calls": int(np.count_nonzero(mask)),
            "s": float(table["duration"][outer].sum()),
            "self_s": float(table["self"][mask].sum()),
            "units": int(table["units"][mask].sum()),
        }
    return out
