"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload population_b1 --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics instead, and
writes the span table to ``.bench_out/``.  The last line of standard
output is the result object; the line before it names the input size.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One thread for every numeric library, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up repeats per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Fewest timed ops per run (per kind, in a traced run).
MIN_OPS = 3
MIN_TRACED_OPS = 2
#: Seconds the reference kernel takes on an uncontended 2.1 GHz Xeon
#: core; ``req_per_s`` is scaled to a machine that runs it this fast.
REFERENCE_S = 0.2


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    init = SRC / "repro" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} is missing; run the benchmark "
                         "from a full checkout of the repository")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"expected {init}")


@dataclass
class Op:
    """One timed pass over every shard, and its verdict."""

    index: int
    traced: bool
    #: Host seconds and offered requests of each shard's serving call;
    #: empty when a call raised.
    shard_seconds: list = field(default_factory=list)
    shard_requests: list = field(default_factory=list)
    #: Host seconds of the reference kernel, run before each shard call.
    reference_seconds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    #: Report-side per-layer counters (traced ops only).
    counters: dict | None = None


@contextlib.contextmanager
def recording(tracer, root: str, op: int):
    """Record spans under one root span; without a tracer, do nothing."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.root(root, op):
            yield
    finally:
        tracer.uninstall()


def set_up(workload, tracer) -> list[float]:
    """Generate inputs and build the gateways ``SETUP_REPEATS`` times."""
    times = []
    for k in range(SETUP_REPEATS):
        gc.collect()
        with recording(tracer, "setup", -2 - k):
            start = time.perf_counter()
            workload.build()
            for shard in range(workload.shards):
                workload.gateway(shard)
            times.append(time.perf_counter() - start)
    return times


def reference_kernel() -> float:
    """Host seconds of a fixed interpreter and numpy loop.

    The loop uses nothing from ``repro``, so a change to the repository
    cannot move it; only the machine can.  Other tenants of a shared
    machine slow it and the serving calls alike, for minutes at a time.
    """
    import numpy as np

    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(900_000):
        key = i & 4095
        table[key] = table.get(key, 0.0) + i * 0.5
    column = np.arange(20_000, dtype=np.float64)
    for _ in range(1500):
        column = np.sqrt(column * 1.0001 + 1.0)
    seconds = time.perf_counter() - start
    gc.collect()
    return seconds


def serve_once(workload, op: Op, tracer):
    """Serve every shard on a fresh gateway, timing each serving call.

    Returns the shards' reports, or None when a call raised.
    """
    gateways = [workload.gateway(shard) for shard in range(workload.shards)]
    reports = []
    for shard, gateway in enumerate(gateways):
        op.reference_seconds.append(reference_kernel())
        try:
            with recording(tracer if op.traced else None, "op", op.index):
                start = time.perf_counter()
                report = workload.serve(gateway, shard)
                seconds = time.perf_counter() - start
        except Exception as exc:  # one op failing must not end the run
            traceback.print_exc(file=sys.stderr)
            op.failures.append(f"shard {shard} raised "
                               f"{type(exc).__name__}: {exc}")
            op.shard_seconds, op.shard_requests = [], []
            return None
        op.shard_seconds.append(seconds)
        op.shard_requests.append(report.offered)
        op.failures.extend(f"shard {shard}: {failure}" for failure
                           in workload.check(report, gateway, shard))
        reports.append(report)
    op.failures.extend(workload.check_op(reports))
    if op.traced:
        kept = {name: tracer.kept.pop((index, name))
                for index, name in list(tracer.kept) if index == op.index}
        op.counters = workload.counters(reports, kept)
    return reports


def run_ops(workload, seconds: float, tracer, shared_failures):
    """Serve until ``seconds`` have passed and enough ops ran.

    A traced run alternates untraced and traced ops.  Every shard must
    render a canonical report byte-identical to its first op's.  Returns
    the ops and the first op's reports; later reports are dropped as soon
    as they are checked, so memory does not grow with the op count.
    """
    ops: list[Op] = []
    first_reports = first_digests = None
    start = time.perf_counter()
    while True:
        traced = [op for op in ops if op.traced]
        enough = (len(traced) >= MIN_TRACED_OPS
                  and len(ops) - len(traced) >= MIN_TRACED_OPS
                  if tracer is not None else len(ops) >= MIN_OPS)
        if enough and time.perf_counter() - start >= seconds:
            return ops, first_reports
        op = Op(len(ops), traced=tracer is not None and len(ops) % 2 == 1)
        ops.append(op)
        reports = serve_once(workload, op, tracer)
        op.failures.extend(shared_failures)
        if reports is None:
            continue
        digests = [hashlib.sha256(r.to_json().encode()).hexdigest()
                   for r in reports]
        if first_digests is None:
            first_reports, first_digests = reports, digests
        else:
            op.failures.extend(
                f"shard {shard}: canonical report differs from the first "
                "op's" for shard, (digest, first) in
                enumerate(zip(digests, first_digests)) if digest != first)


def rate(ops: list[Op]) -> float:
    """Requests per calibrated host second, from each shard's fastest call.

    Every op serves the same inputs, so a shard's calls differ only by how
    much other tenants of the machine slowed them down; that slowdown only
    ever adds time, so the fastest call measures the code.  A slow spell
    can outlast a whole run, so the fastest calls are scaled by how much
    slower than ``REFERENCE_S`` the run's fastest reference kernel was.
    """
    served = [op for op in ops if op.shard_seconds]
    best = [min(times) for times in zip(*(op.shard_seconds
                                          for op in served))]
    slowdown = min(min(op.reference_seconds) for op in served) / REFERENCE_S
    return sum(served[0].shard_requests) * slowdown / sum(best)


def end_to_end(workload, ops: list[Op], reports,
               setup_s: float) -> dict[str, float]:
    values = {
        "setup_s": setup_s,
        "req_per_s": rate(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": sum(not op.failures for op in ops) / len(ops),
    }
    values.update(workload.sim_metrics(reports))
    return values


def per_layer(workload, ops: list[Op], tracer) -> dict[str, float]:
    from perfbench import spans
    from perfbench.metrics import OP_SPANS, SETUP_SPANS

    table = tracer.arrays()
    setup_ops = range(-2, -2 - SETUP_REPEATS, -1)
    setup_totals = [spans.layer_totals(table, tracer.names, k)
                    for k in setup_ops]
    values = {name: statistics.median(t.get(span, {"s": 0.0})["s"]
                                      for t in setup_totals)
              for name, span in SETUP_SPANS}
    samples: dict[str, list[float]] = {}
    traced = [op for op in ops if op.traced and op.shard_seconds]
    for op in traced:
        op.failures.extend(spans.op_integrity_failures(table, op.index))
        totals = spans.layer_totals(table, tracer.names, op.index)
        for name, span, kind in OP_SPANS:
            entry = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "units": 0})
            if kind == "us_per_req":
                value = (entry["s"] / entry["units"] * 1e6
                         if entry["units"] else 0.0)
            else:
                value = entry[kind]
            samples.setdefault(name, []).append(value)
        for name, value in op.counters.items():
            samples.setdefault(name, []).append(value)
    values.update({name: statistics.median(v) for name, v in samples.items()})
    values["trace.untraced_req_per_s"] = rate([op for op in ops
                                               if not op.traced])
    values["trace.traced_req_per_s"] = rate(traced)
    values["trace.overhead_frac"] = (1.0 - values["trace.traced_req_per_s"]
                                     / values["trace.untraced_req_per_s"])
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    from perfbench import spans, suite
    from perfbench.metrics import END_TO_END, per_layer as layer_metrics

    import_s = time.perf_counter() - _START
    if args.workload not in suite.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(suite.WORKLOADS)}")
    workload = suite.WORKLOADS[args.workload](args.seed)
    tracer = (spans.Tracer(spans.layer_targets(),
                           keep=("engine.vector_run.execute_arrays",))
              if args.trace else None)
    setup_s = import_s + statistics.median(set_up(workload, tracer))
    oracle = workload.oracle_failures()
    ops, reports = run_ops(workload, args.seconds, tracer, oracle)
    if reports is None:
        raise SystemExit("perfbench: no op produced a report")

    if tracer is None:
        values = end_to_end(workload, ops, reports, setup_s)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        values = per_layer(workload, ops, tracer)
        units = {name: unit for name, unit, _ in layer_metrics()}
        tracer.save(ROOT / ".bench_out"
                    / f"spans-{workload.name}-seed{args.seed}.npz")
    failed = sum(bool(op.failures) for op in ops)
    for op in ops:
        for failure in op.failures:
            print(f"perfbench: op {op.index}: {failure}", file=sys.stderr)
    times = sorted(sum(op.shard_seconds) for op in ops if op.shard_seconds)
    print(f"{workload.name} seed {args.seed}: {workload.describe()}; "
          f"{len(ops)} ops of {times[0]:.3f}-{times[-1]:.3f} s, median "
          f"{statistics.median(times):.3f} s; "
          f"{sum(r.completed for r in reports)} served latency samples")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
