"""Benchmark of the explor package: fit, screen and OOD-protocol workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the run times set-up three times and then repeats the
workload's operation for S seconds, and prints every end-to-end metric that
``BENCHMARK.json`` lists. With ``--trace 1`` it sets up once with spans on,
then alternates untraced and traced operations for S seconds, and prints
every per-layer metric, including the tracing overhead; the spans are
written to ``.perfbench_work/spans/<workload>.json``. Either way every output is checked
(see ``workloads.py``), a line with the machine and library facts comes
first, and the last line of standard output is the JSON result. A failed
check prints the result with ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# These two layers run only while a workload sets up, so they are reported
# per set-up; every other layer is reported per timed operation.
SETUP_LAYERS = ("model.save_bundle", "data.save_csv")
FIELDS = {"calls": "calls", "rows": "count", "self_s": "self_s", "gflop": "flop"}


def run_record():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "src_lines": src_lines,
    }


def peak_rss_mb(wl):
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def setup_runs(wl, work, seed, repeats):
    """Set up ``repeats`` times; the files each writes must repeat byte for byte."""
    from workloads import sha256
    from oracles import require

    times, digests, state = [], [], None
    for _ in range(repeats):
        state, dt = timed(wl.setup, work / "setup", seed)
        times.append(dt)
        digests.append([sha256(f) for f in state["files"]])
    require(all(d == digests[0] for d in digests), f"{wl.name}: set-up is not deterministic")
    return state, times


class Outputs:
    """Keeps the last operation's output and a digest of every one, so that
    memory does not grow with the number of operations."""

    def __init__(self, wl):
        self.wl, self.last, self.digests = wl, None, set()

    def add(self, result):
        self.last = result
        self.digests.add(self.wl.digest(result))

    def check(self, state, work):
        from oracles import require

        require(len(self.digests) == 1, f"{self.wl.name}: repeated operations gave different outputs")
        return self.wl.check(state, self.last, work)


def run_op(wl, state, out, tally, spans_dir=None):
    """One timed operation, counted in ``tally``; (None, None) if it failed."""
    from workloads import OpFailed

    out.mkdir(parents=True)
    tally["attempted"] += 1
    try:
        return timed(wl.op, state, out, spans_dir)
    except (OpFailed, ArithmeticError, ValueError, RuntimeError) as exc:
        tally["failed"] += 1
        print(f"{wl.name}: operation failed: {exc}", file=sys.stderr)
        return None, None


def measure(wl, work, seed, seconds, tally):
    """Set-ups, then operations for ``seconds``; returns the end-to-end values."""
    state, setup_times = setup_runs(wl, work, seed, SETUP_REPEATS)
    times, outputs = [], Outputs(wl)
    deadline = time.perf_counter() + seconds
    while tally["attempted"] == 0 or time.perf_counter() < deadline:
        res, dt = run_op(wl, state, work / f"op{tally['attempted']}", tally)
        if dt is not None:
            times.append(dt)
            outputs.add(res)
    rss = peak_rss_mb(wl)
    if not times:
        return {}
    metrics = {"setup_s": statistics.median(setup_times), "op_s": statistics.median(times), "peak_rss_mb": rss}
    metrics.update(outputs.check(state, work))
    return metrics


def traced(wl, work, seed, seconds, tally, names):
    """Untraced and traced operations in turn; returns the per-layer values."""
    import tracing
    from oracles import require

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        state, _ = setup_runs(wl, work, seed, 1)
    finally:
        restore()
    setup_spans = tracer.spans
    plain, traced_ops, outputs = [], [], Outputs(wl)
    deadline = time.perf_counter() + seconds
    while tally["attempted"] < 2 or time.perf_counter() < deadline:
        i = tally["attempted"]
        out = work / f"op{i}"
        if i % 2 == 0:
            res, dt = run_op(wl, state, out, tally)
            if dt is not None:
                plain.append(dt)
                outputs.add(res)
            continue
        if wl.in_process:
            tracer.reset()
            restore = tracing.install(tracer)
            try:
                res, dt = run_op(wl, state, out, tally)
            finally:
                restore()
            spans = tracer.spans
        else:
            spans_dir = work / f"spans{i}"
            spans_dir.mkdir()
            res, dt = run_op(wl, state, out, tally, spans_dir)
            files = sorted(spans_dir.glob("*.json")) if dt is not None else []
            spans = tracing.join(json.loads(f.read_text()) for f in files)
        if dt is not None:
            self_total = sum(tracing.self_times(spans))
            require(self_total <= dt, f"{wl.name}: span self times {self_total} exceed the operation's {dt}")
            traced_ops.append({"op_s": dt, "self_total_s": self_total, "spans": spans})
            outputs.add(res)
    if not plain or not traced_ops:
        return {}
    outputs.check(state, work)

    n = len(traced_ops)
    per_op = tracing.aggregate([s for op in traced_ops for s in op["spans"]])
    per_setup = tracing.aggregate(setup_spans)
    # Means, like every per-layer figure, so that the self times add up.
    traced_s = sum(op["op_s"] for op in traced_ops) / n
    values = {
        "trace.op_s": traced_s,
        "trace.overhead_s": traced_s - sum(plain) / len(plain),
        "trace.self_total_s": sum(op["self_total_s"] for op in traced_ops) / n,
        "trace.spans": sum(len(op["spans"]) for op in traced_ops) / n,
        "model.bundle.bytes": per_op.get("model.load_bundle", {}).get("count", 0) / n,
    }
    for name in names:
        if name in values:
            continue
        layer, field = name.rsplit(".", 1)
        if layer in SETUP_LAYERS:
            values[name] = per_setup.get(layer, {}).get(FIELDS[field], 0)
        else:
            value = per_op.get(layer, {}).get(FIELDS[field], 0) / n
            values[name] = value / 1e9 if field == "gflop" else value
    write_spans(wl.name, seed, setup_spans, traced_ops)
    return values


def write_spans(name, seed, setup_spans, traced_ops):
    out = WORK / "spans"
    out.mkdir(parents=True, exist_ok=True)
    doc = {"workload": name, "seed": seed, "setup": setup_spans, "ops": traced_ops}
    (out / f"{name}.json").write_text(json.dumps(doc))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "explor" / "__init__.py").is_file():
        print(f"error: no explor package under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import workloads
    from oracles import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print(json.dumps({"record": run_record()}), flush=True)

    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = {"attempted": 0, "failed": 0}
    values = {}
    try:
        if args.trace:
            wanted = spec["per_layer"]
            values = traced(wl, work, args.seed, args.seconds, tally, [m["name"] for m in wanted])
        else:
            wanted = spec["end_to_end"]
            values = measure(wl, work, args.seed, args.seconds, tally)
        correct = len(values) == len(wanted)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    result = {"correct": correct, "attempted": tally["attempted"], "failed": tally["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
