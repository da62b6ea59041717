"""Measurement process for one workload; started by run.py.

Closed loop with one client: the next operation starts only after the
previous one has finished and been checked. Operations run until their
summed duration reaches ``--seconds``; the output checks and all
bookkeeping sit outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1``
every input runs twice, untraced and then traced, and the per-layer
metrics come from the traced half; the difference between the halves is
the tracing overhead.

The last line of standard output is the JSON result. A record of the
environment, the seed, every generated input and its outcome is written
to ``.perfbench_out/`` in the checkout, with the spans of a traced run.
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
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import sqbath  # noqa: E402
from sqbath import cli  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, dwell_warnings, seeded_rng  # noqa: E402


def warm_up(workdir: Path) -> None:
    """Finish lazy set-up (imports, first LAPACK calls, file I/O paths)."""
    path = workdir / "warmup.csv"
    cli.main(["evolve", "--initial", "psi1", "--eps", "0.3", "--N", "0.1",
              "--tmax", "0.1", "--samples", "3", "--out", str(path)])
    path.unlink()


@dataclass
class Op:
    """One timed operation and what the report needs from it."""

    inp: dict
    traced: bool
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    dwell_warnings: int = 0
    floor_rows: int = 0


def timed_op(workload, inp: dict, workdir: Path, tracer=None) -> Op:
    op = Op(inp, tracer is not None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            out = workload.run(inp, workdir)
        except Exception as exc:  # an operation that raises counts as failed
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            op.seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    op.dwell_warnings = dwell_warnings(caught)
    if op.problems:
        return op
    op.bytes_written = workload.output_bytes(out)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        try:
            op.problems += workload.check(inp, out)
        except Exception as exc:  # a check that cannot run counts as failed
            op.problems.append(f"check raised {type(exc).__name__}: {exc}")
    op.floor_rows = getattr(workload, "floor_rows", 0)
    return op


def p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(ops: list[Op]) -> tuple[dict, list[str]]:
    times = [op.seconds for op in ops]
    failed = sum(1 for op in ops if op.problems)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(times)
    above = sum(1 for t in times if t > p75(times))
    metrics = {
        "ops_per_s": (n / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p75": (p75(times), "s"),
        "ops_ok_ratio": (1.0 - failed / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [f"op_s_p50 and op_s_p75 over n={n} operations, {above} above p75",
             floor_note(ops)]
    return metrics, notes


def floor_note(ops: list[Op]) -> str:
    rows = sum(op.floor_rows for op in ops)
    hit = sum(1 for op in ops if op.floor_rows)
    return (f"{rows} concurrence rows in {hit} of {len(ops)} operations passed only "
            "through the rank-floor allowance (ROADMAP item 1)")


def per_layer(ops: list[Op], tracer: tracing.Tracer) -> tuple[dict, list[str]]:
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = len(traced)
    totals = tracer.layer_totals()
    metrics = {}
    for name in tracing.NAMES:
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = (calls / n, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / n, "s/op")
    scans, grid, refine = tracer.scan_evaluations()
    metrics["events.grid_evals_per_scan"] = (grid / scans if scans else 0.0, "evals/scan")
    metrics["events.refine_evals_per_scan"] = (refine / scans if scans else 0.0, "evals/scan")
    metrics["events.dwell_warnings"] = (sum(op.dwell_warnings for op in traced) / n, "count/op")
    metrics["cli.bytes_written"] = (sum(op.bytes_written for op in traced) / n, "B/op")
    metrics["entanglement.rank_floor_rows"] = (sum(op.floor_rows for op in traced) / n, "rows/op")
    traced_s = sum(op.seconds for op in traced) / n
    plain_s = sum(op.seconds for op in plain) / len(plain)
    metrics["tracing.overhead_s"] = (traced_s - plain_s, "s/op")
    self_sum = sum(self_s for _, self_s in totals.values()) / n
    notes = [f"per-layer values are means over n={n} traced operations",
             f"traced op {traced_s:.6f} s, untraced op {plain_s:.6f} s, "
             f"sum of self times {self_sum:.6f} s, "
             f"untraced minus self-time sum {plain_s - self_sum:+.6f} s",
             floor_note(ops)]
    return metrics, notes


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "sqbath": sqbath.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "sqbath_threads_env": os.environ.get("SQBATH_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(sqbath.__file__).resolve().parent != SRC / "sqbath":
        print(f"error: imported sqbath from {sqbath.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{stem}-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    ops: list[Op] = []
    try:
        warm_up(workdir)
        inputs = workload.inputs(seeded_rng(args.seed))
        spent = 0.0
        while spent < args.seconds:
            inp = next(inputs)
            ops.append(timed_op(workload, inp, workdir))
            spent += ops[-1].seconds
            if tracer is not None:
                tracer.op = len(ops)
                ops.append(timed_op(workload, inp, workdir, tracer))
                spent += ops[-1].seconds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics, notes = end_to_end(ops)
    else:
        metrics, notes = per_layer(ops, tracer)
        tracer.write(OUT_DIR / f"spans-{stem}.csv")
    failed = sum(1 for op in ops if op.problems)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "operations": [{"input": op.inp, "traced": op.traced, "seconds": op.seconds,
                        "problems": op.problems, "dwell_warnings": op.dwell_warnings,
                        "floor_rows": op.floor_rows}
                       for op in ops],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path = OUT_DIR / f"record-{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
          f"{failed} failed; record in {record_path.relative_to(ROOT)}")
    for op in ops:
        for problem in op.problems:
            print(f"  failed {op.inp}: {problem}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
