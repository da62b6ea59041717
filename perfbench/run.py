"""sqbath benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload event_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. This parent process uses only the standard library.
It times the cold set-up (``setup_s``) in fresh interpreters, then runs
the workload in its own worker process, so ``peak_rss_mb`` is that
workload's alone. Children get a copy of the environment with
``SQBATH_THREADS`` removed and BLAS/OpenMP pools capped at one thread;
nothing else is changed.

``--workload all`` runs every workload in turn and prints each metric by
name and unit. See README.md in this directory for the workloads, the
metrics and the held-out seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("event_sweep", "trajectory", "validate")

# Every run must end within 180 s; keep a margin for process teardown.
TIME_LIMIT_S = 170.0
# Set-up probes per run, half before and half after the workload, so the
# median spans the run rather than one moment of a shared host's load.
SETUP_RUNS = 10

_SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Cold import of the package and its CLI plus the first propagated state,
# timed inside a fresh interpreter (the interpreter's own start excluded).
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sqbath, sqbath.cli
from sqbath import BasisTag, BathParams, ExactPropagator, InitialStateSpec, initial_state
bath = BathParams(0.1)
ExactPropagator(initial_state(InitialStateSpec.phi(4), bath, BasisTag.DFS), bath).state_at(1.0)
elapsed = time.perf_counter() - start
if sqbath.__file__ != sys.argv[2]:
    sys.exit(f"imported sqbath from {sqbath.__file__}")
print(repr(elapsed))
"""


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SQBATH_THREADS", None)
    env.update({name: "1" for name in _SINGLE_THREAD})
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a child process could start")
    try:
        proc = subprocess.run([sys.executable, "-I", *argv], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process exceeded the time limit: {argv[0]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child process failed with exit code {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def setup_seconds(runs: int, deadline: float) -> list[float]:
    src = ROOT / "src"
    init = str(src / "sqbath" / "__init__.py")
    return [float(_run_child(["-c", _SETUP_PROBE, str(src), init], deadline).strip())
            for _ in range(runs)]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Result object and the worker's report lines for one workload."""
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = 0 if trace else SETUP_RUNS // 2
    setup = setup_seconds(probes, deadline)
    out = _run_child([str(WORKER), "--workload", name, "--seed", str(seed),
                      "--seconds", repr(seconds), "--trace", str(trace)], deadline)
    setup += setup_seconds(probes, deadline)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result:\n{out}") from exc
    notes = lines[:-1]
    if setup:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}
        notes.append(f"setup_s is the median of {len(setup)} fresh interpreters, "
                     "half before and half after the workload: "
                     + ", ".join(f"{s:.4f}" for s in setup))
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqbath benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="summed duration of the timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, notes = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = result
            print("\n".join(notes))
            if args.workload == "all":
                for metric, m in result["metrics"].items():
                    print(f"  {name:<12} {metric:<48} {m['value']:<14.6g} {m['unit']}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
