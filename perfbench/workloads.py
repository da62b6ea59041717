"""The three workloads: seeded inputs, one operation, and its output check.

Each workload yields an endless, seed-determined stream of inputs. ``run``
performs one operation through sqbath's public API or its command line
and returns what the check needs; ``check`` returns the list of problems
with that output (empty when correct). Checks use routes independent of
the one being timed: the analytic vacuum solution or the X-state
concurrence for event times, the collective-basis closed forms and a
numpy eigensolver for trajectory columns.

Module attributes are looked up at call time (``events.event_scan``,
``cli.main``), so a tracer installed around ``run`` sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sqbath import cli, events
from sqbath.entanglement import concurrence_dfs_closed
from sqbath.model import BasisTag, BathParams, DensityMatrix, InitialStateSpec, dfs_unitary

# ROADMAP gate on concurrence routes; PPT eigenvalues carry the same
# rounding as the 15-digit CSV they are recomputed from.
CONCURRENCE_TOL = 1e-10
# concurrence_wootters zeroes eigenvalues of rho rho~ below 1e-12 of the
# largest before taking square roots (README, "Numerical notes"). Each
# zeroed eigenvalue moves the result by its square root, up to ~1e-6
# (ROADMAP item 1). The trajectory check allows exactly those terms,
# computed independently below, with a factor 2 on the threshold for the
# eigensolver's rounding near it, and counts the rows that needed them.
RANK_FLOOR = 2e-12
PPT_TOL = 1e-12
TIME_TOL = 1e-12

EVOLVE_TMAX = 5.0
EVOLVE_SAMPLES = 201


def _spec(inp: dict) -> InitialStateSpec:
    return InitialStateSpec(kind=inp["initial"], eps=inp.get("eps"))


class EventSweep:
    """One ``event_scan`` per seeded parameter point.

    The points rotate through three families that exercise different
    refinement paths: phi4 over the figure-9 / criterion-09 range of N
    (one bracketed death and revival), psi2 at N = 0.1 (multiple deaths,
    golden-section touch refinement) and psi1 near its critical weight at
    N in {0, 0.1, 0.2} (figures 11-12, dwells only a few samples wide).
    """

    name = "event_sweep"

    def inputs(self, rng: np.random.Generator):
        for k in itertools.count():
            family = k % 3
            if family == 0:
                yield {"initial": "phi4", "n_bar": float(rng.uniform(0.05, 1.0))}
            elif family == 1:
                yield {"initial": "psi2", "eps": float(rng.uniform(0.4, 0.6)), "n_bar": 0.1}
            else:
                yield {"initial": "psi1", "eps": float(rng.uniform(0.1, 0.345)),
                       "n_bar": float(rng.choice((0.0, 0.1, 0.2)))}

    def run(self, inp: dict, workdir: Path):
        return events.event_scan(_spec(inp), BathParams(inp["n_bar"]))

    def output_bytes(self, out) -> int:
        return 0

    def check(self, inp: dict, report) -> list[str]:
        tol = report.refined_tolerance
        if inp["initial"] == "psi1" and inp["n_bar"] == 0.0:
            roots = events.psi1_death_revival_times(inp["eps"])
            deaths, revivals = roots[:1], roots[-1:]
            route = "analytic"
        else:
            ref = events.event_scan(_spec(inp), BathParams(inp["n_bar"]), measure="xstate")
            deaths, revivals = ref.deaths, ref.revivals
            route = "xstate"
        problems = []
        for kind, got, want in (("deaths", report.deaths, deaths),
                                ("revivals", report.revivals, revivals)):
            if len(got) != len(want):
                problems.append(f"{len(got)} {kind}, {route} route has {len(want)}")
                continue
            dev = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
            if not dev <= tol:
                problems.append(f"{kind} differ from the {route} route by {dev:.3e} > {tol:g}")
        return problems


@dataclass
class _CliOutcome:
    code: int
    stdout: str
    stderr: str
    path: Path | None = None


def _run_cli(argv: list[str], path: Path | None = None) -> _CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return _CliOutcome(code, out.getvalue(), err.getvalue(), path)


def _cli_problems(outcome: _CliOutcome) -> list[str]:
    if outcome.code == 0:
        return []
    return [f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}"]


# Collective-basis closed-form family for each named initial state.
_FAMILY = {"phi1": "psi1", "phi3": "psi1", "phi4": "psi1", "psi1": "psi1",
           "phi2": "psi2", "psi2": "psi2"}
_SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def wootters_roots(std: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of rho rho~ for stacked states, descending.

    Wootters' tau form: with rho = W W^dagger they are the singular values
    of W^T (sigma_y x sigma_y) W, with no square root of a small eigenvalue.
    """
    mu, v = np.linalg.eigh(0.5 * (std + std.conj().transpose(0, 2, 1)))
    w = v * np.sqrt(np.clip(mu, 0.0, None))[:, None, :]
    return np.linalg.svd(w.transpose(0, 2, 1) @ _SIGMA_YY @ w, compute_uv=False)


_HEADER = (["t"]
           + [f"{part}_r{i}{j}" for i in range(1, 5) for j in range(1, 5)
              for part in ("re", "im")]
           + ["concurrence", "ppt_min_eig"])


class Trajectory:
    """In-process ``sqbath evolve`` writing a 201-row CSV.

    Seven of every ten runs use the exact propagator, two RK4 and one the
    analytic N = 0 solution, so a gain on the matrix-exponential path that
    costs the other paths shows.
    """

    name = "trajectory"
    _METHODS = ("exact",) * 7 + ("rk4", "rk4", "closed")
    # Rows of the last checked output whose concurrence met the check only
    # through the rank-floor allowance (see RANK_FLOOR).
    floor_rows = 0

    def inputs(self, rng: np.random.Generator):
        for k in itertools.count():
            method = self._METHODS[k % len(self._METHODS)]
            inp = {"initial": str(rng.choice(list(_FAMILY))), "method": method,
                   "n_bar": 0.0 if method == "closed" else float(rng.uniform(0.0, 2.0))}
            if inp["initial"] in ("psi1", "psi2"):
                inp["eps"] = float(rng.uniform(0.05, 0.95))
            yield inp

    def run(self, inp: dict, workdir: Path) -> _CliOutcome:
        path = workdir / "trajectory.csv"
        argv = ["evolve", "--initial", inp["initial"], "--N", repr(inp["n_bar"]),
                "--method", inp["method"], "--tmax", repr(EVOLVE_TMAX), "--out", str(path)]
        if "eps" in inp:
            argv += ["--eps", repr(inp["eps"])]
        return _run_cli(argv, path)

    def output_bytes(self, out: _CliOutcome) -> int:
        return out.path.stat().st_size if out.path.exists() else 0

    def check(self, inp: dict, out: _CliOutcome) -> list[str]:
        self.floor_rows = 0
        problems = _cli_problems(out)
        if problems:
            return problems
        lines = out.path.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0].split(",") != _HEADER:
            return ["CSV header differs from the evolve columns"]
        try:
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        except ValueError as exc:
            return [f"unparsable CSV row: {exc}"]
        if rows.shape != (EVOLVE_SAMPLES, len(_HEADER)):
            return [f"CSV has shape {rows.shape}, want ({EVOLVE_SAMPLES}, {len(_HEADER)})"]

        t_dev = float(np.max(np.abs(rows[:, 0] - np.linspace(0.0, EVOLVE_TMAX, EVOLVE_SAMPLES))))
        if not t_dev <= TIME_TOL:
            problems.append(f"time column off the sample grid by {t_dev:.3e}")

        mats = (rows[:, 1:33:2] + 1j * rows[:, 2:33:2]).reshape(-1, 4, 4)
        bath = BathParams(inp["n_bar"])
        family = _FAMILY[inp["initial"]]
        closed = np.array([concurrence_dfs_closed(DensityMatrix(m, BasisTag.DFS), bath, family).value
                           for m in mats])
        u = dfs_unitary(bath)
        std = u @ mats @ u.conj().T
        roots = wootters_roots(std)
        floored = roots[:, 1:] ** 2 <= RANK_FLOOR * roots[:, :1] ** 2
        allowance = np.sum(roots[:, 1:] * floored, axis=1)
        c_dev = np.abs(closed - rows[:, 33])
        over = c_dev > CONCURRENCE_TOL + allowance
        if over.any():
            i = int(np.argmax(over))
            problems.append(f"concurrence differs from the closed form by {c_dev[i]:.3e} "
                            f"at t = {rows[i, 0]:g}, rank-floor allowance {allowance[i]:.3e}")
        self.floor_rows = int(np.count_nonzero(c_dev > CONCURRENCE_TOL))

        pt = std.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
        ppt = np.linalg.eigvalsh(0.5 * (pt + pt.conj().transpose(0, 2, 1)))[:, 0]
        p_dev = float(np.max(np.abs(ppt - rows[:, 34])))
        if not p_dev <= PPT_TOL:
            problems.append(f"ppt_min_eig differs from eigvalsh by {p_dev:.3e}")
        return problems


class Validate:
    """Full ``sqbath validate`` through the command line.

    It builds many short-lived propagators (one per closed-form call and
    per vacuum spec) and pushes 500 random standard-basis X states through
    the generic concurrence, so it moves when cost shifts into propagator
    construction or caching.
    """

    name = "validate"

    def inputs(self, rng: np.random.Generator):
        while True:
            yield {"argv": ["validate"]}

    def run(self, inp: dict, workdir: Path) -> _CliOutcome:
        return _run_cli(list(inp["argv"]))

    def output_bytes(self, out: _CliOutcome) -> int:
        return len(out.stdout.encode("utf-8"))

    def check(self, inp: dict, out: _CliOutcome) -> list[str]:
        problems = _cli_problems(out)
        lines = out.stdout.strip().splitlines()
        if not lines or lines[-1] != "gate: ok":
            problems.append("validate did not report 'gate: ok'")
        return problems


WORKLOADS = {w.name: w for w in (EventSweep(), Trajectory(), Validate())}


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2 ** 64)


def dwell_warnings(caught) -> int:
    return sum(1 for w in caught if str(w.message).startswith("dwell interval"))
