"""Command-line surface.

Four subcommands:

* ``evolve``   -- propagate one initial state and emit the trajectory
                  (collective-basis entries, concurrence, PT minimum
                  eigenvalue) as CSV or JSON lines.
* ``events``   -- detect death/revival times for one initial state.
* ``figure``   -- emit the data behind each figure of the catalog
                  (1..13), one CSV per plotted series, caption parameters
                  hard-coded (a few overridable).
* ``validate`` -- run the closed-form-vs-exact cross-check table.

Exit codes: 0 success, 1 validation gate failure, 2 configuration error,
3 numerical failure, 4 internal error. Identical invocations produce
byte-identical output; numbers carry 15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import validation
from .dynamics import (
    METHOD_CLOSED,
    METHOD_EXACT,
    METHOD_RK4,
    ExactPropagator,
    PropagatorSettings,
    Trajectory,
    evolve_closed_vacuum,
    evolve_exact,
    evolve_rk4,
)
from .entanglement import concurrence_wootters, ppt_min_eigenvalues, wootters_raw
from .errors import ConfigError, InvalidCustom, NumericError, SqbathError
from .events import (
    default_t_max,
    event_scan,
    psi1_death_revival_times,
    psi2_touch_time,
    sweep,
)
from .model import BasisTag, BathParams, InitialStateSpec, initial_state

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _csv_line(row) -> str:
    """One CSV line: floats at 15 significant digits, anything else as str().

    A row of Python floats only (every trajectory row) is formatted by one
    %-template; "%.15g" gives the same text as format(x, ".15g"), inf and
    nan included.
    """
    if set(map(type, row)) == {float}:
        return ",".join(["%.15g"] * len(row)) % tuple(row) + "\n"
    return ",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n"


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--grid wants START:STOP:STEP, got {text!r}") from exc
    if step <= 0 or stop < start:
        raise ConfigError(f"bad grid {text!r}")
    count = int(round((stop - start) / step)) + 1
    return np.linspace(start, stop, count)


def load_custom_state(path: str) -> InitialStateSpec:
    """Custom state file: basis name on line 1, then 4 rows of re,im pairs."""
    try:
        lines = [ln.strip() for ln in Path(path).read_text().splitlines()
                 if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read custom state file {path}: {exc}") from exc
    if not lines:
        raise InvalidCustom(f"{path} is empty")
    tag = lines[0].lower()
    if tag not in ("standard", "dfs"):
        raise InvalidCustom(f"first line must be 'standard' or 'dfs', got {lines[0]!r}")
    if len(lines) != 5:
        raise InvalidCustom(f"expected 4 matrix rows after the basis line in {path}")
    mat = np.zeros((4, 4), dtype=complex)
    for i, line in enumerate(lines[1:]):
        cells = line.split()
        if len(cells) != 4:
            raise InvalidCustom(f"row {i + 1} has {len(cells)} entries, want 4")
        for j, cell in enumerate(cells):
            try:
                re_s, im_s = cell.split(",")
                mat[i, j] = complex(float(re_s), float(im_s))
            except ValueError as exc:
                raise InvalidCustom(f"bad entry {cell!r} at row {i + 1}") from exc
    basis = BasisTag.STANDARD if tag == "standard" else BasisTag.DFS
    return InitialStateSpec.custom_state(mat, basis)


def _spec_from_args(args) -> InitialStateSpec:
    name = args.initial
    if name == "custom":
        if not getattr(args, "custom_file", None):
            raise ConfigError("--initial custom needs --custom-file PATH")
        return load_custom_state(args.custom_file)
    if name in ("psi1", "psi2"):
        if args.eps is None:
            raise ConfigError(f"--initial {name} needs --eps")
        return InitialStateSpec(kind=name, eps=args.eps)
    return InitialStateSpec(kind=name)


def _bath_from_args(args) -> BathParams:
    try:
        return BathParams(n_bar=args.n_bar, psi=args.psi, gamma=args.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


TRAJ_HEADER = (
    ["t"]
    + [f"{part}_r{i}{j}" for i in range(1, 5) for j in range(1, 5) for part in ("re", "im")]
    + ["concurrence", "ppt_min_eig"]
)


def _concurrence_values(mats, basis: BasisTag, bath: BathParams) -> np.ndarray:
    """Concurrence of each state of a stack, as concurrence_wootters gives it.

    The argument order of maximum maps a raw -0.0 to +0.0, as max() does.
    """
    return np.minimum(1.0, np.maximum(wootters_raw(mats, basis, bath), 0.0))


def _trajectory_rows(traj: Trajectory):
    """Rows of t, the 16 entries as (re, im) pairs, concurrence, PT minimum."""
    mats = traj.states
    entries = np.stack([mats.real, mats.imag], axis=-1).reshape(len(mats), 32)
    conc = _concurrence_values(mats, traj.basis, traj.bath)
    ppt = ppt_min_eigenvalues(mats, traj.basis, traj.bath)
    for t, row, c, p in zip(traj.times.tolist(), entries,
                            conc.tolist(), ppt.tolist()):
        yield [t, *row.tolist(), c, p]


def _write_table(fh, header: list[str], rows, fmt: str, comments: list[str] = ()):
    if fmt == "csv":
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(_csv_line(row))
    elif fmt == "jsonl":
        for row in rows:
            fh.write(json.dumps(dict(zip(header, row))) + "\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}")


def cmd_evolve(args) -> int:
    spec = _spec_from_args(args)
    bath = _bath_from_args(args)
    samples = args.samples
    if samples < 2:
        raise ConfigError("--samples must be at least 2")
    times = np.linspace(0.0, args.tmax, samples)
    rho0 = initial_state(spec, bath, BasisTag.DFS)

    if args.method == METHOD_EXACT:
        traj = evolve_exact(rho0, bath, times)
    elif args.method == METHOD_RK4:
        stride = max(1, int(round(args.tmax / ((samples - 1) * args.dt))))
        settings = PropagatorSettings(t_max=args.tmax, dt=args.dt,
                                      sample_stride=stride, method=METHOD_RK4)
        traj = evolve_rk4(rho0, bath, settings)
    elif args.method == METHOD_CLOSED:
        if spec.kind == "custom":
            raise ConfigError("closed-form evolution needs a named initial state")
        traj = evolve_closed_vacuum(spec, bath, times)
    else:
        raise ConfigError(f"unknown method {args.method!r}")

    fh, close = _open_out(args.out)
    try:
        _write_table(fh, TRAJ_HEADER, _trajectory_rows(traj), args.format)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def cmd_events(args) -> int:
    spec = _spec_from_args(args)
    bath = _bath_from_args(args)
    t_max = args.tmax if args.tmax is not None else default_t_max(bath)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = event_scan(spec, bath, t_max=t_max,
                            zero_tol=args.zero_tol, refine_tol=args.refine_tol)
    rows = []
    revs = list(report.revivals)
    for k, td in enumerate(report.deaths):
        rows.append(["death", float(td), report.refined_tolerance])
        if k < len(revs):
            rows.append(["revival", float(revs[k]), report.refined_tolerance])
    fh, close = _open_out(args.out)
    try:
        _write_table(fh, ["event", "time", "refined_tolerance"], rows, args.format)
    finally:
        if close:
            fh.close()
    return EXIT_OK


# -- figure catalog ------------------------------------------------------------

def _exact_states(spec: InitialStateSpec, bath: BathParams, times: np.ndarray) -> np.ndarray:
    """Collective-basis states of spec on an ascending grid, one (T, 4, 4) walk."""
    return ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath).states_at(times)


def _concurrence_series(spec: InitialStateSpec, bath: BathParams, times: np.ndarray):
    conc = _concurrence_values(_exact_states(spec, bath, times), BasisTag.DFS, bath)
    return [[float(t), c] for t, c in zip(times, conc.tolist())]


def _write_series(out_dir: Path, name: str, header: list[str], rows,
                  comments: list[str]) -> Path:
    path = out_dir / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_table(fh, header, rows, "csv", comments=comments)
    return path


def cmd_figure(args) -> int:
    n = args.number
    if not 1 <= n <= 13:
        raise ConfigError(f"figure number must be in 1..13, got {n}")
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name, header, rows, comment):
        written.append(_write_series(out_dir, name, header, rows, [comment]))

    grid_override = _parse_grid(args.grid) if args.grid else None

    if n == 1:
        grid = grid_override if grid_override is not None else np.linspace(0.0, 10.0, 101)
        rows = []
        for nb in grid:
            bath = BathParams(float(nb))
            prop = ExactPropagator(initial_state(InitialStateSpec.phi(1), bath,
                                                 BasisTag.DFS), bath)
            rows.append([float(nb),
                         concurrence_wootters(prop.state_at(10.0), bath).value])
        emit("fig01_phi1_concurrence_vs_N.csv", ["n_bar", "concurrence"], rows,
             "steady concurrence of phi1 vs squeeze photon number")
    elif n == 2:
        bath = BathParams(0.0)
        times = np.linspace(0.0, args.tmax or 10.0, 201)
        ppt = ppt_min_eigenvalues(_exact_states(InitialStateSpec.phi(3), bath, times),
                                  BasisTag.DFS, bath)
        rows = [[float(t), p] for t, p in zip(times, ppt.tolist())]
        emit("fig02_phi3_ppt_min_eig.csv", ["t", "ppt_min_eig"], rows,
             "partial-transpose minimum eigenvalue, phi3 initial, N=0")
    elif n == 3:
        times = np.linspace(0.0, args.tmax or 6.0, 601)
        for eps in (0.28, 0.345, 0.9):
            emit(f"fig03_psi1_eps{eps:g}.csv", ["t", "concurrence"],
                 _concurrence_series(InitialStateSpec.psi1(eps), BathParams(0.0), times),
                 f"concurrence of psi1, eps={eps:g}, N=0")
    elif n == 4:
        grid = grid_override if grid_override is not None else np.linspace(0.005, 0.345, 137)
        deaths, revivals = [], []
        for eps in grid:
            roots = psi1_death_revival_times(float(eps))
            if roots:
                deaths.append([float(eps), roots[0]])
                revivals.append([float(eps), roots[-1]])
        emit("fig04_psi1_death_vs_eps.csv", ["eps", "t_death"], deaths,
             "death time of psi1 vs eps, N=0")
        emit("fig04_psi1_revival_vs_eps.csv", ["eps", "t_revival"], revivals,
             "revival time of psi1 vs eps, N=0")
    elif n == 5:
        times = np.linspace(0.0, args.tmax or 6.0, 601)
        for eps in (0.3, 0.5, 0.707, 0.9):
            emit(f"fig05_psi2_eps{eps:g}.csv", ["t", "concurrence"],
                 _concurrence_series(InitialStateSpec.psi2(eps), BathParams(0.0), times),
                 f"concurrence of psi2, eps={eps:g}, N=0")
    elif n == 6:
        grid = grid_override if grid_override is not None else np.linspace(0.005, 0.705, 281)
        rows = []
        for eps in grid:
            t = psi2_touch_time(float(eps))
            if t is not None:
                rows.append([float(eps), t])
        emit("fig06_psi2_touch_time_vs_eps.csv", ["eps", "t_touch"], rows,
             "coincident death-revival time of psi2 vs eps, N=0")
    elif n in (7, 10, 13):
        times = np.linspace(0.0, args.tmax or 12.0, 1201)
        if n == 7:
            for nb in (0.1, 0.5, 1.0):
                emit(f"fig07_phi3_N{nb:g}.csv", ["t", "concurrence"],
                     _concurrence_series(InitialStateSpec.phi(3), BathParams(nb), times),
                     f"concurrence of phi3, N={nb:g}")
        elif n == 10:
            for eps in (0.1, 0.2, 0.29, 0.5, 0.9):
                emit(f"fig10_psi1_eps{eps:g}.csv", ["t", "concurrence"],
                     _concurrence_series(InitialStateSpec.psi1(eps), BathParams(0.1), times),
                     f"concurrence of psi1, eps={eps:g}, N=0.1")
        else:
            for eps in (0.1, 0.4, 0.49, 0.54, 0.6, 0.9):
                emit(f"fig13_psi2_eps{eps:g}.csv", ["t", "concurrence"],
                     _concurrence_series(InitialStateSpec.psi2(eps), BathParams(0.1), times),
                     f"concurrence of psi2, eps={eps:g}, N=0.1")
    elif n in (8, 9):
        initial = "phi3" if n == 8 else "phi4"
        if grid_override is not None:
            grid = grid_override
        else:
            grid = np.linspace(0.05, 1.0, 96 if n == 8 else 191)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = sweep(initial, "n_bar", grid)
        emit(f"fig{n:02d}_{initial}_death_vs_N.csv", ["n_bar", "t_death"],
             ([float(x), float(td)] for x, td in zip(grid, result.death_times())),
             f"death time of {initial} vs N")
        emit(f"fig{n:02d}_{initial}_revival_vs_N.csv", ["n_bar", "t_revival"],
             ([float(x), float(tr)] for x, tr in zip(grid, result.revival_times())),
             f"revival time of {initial} vs N")
    elif n in (11, 12):
        grid = grid_override if grid_override is not None else np.linspace(0.01, 0.6, 60)
        kind = "death" if n == 11 else "revival"
        for nb in (0.0, 0.1, 0.2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = sweep("psi1", "eps", grid, n_bar=nb)
            series = result.death_times() if n == 11 else result.revival_times()
            emit(f"fig{n:02d}_psi1_{kind}_N{nb:g}.csv", ["eps", f"t_{kind}"],
                 ([float(x), float(v)] for x, v in zip(grid, series)),
                 f"{kind} time of psi1 vs eps, N={nb:g}")

    for path in written:
        print(path)
    return EXIT_OK


def cmd_validate(args) -> int:
    n_values = (args.n_bar,) if args.n_bar is not None else validation.DEFAULT_NS
    initial = None
    if args.initial is not None:
        if args.initial in ("psi1", "psi2"):
            if args.eps is None:
                raise ConfigError(f"--initial {args.initial} needs --eps")
            initial = InitialStateSpec(kind=args.initial, eps=args.eps)
        else:
            initial = InitialStateSpec(kind=args.initial)
    rows, gate_ok = validation.run_all(n_values=n_values, initial=initial)
    out = validation.format_table(rows)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_table(fh, ["check", "max_deviation", "tolerance", "status"],
                         ([r.name, r.max_deviation, r.tolerance, r.status] for r in rows),
                         "csv")
    print(out)
    print(f"gate: {'ok' if gate_ok else 'FAILED'}")
    return EXIT_OK if gate_ok else EXIT_GATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqbath",
        description="Two qubits in a common squeezed vacuum bath: evolution, "
                    "concurrence, and entanglement death/revival analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p, need_method=True):
        p.add_argument("--initial", required=True,
                       choices=["phi1", "phi2", "phi3", "phi4", "psi1", "psi2", "custom"],
                       help="initial state; psi1/psi2 need --eps, custom needs --custom-file")
        p.add_argument("--custom-file", help="custom state file (basis line, 4 rows of re,im)")
        p.add_argument("--eps", type=float, help="superposition weight in [0, 1]")
        p.add_argument("--N", dest="n_bar", type=float, default=0.0,
                       help="squeeze photon number N (default 0)")
        p.add_argument("--psi", type=float, default=0.0, help="squeeze phase (default 0)")
        p.add_argument("--gamma", type=float, default=1.0,
                       help="spontaneous emission rate (default 1)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "jsonl"], default="csv")

    p_evolve = sub.add_parser("evolve", help="propagate one initial state")
    add_state_args(p_evolve)
    p_evolve.add_argument("--method", choices=[METHOD_RK4, METHOD_EXACT, METHOD_CLOSED],
                          default=METHOD_EXACT)
    p_evolve.add_argument("--tmax", type=float, default=5.0)
    p_evolve.add_argument("--dt", type=float, default=1e-3, help="RK4 step")
    p_evolve.add_argument("--samples", type=int, default=201,
                          help="number of output rows (default 201)")
    p_evolve.set_defaults(func=cmd_evolve)

    p_events = sub.add_parser("events", help="detect death/revival times")
    add_state_args(p_events)
    p_events.add_argument("--tmax", type=float, default=None,
                          help="scan horizon (default max(20/(2N+1), 10))")
    p_events.add_argument("--zero-tol", type=float, default=1e-9)
    p_events.add_argument("--refine-tol", type=float, default=1e-6)
    p_events.set_defaults(func=cmd_events)

    p_fig = sub.add_parser("figure", help="emit the data series for catalog figure 1..13")
    p_fig.add_argument("number", type=int, help="figure number 1..13")
    p_fig.add_argument("--out", help="output directory (default .)")
    p_fig.add_argument("--grid", help="override sweep grid START:STOP:STEP")
    p_fig.add_argument("--tmax", type=float, default=None, help="override time horizon")
    p_fig.set_defaults(func=cmd_figure)

    p_val = sub.add_parser("validate", help="closed-form cross-check table")
    p_val.add_argument("--N", dest="n_bar", type=float, default=None,
                       help="restrict the general-form gate to one N")
    p_val.add_argument("--initial",
                       choices=["phi1", "phi2", "phi3", "phi4", "psi1", "psi2"],
                       default=None, help="restrict the general-form gate to one state")
    p_val.add_argument("--eps", type=float, default=None)
    p_val.add_argument("--out", help="also write the table as CSV")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, SqbathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
