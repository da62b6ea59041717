"""Cross-validation reports: closed forms against the exact propagator.

Three families of checks, all deterministic:

* the vacuum (N = 0) closed-form solutions against exp(L t);
* the closed-form concurrences (X-state and collective-basis) against
  the generic mixed-state formula;
* the sixteen entries of the tabulated general-N closed form against the
  exact propagator. Entries listed in GENERAL_FORM_KNOWN_DEVIATIONS are
  reported with their measured deviation but never fail the gate; the
  remaining entries must reproduce the propagator to tolerance.

The first two work on stacks. Each bath is one exact walk
(dynamics.walk_states) that advances all of the report's initial states
together and is folded block by block, so the live states stay bounded
whatever the grid. Each block goes through the stacked closed form and
the stacked concurrence kernels once; the random X states are one stack,
checked once and measured by one call of each kernel. The general-form
gate still evaluates one state at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    GENERAL_FORM_KNOWN_DEVIATIONS,
    _vacuum_entries,
    closed_form_general,
    walk_states,
)
from .entanglement import dfs_closed_raw, wootters_raw, xstate_raw
from .model import (
    BasisTag,
    BathParams,
    DensityMatrix,
    InitialStateSpec,
    build_liouvillian,
    check_density_stack,
    initial_state,
)

STATUS_OK = "ok"
STATUS_FAIL = "FAIL"
STATUS_VERIFIED = "verified"
STATUS_KNOWN_DEVIATION = "known-deviation"

VACUUM_TOL = 1e-9
CONCURRENCE_TOL = 1e-9
GENERAL_FORM_TOL = 1e-8

DEFAULT_NS = (0.1, 0.5, 1.0)
DEFAULT_TS = (0.2, 1.0, 3.0)
DEFAULT_EPS = (0.28, 0.345, 0.5, 0.9)


@dataclass(frozen=True)
class CheckRow:
    """One line of the validation table."""

    name: str
    max_deviation: float
    tolerance: float
    status: str

    @property
    def gates(self) -> bool:
        return self.status in (STATUS_OK, STATUS_FAIL, STATUS_VERIFIED)


def _gate_row(name: str, worst: float, tolerance: float) -> CheckRow:
    return CheckRow(name=name, max_deviation=worst, tolerance=tolerance,
                    status=STATUS_OK if worst <= tolerance else STATUS_FAIL)


def _random_density(rng: np.random.Generator) -> DensityMatrix:
    m = np.zeros((4, 4), dtype=complex)
    weights = rng.dirichlet(np.ones(4))
    for w in weights:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityMatrix.validated(m, BasisTag.DFS)


def _random_xstate(rng: np.random.Generator) -> np.ndarray:
    """A random standard-basis X state; the caller checks it."""
    m = np.zeros((4, 4), dtype=complex)
    pops = rng.dirichlet(np.ones(4))
    for k in range(4):
        m[k, k] = pops[k]
    # Coherences bounded to keep the matrix PSD.
    a = rng.uniform(0.0, 1.0) * np.sqrt(pops[0] * pops[3]) * np.exp(2j * np.pi * rng.uniform())
    b = rng.uniform(0.0, 1.0) * np.sqrt(pops[1] * pops[2]) * np.exp(2j * np.pi * rng.uniform())
    m[0, 3] = a
    m[3, 0] = np.conj(a)
    m[1, 2] = b
    m[2, 1] = np.conj(b)
    return m


def _concurrence(raw: np.ndarray) -> np.ndarray:
    """Concurrence from its signed argument, min(1, max(0, raw))."""
    return np.minimum(1.0, np.maximum(raw, 0.0))


def _initial_stack(specs, bath: BathParams) -> np.ndarray:
    return np.array([initial_state(spec, bath, BasisTag.DFS).mat for spec in specs])


def _vacuum_specs(eps_values) -> list[InitialStateSpec]:
    specs = [InitialStateSpec.phi(k) for k in (1, 2, 3, 4)]
    for e in eps_values:
        specs.append(InitialStateSpec.psi1(e))
        specs.append(InitialStateSpec.psi2(e))
    return specs


def vacuum_report(eps_values=DEFAULT_EPS, t_max: float = 6.0, dt: float = 0.01,
                  tolerance: float = VACUUM_TOL) -> list[CheckRow]:
    """Vacuum closed forms vs exact propagation, entrywise max deviation.

    All initial states advance in one walk at N = 0; each block of
    samples is compared with the stacked closed form of every state.
    """
    bath = BathParams(0.0)
    times = np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)
    specs = _vacuum_specs(eps_values)
    worst = [0.0] * len(specs)
    walk = walk_states(build_liouvillian(bath, BasisTag.DFS),
                       _initial_stack(specs, bath), times)
    for k, block in walk:
        tau = bath.gamma * times[k:k + block.shape[0]]
        for j, spec in enumerate(specs):
            dev = float(np.max(np.abs(_vacuum_entries(spec, tau) - block[:, j])))
            worst[j] = max(worst[j], dev)
    return [_gate_row(f"vacuum-form {spec.label()}", w, tolerance)
            for spec, w in zip(specs, worst)]


def concurrence_report(n_values=DEFAULT_NS, eps_values=DEFAULT_EPS,
                       n_random_xstates: int = 500, seed: int = 20240809,
                       tolerance: float = CONCURRENCE_TOL) -> list[CheckRow]:
    """Closed-form concurrences vs the generic route."""
    rng = np.random.default_rng(seed)
    xs = np.empty((n_random_xstates, 4, 4), dtype=complex)
    for k in range(n_random_xstates):
        xs[k] = _random_xstate(rng)
    check_density_stack(xs)
    worst_x = float(np.max(np.abs(_concurrence(xstate_raw(xs).max(axis=1))
                                  - _concurrence(wootters_raw(xs))), initial=0.0))
    rows = [_gate_row(f"xstate-form vs generic ({n_random_xstates} random X states)",
                      worst_x, tolerance)]

    times = np.linspace(0.0, 5.0, 51)
    families = {
        "psi1": [InitialStateSpec.phi(3), InitialStateSpec.phi(4)]
                + [InitialStateSpec.psi1(e) for e in eps_values],
        "psi2": [InitialStateSpec.psi2(e) for e in eps_values],
    }
    specs = [spec for group in families.values() for spec in group]
    family_of = np.array([family for family, group in families.items() for _ in group])
    worst = dict.fromkeys(families, 0.0)
    for n in (0.0,) + tuple(n_values):
        bath = BathParams(n)
        walk = walk_states(build_liouvillian(bath, BasisTag.DFS),
                           _initial_stack(specs, bath), times)
        for _, block in walk:
            for family in families:
                mats = block[:, family_of == family].reshape(-1, 4, 4)
                closed = _concurrence(dfs_closed_raw(mats, bath, family).max(axis=1))
                generic = _concurrence(wootters_raw(mats, BasisTag.DFS, bath))
                dev = float(np.max(np.abs(closed - generic), initial=0.0))
                worst[family] = max(worst[family], dev)
    rows += [_gate_row(f"dfs-form vs generic ({family} family)", w, tolerance)
             for family, w in worst.items()]
    return rows


def general_form_report(n_values=DEFAULT_NS, t_values=DEFAULT_TS,
                        seed: int = 20240809,
                        tolerance: float = GENERAL_FORM_TOL,
                        initial: InitialStateSpec | None = None) -> list[CheckRow]:
    """Per-entry deviation of the general closed form vs the propagator.

    Initial states cover the named families plus seeded random full-rank
    matrices so that every entry of the solution map is exercised. Rows
    for entries in the known-deviation set carry their measured deviation
    and never fail the gate.
    """
    rng = np.random.default_rng(seed)
    if initial is not None:
        states = [initial_state(initial, BathParams(n_values[0]), BasisTag.DFS)]
    else:
        states = [
            initial_state(InitialStateSpec.phi(3), BathParams(n_values[0]), BasisTag.DFS),
            initial_state(InitialStateSpec.phi(4), BathParams(n_values[0]), BasisTag.DFS),
            initial_state(InitialStateSpec.psi1(0.3), BathParams(n_values[0]), BasisTag.DFS),
            initial_state(InitialStateSpec.psi2(0.4), BathParams(n_values[0]), BasisTag.DFS),
        ]
        states += [_random_density(rng) for _ in range(3)]

    worst = np.zeros((4, 4))
    for n in n_values:
        bath = BathParams(float(n))
        for rho0 in states:
            for t in t_values:
                _, report = closed_form_general(rho0, bath, float(t),
                                                validate=True, tolerance=tolerance)
                worst = np.maximum(worst, report.deviations)

    rows = []
    for i in range(4):
        for j in range(4):
            dev = float(worst[i, j])
            if (i, j) in GENERAL_FORM_KNOWN_DEVIATIONS:
                status = STATUS_KNOWN_DEVIATION
            else:
                status = STATUS_VERIFIED if dev <= tolerance else STATUS_FAIL
            rows.append(CheckRow(
                name=f"general-form rho{i + 1}{j + 1}",
                max_deviation=dev,
                tolerance=tolerance,
                status=status,
            ))
    return rows


def run_all(n_values=DEFAULT_NS, eps_values=DEFAULT_EPS, t_values=DEFAULT_TS,
            initial: InitialStateSpec | None = None) -> tuple[list[CheckRow], bool]:
    """Full validation table and whether every gated check passed.

    Passing ``initial`` restricts the table to the general-form gate for
    that one initial state.
    """
    rows: list[CheckRow] = []
    if initial is None:
        rows += vacuum_report(eps_values)
        rows += concurrence_report(n_values, eps_values)
    rows += general_form_report(n_values, t_values, initial=initial)
    gate_ok = all(row.status != STATUS_FAIL for row in rows)
    return rows, gate_ok


def format_table(rows: list[CheckRow]) -> str:
    width = max(len(r.name) for r in rows) + 2
    lines = [f"{'check':<{width}}{'max deviation':>16}{'tolerance':>12}  status"]
    for r in rows:
        lines.append(
            f"{r.name:<{width}}{r.max_deviation:>16.3e}{r.tolerance:>12.1e}  {r.status}"
        )
    return "\n".join(lines)
