"""Cross-validation reports: closed forms against the exact propagator.

Three families of checks, all deterministic:

* the vacuum (N = 0) closed-form solutions against exp(L t);
* the closed-form concurrences (X-state and collective-basis) against
  the generic mixed-state formula;
* the sixteen entries of the tabulated general-N closed form against the
  exact propagator. Entries listed in GENERAL_FORM_KNOWN_DEVIATIONS are
  reported with their measured deviation but never fail the gate; the
  remaining entries must reproduce the propagator to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    GENERAL_FORM_KNOWN_DEVIATIONS,
    ExactPropagator,
    closed_form_general,
    closed_form_vacuum,
)
from .entanglement import (
    concurrence_dfs_closed,
    concurrence_wootters,
    concurrence_xstate,
)
from .model import (
    BasisTag,
    BathParams,
    DensityMatrix,
    InitialStateSpec,
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


def _random_density(rng: np.random.Generator) -> DensityMatrix:
    m = np.zeros((4, 4), dtype=complex)
    weights = rng.dirichlet(np.ones(4))
    for w in weights:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityMatrix.validated(m, BasisTag.DFS)


def _random_xstate(rng: np.random.Generator) -> DensityMatrix:
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
    return DensityMatrix.validated(m, BasisTag.STANDARD)


def _vacuum_specs(eps_values) -> list[InitialStateSpec]:
    specs = [InitialStateSpec.phi(k) for k in (1, 2, 3, 4)]
    for e in eps_values:
        specs.append(InitialStateSpec.psi1(e))
        specs.append(InitialStateSpec.psi2(e))
    return specs


def vacuum_report(eps_values=DEFAULT_EPS, t_max: float = 6.0, dt: float = 0.01,
                  tolerance: float = VACUUM_TOL) -> list[CheckRow]:
    """Vacuum closed forms vs exact propagation, entrywise max deviation."""
    bath = BathParams(0.0)
    times = np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)
    rows = []
    for spec in _vacuum_specs(eps_values):
        prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
        worst = 0.0
        for t, exact in zip(times, prop.states_at(times)):
            closed = closed_form_vacuum(spec, bath, float(t))
            worst = max(worst, float(np.max(np.abs(closed.mat - exact))))
        rows.append(CheckRow(
            name=f"vacuum-form {spec.label()}",
            max_deviation=worst,
            tolerance=tolerance,
            status=STATUS_OK if worst <= tolerance else STATUS_FAIL,
        ))
    return rows


def concurrence_report(n_values=DEFAULT_NS, eps_values=DEFAULT_EPS,
                       n_random_xstates: int = 500, seed: int = 20240809,
                       tolerance: float = CONCURRENCE_TOL) -> list[CheckRow]:
    """Closed-form concurrences vs the generic route."""
    rows = []
    rng = np.random.default_rng(seed)

    worst_x = 0.0
    for _ in range(n_random_xstates):
        rho = _random_xstate(rng)
        worst_x = max(worst_x, abs(concurrence_xstate(rho).value
                                   - concurrence_wootters(rho).value))
    rows.append(CheckRow(
        name=f"xstate-form vs generic ({n_random_xstates} random X states)",
        max_deviation=worst_x,
        tolerance=tolerance,
        status=STATUS_OK if worst_x <= tolerance else STATUS_FAIL,
    ))

    times = np.linspace(0.0, 5.0, 51)
    families = {
        "psi1": [InitialStateSpec.phi(3), InitialStateSpec.phi(4)]
                + [InitialStateSpec.psi1(e) for e in eps_values],
        "psi2": [InitialStateSpec.psi2(e) for e in eps_values],
    }
    for family, specs in families.items():
        worst = 0.0
        for n in (0.0,) + tuple(n_values):
            bath = BathParams(n)
            for spec in specs:
                prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
                for m in prop.states_at(times):
                    state = DensityMatrix(m, BasisTag.DFS)
                    closed = concurrence_dfs_closed(state, bath, family)
                    generic = concurrence_wootters(state, bath)
                    worst = max(worst, abs(closed.value - generic.value))
        rows.append(CheckRow(
            name=f"dfs-form vs generic ({family} family)",
            max_deviation=worst,
            tolerance=tolerance,
            status=STATUS_OK if worst <= tolerance else STATUS_FAIL,
        ))
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
