"""Detection of entanglement sudden death and revival.

Detection runs on the signed concurrence argument (the quantity inside
the final max{0, .}) rather than the clamped concurrence: the argument is
strictly negative inside a dead zone but stays positive during ordinary
asymptotic decay, so a tail shrinking through any small threshold can
never masquerade as sudden death. Clamped values still work, because
there a dead zone is exactly zero.

A death is a downward zero crossing, a revival an upward one. Two
non-grid phenomena need care:

* near-critical parameters produce dwell intervals narrower than the
  sample spacing, so crossings are refined by bisection on an on-demand
  exact-propagation evaluator rather than trusted from the grid;
* one family touches zero at an isolated point (death and revival
  coincide), which never shows up as a sign dwell. Sampled local minima
  that are suspiciously close to zero are therefore driven through a
  golden-section minimization and reported as a coincident death/revival
  pair when the refined minimum reaches the noise band.

Also here: the analytic death/revival solvers for the two vacuum
superposition families and parameter sweeps over eps or N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import ExactPropagator
from .entanglement import concurrence_wootters, concurrence_xstate, wootters_raw, xstate_raw
from .errors import InsufficientResolution
from .model import BasisTag, BathParams, DensityMatrix, InitialStateSpec, initial_state

ZERO_TOL = 1e-9
REFINE_TOL = 1e-6

# Local minima qualify for touch refinement when the sampled value is
# within this factor of the neighbouring variation (kink- or
# parabola-shaped zeros satisfy it; smooth positive minima do not).
_TOUCH_CANDIDATE_FACTOR = 4.0
_GOLDEN_WIDTH = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EventReport:
    """Ordered death and revival times for one trajectory.

    A touching event appears as deaths[k] == revivals[k]. A trajectory
    that ends disentangled has one more death than revivals.
    """

    deaths: tuple[float, ...]
    revivals: tuple[float, ...]
    asymptotic_value: float
    refined_tolerance: float
    zero_tolerance: float = ZERO_TOL

    def __post_init__(self):
        if len(self.revivals) > len(self.deaths):
            raise ValueError("revival without a preceding death")
        for k, tr in enumerate(self.revivals):
            if not (self.deaths[k] <= tr):
                raise ValueError("deaths and revivals must interleave")
            if k + 1 < len(self.deaths) and not (tr <= self.deaths[k + 1]):
                raise ValueError("deaths and revivals must interleave")

    @property
    def has_death(self) -> bool:
        return len(self.deaths) > 0


@dataclass(frozen=True)
class SweepResult:
    """One EventReport per point of a parameter grid."""

    parameter_grid: np.ndarray
    reports: list[EventReport]
    initial: str
    vary: str
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.parameter_grid, dtype=float)
        if g.ndim != 1 or np.any(np.diff(g) <= 0.0):
            raise ValueError("parameter grid must be strictly ascending")
        if g.size != len(self.reports):
            raise ValueError("one report per grid point required")
        g.setflags(write=False)
        object.__setattr__(self, "parameter_grid", g)

    def death_times(self) -> np.ndarray:
        """First death per grid point, NaN where none was detected."""
        return np.array([r.deaths[0] if r.deaths else math.nan for r in self.reports])

    def revival_times(self) -> np.ndarray:
        return np.array([r.revivals[0] if r.revivals else math.nan for r in self.reports])


def _bisect_crossing(evaluator, t_lo: float, t_hi: float,
                     refine_tol: float, falling: bool) -> float:
    """Refine a zero crossing of the signed argument inside (t_lo, t_hi).

    Returns the endpoint on the post-crossing side, so deaths report a
    time already inside the dead zone and revivals a time just after it.
    """
    f_lo = evaluator(t_lo)
    f_hi = evaluator(t_hi)
    want_lo, want_hi = (1.0, -1.0) if falling else (-1.0, 1.0)
    if f_lo * want_lo < 0.0 or f_hi * want_hi < 0.0:
        raise InsufficientResolution(
            f"cannot bracket crossing in ({t_lo:g}, {t_hi:g}): "
            f"endpoint values {f_lo:.3e}, {f_hi:.3e}"
        )
    a, b = t_lo, t_hi
    while b - a > refine_tol:
        mid = 0.5 * (a + b)
        if (evaluator(mid) > 0.0) == (f_lo > 0.0):
            a = mid
        else:
            b = mid
    return b


def _golden_minimize(evaluator, a: float, b: float,
                     width: float = _GOLDEN_WIDTH) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [a, b]."""
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1 = evaluator(x1)
    f2 = evaluator(x2)
    best_t, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    while b - a > width:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = evaluator(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = evaluator(x2)
        if f1 < best_f:
            best_t, best_f = x1, f1
        if f2 < best_f:
            best_t, best_f = x2, f2
    for t, f in ((a, evaluator(a)), (b, evaluator(b))):
        if f < best_f:
            best_t, best_f = t, f
    return best_t, best_f


def detect_events(times, values, evaluator: Callable[[float], float] | None = None,
                  zero_tol: float = ZERO_TOL,
                  refine_tol: float = REFINE_TOL) -> EventReport:
    """Locate deaths, revivals, and touching events in sampled C(t).

    ``values`` should be the signed concurrence argument (ConcurrenceResult
    .raw); the clamped concurrence also works because there dead zones are
    exactly zero. Samples above +zero_tol count as entangled, samples at
    or below zero as dead; the band in between is treated as noise and
    resolved by refinement. ``evaluator`` supplies the same quantity at
    arbitrary times; without it, crossings fall back to interpolation on
    the grid and the reported tolerance degrades to the grid spacing.
    Sampling must be dense enough that genuine dwell intervals span at
    least three samples; narrower dwells trigger a warning.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 2:
        raise ValueError("times and values must be equal-length 1-D arrays")

    if evaluator is None:
        grid_tol = float(np.max(np.diff(t)))

        def evaluator(tt: float, _t=t, _v=v) -> float:
            return float(np.interp(tt, _t, _v))

        eff_refine = grid_tol
    else:
        eff_refine = refine_tol

    n = t.size
    above = v > zero_tol
    below = v <= 0.0
    events: list[tuple[float, str]] = []

    # Warn on undersampled dwells (runs of dead samples between live ones).
    run = 0
    seen_above = False
    for k in range(n):
        if below[k]:
            run += 1
        else:
            if seen_above and 0 < run < 3 and above[k]:
                warnings.warn(
                    f"dwell interval spans only {run} sample(s); "
                    "event times may be unreliable",
                    stacklevel=2,
                )
            if above[k]:
                seen_above = True
            run = 0

    # Definitive crossings above -> below and back. A leading dead
    # segment is not a death: the state simply starts separable.
    last_above: int | None = None
    last_below: int | None = None
    started = False
    for k in range(n):
        if above[k]:
            if started and last_below is not None and (
                    last_above is None or last_above < last_below):
                events.append((
                    _bisect_crossing(evaluator, t[last_below], t[k], eff_refine,
                                     falling=False),
                    "revival",
                ))
            last_above = k
            started = True
        elif below[k]:
            if started and last_above is not None and (
                    last_below is None or last_below < last_above):
                events.append((
                    _bisect_crossing(evaluator, t[last_above], t[k], eff_refine,
                                     falling=True),
                    "death",
                ))
            last_below = k

    # Touch candidates: sampled local minima that sit close to zero on the
    # scale of their neighbourhood. A refined minimum inside the noise band
    # is a coincident death/revival; one genuinely below zero is a dead
    # interval narrower than the grid and is split into its two crossings.
    def refine_touch(k_lo: float, k_hi: float):
        t_min, f_min = _golden_minimize(evaluator, k_lo, k_hi)
        if t_min <= t[0] + 2.0 * _GOLDEN_WIDTH:
            return
        if f_min < -zero_tol:
            events.append((
                _bisect_crossing(evaluator, k_lo, t_min, eff_refine, falling=True),
                "death",
            ))
            events.append((
                _bisect_crossing(evaluator, t_min, k_hi, eff_refine, falling=False),
                "revival",
            ))
        elif f_min <= zero_tol:
            events.append((t_min, "death"))
            events.append((t_min, "revival"))

    first_above = int(np.argmax(above)) if bool(np.any(above)) else n
    for k in range(max(1, first_above), n - 1):
        if not (above[k - 1] and above[k + 1]) or below[k]:
            continue
        if not (v[k] <= v[k - 1] and v[k] <= v[k + 1]):
            continue
        variation = max(v[k - 1] - v[k], v[k + 1] - v[k])
        if v[k] > max(_TOUCH_CANDIDATE_FACTOR * variation, 50.0 * zero_tol):
            continue
        refine_touch(t[k - 1], t[k + 1])
    # Leading-edge candidate: a zero touched before the second sample.
    if first_above == 0 and n >= 2 and above[1] and 0.0 < v[0] <= v[1]:
        variation = v[1] - v[0]
        if v[0] <= max(_TOUCH_CANDIDATE_FACTOR * variation, 50.0 * zero_tol):
            refine_touch(t[0], t[1])

    events.sort(key=lambda e: (e[0], e[1] == "revival"))
    deaths: list[float] = []
    revivals: list[float] = []
    expect_death = True
    for time, kind in events:
        if kind == "death":
            if not expect_death:
                raise InsufficientResolution(
                    f"two deaths without an intervening revival near t={time:g}"
                )
            deaths.append(time)
            expect_death = False
        else:
            if expect_death:
                raise InsufficientResolution(
                    f"revival without a preceding death near t={time:g}"
                )
            revivals.append(time)
            expect_death = True

    return EventReport(
        deaths=tuple(deaths),
        revivals=tuple(revivals),
        asymptotic_value=max(0.0, float(v[-1])),
        refined_tolerance=eff_refine,
        zero_tolerance=zero_tol,
    )


# -- analytic solvers for the vacuum superposition families ------------------

def psi1_critical_eps() -> float:
    """Weight above which the psi1 family at N = 0 loses sudden death.

    The death condition t e^{-t} = eps/sqrt(1-eps^2) is solvable exactly
    when the right side does not exceed the maximum 1/e of the left,
    giving eps* = 1/sqrt(1+e^2).
    """
    return 1.0 / math.sqrt(1.0 + math.e ** 2)


def psi1_death_revival_times(eps: float, *, tol: float = 1e-10) -> tuple[float, ...]:
    """Roots of t e^{-t} = eps/sqrt(1-eps^2) for the psi1 family at N = 0.

    Two roots t_d < 1 < t_r when the constant is below 1/e, one double
    root at t = 1 at the critical weight, none above it. Bisection on the
    monotone branches [0, 1] and [1, t_upper] to absolute tolerance
    ``tol``.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie strictly inside (0, 1)")
    k = eps / math.sqrt(1.0 - eps * eps)
    peak = 1.0 / math.e
    if abs(k - peak) <= 1e-12:
        return (1.0,)
    if k > peak:
        return ()

    def f(t: float) -> float:
        return t * math.exp(-t) - k

    a, b = 0.0, 1.0
    while b - a > tol:
        mid = 0.5 * (a + b)
        if f(mid) < 0.0:
            a = mid
        else:
            b = mid
    t_d = 0.5 * (a + b)

    upper = 2.0
    while upper * math.exp(-upper) >= k:
        upper *= 2.0
    a, b = 1.0, upper
    while b - a > tol:
        mid = 0.5 * (a + b)
        if f(mid) > 0.0:
            a = mid
        else:
            b = mid
    t_r = 0.5 * (a + b)
    return (t_d, t_r)


def psi2_touch_time(eps: float) -> float | None:
    """Coincident death/revival time for the psi2 family at N = 0.

    t = (1/2) ln((1-eps^2)/eps^2), a positive time only for
    eps < 1/sqrt(2); at or above that weight there is no event.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie strictly inside (0, 1)")
    t = 0.5 * math.log((1.0 - eps * eps) / (eps * eps))
    # Roundoff at the eps = 1/sqrt(2) boundary can leave t at ~1e-16;
    # that is the t = 0 boundary case, reported as no event.
    return t if t > 1e-12 else None


# -- trajectory scanning and sweeps -------------------------------------------

def default_t_max(bath: BathParams) -> float:
    """Sweep horizon: past the 1/(2N+1) scale but never shorter than 10."""
    return max(20.0 / (2.0 * bath.n_bar + 1.0), 10.0) / bath.gamma


def scan_times(t_max: float) -> np.ndarray:
    """Sample grid densified near t = 0.

    The early refinement resolves touching events that migrate toward
    t = 0 as the parameter approaches its critical value.
    """
    pieces = [
        np.arange(0.0, 0.02, 5e-4),
        np.arange(0.02, 0.5, 5e-3),
        np.linspace(0.5, t_max, 601),
    ]
    # Sorted and deduplicated like np.unique, whose first call alone adds
    # ~1.4 MB of resident memory.
    t = np.sort(np.concatenate(pieces))
    return t[np.concatenate(([True], t[1:] != t[:-1]))]


def _measure_fns(measure: str, bath: BathParams):
    """Signed concurrence argument of one state and of a DFS-basis stack.

    Detection wants the signed argument, not the clamped concurrence. Both
    functions run the same stacked kernel, so grid values and refinement
    values come from one code path.
    """
    if measure == "wootters":
        return ((lambda s: concurrence_wootters(s, bath).raw),
                lambda m: wootters_raw(m, BasisTag.DFS, bath))
    if measure == "xstate":
        return ((lambda s: concurrence_xstate(s, check_structure=True, bath=bath).raw),
                lambda m: xstate_raw(m, BasisTag.DFS, bath).max(axis=1))
    raise ValueError(f"unknown measure {measure!r}")


def event_scan(spec: InitialStateSpec, bath: BathParams, *,
               t_max: float | None = None,
               zero_tol: float = ZERO_TOL, refine_tol: float = REFINE_TOL,
               measure: str = "wootters") -> EventReport:
    """Evolve one initial state exactly and detect its events.

    The whole scan grid is one ExactPropagator.states_at walk, measured
    as a stack; refinement evaluates single states on demand with
    state_at.
    """
    horizon = default_t_max(bath) if t_max is None else t_max
    rho0 = initial_state(spec, bath, BasisTag.DFS)
    prop = ExactPropagator(rho0, bath)
    one, stack = _measure_fns(measure, bath)
    times = scan_times(horizon)
    values = stack(prop.states_at(times))

    def evaluator(t: float) -> float:
        return one(prop.state_at(t))

    return detect_events(times, values, evaluator,
                         zero_tol=zero_tol, refine_tol=refine_tol)


def _point_spec(initial: str, vary: str, value: float,
                eps: float | None) -> tuple[InitialStateSpec, float | None]:
    if vary == "eps":
        if initial not in ("psi1", "psi2"):
            raise ValueError("eps sweeps apply to the psi1/psi2 families")
        return InitialStateSpec(kind=initial, eps=float(value)), None
    if vary == "n_bar":
        if initial in ("psi1", "psi2"):
            if eps is None:
                raise ValueError("n_bar sweeps of psi1/psi2 need a fixed eps")
            return InitialStateSpec(kind=initial, eps=eps), float(value)
        return InitialStateSpec(kind=initial), float(value)
    raise ValueError(f"unknown sweep variable {vary!r}")


def sweep(initial: str, vary: str, grid: Sequence[float], *,
          eps: float | None = None, n_bar: float | None = None,
          psi: float = 0.0, gamma: float = 1.0,
          t_max: float | None = None,
          zero_tol: float = ZERO_TOL, refine_tol: float = REFINE_TOL,
          measure: str = "wootters") -> SweepResult:
    """Event detection across a grid of eps or N values, one scan per point."""
    grid = np.asarray(grid, dtype=float)

    def run_point(value: float) -> EventReport:
        spec, point_n = _point_spec(initial, vary, value, eps)
        bath = BathParams(n_bar=point_n if point_n is not None else (n_bar or 0.0),
                          psi=psi, gamma=gamma)
        return event_scan(spec, bath, t_max=t_max, zero_tol=zero_tol,
                          refine_tol=refine_tol, measure=measure)

    reports = [run_point(x) for x in grid]

    fixed = {}
    if vary == "eps":
        fixed["n_bar"] = n_bar or 0.0
    elif eps is not None:
        fixed["eps"] = eps
    return SweepResult(parameter_grid=grid, reports=reports,
                       initial=initial, vary=vary, fixed=fixed)


def find_existence_boundary(initial: str, *, n_bar: float = 0.0,
                            lo: float, hi: float, tol: float = 1e-4,
                            measure: str = "wootters",
                            t_max: float | None = None) -> float:
    """Bisect the eps value separating death-exists from death-free.

    Requires a death (or touching event) at ``lo`` and none at ``hi``.
    """
    bath = BathParams(n_bar=n_bar)

    def has_event(e: float) -> bool:
        spec = InitialStateSpec(kind=initial, eps=e)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return event_scan(spec, bath, t_max=t_max, measure=measure).has_death

    if not has_event(lo):
        raise ValueError(f"no event at the lower end eps={lo}")
    if has_event(hi):
        raise ValueError(f"event still present at the upper end eps={hi}")
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if has_event(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
