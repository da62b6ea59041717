"""Time evolution of the two-qubit state by three interchangeable routes.

* ``evolve_rk4``  -- classical fixed-step RK4 on the vectorized state.
* ``evolve_exact`` -- matrix-exponential propagation exp(L t); this is the
  authoritative oracle for everything else.
* ``closed_form_vacuum`` -- the analytic solutions for n_bar = 0.
* ``closed_form_general`` -- the tabulated general-N closed-form entry
  expressions, transcribed verbatim. Several of the transcribed
  coefficient blocks are singular at N = 0 and fail to reconstruct the initial
  condition at t = 0, so every call is compared against the exact
  propagator by default and the measured deviation is returned with the
  result rather than silently corrected.

Times are in units of 1/gamma; a non-unit gamma simply rescales t through
the generator.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    PositivityLost,
    SingularBath,
    StiffStepRejected,
    UnsupportedBath,
    UnsupportedSpec,
    ValidationFailed,
)
from .matkernel import matrix_exp, unvec, vec
from .model import (
    BasisTag,
    BathParams,
    DensityMatrix,
    InitialStateSpec,
    Liouvillian,
    build_liouvillian,
)

METHOD_RK4 = "rk4"
METHOD_EXACT = "exact"
METHOD_CLOSED = "closed"

RK4_POSITIVITY_FLOOR = -1e-6
TRACE_RENORM_THRESHOLD = 1e-12


@dataclass(frozen=True)
class PropagatorSettings:
    """Step-size and sampling controls for the integrators."""

    t_max: float
    dt: float = 1e-3
    sample_stride: int = 10
    method: str = METHOD_RK4

    def __post_init__(self):
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be a positive integer")


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus the states at the samples as one (T, 4, 4) array.

    ``states[k]`` is the density matrix at ``times[k]``, its entries in
    ``basis``. The stack is copied, checked once (shape, finite entries,
    alignment with an ascending grid) and made read-only.
    """

    times: np.ndarray
    states: np.ndarray
    basis: BasisTag
    bath: BathParams
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        m = np.array(self.states, dtype=complex)
        if m.ndim != 3 or m.shape[1:] != (4, 4):
            raise ValueError(f"states must be a (T, 4, 4) stack, got shape {m.shape}")
        if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
            raise ValueError("states have non-finite entries")
        if t.ndim != 1 or t.size != m.shape[0] or t.size < 2:
            raise ValueError("times and states must align with length >= 2")
        if np.any(np.diff(t) < 0.0):
            raise ValueError("times must be ascending")
        t.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", m)


def _stiffness_limit(bath: BathParams) -> float:
    # Fastest decay rate in the generator is 2(sqrt(N)+sqrt(N+1))^2 <= 4(2N+1),
    # so cap dt at 0.01/(2N+1) to keep RK4 well inside its stability region.
    return 0.01 / (2.0 * bath.n_bar + 1.0)


def _rk4_step_matrix(l_mat: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of v' = L v as a single matrix.

    For a linear autonomous generator the four stages collapse to the
    degree-4 Taylor polynomial, evaluated in Horner form:

        P = I + hL (I + hL/2 (I + hL/3 (I + hL/4))),

    so v <- P v equals v + (h/6)(k1 + 2 k2 + 2 k3 + k4) up to rounding.
    """
    a = dt * np.asarray(l_mat)
    eye = np.eye(a.shape[0], dtype=complex)
    p = eye + a / 4.0
    for k in (3.0, 2.0, 1.0):
        p = eye + (a / k) @ p
    return p


def evolve_rk4(rho0: DensityMatrix, bath: BathParams,
               settings: PropagatorSettings) -> Trajectory:
    """Fixed-step classical RK4 on vec(rho), one step-matrix product per step.

    Sampled states are re-Hermitized by symmetric averaging (never inside
    the steps) and trace-renormalized only when the drift exceeds 1e-12;
    both drifts, the number of renormalized samples and the smallest
    eigenvalue over the samples are recorded in the trajectory metadata.
    The positivity check runs on the whole sample stack and raises
    PositivityLost at the first sample below RK4_POSITIVITY_FLOOR.
    """
    limit = _stiffness_limit(bath)
    if settings.dt > limit * (1.0 + 1e-12):
        raise StiffStepRejected(
            f"dt={settings.dt:g} exceeds stiffness guard {limit:g} "
            f"for n_bar={bath.n_bar:g}"
        )
    dt = settings.dt
    n_steps = max(1, int(round(settings.t_max / dt)))
    step_mat = _rk4_step_matrix(build_liouvillian(bath, rho0.basis).mat, dt)

    steps = [s for s in range(1, n_steps + 1)
             if s % settings.sample_stride == 0 or s == n_steps]
    vs = np.empty((len(steps), 16), dtype=complex)
    v = vec(rho0.mat)
    done = 0
    for k, step in enumerate(steps):
        for _ in range(step - done):
            v = step_mat @ v
        vs[k] = v
        done = step

    # Column-stacked vectors -> matrices, as unvec does per sample.
    m = vs.reshape(-1, 4, 4).transpose(0, 2, 1)
    mh = m.conj().transpose(0, 2, 1)
    herm_drift = np.linalg.norm(m - mh, axis=(1, 2))
    m = 0.5 * (m + mh)
    tr = np.real(np.trace(m, axis1=1, axis2=2))
    drift = np.abs(tr - 1.0)
    renorm = drift > TRACE_RENORM_THRESHOLD
    m[renorm] /= tr[renorm, None, None]
    states = np.concatenate([rho0.mat[None], m])
    w_min = np.linalg.eigvalsh(states)[:, 0]
    # rho0 is the caller's state and is not held to the floor.
    bad = np.flatnonzero(w_min[1:] < RK4_POSITIVITY_FLOOR)
    if bad.size:
        k = int(bad[0])
        raise PositivityLost(
            f"minimum eigenvalue {w_min[k + 1]:.3e} at t={steps[k] * dt:g}"
        )

    meta = {
        "trace_drift": float(drift.max()),
        "hermiticity_drift": float(herm_drift.max()),
        "renormalized_samples": int(np.count_nonzero(renorm)),
        "min_eigenvalue": float(w_min.min()),
        "dt": dt,
    }
    times = np.array([0.0] + [s * dt for s in steps])
    return Trajectory(times, states, rho0.basis, bath, METHOD_RK4, meta)


# The exact walk yields at most this many samples at a time, so a caller
# that folds each block keeps O(_BLOCK * K) states live, not O(T * K).
_BLOCK = 64


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError("times must be a 1-D sequence")
    if t.size and (t[0] < 0.0 or np.any(np.diff(t) < 0.0)):
        raise ValueError("times must be ascending and non-negative")
    return t


def walk_states(liouvillian: Liouvillian, rho0s, times, *,
                hermitize: bool = True) -> Iterator[tuple[int, np.ndarray]]:
    """Exact states of K initial states on one bath, one grid walk.

    ``rho0s`` is a (K, 4, 4) stack in the basis of ``liouvillian``. The
    K column-stacked states are the columns of one 16 x K block V, and the
    walk advances them together, V <- exp(L dt_k) V, with one matrix
    exponential per distinct float step dt_k (a piecewise-uniform grid has
    only a handful) and one product per sample. No eigendecomposition of
    L is used: at N = 0 it is defective.

    Yields ``(k, block)`` in order, block[b, j] being state j at
    times[k + b], shape (b, K, 4, 4) with b <= _BLOCK. Samples at t = 0
    are rho0s exactly; the others are Hermitized as in state_mat unless
    ``hermitize`` is False, which returns them as propagated (for drift
    diagnostics).
    """
    t = _check_times(times)
    r0 = np.asarray(rho0s, dtype=complex)
    if r0.ndim != 3 or r0.shape[1:] != (4, 4):
        raise ValueError(f"rho0s must be a (K, 4, 4) stack, got shape {r0.shape}")
    # Column j of v is vec(rho0s[j]) under the column-stacking convention.
    v = r0.transpose(0, 2, 1).reshape(-1, 16).T
    steps: dict[float, np.ndarray] = {}
    now = 0.0
    for k in range(0, t.size, _BLOCK):
        tb = t[k:k + _BLOCK]
        vs = np.empty((tb.size, 16, r0.shape[0]), dtype=complex)
        for b, tk in enumerate(tb.tolist()):
            dt = tk - now
            if dt != 0.0:
                step = steps.get(dt)
                if step is None:
                    step = steps[dt] = matrix_exp(liouvillian.mat, dt)
                v = step @ v
                now = tk
            vs[b] = v
        # Column-stacked vectors -> matrices, as unvec does per sample.
        m = vs.transpose(0, 2, 1).reshape(tb.size, -1, 4, 4).swapaxes(-1, -2)
        if hermitize:
            # 0.5 (m + m^H) with one temporary the size of the block.
            h = m.conj().swapaxes(-1, -2)
            h += m
            h *= 0.5
            m = h
        m[tb == 0.0] = r0
        yield k, m


class ExactPropagator:
    """Caches the generator so repeated state_at(t) calls stay cheap.

    Propagate in the collective (DFS) basis, as the CLI and event_scan do.
    A standard-basis rho0 is accepted, but there the tiny entries of a
    decayed state come out as differences of O(1) entries and lose their
    relative accuracy: phi4 at N = 0, walked to t = 20 on the event-scan
    grid, gives the |+-> population p22 = -2.6e-16 against the exact
    t e^{-2t} = 8.5e-17, which the DFS walk reproduces.
    """

    def __init__(self, rho0: DensityMatrix, bath: BathParams):
        self.rho0 = rho0
        self.bath = bath
        self.liouvillian: Liouvillian = build_liouvillian(bath, rho0.basis)
        self._v0 = vec(rho0.mat)

    def state_mat(self, t: float) -> np.ndarray:
        if t == 0.0:
            return np.array(self.rho0.mat)
        prop = matrix_exp(self.liouvillian.mat, t)
        m = unvec(prop @ self._v0, 4)
        return 0.5 * (m + m.conj().T)

    def state_at(self, t: float) -> DensityMatrix:
        return DensityMatrix(self.state_mat(t), self.rho0.basis)

    def states_at(self, times, *, hermitize: bool = True) -> np.ndarray:
        """States at ascending times as one (T, 4, 4) array.

        walk_states with K = 1: one matrix exponential per distinct step,
        samples at t = 0 equal to rho0 exactly, the others Hermitized
        unless ``hermitize`` is False.
        """
        t = _check_times(times)
        out = np.empty((t.size, 4, 4), dtype=complex)
        for k, block in walk_states(self.liouvillian, self.rho0.mat[None], t,
                                    hermitize=hermitize):
            out[k:k + block.shape[0]] = block[:, 0]
        return out


def evolve_exact(rho0: DensityMatrix, bath: BathParams, times) -> Trajectory:
    """states[k] = unvec(exp(L t_k) vec(rho0)); no step-size error.

    The samples come from one walk of ExactPropagator.states_at. As in
    evolve_rk4, the largest anti-Hermitian part (Frobenius norm) removed
    from a sample, the largest trace drift and the smallest eigenvalue
    over the samples are recorded in the metadata.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two sample times")
    if t[0] < 0.0 or np.any(np.diff(t) < 0.0):
        raise ValueError("times must be ascending and non-negative")
    raw = ExactPropagator(rho0, bath).states_at(t, hermitize=False)
    anti = raw - raw.conj().transpose(0, 2, 1)
    mats = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    mats[t == 0.0] = rho0.mat
    trace = np.real(np.trace(mats, axis1=1, axis2=2))
    meta = {
        "trace_drift": float(np.max(np.abs(trace - 1.0))),
        "hermiticity_drift": float(np.max(np.linalg.norm(anti, axis=(1, 2)))),
        "min_eigenvalue": float(np.linalg.eigvalsh(mats)[:, 0].min()),
    }
    return Trajectory(t, mats, rho0.basis, bath, METHOD_EXACT, meta)


def _vacuum_entries(spec: InitialStateSpec, tau) -> np.ndarray:
    """Vacuum closed form at each scaled time tau = gamma t, a (T, 4, 4) stack."""
    tau = np.asarray(tau, dtype=float).reshape(-1)
    e1 = np.exp(-tau)
    e2 = np.exp(-2.0 * tau)
    m = np.zeros((tau.size, 4, 4), dtype=complex)
    if spec.kind == "phi1":
        m[:, 0, 0] = 1.0
    elif spec.kind == "phi2":
        m[:, 1, 1] = 1.0
    elif spec.kind == "phi3":
        m[:, 0, 0] = 1.0 - e2
        m[:, 2, 2] = e2
    elif spec.kind == "phi4":
        m[:, 0, 0] = (np.expm1(2.0 * tau) - 2.0 * tau) * e2
        m[:, 2, 2] = 2.0 * tau * e2
        m[:, 3, 3] = e2
    elif spec.kind == "psi1":
        eps = float(spec.eps)
        w2 = 1.0 - eps * eps
        off = eps * math.sqrt(w2) * e1
        m[:, 0, 0] = 1.0 - (1.0 + 2.0 * tau) * w2 * e2
        m[:, 0, 3] = off
        m[:, 3, 0] = off
        m[:, 2, 2] = 2.0 * tau * w2 * e2
        m[:, 3, 3] = w2 * e2
    elif spec.kind == "psi2":
        eps = float(spec.eps)
        w2 = 1.0 - eps * eps
        off = eps * math.sqrt(w2) * e1
        m[:, 0, 0] = w2 * (1.0 - e2)
        m[:, 1, 1] = eps * eps
        m[:, 1, 2] = off
        m[:, 2, 1] = off
        m[:, 2, 2] = w2 * e2
    else:
        raise UnsupportedSpec(f"no vacuum closed form for {spec.kind!r}")
    return m


def _check_vacuum(spec: InitialStateSpec, bath: BathParams, t_min: float) -> None:
    if spec.kind == "custom":
        raise UnsupportedSpec("closed forms exist only for the named initial states")
    if bath.n_bar != 0.0:
        raise UnsupportedBath(f"vacuum closed form needs n_bar = 0, got {bath.n_bar}")
    if t_min < 0.0:
        raise ValueError("t must be >= 0")


def closed_form_vacuum(spec: InitialStateSpec, bath: BathParams, t: float) -> DensityMatrix:
    """Analytic solution at n_bar = 0, assembled in the collective basis.

    Valid for the six named initial states; the squeeze phase is inert at
    N = 0 and gamma enters only through tau = gamma * t.
    """
    _check_vacuum(spec, bath, t)
    return DensityMatrix(_vacuum_entries(spec, bath.gamma * t)[0], BasisTag.DFS)


def evolve_closed_vacuum(spec: InitialStateSpec, bath: BathParams, times) -> Trajectory:
    """Trajectory built from the vacuum closed forms, one stack of samples."""
    t = np.asarray(times, dtype=float)
    _check_vacuum(spec, bath, float(t.min()) if t.size else 0.0)
    return Trajectory(t, _vacuum_entries(spec, bath.gamma * t), BasisTag.DFS, bath,
                      METHOD_CLOSED)


@dataclass(frozen=True)
class GeneralFormValidation:
    """Entrywise |closed - exact| for one general-closed-form evaluation."""

    deviations: np.ndarray
    max_deviation: float
    tolerance: float
    passed: bool


# Entries of the general closed form whose tabulated coefficients are known
# not to reproduce the exact propagator (measured by the validation gate;
# they fail initial-condition reconstruction at t=0 for generic input).
GENERAL_FORM_KNOWN_DEVIATIONS = frozenset(
    {(0, 0), (0, 2), (0, 3), (2, 0), (2, 2), (3, 0)}
)


def _general_entries(rho0: np.ndarray, bath: BathParams, t: float) -> np.ndarray:
    """Verbatim transcription of the tabulated general-N solution.

    Index convention is 0-based on the collective basis (entry (0,0) is
    the phi_1 population). Grouping of a few ambiguous brackets follows
    the most literal reading; the validation gate, not this transcription,
    decides which entries are trustworthy.
    """
    n = bath.n_bar
    tau = bath.gamma * t
    psi = bath.psi
    r = rho0

    root_n = math.sqrt(n)
    root_np1 = math.sqrt(n + 1.0)
    big_m = math.sqrt(n * (n + 1.0))          # sqrt(N(N+1))
    gam = 2.0 * n + 1.0                       # 2N+1
    q = math.sqrt(gam) * math.sqrt(2.0 * n * n + n)   # sqrt(2N+1) sqrt(2N^2+N)
    rate_fast = 2.0 * (root_n + root_np1) ** 2
    rate_slow = 2.0 * (root_n - root_np1) ** 2
    e_fast = math.exp(-rate_fast * tau)
    e_slow = math.exp(-rate_slow * tau)
    e_gam = math.exp(-gam * tau)
    eip = np.exp(1j * psi)
    eim = np.exp(-1j * psi)

    out = np.zeros((4, 4), dtype=complex)

    # Populations and coherences of the invariant phi_2 level.
    out[0, 1] = r[0, 1]
    out[1, 0] = r[1, 0]
    out[1, 1] = r[1, 1]
    out[1, 2] = r[1, 2] * e_gam
    out[1, 3] = r[1, 3] * e_gam
    out[2, 1] = r[2, 1] * e_gam
    out[3, 1] = r[3, 1] * e_gam

    # rho_11.
    s34 = r[3, 3] + r[2, 2]
    pref11 = 4.0 / (big_m * (8.0 * n + 4.0))
    a_plus = ((-gam * s34 * math.sqrt(n * (n + 1.0) / 4.0) + s34) * n * n
              + s34 * n + 0.25 * r[3, 3])
    a_minus = ((-gam * s34 * math.sqrt(n * (n + 1.0) / 4.0) - s34) * n * n
               - s34 * n - 0.25 * r[3, 3])
    const11 = gam * (r[3, 3] + r[2, 2] + r[0, 0]) * big_m
    out[0, 0] = pref11 * (a_plus * e_fast + a_minus * e_slow + const11)

    # rho_13.
    denom13 = root_n * (24.0 * n ** 3 + 36.0 * n ** 2 + 10.0 * n - 1.0)
    pref13 = 12.0 * e_gam / denom13
    half = n + 0.5
    exp13_plus = math.exp(tau * (-math.sqrt(2.0 * n * n + n) * gam
                                 + 4.0 * n * root_np1 * math.sqrt(gam))
                          / math.sqrt(2.0 * n * n + n))
    exp13_minus = math.exp(-tau * (math.sqrt(2.0 * n * n + n) * gam
                                   + 4.0 * n * root_np1 * math.sqrt(gam))
                           / math.sqrt(2.0 * n * n + n))
    t13_1 = (-(2.0 / 3.0) * half * (n * root_np1 + 0.25 * q)
             * (r[3, 2] - eip * r[2, 3]) * exp13_plus)
    t13_2 = (-(2.0 / 3.0) * half * (n * root_np1 - 0.25 * q)
             * (eip * r[2, 3] + r[3, 2]) * exp13_minus)
    t13_3 = (-(1.0 / 3.0) * half * r[2, 3] * eip
             + r[0, 2] * (n * n + n - 1.0 / 12.0)) * q
    t13_4 = (4.0 / 3.0) * half * root_np1 * r[3, 2]
    out[0, 2] = pref13 * (t13_1 + t13_2 + t13_3 + t13_4)

    # rho_14.
    pref14 = 8.0 * e_gam / (gam * (12.0 * n * n + 12.0 * n - 1.0))
    f_plus = (math.exp(-(gam + 4.0 * big_m) * tau)
              * (-0.5 * half * (2.0 * r[3, 3] + r[2, 2]) * big_m
                 + (0.5 * r[3, 3] + r[2, 2]) * (n * n + n)
                 + 0.125 * r[3, 3]))
    f_minus = (-math.exp(-(gam - 4.0 * big_m) * tau)
               * (0.5 * half * (2.0 * r[3, 3] + r[2, 2]) * big_m
                  + (0.5 * r[3, 3] + r[2, 2]) * (n * n + n)
                  + 0.125 * r[3, 3]))
    f_const = 1.5 * (math.sqrt(gam) * r[0, 3] * (n * n + n - 1.0 / 12.0)
                     * math.sqrt(2.0 * n * n + n)
                     + (2.0 / 3.0) * half * (2.0 * r[3, 3] + r[2, 2]) * n * root_np1)
    out[0, 3] = pref14 * (f_plus + f_minus + f_const)

    # rho_31.
    pref31 = -8.0 * eim * e_gam / denom13
    exp31_plus = np.exp((-(gam * tau + 1j * psi) * math.sqrt(2.0 * n * n + n)
                         + 4.0 * tau * n * root_np1 * math.sqrt(gam))
                        / math.sqrt(2.0 * n * n + n))
    exp31_minus = np.exp((-(gam * tau + 1j * psi) * math.sqrt(2.0 * n * n + n)
                          - 4.0 * tau * n * root_np1 * math.sqrt(gam))
                         / math.sqrt(2.0 * n * n + n))
    g1 = ((n * root_np1 - 0.25 * q) * half
          * (eip * r[2, 3] + r[3, 2]) * exp31_plus)
    g2 = (eip * half * (n * root_np1 + 0.25 * q)
          * (eip * r[2, 3] - r[3, 2]) * exp31_minus)
    g3 = (-(2.0 / 3.0) * q
          * (r[2, 0] * eip * (n * n + n - 0.5) - (1.0 / 3.0) * half * r[3, 2]))
    g4 = -gam * n * root_np1 * r[2, 3] * eip
    out[2, 0] = pref31 * (g1 + g2 + g3 + g4)

    # rho_33.
    out[2, 2] = 0.5 * ((r[2, 2] + r[3, 3]) * ((n + 1.0) / big_m) * e_slow
                       + (r[2, 2] - r[3, 3]) * ((n + 1.0) / big_m) * e_fast)

    # rho_34 and rho_43.
    out[2, 3] = (0.5 * (r[2, 3] - eim * r[3, 2]) * e_slow
                 + 0.5 * (r[2, 3] + eim * r[3, 2]) * e_fast)
    out[3, 2] = (0.5 * (r[3, 2] - eip * r[2, 3]) * e_slow
                 + 0.5 * (r[3, 2] + eip * r[2, 3]) * e_fast)

    # rho_41.
    pref41 = 12.0 * e_gam / (n * root_np1 * gam * (12.0 * n * n + 12.0 * n - 1.0))
    mix41 = 0.5 * r[2, 2] + r[3, 3]
    h1 = ((1.0 / 3.0) * n * root_np1
          * (-0.5 * half * mix41 * big_m
             + (2.0 * r[2, 2] + r[3, 3]) * (n * n + n)
             + 0.25 * r[3, 3])
          * math.exp(-(gam + 4.0 * big_m) * tau))
    h2 = (-(1.0 / 3.0) * n * root_np1
          * (gam * mix41 * big_m
             + (2.0 * r[2, 2] + r[3, 3]) * (n * n + n)
             + 0.25 * r[3, 3])
          * n * math.exp(-(gam - 4.0 * big_m) * tau))
    h3 = big_m * (math.sqrt(gam) * r[3, 0] * (n * n - 1.0 / 12.0 + n)
                  * math.sqrt(2.0 * n * n + n)
                  + (4.0 / 3.0) * half * n * root_np1 * n * mix41)
    out[3, 0] = pref41 * (h1 + h2 + h3)

    # rho_44.
    out[3, 3] = ((0.5 * r[3, 3] - (big_m / gam) * r[2, 2]) * e_fast
                 + (0.5 * r[3, 3] + (big_m / gam) * r[2, 2]) * e_slow)

    return out


def closed_form_general(rho0: DensityMatrix, bath: BathParams, t: float, *,
                        validate: bool = True, strict: bool = False,
                        tolerance: float = 1e-8
                        ) -> tuple[DensityMatrix, GeneralFormValidation | None]:
    """Tabulated general-N closed form, gated against the exact propagator.

    Returns the verbatim-transcribed state together with the validation
    report. The matrix is intentionally not invariant-checked: the point
    of the gate is to measure how far the transcribed expressions drift from
    the exact solution (several entries fail t=0 reconstruction; see
    GENERAL_FORM_KNOWN_DEVIATIONS). With ``strict`` the deviation raises
    instead of just being reported.
    """
    if bath.n_bar <= 0.0:
        raise SingularBath(
            f"general closed form needs n_bar > 0 strictly, got {bath.n_bar}"
        )
    if rho0.basis != BasisTag.DFS:
        raise ValueError("general closed form takes the initial state in the DFS basis")
    if t < 0.0:
        raise ValueError("t must be >= 0")

    mat = _general_entries(np.asarray(rho0.mat), bath, t)
    state = DensityMatrix(mat, BasisTag.DFS)
    report = None
    if validate:
        exact = ExactPropagator(rho0, bath).state_mat(t)
        dev = np.abs(mat - exact)
        max_dev = float(np.max(dev))
        report = GeneralFormValidation(
            deviations=dev,
            max_deviation=max_dev,
            tolerance=tolerance,
            passed=max_dev <= tolerance,
        )
        if strict and not report.passed:
            raise ValidationFailed(
                f"closed form deviates from exact propagator by {max_dev:.3e}",
                max_dev,
            )
    return state, report


def steady_time(bath: BathParams, decades: float = 20.0) -> float:
    """Time by which the slowest decaying mode has dropped by ~e^-decades.

    The decay rates are 2N+1 (coherences into the dark plane) and
    2(sqrt(N) -+ sqrt(N+1))^2 (population block); the population rate
    falls like 1/2N for large N, so scales based on 1/(2N+1) alone stop
    being conservative around N of order one.
    """
    n = bath.n_bar
    slow = min(2.0 * n + 1.0,
               2.0 * (math.sqrt(n + 1.0) - math.sqrt(n)) ** 2)
    return decades / (slow * bath.gamma)


