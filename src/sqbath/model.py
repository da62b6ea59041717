"""Physical objects: bath parameters, bases, states, and the Liouvillian.

Two two-level atoms couple to one common broadband squeezed vacuum
reservoir. In the interaction picture the master equation is a single
Lindblad dissipator

    drho/dt = (gamma/2) (2 S rho S^+ - S^+ S rho - rho S^+ S),

with collective jump operator

    S = sqrt(N+1) (sigma_1 + sigma_2) - sqrt(N) e^{i psi} (sigma_1^+ + sigma_2^+).

S has a two-dimensional null space (the decoherence-free subspace); the
four vectors phi_1..phi_4 built here extend it to an orthonormal basis in
which the dynamics takes its simplest form.

Standard basis ordering is |++>, |+->, |-+>, |--> with |+> the excited
single-atom state. All times are in units of 1/gamma with gamma folded
into the generator.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matkernel
from .errors import DegenerateBasis, InvalidCustom, InvalidEpsilon
from .matkernel import as_square_matrix

# Single-atom operators in the (|+>, |->) ordering.
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# Two-atom collective ladder operators.
LOWER_1 = np.kron(SIGMA_MINUS, np.eye(2))
LOWER_2 = np.kron(np.eye(2), SIGMA_MINUS)
RAISE_1 = LOWER_1.conj().T
RAISE_2 = LOWER_2.conj().T

SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y).real.astype(complex)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-8


class BasisTag(enum.Enum):
    """Which basis the entries of a 4x4 matrix refer to.

    STANDARD orders the product basis |++>, |+->, |-+>, |-->; DFS orders
    the collective basis phi_1, phi_2, phi_3, phi_4.
    """

    STANDARD = "standard"
    DFS = "dfs"


@dataclass(frozen=True)
class BathParams:
    """Squeezed-reservoir parameters.

    n_bar is the squeeze photon number N >= 0, psi the squeeze phase in
    radians, gamma the spontaneous emission rate. The squeeze correlation
    M = sqrt(N(N+1)) is always derived, never stored, so the minimal
    uncertainty relation between N and M cannot be violated.
    """

    n_bar: float
    psi: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.n_bar) or self.n_bar < 0.0:
            raise ValueError(f"n_bar must be finite and >= 0, got {self.n_bar}")
        if not math.isfinite(self.psi):
            raise ValueError("psi must be finite")
        if not math.isfinite(self.gamma) or self.gamma <= 0.0:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")

    @property
    def m(self) -> float:
        """Squeeze correlation sqrt(N(N+1))."""
        return math.sqrt(self.n_bar * (self.n_bar + 1.0))

    @property
    def squeeze_r(self) -> float:
        """Squeeze parameter r with N = sinh^2 r."""
        return math.asinh(math.sqrt(self.n_bar))


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, PSD matrix tagged with its basis."""

    mat: np.ndarray
    basis: BasisTag

    def __post_init__(self):
        m = as_square_matrix(self.mat, "density matrix")
        if m.shape[0] != 4:
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @staticmethod
    def validated(mat, basis: BasisTag, *, eig_tol: float = EIG_TOL) -> "DensityMatrix":
        """Construct and enforce Hermiticity, unit trace, and positivity."""
        m = as_square_matrix(mat, "density matrix")
        check_density_stack(m[None], eig_tol=eig_tol)
        return DensityMatrix(m, basis)

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def min_eigenvalue(self) -> float:
        return _min_eigenvalue(self.mat)


def check_density_stack(mats, *, eig_tol: float = EIG_TOL) -> None:
    """Check every matrix of a (T, n, n) stack as DensityMatrix.validated does.

    Hermiticity (relative Frobenius defect), unit trace and positivity of
    the Hermitian part are tested for the whole stack at once, with one
    batched eigvalsh; the first failing state raises ValueError with the
    message of its first failing check.
    """
    m = np.asarray(mats)
    mh = m.conj().swapaxes(-1, -2)
    defect = (np.linalg.norm(m - mh, axis=(-2, -1))
              / np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1))))
    tr = np.trace(m, axis1=-2, axis2=-1)
    w = np.linalg.eigvalsh(0.5 * (m + mh))[:, 0]
    bad_herm = defect > HERM_TOL
    bad_trace = np.abs(tr - 1.0) > TRACE_TOL
    bad = np.flatnonzero(bad_herm | bad_trace | (w < -eig_tol))
    if bad.size:
        k = int(bad[0])
        if bad_herm[k]:
            raise ValueError(f"density matrix not Hermitian (defect {defect[k]:.3e})")
        if bad_trace[k]:
            raise ValueError(f"density matrix trace {tr[k]} is not 1")
        raise ValueError(f"density matrix has eigenvalue {w[k]:.3e} < -{eig_tol:.1e}")


def _min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of m (LAPACK eigvalsh)."""
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


@dataclass(frozen=True)
class Liouvillian:
    """16x16 generator acting on column-stacked density matrices."""

    mat: np.ndarray
    basis: BasisTag
    bath: BathParams

    def __post_init__(self):
        m = as_square_matrix(self.mat, "Liouvillian")
        if m.shape[0] != 16:
            raise ValueError(f"Liouvillian must be 16x16, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def apply(self, rho_mat: np.ndarray) -> np.ndarray:
        """Right-hand side of the master equation for one 4x4 state."""
        return matkernel.unvec(self.mat @ matkernel.vec(rho_mat), 4)


def lindblad_operator(bath: BathParams) -> np.ndarray:
    """Collective jump operator S in the standard basis.

    S annihilates phi_1 and phi_2 for every N, which is what makes
    span{phi_1, phi_2} decoherence-free.
    """
    root_np1 = math.sqrt(bath.n_bar + 1.0)
    root_n = math.sqrt(bath.n_bar)
    phase = np.exp(1j * bath.psi)
    return root_np1 * (LOWER_1 + LOWER_2) - root_n * phase * (RAISE_1 + RAISE_2)


def dfs_basis_vectors(bath: BathParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The collective basis phi_1..phi_4 as standard-basis unit vectors.

    phi_1 and phi_2 span the null space of S; phi_3, phi_4 complete the
    orthonormal set:

        phi_1 ~ N |++> + M e^{-i psi} |-->,
        phi_2 = (|-+> - |+->)/sqrt(2),
        phi_3 = (|-+> + |+->)/sqrt(2),
        phi_4 ~ M |++> - N e^{-i psi} |-->.

    At N = 0 the shared normalization 1/sqrt(N^2 + M^2) is 0/0; the
    analytic limits phi_1 = |-->, phi_4 = |++> are used instead, keeping
    the basis continuous in N. Each vector is phase-fixed so that its
    largest-magnitude amplitude (ties broken toward the highest index) is
    real positive, which makes basis changes deterministic.
    """
    n = bath.n_bar
    m = bath.m
    e_pp = np.array([1, 0, 0, 0], dtype=complex)
    e_pm = np.array([0, 1, 0, 0], dtype=complex)
    e_mp = np.array([0, 0, 1, 0], dtype=complex)
    e_mm = np.array([0, 0, 0, 1], dtype=complex)

    phase = np.exp(-1j * bath.psi)
    if n == 0.0:
        phi1 = e_mm.copy()
        phi4 = e_pp.copy()
    else:
        norm = math.sqrt(n * n + m * m)
        phi1 = (n * e_pp + m * phase * e_mm) / norm
        phi4 = (m * e_pp - n * phase * e_mm) / norm
    phi2 = (e_mp - e_pm) / math.sqrt(2.0)
    phi3 = (e_mp + e_pm) / math.sqrt(2.0)

    out = []
    for k, v in enumerate((phi1, phi2, phi3, phi4)):
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            raise DegenerateBasis(f"phi_{k + 1} degenerated to a zero vector")
        v = v / nv
        mags = np.abs(v)
        top = np.max(mags)
        # Highest index among the maximal-magnitude amplitudes; keeps the
        # conventional signs of phi_2 and phi_3.
        idx = int(np.nonzero(mags >= top - 1e-12)[0][-1])
        amp = v[idx]
        v = v * (abs(amp) / amp)
        v.setflags(write=False)
        out.append(v)
    return tuple(out)


@functools.lru_cache(maxsize=64)
def dfs_unitary(bath: BathParams) -> np.ndarray:
    """Unitary whose columns are phi_1..phi_4 (standard components).

    Cached per bath; the returned array is read-only, so callers share it.
    """
    u = np.column_stack(dfs_basis_vectors(bath))
    u.setflags(write=False)
    return u


def change_basis(rho: DensityMatrix, target: BasisTag, bath: BathParams) -> DensityMatrix:
    """Re-express a density matrix in the other basis.

    Standard -> DFS is rho' = U^+ rho U with U = dfs_unitary(bath);
    the inverse direction applies the conjugate transform. Involutive up
    to roundoff and spectrum-preserving.
    """
    if rho.basis == target:
        return rho
    u = dfs_unitary(bath)
    if target == BasisTag.DFS:
        out = u.conj().T @ rho.mat @ u
    else:
        out = u @ rho.mat @ u.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T), target)


def build_liouvillian(bath: BathParams, basis: BasisTag = BasisTag.DFS) -> Liouvillian:
    """Generator L with L vec(rho) = vec((gamma/2)(2 S rho S^+ - {S^+S, rho})).

    Built directly in the requested basis from the transformed jump
    operator, under the project-wide column-stacking convention:
    vec(A X B) = (B^T kron A) vec(X).
    """
    s = lindblad_operator(bath)
    if basis == BasisTag.DFS:
        u = dfs_unitary(bath)
        s = u.conj().T @ s @ u
    sd = s.conj().T
    sds = sd @ s
    eye = np.eye(4, dtype=complex)
    l_mat = 0.5 * bath.gamma * (
        2.0 * np.kron(s.conj(), s)
        - np.kron(eye, sds)
        - np.kron(sds.T, eye)
    )
    return Liouvillian(l_mat, basis, bath)


_PURE_KINDS = ("phi1", "phi2", "phi3", "phi4", "psi1", "psi2")
_ALL_KINDS = _PURE_KINDS + ("custom",)


@dataclass(frozen=True)
class InitialStateSpec:
    """Which initial state to evolve.

    phi1..phi4 are the collective basis states; psi1/psi2 are the
    one-parameter superpositions

        psi1(eps) = eps phi_1 + sqrt(1-eps^2) phi_4,
        psi2(eps) = eps phi_2 + sqrt(1-eps^2) phi_3;

    custom wraps an arbitrary valid density matrix.
    """

    kind: str
    eps: float | None = None
    custom: np.ndarray | None = field(default=None, repr=False)
    custom_basis: BasisTag | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown initial state kind {self.kind!r}")
        if self.kind in ("psi1", "psi2"):
            if self.eps is None or not (0.0 <= self.eps <= 1.0) or not math.isfinite(self.eps):
                raise InvalidEpsilon(f"eps must lie in [0, 1], got {self.eps}")
        if self.kind == "custom":
            if self.custom is None or self.custom_basis is None:
                raise InvalidCustom("custom spec needs a matrix and a basis tag")

    @classmethod
    def phi(cls, k: int) -> "InitialStateSpec":
        return cls(kind=f"phi{k}")

    @classmethod
    def psi1(cls, eps: float) -> "InitialStateSpec":
        return cls(kind="psi1", eps=eps)

    @classmethod
    def psi2(cls, eps: float) -> "InitialStateSpec":
        return cls(kind="psi2", eps=eps)

    @classmethod
    def custom_state(cls, mat, basis: BasisTag) -> "InitialStateSpec":
        return cls(kind="custom", custom=np.asarray(mat, dtype=complex), custom_basis=basis)

    def label(self) -> str:
        if self.kind in ("psi1", "psi2"):
            return f"{self.kind}(eps={self.eps:g})"
        return self.kind


def state_vector(spec: InitialStateSpec, bath: BathParams) -> np.ndarray:
    """Standard-basis unit vector for a pure initial-state spec."""
    if spec.kind == "custom":
        raise InvalidCustom("custom specs are matrices, not vectors")
    phis = dfs_basis_vectors(bath)
    if spec.kind.startswith("phi"):
        return np.array(phis[int(spec.kind[3]) - 1])
    eps = float(spec.eps)
    weight = math.sqrt(max(0.0, 1.0 - eps * eps))
    if spec.kind == "psi1":
        v = eps * phis[0] + weight * phis[3]
    else:
        v = eps * phis[1] + weight * phis[2]
    return v / np.linalg.norm(v)


def initial_state(spec: InitialStateSpec, bath: BathParams,
                  basis: BasisTag = BasisTag.DFS) -> DensityMatrix:
    """Density matrix for a spec, expressed in the requested basis.

    All non-custom specs produce pure states (projectors onto
    ``state_vector``). Custom matrices are validated and re-tagged.
    """
    if spec.kind == "custom":
        try:
            rho = DensityMatrix.validated(spec.custom, spec.custom_basis)
        except ValueError as exc:
            raise InvalidCustom(str(exc)) from exc
        return change_basis(rho, basis, bath)
    v = state_vector(spec, bath)
    rho = DensityMatrix(np.outer(v, v.conj()), BasisTag.STANDARD)
    return change_basis(rho, basis, bath)
