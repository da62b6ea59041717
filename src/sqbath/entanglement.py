"""Entanglement measures for the two-qubit state.

Concurrence is computed four ways that must agree wherever they overlap:
the pure-state overlap |<psi|sigma_y (x) sigma_y|psi*>|, the generic
mixed-state formula max{0, sqrt(l1)-sqrt(l2)-sqrt(l3)-sqrt(l4)}, the
X-state closed form in the standard basis, and the collective-basis
closed forms for the trajectory families. The partial-transpose minimum
eigenvalue supplies the separability criterion, which for two qubits is
necessary and sufficient.

The generic route uses Wootters' tau form (PRL 80, 2245, 1998): with
rho = W W^dagger, the sqrt(l_i) are the singular values of
W^T (sigma_y (x) sigma_y) W. That takes one pivoted Cholesky
factorization of rho and one SVD, never squares a square root, and so
resolves sqrt(l_i) far below sqrt(machine epsilon) without a rank-noise
floor. The generic, X-state and collective-basis closed-form kernels
work on (T, 4, 4) stacks; the single-state functions apply them to a
stack of one, so a scanned grid and a refinement evaluator share one
code path. The partial-transpose
criterion is stacked the same way (ppt_min_eigenvalues).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, NotPSD, NotXState, PatternMismatch
from .model import SPIN_FLIP, BasisTag, BathParams, DensityMatrix, dfs_unitary

BRANCH_GENERIC = "generic"
BRANCH_X_C1 = "xstate-c1"
BRANCH_X_C2 = "xstate-c2"
BRANCH_DFS_C1 = "dfs-c1"
BRANCH_DFS_C2 = "dfs-c2"
BRANCH_ZERO = "zero"

PPT_TOL = 1e-10
PATTERN_TOL = 1e-10

# Density matrices are accepted down to the RK4 positivity floor.
_PSD_TOL = 1e-6
# Relative rounding level of a Schur-complement diagonal entry in _psd_factor.
_PIVOT_RTOL = 64.0 * np.finfo(float).eps

# Stacks are measured in blocks of this many states, which bounds the
# LAPACK workspace and temporaries whatever the length of the grid.
_BLOCK = 64

_X_PATTERN = {(0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 3)}
_OFF_X = np.array([[(i, j) not in _X_PATTERN for j in range(4)] for i in range(4)])


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value plus which formula branch produced it.

    ``raw`` is the signed argument of the final max{0, ...}: negative in
    dead zones, which is what separates genuine sudden death from
    asymptotic decay through any small threshold. raw_candidates carries
    the (C1, C2) pair when a closed form was used, None for the generic
    route.
    """

    value: float
    branch: str
    raw: float = 0.0
    raw_candidates: tuple[float, float] | None = None


@dataclass(frozen=True)
class PPTResult:
    """Minimum eigenvalue of the partial transpose and its verdict."""

    min_eigenvalue: float
    entangled: bool


def _to_standard(mats, basis: BasisTag, bath: BathParams | None) -> np.ndarray:
    """A 4x4 matrix or a (T, 4, 4) stack re-expressed in the standard basis."""
    if basis == BasisTag.STANDARD:
        return np.asarray(mats)
    if bath is None:
        raise ValueError("bath parameters are required to leave the DFS basis")
    u = dfs_unitary(bath)
    return u @ mats @ u.conj().T


@functools.lru_cache(maxsize=64)
def _dfs_spin_flip(bath: BathParams) -> np.ndarray:
    u = dfs_unitary(bath)
    flip = u.T @ SPIN_FLIP @ u
    flip.setflags(write=False)
    return flip


def spin_flip(rho_mat: np.ndarray) -> np.ndarray:
    """rho_tilde = (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y)."""
    return SPIN_FLIP @ rho_mat.conj() @ SPIN_FLIP


def concurrence_pure(psi, basis: BasisTag = BasisTag.STANDARD,
                     bath: BathParams | None = None) -> float:
    """Concurrence of a pure state, |<psi | sigma_y(x)sigma_y | psi*>|."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != 4:
        raise ValueError("need a two-qubit state vector of length 4")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalized(f"state vector norm {norm} is not 1")
    if basis == BasisTag.DFS:
        if bath is None:
            raise ValueError("bath parameters are required to leave the DFS basis")
        v = dfs_unitary(bath) @ v
    val = abs(np.conj(v) @ SPIN_FLIP @ np.conj(v))
    return float(min(1.0, val))


def _psd_factor(rho) -> np.ndarray:
    """W with W W^dagger = rho for a (T, 4, 4) stack of PSD matrices.

    Outer-product Cholesky with diagonal pivoting: each step takes the
    largest remaining diagonal entry d_p as pivot, appends the column
    a[:, p] / sqrt(d_p) to W, and subtracts its outer product. A
    diagonal entry counts as zero once it is within 64 eps of its own
    starting value, which is the rounding level of that Schur complement
    entry, so tiny populations keep full relative accuracy and exact
    zeros (the X pattern, say) are never mixed with rounding noise.
    Raises NotPSD when the unfactored remainder exceeds 1e-6 anywhere,
    which every matrix with an eigenvalue below -4e-6 does.
    """
    r = np.asarray(rho, dtype=complex)
    a = r + r.conj().transpose(0, 2, 1)
    a *= 0.5
    rows = np.arange(a.shape[0])
    diag = a.diagonal(axis1=1, axis2=2).real  # live view, follows the updates
    floor = _PIVOT_RTOL * np.abs(diag)
    w = np.zeros_like(a)
    for k in range(4):
        d = np.where(diag > floor, diag, 0.0)
        p = d.argmax(axis=1)
        root = np.sqrt(d[rows, p])
        root[root == 0.0] = np.inf  # unresolved pivot: zero column
        col = a[rows, :, p] / root[:, None]
        w[:, :, k] = col
        # Row and column p drop to rounding level, below the floor.
        a -= col[:, :, None] * col[:, None, :].conj()
    if a.size:
        rest = float(np.abs(a).max())
        if rest > _PSD_TOL:
            raise NotPSD(f"not positive semidefinite: {rest:.3e} left unfactored")
    return w


def wootters_raw(mats, basis: BasisTag = BasisTag.STANDARD,
                 bath: BathParams | None = None) -> np.ndarray:
    """Signed generic concurrence argument for a (T, 4, 4) stack of states.

    Entry k is sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4) of state k, the
    sqrt(l_i) taken in descending order as the singular values of Wootters'
    tau matrix W^T F W with W = _psd_factor(rho) and F the spin flip
    sigma_y (x) sigma_y written in the stack's basis (U^T F U for DFS
    states, U = dfs_unitary(bath)). The states themselves are never
    rotated, so entries that the collective basis resolves to full
    relative accuracy keep it.
    """
    if basis == BasisTag.STANDARD:
        flip = SPIN_FLIP
    elif bath is None:
        raise ValueError("bath parameters are required to leave the DFS basis")
    else:
        flip = _dfs_spin_flip(bath)
    mats = np.asarray(mats)
    out = np.empty(mats.shape[0])
    for k in range(0, mats.shape[0], _BLOCK):
        w = _psd_factor(mats[k:k + _BLOCK])
        s = np.linalg.svd(w.transpose(0, 2, 1) @ flip @ w, compute_uv=False)
        out[k:k + _BLOCK] = s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3]
    return out


def concurrence_wootters(rho: DensityMatrix,
                         bath: BathParams | None = None) -> ConcurrenceResult:
    """Generic mixed-state concurrence, wootters_raw on a stack of one:

        C = max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)},

    the l_i being the eigenvalues of rho rho_tilde in descending order.
    """
    c = float(wootters_raw(rho.mat[None], rho.basis, bath)[0])
    value = max(0.0, c)
    return ConcurrenceResult(
        value=min(1.0, value),
        branch=BRANCH_GENERIC if value > 0.0 else BRANCH_ZERO,
        raw=c,
    )


def xstate_raw(mats, basis: BasisTag = BasisTag.STANDARD,
               bath: BathParams | None = None,
               check_structure: bool = True) -> np.ndarray:
    """(C1, C2) of the X-state closed form for a (T, 4, 4) stack of states.

    DFS stacks are rotated to the standard basis, where the X pattern is
    defined. Returns a (T, 2) array; the signed concurrence argument is
    its row maximum. See concurrence_xstate for the formulas and the
    structure check.
    """
    mats = np.asarray(mats)
    out = np.empty((mats.shape[0], 2))
    for k in range(0, mats.shape[0], _BLOCK):
        m = _to_standard(mats[k:k + _BLOCK], basis, bath)
        if check_structure:
            mass = float(np.abs(m[:, _OFF_X]).max())
            if mass > PATTERN_TOL:
                raise NotXState(f"off-pattern entry of magnitude {mass:.3e}")
        p = np.maximum(0.0, np.diagonal(m, axis1=1, axis2=2).real)
        out[k:k + _BLOCK, 0] = 2.0 * (np.abs(m[:, 1, 2]) - np.sqrt(p[:, 0] * p[:, 3]))
        out[k:k + _BLOCK, 1] = 2.0 * (np.abs(m[:, 0, 3]) - np.sqrt(p[:, 1] * p[:, 2]))
    return out


def concurrence_xstate(rho: DensityMatrix, check_structure: bool = True,
                       bath: BathParams | None = None) -> ConcurrenceResult:
    """Closed-form concurrence for standard-basis X states.

    For states whose only nonzero entries sit on the diagonal and
    anti-diagonal,

        C1 = 2 (sqrt(r23 r32) - sqrt(r11 r44)),
        C2 = 2 (sqrt(r14 r41) - sqrt(r22 r33)),

    and C = max{0, C1, C2}. Off-pattern weight above 1e-10 raises
    NotXState when the structure check is on; below that it is ignored.
    """
    c1, c2 = (float(c) for c in
              xstate_raw(rho.mat[None], rho.basis, bath, check_structure)[0])
    raw = max(c1, c2)
    value = max(0.0, raw)
    if value == 0.0:
        branch = BRANCH_ZERO
    else:
        branch = BRANCH_X_C1 if c1 >= c2 else BRANCH_X_C2
    return ConcurrenceResult(value=min(1.0, value), branch=branch, raw=raw,
                             raw_candidates=(c1, c2))


_PSI1_PATTERN = {(0, 0), (0, 3), (3, 0), (2, 2), (3, 3)}
_PSI2_PATTERN = _PSI1_PATTERN | {(1, 1), (1, 2), (2, 1)}
_FAMILY_PATTERNS = {
    family: np.array([[(i, j) in pattern for j in range(4)] for i in range(4)])
    for family, pattern in (("psi1", _PSI1_PATTERN), ("psi2", _PSI2_PATTERN))
}


def dfs_closed_raw(mats, bath: BathParams, family: str) -> np.ndarray:
    """(C1, C2) of the collective-basis closed form for a (T, 4, 4) DFS stack.

    Returns a (T, 2) array; the signed concurrence argument is its row
    maximum. Off-pattern weight or an imaginary pattern entry above
    PATTERN_TOL anywhere in the stack raises PatternMismatch, naming the
    largest. See concurrence_dfs_closed for the formulas.
    """
    if family not in _FAMILY_PATTERNS:
        raise ValueError(f"unknown family {family!r}")
    m = np.asarray(mats)
    pattern = _FAMILY_PATTERNS[family]
    mass = float(np.abs(m[:, ~pattern]).max(initial=0.0))
    if mass > PATTERN_TOL:
        raise PatternMismatch(f"off-pattern entry of magnitude {mass:.3e}")
    imag = float(np.abs(m[:, pattern].imag).max(initial=0.0))
    if imag > PATTERN_TOL:
        raise PatternMismatch(f"pattern entries must be real, found imag {imag:.3e}")

    n = bath.n_bar
    big_m = bath.m
    g = 2.0 * n + 1.0
    r11 = m[:, 0, 0].real
    r33 = m[:, 2, 2].real
    r44 = m[:, 3, 3].real
    r14 = m[:, 0, 3].real

    out = np.empty((m.shape[0], 2))
    if family == "psi1":
        f1 = np.maximum(0.0, (r11 * n + r44 * (n + 1.0) + 2.0 * r14 * big_m) / g)
        f2 = np.maximum(0.0, (r44 * n + r11 * (n + 1.0) - 2.0 * r14 * big_m) / g)
        out[:, 0] = 2.0 * (0.5 * r33 - np.sqrt(f1) * np.sqrt(f2))
        out[:, 1] = 2.0 * (np.abs(big_m * (r11 - r44) + r14) / g - 0.5 * r33)
    else:
        r22 = m[:, 1, 1].real
        r23 = m[:, 1, 2].real
        f1 = np.maximum(0.0, (n * (r11 + r44) + r44 + 2.0 * r14 * big_m) / g)
        f2 = np.maximum(0.0, (n * (r11 + r44) + r11 - 2.0 * r14 * big_m) / g)
        out[:, 0] = np.abs(r33 - r22) - 2.0 * np.sqrt(f1) * np.sqrt(f2)
        prod = np.maximum(0.0, (r22 - 2.0 * r23 + r33) * (r22 + 2.0 * r23 + r33))
        out[:, 1] = (2.0 / g) * np.abs(big_m * (r11 - r44) + r14) - np.sqrt(prod)
    return out


def concurrence_dfs_closed(rho: DensityMatrix, bath: BathParams,
                           family: str) -> ConcurrenceResult:
    """Collective-basis closed forms for the two trajectory families.

    family "psi1" covers the phi_3 / phi_4 / psi1 solutions (nonzero
    entries r11, r14, r41, r33, r44); family "psi2" additionally allows
    r22, r23, r32. With M = sqrt(N(N+1)) and G = 2N+1:

        psi1:  C1 = 2 ( r33/2
                        - sqrt((r11 N + r44 (N+1) + 2 r14 M)/G)
                        * sqrt((r44 N + r11 (N+1) - 2 r14 M)/G) )
               C2 = 2 ( |M (r11 - r44) + r14| / G - r33/2 )

        psi2:  C1 = |r33 - r22|
                    - 2 sqrt((N (r11+r44) + r44 + 2 r14 M)/G)
                      * sqrt((N (r11+r44) + r11 - 2 r14 M)/G)
               C2 = (2/G) |M (r11 - r44) + r14|
                    - sqrt((r22 - 2 r23 + r33)(r22 + 2 r23 + r33))

    These are the standard-basis X-state forms re-expressed in collective
    entries, so they must agree with the generic route wherever the
    pattern holds. dfs_closed_raw on a stack of one.
    """
    if rho.basis != BasisTag.DFS:
        raise PatternMismatch("closed form takes the state in the DFS basis")
    c1, c2 = (float(c) for c in dfs_closed_raw(rho.mat[None], bath, family)[0])
    raw = max(c1, c2)
    value = max(0.0, raw)
    if value == 0.0:
        branch = BRANCH_ZERO
    else:
        branch = BRANCH_DFS_C1 if c1 >= c2 else BRANCH_DFS_C2
    return ConcurrenceResult(value=min(1.0, value), branch=branch, raw=raw,
                             raw_candidates=(c1, c2))


def partial_transpose(rho_mat: np.ndarray, subsystem: int = 2) -> np.ndarray:
    """Transpose one qubit's indices of a standard-basis 4x4 matrix."""
    a = np.asarray(rho_mat, dtype=complex).reshape(2, 2, 2, 2)
    if subsystem == 2:
        a = a.transpose(0, 3, 2, 1)
    elif subsystem == 1:
        a = a.transpose(2, 1, 0, 3)
    else:
        raise ValueError("subsystem must be 1 or 2")
    return a.reshape(4, 4)


def ppt_min_eigenvalues(mats, basis: BasisTag = BasisTag.STANDARD,
                        bath: BathParams | None = None) -> np.ndarray:
    """Minimum partial-transpose eigenvalue for a (T, 4, 4) stack of states.

    Each state is rotated to the standard basis and Hermitized, its second
    qubit is transposed (as partial_transpose with subsystem 2), and the
    smallest eigenvalue of each block of the stack comes from one LAPACK
    eigvalsh call.
    """
    mats = np.asarray(mats)
    out = np.empty(mats.shape[0])
    for k in range(0, mats.shape[0], _BLOCK):
        m = _to_standard(mats[k:k + _BLOCK], basis, bath)
        h = 0.5 * (m + m.conj().transpose(0, 2, 1))
        pt = h.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
        out[k:k + _BLOCK] = np.linalg.eigvalsh(pt)[:, 0]
    return out


def ppt_min_eigenvalue(rho: DensityMatrix,
                       bath: BathParams | None = None) -> PPTResult:
    """Separability criterion: minimum eigenvalue of the partial transpose.

    ppt_min_eigenvalues on a stack of one. For two qubits a negative value
    is necessary and sufficient for entanglement. ``entangled`` is a
    resolvability threshold, min < -PPT_TOL, not the sign test itself:
    close to a pure product state (the phi3 vacuum tail, say) the
    eigenvalue is about -C^2/4, so the flag turns off while the
    concurrence C is still about 2e-5. Which qubit is transposed does not
    change the spectrum's sign structure.
    """
    mn = float(ppt_min_eigenvalues(rho.mat[None], rho.basis, bath)[0])
    return PPTResult(min_eigenvalue=mn, entangled=mn < -PPT_TOL)
