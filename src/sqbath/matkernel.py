"""Dense complex linear algebra kernel for small matrices (4x4 and 16x16).

Everything here is deliberately self-contained: a cyclic Jacobi
eigensolver for Hermitian matrices, a PSD matrix square root built on it,
a scaling-and-squaring matrix exponential, and characteristic-polynomial
eigenvalues for general (non-Hermitian) matrices used as a cross-check.
The runtime paths take their eigenvalues from LAPACK on stacks of
states; Jacobi and the square root built on it are the scalar reference
that the tests check those routes against.

The vectorization convention is column-stacking (Fortran order) and is
fixed here once for the whole project.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD

# Off-diagonal Frobenius tolerance (relative) and sweep cap for Jacobi.
JACOBI_OFF_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100

# Hermiticity pre-check tolerance (relative Frobenius).
HERMITICITY_TOL = 1e-10

# Pade-13 scaling threshold for the matrix exponential (Higham's theta_13).
_EXPM_THETA13 = 5.371920351148152

_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def hermiticity_defect(a: np.ndarray) -> float:
    """Relative Frobenius distance from a to its Hermitian part."""
    a = np.asarray(a)
    return frobenius(a - a.conj().T) / max(1.0, frobenius(a))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(AXB) = (B^T (x) A) vec(X)."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if dim is None:
        dim = math.isqrt(v.size)
    if dim * dim != v.size:
        raise ValueError(f"cannot unvec length {v.size} into a square matrix")
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True)
class HermitianEigenResult:
    """Eigenvalues in ascending order and the unitary of eigenvectors.

    Columns of ``eigenvectors`` satisfy A v_k = w_k v_k with
    A = V diag(w) V^dagger up to kernel tolerance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a, *, herm_tol: float = HERMITICITY_TOL) -> HermitianEigenResult:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps.

    Scalar complex arithmetic is used in the inner loop; for n <= 16 this
    beats vectorized updates and keeps the routine dependency-free.

    Raises
    ------
    NotHermitian
        If the relative Hermiticity defect exceeds ``herm_tol``.
    NoConvergence
        If the off-diagonal norm has not dropped below tolerance after
        the sweep cap.
    """
    m = as_square_matrix(a)
    defect = hermiticity_defect(m)
    if defect > herm_tol:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {herm_tol:.1e}")

    n = m.shape[0]
    h = 0.5 * (m + m.conj().T)
    # Relative convergence scale: matrices of any magnitude (states decay
    # to ~1e-18 scale late in trajectories) must still be diagonalized.
    scale = frobenius(h) or 1.0
    # Nested lists of Python complex: low constant-factor inner loop.
    A = [[complex(h[i, j]) for j in range(n)] for i in range(n)]
    V = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]

    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        off2 = 0.0
        for i in range(n - 1):
            Ai = A[i]
            for j in range(i + 1, n):
                x = Ai[j]
                off2 += 2.0 * (x.real * x.real + x.imag * x.imag)
        if math.sqrt(off2) <= JACOBI_OFF_TOL * scale:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p][q]
                mag = abs(apq)
                if mag <= 1e-300:
                    continue
                phase = apq / mag
                app = A[p][p].real
                aqq = A[q][q].real
                tau = (aqq - app) / (2.0 * mag)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = sp.conjugate()
                for i in range(n):
                    aip = A[i][p]
                    aiq = A[i][q]
                    A[i][p] = c * aip - spc * aiq
                    A[i][q] = sp * aip + c * aiq
                for i in range(n):
                    api = A[p][i]
                    aqi = A[q][i]
                    A[p][i] = c * api - sp * aqi
                    A[q][i] = spc * api + c * aqi
                A[p][q] = 0j
                A[q][p] = 0j
                A[p][p] = complex(A[p][p].real)
                A[q][q] = complex(A[q][q].real)
                for i in range(n):
                    vip = V[i][p]
                    viq = V[i][q]
                    V[i][p] = c * vip - spc * viq
                    V[i][q] = sp * vip + c * viq
    if not converged:
        # Re-check once more; the loop may have exited by exhausting sweeps
        # right after reaching tolerance.
        off2 = sum(
            2.0 * (A[i][j].real ** 2 + A[i][j].imag ** 2)
            for i in range(n - 1)
            for j in range(i + 1, n)
        )
        if math.sqrt(off2) > JACOBI_OFF_TOL * scale:
            raise NoConvergence(
                f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps "
                f"(off-diagonal {math.sqrt(off2):.3e})"
            )

    w = np.array([A[i][i].real for i in range(n)])
    vmat = np.array(V, dtype=complex)
    order = np.argsort(w, kind="stable")
    return HermitianEigenResult(eigenvalues=w[order], eigenvectors=vmat[:, order])


def matrix_sqrt_psd(a, *, neg_tol: float = 1e-8) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-neg_tol, 0) are treated as roundoff and clamped to
    zero before the square root; anything below -neg_tol raises NotPSD.
    """
    res = herm_eig(a)
    w = res.eigenvalues
    if w[0] < -neg_tol:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -{neg_tol:.1e}")
    w = np.where(w < 0.0, 0.0, w)
    v = res.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T


def matrix_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t*A) by scaling-and-squaring with a Pade-13 core.

    Correctness is pinned by the semigroup property tests rather than by
    the particular core; the Higham theta_13 threshold keeps the local
    approximation error at machine level.
    """
    m = as_square_matrix(a) * float(t)
    n = m.shape[0]
    norm1 = float(np.max(np.sum(np.abs(m), axis=0))) if n else 0.0
    squarings = 0
    if norm1 > _EXPM_THETA13:
        squarings = int(math.ceil(math.log2(norm1 / _EXPM_THETA13)))
        m = m / (2.0 ** squarings)

    b = _PADE13_B
    ident = np.eye(n, dtype=complex)
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
             + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def eigvals_general(a) -> np.ndarray:
    """Eigenvalues of a general matrix via its characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recursion; roots from the
    companion-matrix solver. Used only as an independent cross-check of
    Hermitian-route spectra, never in the hot path.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    # Faddeev-LeVerrier: M_1 = A, c_1 = -tr(M_1); M_k = A(M_{k-1} + c_{k-1} I).
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.array(m)
    c = -np.trace(mk)
    coeffs[1] = c
    for k in range(2, n + 1):
        mk = m @ (mk + c * np.eye(n, dtype=complex))
        c = -np.trace(mk) / k
        coeffs[k] = c
    roots = np.roots(coeffs)
    return roots[np.argsort(-roots.real, kind="stable")]
