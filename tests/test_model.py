import math

import numpy as np
import pytest

from sqbath.errors import InvalidCustom, InvalidEpsilon
from sqbath.matkernel import herm_eig, unvec, vec
from sqbath.model import (
    LOWER_1,
    LOWER_2,
    RAISE_1,
    RAISE_2,
    BasisTag,
    BathParams,
    DensityMatrix,
    InitialStateSpec,
    build_liouvillian,
    change_basis,
    check_density_stack,
    dfs_basis_vectors,
    dfs_unitary,
    initial_state,
    lindblad_operator,
    state_vector,
)

from conftest import random_density_matrix, random_xstate

N_GRID = [0.0, 0.1, 0.5, 1.0, 5.0]
PSI_GRID = [0.0, math.pi / 3]


class TestBathParams:
    def test_derived_correlation(self):
        b = BathParams(2.0)
        assert b.m == pytest.approx(math.sqrt(6.0), abs=1e-15)

    def test_squeeze_parameter(self):
        b = BathParams(1.0)
        assert math.sinh(b.squeeze_r) ** 2 == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kwargs", [
        {"n_bar": -0.1},
        {"n_bar": math.inf},
        {"n_bar": 1.0, "gamma": 0.0},
        {"n_bar": 1.0, "gamma": -2.0},
        {"n_bar": 1.0, "psi": math.nan},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            BathParams(**kwargs)


class TestLindbladOperator:
    def test_vacuum_is_collective_lowering(self):
        s = lindblad_operator(BathParams(0.0))
        np.testing.assert_allclose(s, LOWER_1 + LOWER_2, atol=1e-15)

    @pytest.mark.parametrize("n", N_GRID)
    def test_annihilates_singlet(self, n):
        s = lindblad_operator(BathParams(n))
        phi2 = np.array([0, -1, 1, 0], dtype=complex) / math.sqrt(2)
        assert np.linalg.norm(s @ phi2) <= 1e-12

    def test_annihilates_phi1_at_n_one(self):
        # At N = 1 the dark superposition is (|++> + sqrt(2) |-->)/sqrt(3).
        s = lindblad_operator(BathParams(1.0))
        phi1 = np.array([1.0, 0.0, 0.0, math.sqrt(2.0)], dtype=complex)
        phi1 /= np.linalg.norm(phi1)
        assert np.linalg.norm(s @ phi1) <= 1e-12

    @pytest.mark.parametrize("n", N_GRID)
    @pytest.mark.parametrize("psi", PSI_GRID)
    def test_annihilates_dark_plane(self, rng, n, psi):
        bath = BathParams(n, psi=psi)
        s = lindblad_operator(bath)
        p1, p2, _, _ = dfs_basis_vectors(bath)
        for _ in range(5):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = c[0] * p1 + c[1] * p2
            v /= np.linalg.norm(v)
            assert np.linalg.norm(s @ v) <= 1e-12


class TestDfsBasis:
    @pytest.mark.parametrize("n", N_GRID)
    @pytest.mark.parametrize("psi", PSI_GRID)
    def test_orthonormal(self, n, psi):
        u = dfs_unitary(BathParams(n, psi=psi))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_vacuum_limits(self):
        p1, p2, p3, p4 = dfs_basis_vectors(BathParams(0.0))
        np.testing.assert_allclose(p1, [0, 0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(p4, [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(p2, np.array([0, -1, 1, 0]) / math.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(p3, np.array([0, 1, 1, 0]) / math.sqrt(2), atol=1e-15)

    def test_large_n_limit_is_bell(self):
        p1 = dfs_basis_vectors(BathParams(1e6))[0]
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.max(np.abs(p1 - bell)) <= 1e-6

    def test_phi4_structure(self):
        bath = BathParams(0.5)
        p4 = dfs_basis_vectors(bath)[3]
        norm = math.sqrt(bath.n_bar ** 2 + bath.m ** 2)
        np.testing.assert_allclose(
            p4, [bath.m / norm, 0, 0, -bath.n_bar / norm], atol=1e-14)


class TestChangeBasis:
    def test_phi2_projector_standard_form(self):
        bath = BathParams(0.3)
        proj = np.zeros((4, 4), dtype=complex)
        proj[1, 1] = 1.0
        rho = change_basis(DensityMatrix(proj, BasisTag.DFS), BasisTag.STANDARD, bath)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        np.testing.assert_allclose(rho.mat, expected, atol=1e-14)

    def test_maximally_mixed_invariant(self):
        bath = BathParams(0.7)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, BasisTag.STANDARD)
        out = change_basis(rho, BasisTag.DFS, bath)
        np.testing.assert_allclose(out.mat, np.eye(4) / 4.0, atol=1e-14)

    def test_involutive_and_spectrum_preserving(self, rng):
        bath = BathParams(0.4, psi=0.2)
        rho = random_density_matrix(rng)
        there = change_basis(rho, BasisTag.DFS, bath)
        back = change_basis(there, BasisTag.STANDARD, bath)
        assert np.max(np.abs(back.mat - rho.mat)) <= 1e-12
        np.testing.assert_allclose(
            herm_eig(there.mat).eigenvalues, herm_eig(rho.mat).eigenvalues, atol=1e-12)

    def test_psi1_vacuum_standard_entries(self):
        # psi1(eps) at N=0 maps to eps|--> + sqrt(1-eps^2)|++>: the standard
        # matrix has populations 1-eps^2 and eps^2 with coherence
        # eps sqrt(1-eps^2) on the (|++>, |-->) corner.
        eps = 0.28
        bath = BathParams(0.0)
        rho = initial_state(InitialStateSpec.psi1(eps), bath, BasisTag.STANDARD)
        w = math.sqrt(1.0 - eps * eps)
        assert rho.mat[0, 0].real == pytest.approx(1.0 - eps ** 2, abs=1e-14)
        assert rho.mat[3, 3].real == pytest.approx(eps ** 2, abs=1e-14)
        assert rho.mat[0, 3].real == pytest.approx(eps * w, abs=1e-14)


class TestLiouvillian:
    @pytest.mark.parametrize("n", N_GRID)
    def test_dark_states_are_fixed_points(self, n):
        bath = BathParams(n)
        l_std = build_liouvillian(bath, BasisTag.STANDARD)
        p1, p2, _, _ = dfs_basis_vectors(bath)
        for p in (p1, p2):
            proj = np.outer(p, p.conj())
            assert np.max(np.abs(l_std.mat @ vec(proj))) <= 1e-12

    def test_trace_preservation(self, rng):
        bath = BathParams(0.8)
        l_mat = build_liouvillian(bath, BasisTag.STANDARD).mat
        for _ in range(100):
            rho = random_density_matrix(rng)
            out = unvec(l_mat @ vec(rho.mat), 4)
            assert abs(np.trace(out)) <= 1e-12

    def test_hermiticity_preservation(self, rng):
        bath = BathParams(1.3, psi=0.5)
        l_mat = build_liouvillian(bath, BasisTag.DFS).mat
        for _ in range(20):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = 0.5 * (h + h.conj().T)
            out = unvec(l_mat @ vec(h), 4)
            assert np.linalg.norm(out - out.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(out))

    @pytest.mark.parametrize("n", [0.0, 0.3, 1.0])
    def test_dfs_basis_is_similarity_transform(self, n):
        bath = BathParams(n, psi=0.4)
        l_std = build_liouvillian(bath, BasisTag.STANDARD).mat
        l_dfs = build_liouvillian(bath, BasisTag.DFS).mat
        u = dfs_unitary(bath)
        w = np.kron(u.conj(), u)  # vec(U^+ X U) = W^+ vec(X)
        np.testing.assert_allclose(w.conj().T @ l_std @ w, l_dfs, atol=1e-12)

    def test_initial_decay_rate_of_phi3(self):
        # d rho_33/dt at t=0 is -2 for the phi3 projector at N=0, gamma=1.
        bath = BathParams(0.0)
        liou = build_liouvillian(bath, BasisTag.DFS)
        rho0 = initial_state(InitialStateSpec.phi(3), bath, BasisTag.DFS)
        rhs = liou.apply(rho0.mat)
        assert rhs[2, 2].real == pytest.approx(-2.0, abs=1e-12)

    def test_dissipator_expansion_in_damping_terms(self):
        # Expanding the single-operator dissipator gives (N+1)- and
        # N-weighted collective damping plus squeeze cross terms carrying
        # conjugate phases e^{+i psi} and e^{-i psi}.
        def dissipator(op):
            opd = op.conj().T
            return (2.0 * np.kron(opd.T, op)
                    - np.kron(np.eye(4), opd @ op)
                    - np.kron((opd @ op).T, np.eye(4)))

        def cross(op, phase):
            return phase * (2.0 * np.kron(op.T, op)
                            - np.kron(np.eye(4), op @ op)
                            - np.kron((op @ op).T, np.eye(4)))

        n, psi = 0.6, math.pi / 3
        bath = BathParams(n, psi=psi)
        j_minus = LOWER_1 + LOWER_2
        j_plus = RAISE_1 + RAISE_2
        m = bath.m
        expected = 0.5 * ((n + 1.0) * dissipator(j_minus) + n * dissipator(j_plus)
                          - m * cross(j_plus, np.exp(1j * psi))
                          - m * cross(j_minus, np.exp(-1j * psi)))
        l_std = build_liouvillian(bath, BasisTag.STANDARD).mat
        np.testing.assert_allclose(l_std, expected, atol=1e-12)
        # With both cross phases set to e^{+i psi} the generator differs:
        # the conjugate-phase pairing is essential for a valid Lindblad form.
        both_plus = 0.5 * ((n + 1.0) * dissipator(j_minus) + n * dissipator(j_plus)
                           - m * cross(j_plus, np.exp(1j * psi))
                           - m * cross(j_minus, np.exp(1j * psi)))
        assert np.max(np.abs(l_std - both_plus)) > 1e-3


class TestInitialState:
    def test_psi1_extremes(self):
        bath = BathParams(0.4)
        p1 = initial_state(InitialStateSpec.psi1(1.0), bath, BasisTag.DFS)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(p1.mat, expected, atol=1e-14)
        p3 = initial_state(InitialStateSpec.psi2(0.0), bath, BasisTag.DFS)
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        np.testing.assert_allclose(p3.mat, expected, atol=1e-14)

    @pytest.mark.parametrize("spec", [
        InitialStateSpec.phi(1), InitialStateSpec.phi(3),
        InitialStateSpec.psi1(0.3), InitialStateSpec.psi2(0.7),
    ])
    def test_pure(self, spec):
        rho = initial_state(spec, BathParams(0.2))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_psi1_concurrence(self):
        eps = 0.28
        v = state_vector(InitialStateSpec.psi1(eps), BathParams(0.0))
        from sqbath.entanglement import concurrence_pure
        c = concurrence_pure(v)
        assert c == pytest.approx(2.0 * eps * math.sqrt(1.0 - eps ** 2), abs=1e-12)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            InitialStateSpec.psi1(1.2)
        with pytest.raises(InvalidEpsilon):
            InitialStateSpec.psi2(-0.1)

    def test_invalid_custom(self):
        bad = np.eye(4, dtype=complex)  # trace 4
        with pytest.raises(InvalidCustom):
            initial_state(InitialStateSpec.custom_state(bad, BasisTag.STANDARD),
                          BathParams(0.0))

    def test_custom_roundtrip(self, rng):
        rho = random_density_matrix(rng)
        spec = InitialStateSpec.custom_state(rho.mat, BasisTag.STANDARD)
        out = initial_state(spec, BathParams(0.0), BasisTag.STANDARD)
        np.testing.assert_allclose(out.mat, rho.mat, atol=1e-14)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix.validated(m, BasisTag.STANDARD)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix.validated(np.eye(4) / 2.0, BasisTag.STANDARD)

    def test_rejects_negative(self):
        m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix.validated(m, BasisTag.STANDARD)

    def test_eigenvalue_checks_agree_with_jacobi(self, rng):
        # min_eigenvalue and validated's positivity check run LAPACK; the
        # Jacobi herm_eig is the scalar reference they must match.
        mats = [random_density_matrix(rng, n_pure=k).mat for k in (1, 2, 3, 4)
                for _ in range(10)]
        for _ in range(20):
            # Rank-deficient X states: one level emptied, or a block at the
            # edge of positivity (|r14| = sqrt(r11 r44)).
            x = np.array(random_xstate(rng).mat)
            k = int(rng.integers(4))
            x[k, :] = 0.0
            x[:, k] = 0.0
            mats.append(x / np.trace(x).real)
            y = np.array(random_xstate(rng).mat)
            y[0, 3] = np.sqrt(y[0, 0] * y[3, 3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            y[3, 0] = np.conj(y[0, 3])
            mats.append(y)
        for _ in range(10):
            # Unit-trace Hermitian matrices with a negative eigenvalue.
            a = random_density_matrix(rng).mat
            b = random_density_matrix(rng, n_pure=1).mat
            mats.append(1.5 * b - 0.5 * a)
        negative = 0
        for m in mats:
            ref = float(herm_eig(m).eigenvalues[0])
            assert abs(DensityMatrix(m, BasisTag.STANDARD).min_eigenvalue() - ref) <= 1e-12
            DensityMatrix.validated(m, BasisTag.STANDARD, eig_tol=max(0.0, -ref) + 1e-12)
            if ref < -1e-11:
                negative += 1
                with pytest.raises(ValueError, match="eigenvalue"):
                    DensityMatrix.validated(m, BasisTag.STANDARD, eig_tol=-ref - 1e-12)
        assert negative >= 5

    @pytest.mark.parametrize("corrupt,match", [("non-hermitian", "not Hermitian"),
                                               ("trace", "trace"),
                                               ("negative", "eigenvalue")])
    def test_stack_check_raises_validated_error(self, rng, corrupt, match):
        stack = np.array([random_xstate(rng).mat for _ in range(30)])
        check_density_stack(stack)
        if corrupt == "non-hermitian":
            stack[11, 0, 1] += 1e-6
        elif corrupt == "trace":
            stack[11] *= 1.001
        else:
            # A unit-trace X state with eigenvalue -1e-6 < -EIG_TOL.
            stack[11] = np.diag([0.5, 0.3, 0.2 + 1e-6, -1e-6])
        with pytest.raises(ValueError, match=match) as single:
            DensityMatrix.validated(stack[11], BasisTag.STANDARD)
        with pytest.raises(ValueError) as stacked:
            check_density_stack(stack)
        assert str(stacked.value) == str(single.value)

    def test_stack_check_reports_first_failing_state(self, rng):
        stack = np.array([random_xstate(rng).mat for _ in range(10)])
        stack[7, 0, 1] = 0.3
        stack[4] *= 2.0
        with pytest.raises(ValueError, match="trace"):
            check_density_stack(stack)

    def test_immutable(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, BasisTag.STANDARD)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 2.0
