import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbath.dynamics import ExactPropagator, closed_form_vacuum
from sqbath.entanglement import (
    BRANCH_ZERO,
    concurrence_dfs_closed,
    dfs_closed_raw,
    concurrence_pure,
    concurrence_wootters,
    concurrence_xstate,
    partial_transpose,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    spin_flip,
    wootters_raw,
    xstate_raw,
)
from sqbath.errors import NotNormalized, NotPSD, NotXState, PatternMismatch
from sqbath.matkernel import eigvals_general, herm_eig, matrix_sqrt_psd
from sqbath.model import (
    BasisTag,
    BathParams,
    DensityMatrix,
    InitialStateSpec,
    change_basis,
    dfs_basis_vectors,
    dfs_unitary,
    initial_state,
    state_vector,
)

from conftest import bell_phi_plus, random_density_matrix, random_xstate


def vacuum_psi1_concurrence(eps: float, t: float) -> float:
    """Analytic concurrence of the psi1 family at N = 0."""
    w2 = 1.0 - eps * eps
    return max(0.0, 2.0 * (eps * math.sqrt(w2) * math.exp(-t)
                           - t * math.exp(-2.0 * t) * w2))


class TestPure:
    def test_product_state(self):
        assert concurrence_pure([1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_singlet_maximal(self):
        phi2 = np.array([0, -1, 1, 0]) / math.sqrt(2)
        assert concurrence_pure(phi2) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0.1, 0.5, 1.0, 5.0])
    def test_phi1_formula(self, n):
        bath = BathParams(n)
        c = concurrence_pure(dfs_basis_vectors(bath)[0])
        assert c == pytest.approx(2.0 * bath.m / (2.0 * n + 1.0), abs=1e-12)

    def test_phi1_at_half(self):
        c = concurrence_pure(dfs_basis_vectors(BathParams(0.5))[0])
        assert c == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_dfs_basis_input(self):
        bath = BathParams(0.4)
        c = concurrence_pure([0, 1, 0, 0], basis=BasisTag.DFS, bath=bath)
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            concurrence_pure([1, 1, 0, 0])

    def test_agrees_with_mixed_route_on_projectors(self, rng):
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = DensityMatrix(np.outer(v, v.conj()), BasisTag.STANDARD)
            assert abs(concurrence_pure(v) - concurrence_wootters(rho).value) <= 1e-10


class TestWootters:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, BasisTag.STANDARD)
        res = concurrence_wootters(rho)
        assert res.value == 0.0
        assert res.branch == BRANCH_ZERO
        assert res.raw < 0.0

    def test_bell_projector(self):
        assert concurrence_wootters(bell_phi_plus()).value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.2, 0.5, 2.0])
    def test_vacuum_psi1_matches_analytic(self, t):
        eps = 0.28
        bath = BathParams(0.0)
        state = closed_form_vacuum(InitialStateSpec.psi1(eps), bath, t)
        got = concurrence_wootters(state, bath).value
        assert got == pytest.approx(vacuum_psi1_concurrence(eps, t), abs=1e-12)

    def test_analytic_formula_grid(self):
        # Explicit monotone check of the analytic concurrence against the
        # matrix route over the eps and t grids.
        bath = BathParams(0.0)
        for eps in np.arange(0.1, 0.95, 0.1):
            spec = InitialStateSpec.psi1(float(eps))
            prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
            for t in np.arange(0.0, 5.01, 0.1):
                got = concurrence_wootters(prop.state_at(float(t)), bath).value
                assert abs(got - vacuum_psi1_concurrence(float(eps), float(t))) <= 1e-9

    def test_hermitian_route_matches_characteristic_polynomial(self, rng):
        # The l_i used in the concurrence equal the eigenvalues of the
        # non-Hermitian product rho rho_tilde.
        for _ in range(20):
            rho = random_density_matrix(rng)
            m = rho.mat
            root = matrix_sqrt_psd(m)
            r = root @ spin_flip(m) @ root
            herm_route = np.sort(herm_eig(0.5 * (r + r.conj().T)).eigenvalues)
            general = np.sort(eigvals_general(m @ spin_flip(m)).real)
            np.testing.assert_allclose(herm_route, general, atol=1e-9)

    def test_local_unitary_invariance(self, rng):
        def random_su2():
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            return np.array([[a[0], -np.conj(a[1])], [a[1], np.conj(a[0])]])

        for _ in range(10):
            rho = random_density_matrix(rng)
            u = np.kron(random_su2(), random_su2())
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T, BasisTag.STANDARD)
            assert abs(concurrence_wootters(rotated).value
                       - concurrence_wootters(rho).value) <= 1e-10

    def test_range(self, rng):
        for _ in range(50):
            res = concurrence_wootters(random_density_matrix(rng))
            assert 0.0 <= res.value <= 1.0


@st.composite
def rank_deficient_xstates(draw):
    """Standard-basis X states with one population in [1e-14, 1e-4].

    Coherence magnitudes are drawn up to their PSD bound, inclusive, so
    many states are rank-deficient in one or both 2x2 blocks.
    """
    small = 10.0 ** draw(st.floats(-14.0, -4.0))
    pops = [draw(st.floats(0.05, 1.0)) for _ in range(3)]
    pops = [(1.0 - small) * p / sum(pops) for p in pops]
    pops.insert(draw(st.integers(0, 3)), small)
    fraction = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
    phase = st.floats(0.0, 2.0 * math.pi)
    a = draw(fraction) * math.sqrt(pops[0] * pops[3]) * np.exp(1j * draw(phase))
    b = draw(fraction) * math.sqrt(pops[1] * pops[2]) * np.exp(1j * draw(phase))
    m = np.diag(np.array(pops, dtype=complex))
    m[0, 3], m[3, 0] = a, np.conj(a)
    m[1, 2], m[2, 1] = b, np.conj(b)
    return DensityMatrix(m, BasisTag.STANDARD)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rank_deficient_xstates())
def test_generic_matches_xstate_on_rank_deficient_states(rho):
    # The tau form resolves sqrt(l_i) far below 1e-8, where a rank-noise
    # floor on the l_i would drop terms of order 1e-6.
    x = concurrence_xstate(rho).value
    if x > 0.0:
        assert abs(concurrence_wootters(rho).value - x) <= 1e-10


class TestStacks:
    def test_scalar_is_stack_of_one(self, rng):
        stack = np.array([random_density_matrix(rng).mat for _ in range(150)])
        raw = wootters_raw(stack)
        assert raw.shape == (150,)
        # Same kernel either way; only SIMD lane assignment can differ.
        for m, r in zip(stack, raw):
            assert abs(concurrence_wootters(DensityMatrix(m, BasisTag.STANDARD)).raw - r) <= 1e-14

    def test_xstate_stack(self, rng):
        states = [random_xstate(rng) for _ in range(20)]
        pairs = xstate_raw(np.array([s.mat for s in states]))
        for s, pair in zip(states, pairs):
            np.testing.assert_allclose(concurrence_xstate(s).raw_candidates, pair,
                                       rtol=0.0, atol=1e-15)

    def test_xstate_stack_structure_check(self, rng):
        stack = np.array([random_xstate(rng).mat for _ in range(3)])
        stack[1, 0, 1] = stack[1, 1, 0] = 1e-6
        with pytest.raises(NotXState):
            xstate_raw(stack)
        assert xstate_raw(stack, check_structure=False).shape == (3, 2)

    def test_rejects_non_psd(self):
        stack = np.array([np.eye(4) / 4.0, np.diag([0.6, 0.3, 0.2, -0.1])],
                         dtype=complex)
        with pytest.raises(NotPSD):
            wootters_raw(stack)


class TestXState:
    def test_bell_branch(self):
        res = concurrence_xstate(bell_phi_plus())
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.branch == "xstate-c2"
        assert res.raw_candidates[1] == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_zero(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, BasisTag.STANDARD)
        res = concurrence_xstate(rho)
        assert res.value == 0.0
        assert res.raw_candidates == (-0.5, -0.5)

    def test_matches_generic_on_random_xstates(self, rng):
        for _ in range(500):
            rho = random_xstate(rng)
            assert abs(concurrence_xstate(rho).value
                       - concurrence_wootters(rho).value) <= 1e-10

    def test_structure_check(self, rng):
        rho = random_density_matrix(rng)  # generically not an X state
        with pytest.raises(NotXState):
            concurrence_xstate(rho)
        assert concurrence_xstate(rho, check_structure=False).value >= 0.0


class TestDfsClosed:
    @pytest.mark.parametrize("n", [0.1, 0.5, 1.0])
    def test_phi1_projector(self, n):
        bath = BathParams(n)
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = 1.0
        rho = DensityMatrix(proj, BasisTag.DFS)
        res = concurrence_dfs_closed(rho, bath, "psi1")
        assert res.value == pytest.approx(2.0 * bath.m / (2.0 * n + 1.0), abs=1e-12)

    def test_phi3_initial_maximal(self):
        bath = BathParams(0.5)
        proj = np.zeros((4, 4), dtype=complex)
        proj[2, 2] = 1.0
        rho = DensityMatrix(proj, BasisTag.DFS)
        assert concurrence_dfs_closed(rho, bath, "psi1").value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
    def test_psi1_initial_value_formula(self, n, eps):
        bath = BathParams(n)
        rho = initial_state(InitialStateSpec.psi1(eps), bath, BasisTag.DFS)
        got = concurrence_dfs_closed(rho, bath, "psi1").value
        m = bath.m
        expected = max(0.0, abs(2.0 * eps * math.sqrt(1.0 - eps ** 2)
                                + 4.0 * m * (eps ** 2 - 0.5)) / (2.0 * n + 1.0))
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("family,spec", [
        ("psi1", InitialStateSpec.phi(3)),
        ("psi1", InitialStateSpec.phi(4)),
        ("psi1", InitialStateSpec.psi1(0.3)),
        ("psi2", InitialStateSpec.psi2(0.4)),
        ("psi2", InitialStateSpec.psi2(0.7)),
    ])
    @pytest.mark.parametrize("n", [0.0, 0.1, 1.0])
    def test_matches_generic_along_trajectories(self, family, spec, n):
        bath = BathParams(n)
        prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
        for t in np.linspace(0.0, 4.0, 21):
            state = prop.state_at(float(t))
            closed = concurrence_dfs_closed(state, bath, family).value
            generic = concurrence_wootters(state, bath).value
            assert abs(closed - generic) <= 1e-9

    def test_pattern_mismatch(self, rng):
        bath = BathParams(0.5)
        rho = random_density_matrix(rng, BasisTag.DFS)
        with pytest.raises(PatternMismatch):
            concurrence_dfs_closed(rho, bath, "psi1")

    def test_requires_dfs_basis(self):
        with pytest.raises(PatternMismatch):
            concurrence_dfs_closed(bell_phi_plus(), BathParams(0.5), "psi1")

    @pytest.mark.parametrize("family,specs", [
        ("psi1", [InitialStateSpec.phi(3), InitialStateSpec.phi(4),
                  InitialStateSpec.psi1(0.3), InitialStateSpec.psi1(0.9)]),
        ("psi2", [InitialStateSpec.psi2(0.4), InitialStateSpec.psi2(0.7)]),
    ])
    @pytest.mark.parametrize("n", [0.0, 0.1, 1.0])
    def test_stack_matches_single(self, family, specs, n):
        bath = BathParams(n)
        times = np.linspace(0.0, 5.0, 41)
        stack = np.concatenate([
            ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath).states_at(times)
            for spec in specs])
        pairs = dfs_closed_raw(stack, bath, family)
        assert pairs.shape == (stack.shape[0], 2)
        for m, pair in zip(stack, pairs):
            single = concurrence_dfs_closed(DensityMatrix(m, BasisTag.DFS), bath, family)
            np.testing.assert_allclose(single.raw_candidates, pair, rtol=0.0, atol=1e-15)
            assert single.raw == max(single.raw_candidates)

    @pytest.mark.parametrize("family,entry,value,match", [
        ("psi1", (1, 3), 1e-6, "off-pattern entry of magnitude 1.000e-06"),
        ("psi2", (0, 2), 1e-6, "off-pattern entry of magnitude 1.000e-06"),
        ("psi1", (0, 3), 1e-6j, "pattern entries must be real, found imag 1.000e-06"),
        ("psi2", (1, 2), 1e-6j, "pattern entries must be real, found imag 1.000e-06"),
    ])
    def test_stack_pattern_mismatch(self, family, entry, value, match):
        bath = BathParams(0.3)
        spec = InitialStateSpec.psi1(0.5) if family == "psi1" else InitialStateSpec.psi2(0.5)
        prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
        stack = prop.states_at(np.linspace(0.0, 2.0, 9))
        dfs_closed_raw(stack, bath, family)
        i, j = entry
        stack[5, i, j] += value
        stack[5, j, i] += np.conj(value)
        with pytest.raises(PatternMismatch, match=match):
            dfs_closed_raw(stack, bath, family)
        with pytest.raises(PatternMismatch, match=match):
            concurrence_dfs_closed(DensityMatrix(stack[5], BasisTag.DFS), bath, family)

    def test_stack_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            dfs_closed_raw(np.eye(4)[None] / 4.0, BathParams(0.1), "psi3")


class TestPartialTranspose:
    def test_product_state_stays_positive(self):
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = 1.0
        res = ppt_min_eigenvalue(DensityMatrix(proj, BasisTag.STANDARD))
        assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert not res.entangled

    def test_bell_projector_value(self):
        res = ppt_min_eigenvalue(bell_phi_plus())
        assert res.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert res.entangled

    def test_phi3_vacuum_always_negative(self):
        # The minimum eigenvalue stays strictly negative at all times but
        # decays like -e^{-4t}/4, so the entangled flag (tolerance 1e-10)
        # can only be asserted while the eigenvalue is resolvable.
        bath = BathParams(0.0)
        for t in np.arange(0.0, 10.01, 0.1):
            state = closed_form_vacuum(InitialStateSpec.phi(3), bath, float(t))
            res = ppt_min_eigenvalue(state, bath)
            assert res.min_eigenvalue < 0.0
            if t <= 5.0:
                assert res.entangled

    def test_stacked_matches_jacobi(self, rng):
        mats = np.array([random_density_matrix(rng, n_pure=int(rng.integers(1, 5))).mat
                         for _ in range(100)]
                        + [random_xstate(rng).mat for _ in range(50)])
        got = ppt_min_eigenvalues(mats)
        for m, g in zip(mats, got):
            assert abs(g - herm_eig(partial_transpose(m, 2)).eigenvalues[0]) <= 1e-12
        # A rounding-level anti-Hermitian part is averaged away, as herm_eig does.
        skew = 1e-11j * np.triu(np.ones((4, 4)), 1)
        for m in mats[:20]:
            g = ppt_min_eigenvalues((m + skew)[None])[0]
            assert abs(g - herm_eig(partial_transpose(m + skew, 2)).eigenvalues[0]) <= 1e-12
        # The same states in the collective basis, and one at a time.
        bath = BathParams(0.6, psi=0.3)
        u = dfs_unitary(bath)
        in_dfs = u.conj().T @ mats @ u
        assert np.max(np.abs(ppt_min_eigenvalues(in_dfs, BasisTag.DFS, bath) - got)) <= 1e-12
        for m, g in zip(mats[:10], got):
            assert ppt_min_eigenvalue(DensityMatrix(m, BasisTag.STANDARD)).min_eigenvalue == g

    def test_stacked_phi3_vacuum_tail_relative(self):
        # lambda(t) falls to about -1e-18 by t = 10; the stack must resolve
        # it as the Jacobi reference does, to relative 1e-10.
        bath = BathParams(0.0)
        prop = ExactPropagator(initial_state(InitialStateSpec.phi(3), bath,
                                             BasisTag.DFS), bath)
        mats = prop.states_at(np.arange(0.0, 10.0001, 0.05))
        got = ppt_min_eigenvalues(mats, BasisTag.DFS, bath)
        u = dfs_unitary(bath)
        for m, g in zip(mats, got):
            ref = herm_eig(partial_transpose(u @ m @ u.conj().T, 2)).eigenvalues[0]
            assert ref < 0.0
            assert abs(g - ref) <= 1e-10 * abs(ref)
        assert got[-1] > -1e-17

    def test_transpose_convention_irrelevant(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng)
            w1 = herm_eig(partial_transpose(rho.mat, 1)).eigenvalues[0]
            w2 = herm_eig(partial_transpose(rho.mat, 2)).eigenvalues[0]
            assert abs(w1 - w2) <= 1e-12

    def test_peres_horodecki_consistency(self, rng):
        # Two-qubit states: concurrence positive iff the partial transpose
        # has a negative eigenvalue.
        for _ in range(1000):
            rho = random_density_matrix(rng, n_pure=int(rng.integers(1, 5)))
            c = concurrence_wootters(rho).value
            mn = ppt_min_eigenvalue(rho).min_eigenvalue
            if c > 1e-8:
                assert mn < -1e-8
            if mn < -1e-8:
                assert c > 1e-8


class TestConsistencyAcrossBases:
    def test_wootters_same_in_both_bases(self, rng):
        bath = BathParams(0.6, psi=0.3)
        for _ in range(10):
            rho = random_density_matrix(rng)
            in_dfs = change_basis(rho, BasisTag.DFS, bath)
            a = concurrence_wootters(rho).value
            b = concurrence_wootters(in_dfs, bath).value
            assert abs(a - b) <= 1e-10

    def test_initial_psi2_concurrence(self):
        # |2 eps^2 - 1| at every N (the psi2 family is N-independent).
        for n in (0.0, 0.5, 2.0):
            bath = BathParams(n)
            for eps in (0.1, 0.5, 0.9):
                v = state_vector(InitialStateSpec.psi2(eps), bath)
                assert concurrence_pure(v) == pytest.approx(abs(2 * eps ** 2 - 1), abs=1e-12)
