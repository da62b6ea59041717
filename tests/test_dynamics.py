import math

import numpy as np
import pytest

from sqbath import dynamics
from sqbath.dynamics import (
    GENERAL_FORM_KNOWN_DEVIATIONS,
    TRACE_RENORM_THRESHOLD,
    ExactPropagator,
    PropagatorSettings,
    Trajectory,
    closed_form_general,
    closed_form_vacuum,
    evolve_closed_vacuum,
    evolve_exact,
    evolve_rk4,
    steady_time,
    walk_states,
)
from sqbath.events import scan_times
from sqbath.errors import (
    PositivityLost,
    SingularBath,
    StiffStepRejected,
    UnsupportedBath,
    UnsupportedSpec,
    ValidationFailed,
)
from sqbath.matkernel import herm_eig, unvec, vec
from sqbath.model import (
    BasisTag,
    BathParams,
    DensityMatrix,
    InitialStateSpec,
    build_liouvillian,
    dfs_basis_vectors,
    initial_state,
)

from conftest import random_density_matrix

TEST_SPECS = [
    InitialStateSpec.phi(3),
    InitialStateSpec.phi(4),
    InitialStateSpec.psi1(0.3),
    InitialStateSpec.psi2(0.4),
]
TEST_NS = [0.0, 0.1, 1.0]
TEST_TS = [0.1, 0.5, 1.0, 3.0]


def rk4_settings(t_max, stride=100):
    return PropagatorSettings(t_max=t_max, dt=1e-3, sample_stride=stride)


def jacobi_min_eigenvalue(states) -> float:
    """Smallest eigenvalue over a stack of states by the scalar Jacobi kernel."""
    return min(float(herm_eig(m).eigenvalues[0]) for m in states)


def rk4_four_stage(rho0, bath, settings):
    """The classical four-stage RK4 loop, sampled and checked one state at a time.

    Reference for evolve_rk4's single step matrix: returns the sample times,
    the (T, 4, 4) states and the drift metadata.
    """
    l_mat = build_liouvillian(bath, rho0.basis).mat
    dt = settings.dt
    n_steps = max(1, int(round(settings.t_max / dt)))
    v = vec(rho0.mat)
    times, states = [0.0], [rho0.mat]
    trace_drift = herm_drift = 0.0
    renormalized = 0
    for step in range(1, n_steps + 1):
        k1 = l_mat @ v
        k2 = l_mat @ (v + 0.5 * dt * k1)
        k3 = l_mat @ (v + 0.5 * dt * k2)
        k4 = l_mat @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % settings.sample_stride == 0 or step == n_steps:
            m = unvec(v, 4)
            herm_drift = max(herm_drift, float(np.linalg.norm(m - m.conj().T)))
            m = 0.5 * (m + m.conj().T)
            tr = float(np.real(np.trace(m)))
            trace_drift = max(trace_drift, abs(tr - 1.0))
            if abs(tr - 1.0) > TRACE_RENORM_THRESHOLD:
                m = m / tr
                renormalized += 1
            times.append(step * dt)
            states.append(m)
    meta = {"trace_drift": trace_drift, "hermiticity_drift": herm_drift,
            "renormalized_samples": renormalized}
    return np.array(times), np.array(states), meta


class TestRk4:
    def test_phi1_projector_is_constant(self):
        bath = BathParams(0.5)
        rho0 = initial_state(InitialStateSpec.phi(1), bath, BasisTag.DFS)
        traj = evolve_rk4(rho0, bath, rk4_settings(2.0))
        for state in traj.states:
            assert np.max(np.abs(state - rho0.mat)) <= 1e-9

    def test_phi4_vacuum_matches_analytic_solution(self):
        # Diagonal at t=1: ((e^2-3)e^{-2}, 0, 2e^{-2}, e^{-2}).
        bath = BathParams(0.0)
        rho0 = initial_state(InitialStateSpec.phi(4), bath, BasisTag.DFS)
        traj = evolve_rk4(rho0, bath, rk4_settings(1.0))
        end = traj.states[-1]
        e2 = math.exp(-2.0)
        expected = np.diag([(math.exp(2.0) - 3.0) * e2, 0.0, 2.0 * e2, e2])
        assert np.max(np.abs(end - expected)) <= 1e-6
        np.testing.assert_allclose(
            np.diag(expected), [0.59399415, 0.0, 0.27067057, 0.13533528], atol=5e-9)

    def test_phi3_vacuum_at_log2(self):
        bath = BathParams(0.0)
        rho0 = initial_state(InitialStateSpec.phi(3), bath, BasisTag.DFS)
        settings = PropagatorSettings(t_max=math.log(2.0), dt=math.log(2.0) / 800,
                                      sample_stride=800)
        traj = evolve_rk4(rho0, bath, settings)
        end = traj.states[-1]
        assert np.max(np.abs(end - np.diag([0.75, 0.0, 0.25, 0.0]))) <= 1e-6

    def test_stiffness_guard(self):
        bath = BathParams(5.0)
        rho0 = initial_state(InitialStateSpec.phi(3), bath, BasisTag.DFS)
        with pytest.raises(StiffStepRejected):
            evolve_rk4(rho0, bath, PropagatorSettings(t_max=1.0, dt=1e-3))

    def test_drift_metadata(self):
        bath = BathParams(0.2)
        rho0 = initial_state(InitialStateSpec.psi1(0.3), bath, BasisTag.DFS)
        traj = evolve_rk4(rho0, bath, rk4_settings(1.0))
        assert traj.meta["trace_drift"] <= 1e-10
        assert traj.meta["hermiticity_drift"] <= 1e-10
        assert traj.meta["min_eigenvalue"] == pytest.approx(
            jacobi_min_eigenvalue(traj.states), abs=1e-12)
        assert traj.method == "rk4"
        # psi2 is pure only at t = 0, so the minimum includes rho0.
        rho0 = initial_state(InitialStateSpec.psi2(0.6), bath, BasisTag.DFS)
        traj = evolve_rk4(rho0, bath, rk4_settings(1.0))
        assert jacobi_min_eigenvalue(traj.states[1:]) > 1e-5
        assert traj.meta["min_eigenvalue"] == pytest.approx(
            jacobi_min_eigenvalue(traj.states), abs=1e-12)

    def test_positivity_lost_names_first_failing_sample(self, monkeypatch):
        # The maximally mixed state purifies toward the dark plane, so its
        # smallest eigenvalue falls at every sample; a floor between samples
        # 5 and 6 must stop the run at sample 6 and name its time.
        bath = BathParams(0.2)
        rho0 = DensityMatrix(np.eye(4, dtype=complex) / 4.0, BasisTag.DFS)
        settings = rk4_settings(2.0)
        traj = evolve_rk4(rho0, bath, settings)
        w = [float(herm_eig(m).eigenvalues[0]) for m in traj.states]
        assert all(a > b for a, b in zip(w, w[1:]))
        monkeypatch.setattr(dynamics, "RK4_POSITIVITY_FLOOR", 0.5 * (w[5] + w[6]))
        with pytest.raises(PositivityLost) as err:
            evolve_rk4(rho0, bath, settings)
        assert str(err.value) == f"minimum eigenvalue {w[6]:.3e} at t={traj.times[6]:g}"
        assert traj.meta["min_eigenvalue"] == pytest.approx(w[-1], abs=1e-12)
        assert traj.times[6] == pytest.approx(0.6, abs=1e-12)


class TestRk4StepMatrix:
    @pytest.mark.parametrize("spec", TEST_SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("n", TEST_NS)
    def test_matches_four_stage_loop(self, spec, n):
        bath = BathParams(n)
        rho0 = initial_state(spec, bath, BasisTag.DFS)
        settings = rk4_settings(1.0, stride=50)
        traj = evolve_rk4(rho0, bath, settings)
        times, states, meta = rk4_four_stage(rho0, bath, settings)
        np.testing.assert_array_equal(traj.times, times)
        assert np.max(np.abs(traj.states - states)) <= 1e-12
        assert traj.meta["renormalized_samples"] == meta["renormalized_samples"]
        for key in ("trace_drift", "hermiticity_drift"):
            assert traj.meta[key] == pytest.approx(meta[key], abs=1e-13)

    def test_renormalizes_the_same_samples(self):
        # A start trace of 1 + 1e-9 is carried by the trace-preserving
        # generator, so every sample is renormalized by both routes.
        bath = BathParams(0.1)
        m = initial_state(InitialStateSpec.psi1(0.3), bath, BasisTag.DFS).mat
        rho0 = DensityMatrix(m * (1.0 + 1e-9), BasisTag.DFS)
        settings = rk4_settings(0.5, stride=50)
        traj = evolve_rk4(rho0, bath, settings)
        times, states, meta = rk4_four_stage(rho0, bath, settings)
        assert traj.meta["renormalized_samples"] == meta["renormalized_samples"] == 10
        assert traj.meta["trace_drift"] == pytest.approx(meta["trace_drift"], abs=1e-13)
        assert np.max(np.abs(traj.states - states)) <= 1e-12


class TestExact:
    def test_initial_state_reproduced_exactly(self):
        bath = BathParams(0.3)
        rho0 = initial_state(InitialStateSpec.psi2(0.6), bath, BasisTag.DFS)
        traj = evolve_exact(rho0, bath, [0.0, 1.0])
        np.testing.assert_array_equal(traj.states[0], rho0.mat)

    @pytest.mark.parametrize("n", [0.0, 0.5, 2.0])
    def test_phi2_projector_invariant(self, n):
        bath = BathParams(n)
        rho0 = initial_state(InitialStateSpec.phi(2), bath, BasisTag.DFS)
        traj = evolve_exact(rho0, bath, np.linspace(0.0, 8.0, 9))
        for state in traj.states:
            assert np.max(np.abs(state - rho0.mat)) <= 1e-10

    def test_psi1_vacuum_coherence_decay(self):
        eps = 0.28
        bath = BathParams(0.0)
        rho0 = initial_state(InitialStateSpec.psi1(eps), bath, BasisTag.DFS)
        state = ExactPropagator(rho0, bath).state_at(2.0)
        expected = eps * math.sqrt(1.0 - eps ** 2) * math.exp(-2.0)
        assert state.mat[0, 3].real == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.03638, abs=5e-6)

    def test_semigroup(self):
        bath = BathParams(0.7)
        rho0 = initial_state(InitialStateSpec.phi(3), bath, BasisTag.DFS)
        prop = ExactPropagator(rho0, bath)
        once = prop.state_mat(2.3)
        two_step = ExactPropagator(DensityMatrix(prop.state_mat(1.1), BasisTag.DFS),
                                   bath).state_mat(1.2)
        assert np.max(np.abs(once - two_step)) <= 1e-10

    def test_rejects_bad_times(self):
        bath = BathParams(0.1)
        rho0 = initial_state(InitialStateSpec.phi(3), bath, BasisTag.DFS)
        with pytest.raises(ValueError):
            evolve_exact(rho0, bath, [0.0, -1.0])
        with pytest.raises(ValueError):
            evolve_exact(rho0, bath, [0.0])

    def test_records_invariant_drift(self):
        bath = BathParams(0.4)
        rho0 = initial_state(InitialStateSpec.psi1(0.3), bath, BasisTag.DFS)
        traj = evolve_exact(rho0, bath, np.linspace(0.0, 5.0, 201))
        assert 0.0 <= traj.meta["trace_drift"] <= 1e-12
        assert 0.0 <= traj.meta["hermiticity_drift"] <= 1e-12
        assert traj.meta["min_eigenvalue"] == pytest.approx(
            jacobi_min_eigenvalue(traj.states), abs=1e-12)
        # A mixed start whose smallest eigenvalue falls from 1/4.
        mixed = evolve_exact(DensityMatrix(np.eye(4, dtype=complex) / 4.0, BasisTag.DFS),
                             bath, np.linspace(0.0, 2.0, 5))
        assert mixed.meta["min_eigenvalue"] == pytest.approx(
            jacobi_min_eigenvalue(mixed.states), abs=1e-12)
        assert 0.04 < mixed.meta["min_eigenvalue"] < 0.2

    def test_trajectory_is_one_read_only_stack(self):
        bath = BathParams(0.4)
        rho0 = initial_state(InitialStateSpec.psi2(0.6), bath, BasisTag.DFS)
        times = np.linspace(0.0, 2.0, 5)
        traj = evolve_exact(rho0, bath, times)
        assert traj.states.shape == (5, 4, 4)
        assert traj.basis is BasisTag.DFS
        with pytest.raises(ValueError):
            traj.states[1, 0, 0] = 0.0
        with pytest.raises(ValueError):
            Trajectory(times, traj.states[:, :3, :3], BasisTag.DFS, bath, "exact")
        with pytest.raises(ValueError):
            Trajectory(times[:-1], traj.states, BasisTag.DFS, bath, "exact")
        bad = np.array(traj.states)
        bad[2, 1, 1] = np.nan
        with pytest.raises(ValueError):
            Trajectory(times, bad, BasisTag.DFS, bath, "exact")


class TestStatesAt:
    @pytest.mark.parametrize("spec", [InitialStateSpec.phi(3), InitialStateSpec.phi(4),
                                      InitialStateSpec.psi1(0.3), InitialStateSpec.psi2(0.4)])
    @pytest.mark.parametrize("n", [0.0, 0.1, 1.0, 2.0])
    def test_matches_state_at(self, spec, n):
        # n = 0 includes the Jordan block of the defective generator.
        bath = BathParams(n)
        prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
        times = scan_times(12.0)
        batch = prop.states_at(times)
        assert batch.shape == (times.size, 4, 4)
        for tk, m in zip(times, batch):
            assert np.max(np.abs(m - prop.state_mat(float(tk)))) <= 1e-12

    def test_repeated_and_nonuniform_times(self):
        bath = BathParams(0.3)
        rho0 = initial_state(InitialStateSpec.psi2(0.6), bath, BasisTag.DFS)
        prop = ExactPropagator(rho0, bath)
        times = [0.0, 0.0, 0.013, 0.3, 0.3, 1.7, 1.71, 4.0, 9.5, 9.5]
        batch = prop.states_at(times)
        np.testing.assert_array_equal(batch[0], rho0.mat)
        np.testing.assert_array_equal(batch[1], rho0.mat)
        np.testing.assert_array_equal(batch[3], batch[4])
        np.testing.assert_array_equal(batch[8], batch[9])
        for tk, m in zip(times, batch):
            assert np.max(np.abs(m - prop.state_mat(tk))) <= 1e-12
            np.testing.assert_array_equal(m, m.conj().T)

    def test_t0_sample_is_rho0_as_given(self):
        # A custom state may carry a tiny anti-Hermitian part; t = 0 still
        # returns it untouched, as state_mat(0) does.
        bath = BathParams(0.3)
        m = np.array(initial_state(InitialStateSpec.psi1(0.4), bath, BasisTag.DFS).mat)
        m[0, 3] += 1e-12j
        prop = ExactPropagator(DensityMatrix(m, BasisTag.DFS), bath)
        np.testing.assert_array_equal(prop.states_at([0.0, 1.0])[0], m)

    def test_one_exponential_per_distinct_step(self, monkeypatch):
        from sqbath import dynamics

        calls = []
        real = dynamics.matrix_exp
        monkeypatch.setattr(dynamics, "matrix_exp",
                            lambda a, t: calls.append(t) or real(a, t))
        bath = BathParams(0.2)
        prop = ExactPropagator(initial_state(InitialStateSpec.phi(4), bath, BasisTag.DFS),
                               bath)
        times = scan_times(10.0)
        prop.states_at(times)
        assert len(calls) == len(set(calls)) == len(set(np.diff(times)))
        assert len(calls) <= 25

    def test_rejects_unsorted_or_negative(self):
        bath = BathParams(0.1)
        prop = ExactPropagator(initial_state(InitialStateSpec.phi(3), bath, BasisTag.DFS),
                               bath)
        with pytest.raises(ValueError):
            prop.states_at([0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            prop.states_at([-0.5, 1.0])


class TestWalkStates:
    SPECS = [InitialStateSpec.phi(3), InitialStateSpec.phi(4),
             InitialStateSpec.psi1(0.3), InitialStateSpec.psi2(0.6)]

    @pytest.mark.parametrize("n", [0.0, 0.1, 1.0])
    def test_matches_per_state_walk(self, n):
        # 601 samples cross nine block boundaries; t = 0 appears twice.
        bath = BathParams(n)
        times = np.concatenate([[0.0], np.linspace(0.0, 6.0, 601)])
        rho0s = np.array([initial_state(s, bath, BasisTag.DFS).mat for s in self.SPECS])
        singles = [ExactPropagator(DensityMatrix(r, BasisTag.DFS), bath).states_at(times)
                   for r in rho0s]
        starts = []
        for k, block in walk_states(build_liouvillian(bath, BasisTag.DFS), rho0s, times):
            starts.append(k)
            assert block.shape[1:] == (len(self.SPECS), 4, 4)
            assert block.shape[0] <= dynamics._BLOCK
            for j, single in enumerate(singles):
                want = single[k:k + block.shape[0]]
                assert np.max(np.abs(block[:, j] - want)) <= 1e-12
                np.testing.assert_array_equal(block[:, j], block[:, j].conj().swapaxes(1, 2))
            for b in np.flatnonzero(times[k:k + block.shape[0]] == 0.0):
                np.testing.assert_array_equal(block[b], rho0s)
        assert starts == list(range(0, times.size, dynamics._BLOCK))

    def test_unhermitized_blocks(self):
        bath = BathParams(0.2)
        rho0s = np.array([initial_state(s, bath, BasisTag.DFS).mat for s in self.SPECS])
        times = np.linspace(0.0, 3.0, 70)
        for k, block in walk_states(build_liouvillian(bath, BasisTag.DFS), rho0s, times,
                                    hermitize=False):
            for j, r in enumerate(rho0s):
                prop = ExactPropagator(DensityMatrix(r, BasisTag.DFS), bath)
                want = prop.states_at(times, hermitize=False)[k:k + block.shape[0]]
                assert np.max(np.abs(block[:, j] - want)) <= 1e-12

    def test_rejects_bad_input(self):
        bath = BathParams(0.1)
        lv = build_liouvillian(bath, BasisTag.DFS)
        with pytest.raises(ValueError, match="stack"):
            next(walk_states(lv, np.eye(4) / 4.0, [0.0, 1.0]))
        with pytest.raises(ValueError, match="ascending"):
            next(walk_states(lv, np.eye(4)[None] / 4.0, [1.0, 0.5]))
        assert list(walk_states(lv, np.eye(4)[None] / 4.0, [])) == []


class TestMethodAgreement:
    @pytest.mark.parametrize("spec", TEST_SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("n", TEST_NS)
    def test_rk4_vs_exact(self, spec, n):
        bath = BathParams(n)
        rho0 = initial_state(spec, bath, BasisTag.DFS)
        for t in TEST_TS:
            steps = int(round(t / 1e-3))
            settings = PropagatorSettings(t_max=t, dt=1e-3, sample_stride=steps)
            rk4_end = evolve_rk4(rho0, bath, settings).states[-1]
            exact_end = ExactPropagator(rho0, bath).state_mat(t)
            assert np.max(np.abs(rk4_end - exact_end)) <= 1e-6

    @pytest.mark.parametrize("spec", TEST_SPECS, ids=lambda s: s.label())
    def test_closed_vacuum_vs_exact(self, spec):
        bath = BathParams(0.0)
        rho0 = initial_state(spec, bath, BasisTag.DFS)
        prop = ExactPropagator(rho0, bath)
        for t in TEST_TS:
            closed = closed_form_vacuum(spec, bath, t)
            assert np.max(np.abs(closed.mat - prop.state_mat(t))) <= 1e-9


class TestTrajectoryInvariants:
    @pytest.mark.parametrize("n", TEST_NS)
    def test_states_stay_physical(self, n):
        bath = BathParams(n)
        rho0 = initial_state(InitialStateSpec.psi2(0.4), bath, BasisTag.DFS)
        traj = evolve_rk4(rho0, bath, rk4_settings(3.0, stride=300))
        for state in traj.states:
            assert abs(np.trace(state) - 1.0) <= 1e-10
            assert np.linalg.norm(state - state.conj().T) <= 1e-10
            assert DensityMatrix(state, traj.basis).min_eigenvalue() >= -1e-7

    @pytest.mark.parametrize("spec", TEST_SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("n", TEST_NS)
    def test_steady_state_supported_on_dark_plane(self, spec, n):
        bath = BathParams(n)
        rho0 = initial_state(spec, bath, BasisTag.DFS)
        end = ExactPropagator(rho0, bath).state_mat(steady_time(bath))
        outside = end.copy()
        outside[:2, :2] = 0.0
        assert np.max(np.abs(outside)) <= 1e-6

    def test_dark_plane_mixtures_are_fixed(self, rng):
        for n in TEST_NS:
            bath = BathParams(n)
            p1, p2, _, _ = dfs_basis_vectors(bath)
            w = rng.uniform(0.2, 0.8)
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = c[0] * p1 + c[1] * p2
            v /= np.linalg.norm(v)
            mix = w * np.outer(p1, p1.conj()) + (1 - w) * np.outer(v, v.conj())
            rho0 = DensityMatrix.validated(mix, BasisTag.STANDARD)
            end = ExactPropagator(rho0, bath).state_mat(5.0)
            assert np.max(np.abs(end - mix)) <= 1e-10

    def test_constant_dark_coherence(self):
        # The (1,2) collective-basis coherence never moves.
        bath = BathParams(0.5)
        p1, p2, p3, _ = dfs_basis_vectors(bath)
        v = (p1 + p2 + p3) / math.sqrt(3.0)
        rho0 = DensityMatrix.validated(np.outer(v, v.conj()), BasisTag.STANDARD)
        from sqbath.model import change_basis
        rho0 = change_basis(rho0, BasisTag.DFS, bath)
        start = rho0.mat[0, 1]
        end = ExactPropagator(rho0, bath).state_mat(4.0)[0, 1]
        assert abs(end - start) <= 1e-12


class TestClosedFormVacuum:
    def test_psi2_initial_entries(self):
        eps = 0.4
        state = closed_form_vacuum(InitialStateSpec.psi2(eps), BathParams(0.0), 0.0)
        w2 = 1.0 - eps * eps
        assert state.mat[0, 0].real == pytest.approx(0.0, abs=1e-15)
        assert state.mat[1, 1].real == pytest.approx(eps ** 2, abs=1e-15)
        assert state.mat[1, 2].real == pytest.approx(eps * math.sqrt(w2), abs=1e-15)
        assert state.mat[2, 2].real == pytest.approx(w2, abs=1e-15)

    def test_phi4_relaxes_to_phi1(self):
        state = closed_form_vacuum(InitialStateSpec.phi(4), BathParams(0.0), 40.0)
        np.testing.assert_allclose(state.mat, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_psi1_population_value(self):
        state = closed_form_vacuum(InitialStateSpec.psi1(0.5), BathParams(0.0), 1.0)
        expected = 2.0 * 1.0 * 0.75 * math.exp(-2.0)
        assert state.mat[2, 2].real == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.2030, abs=5e-5)

    def test_gamma_rescales_time(self):
        fast = closed_form_vacuum(InitialStateSpec.phi(3), BathParams(0.0, gamma=2.0), 1.0)
        slow = closed_form_vacuum(InitialStateSpec.phi(3), BathParams(0.0), 2.0)
        np.testing.assert_allclose(fast.mat, slow.mat, atol=1e-15)

    def test_rejects_unsupported(self):
        with pytest.raises(UnsupportedBath):
            closed_form_vacuum(InitialStateSpec.phi(3), BathParams(0.1), 1.0)
        with pytest.raises(UnsupportedSpec):
            closed_form_vacuum(
                InitialStateSpec.custom_state(np.eye(4) / 4.0, BasisTag.DFS),
                BathParams(0.0), 1.0)

    @pytest.mark.parametrize("spec", [InitialStateSpec.phi(k) for k in (1, 2, 3, 4)]
                             + [InitialStateSpec.psi1(0.3), InitialStateSpec.psi2(0.7)],
                             ids=lambda s: s.label())
    def test_stacked_entries_match_scalar(self, spec):
        taus = [0.0, 1e-8, 1.0, 40.0]
        stack = dynamics._vacuum_entries(spec, np.array(taus))
        assert stack.shape == (4, 4, 4)
        for tau, m in zip(taus, stack):
            ref = _scalar_vacuum_entries(spec, tau)
            # numpy's exp may differ from libm's by one ulp.
            np.testing.assert_allclose(m, ref, rtol=4.5e-16, atol=2.3e-16)
            np.testing.assert_array_equal(
                closed_form_vacuum(spec, BathParams(0.0), tau).mat, m)

    def test_phi4_keeps_expm1_accuracy(self):
        # r11 = (e^{2 tau} - 1 - 2 tau) e^{-2 tau} ~ 2 tau^2 (1 - 4 tau/3):
        # exp(x) - 1 would leave no correct digit at tau = 1e-8.
        tau = 1e-8
        r11 = dynamics._vacuum_entries(InitialStateSpec.phi(4), [tau])[0, 0, 0].real
        series = 2.0 * tau ** 2 * (1.0 - 4.0 * tau / 3.0)
        assert abs(r11 - series) <= 1e-7 * series

    def test_trajectory_builder(self):
        traj = evolve_closed_vacuum(InitialStateSpec.phi(3), BathParams(0.0),
                                    np.linspace(0.0, 2.0, 21))
        assert isinstance(traj, Trajectory)
        assert traj.method == "closed"
        assert len(traj.states) == 21


class TestClosedFormGeneral:
    def test_constant_and_simple_decay_entries(self, rng):
        bath = BathParams(0.5)
        rho0 = random_density_matrix(rng, BasisTag.DFS)
        state, _ = closed_form_general(rho0, bath, 1.7, validate=False)
        assert state.mat[0, 1] == pytest.approx(rho0.mat[0, 1], abs=1e-14)
        assert state.mat[1, 1].real == pytest.approx(rho0.mat[1, 1].real, abs=1e-14)
        decay = math.exp(-(2.0 * 0.5 + 1.0) * 1.7)
        assert state.mat[1, 2] == pytest.approx(rho0.mat[1, 2] * decay, abs=1e-14)

    def test_dark_coherence_decay_value(self):
        # rho_23 entry decays as e^{-(2N+1)t}: 0.5 e^{-2} at N = 0.5, t = 1.
        bath = BathParams(0.5)
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[1, 2] = m[2, 1] = 0.5 * 0.5  # keep PSD
        rho0 = DensityMatrix.validated(m, BasisTag.DFS)
        state, _ = closed_form_general(rho0, bath, 1.0, validate=False)
        got = state.mat[1, 2].real / 0.25 * 0.5
        assert got == pytest.approx(0.5 * math.exp(-2.0), abs=1e-12)
        assert 0.5 * math.exp(-2.0) == pytest.approx(0.06767, abs=5e-6)

    def test_full_matrix_deviation_recorded(self):
        bath = BathParams(0.5)
        rho0 = initial_state(InitialStateSpec.phi(3), bath, BasisTag.DFS)
        _, report = closed_form_general(rho0, bath, 0.7)
        assert report is not None
        assert report.max_deviation > report.tolerance
        assert not report.passed
        assert report.deviations.shape == (4, 4)

    def test_verified_entries_match_exact(self, rng):
        worst = np.zeros((4, 4))
        for n in (0.1, 0.5, 1.0):
            bath = BathParams(n)
            for _ in range(3):
                rho0 = random_density_matrix(rng, BasisTag.DFS)
                for t in (0.2, 1.0, 3.0):
                    _, report = closed_form_general(rho0, bath, t)
                    worst = np.maximum(worst, report.deviations)
        for i in range(4):
            for j in range(4):
                if (i, j) not in GENERAL_FORM_KNOWN_DEVIATIONS:
                    assert worst[i, j] <= 1e-8, (i, j)
        # and the flagged entries really do deviate somewhere
        flagged = max(worst[i, j] for (i, j) in GENERAL_FORM_KNOWN_DEVIATIONS)
        assert flagged > 1e-3

    def test_strict_mode_raises(self):
        bath = BathParams(0.5)
        rho0 = initial_state(InitialStateSpec.phi(3), bath, BasisTag.DFS)
        with pytest.raises(ValidationFailed) as err:
            closed_form_general(rho0, bath, 0.7, strict=True)
        assert err.value.max_deviation > 0.0

    def test_singular_bath(self):
        rho0 = initial_state(InitialStateSpec.phi(3), BathParams(0.0), BasisTag.DFS)
        with pytest.raises(SingularBath):
            closed_form_general(rho0, BathParams(0.0), 1.0)


def _scalar_vacuum_entries(spec, tau):
    """The vacuum closed form one scaled time at a time, with libm exp/expm1."""
    e1 = math.exp(-tau)
    e2 = math.exp(-2.0 * tau)
    m = np.zeros((4, 4), dtype=complex)
    if spec.kind == "phi1":
        m[0, 0] = 1.0
    elif spec.kind == "phi2":
        m[1, 1] = 1.0
    elif spec.kind == "phi3":
        m[0, 0] = 1.0 - e2
        m[2, 2] = e2
    elif spec.kind == "phi4":
        m[0, 0] = (math.expm1(2.0 * tau) - 2.0 * tau) * e2
        m[2, 2] = 2.0 * tau * e2
        m[3, 3] = e2
    else:
        eps = float(spec.eps)
        w2 = 1.0 - eps * eps
        off = eps * math.sqrt(w2) * e1
        if spec.kind == "psi1":
            m[0, 0] = 1.0 - (1.0 + 2.0 * tau) * w2 * e2
            m[0, 3] = m[3, 0] = off
            m[2, 2] = 2.0 * tau * w2 * e2
            m[3, 3] = w2 * e2
        else:
            m[0, 0] = w2 * (1.0 - e2)
            m[1, 1] = eps * eps
            m[1, 2] = m[2, 1] = off
            m[2, 2] = w2 * e2
    return m
