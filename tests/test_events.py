import math
import warnings

import numpy as np
import pytest

from sqbath import events
from sqbath.dynamics import ExactPropagator
from sqbath.entanglement import concurrence_wootters, concurrence_xstate
from sqbath.errors import InsufficientResolution
from sqbath.events import (
    EventReport,
    detect_events,
    event_scan,
    find_existence_boundary,
    psi1_critical_eps,
    psi1_death_revival_times,
    psi2_touch_time,
    scan_times,
    sweep,
)
from sqbath.model import BasisTag, BathParams, InitialStateSpec, initial_state


def bisect_root(f, a, b, tol=1e-12):
    """Reference root finder used to freeze expected values."""
    fa = f(a)
    while b - a > tol:
        m = 0.5 * (a + b)
        if (f(m) > 0.0) == (fa > 0.0):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


class TestDetectEvents:
    def test_constant_positive_no_events(self):
        t = np.linspace(0.0, 5.0, 100)
        rep = detect_events(t, np.ones_like(t))
        assert rep.deaths == ()
        assert rep.revivals == ()
        assert rep.asymptotic_value == 1.0

    def test_single_dwell(self):
        # g(t) = (t-1)(t-3): dead exactly on [1, 3].
        t = np.linspace(0.0, 5.0, 501)
        g = lambda x: (x - 1.0) * (x - 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = detect_events(t, g(t), g, refine_tol=1e-9)
        assert len(rep.deaths) == 1 and len(rep.revivals) == 1
        assert rep.deaths[0] == pytest.approx(1.0, abs=1e-8)
        assert rep.revivals[0] == pytest.approx(3.0, abs=1e-8)
        # death reported inside the dead zone, revival just after it
        assert g(rep.deaths[0]) <= 1e-9
        assert g(rep.revivals[0] + 1e-8) > 0.0

    def test_touch_event(self):
        # |t - 1|: touches zero at an isolated point.
        t = np.linspace(0.0, 2.0, 101)
        g = lambda x: abs(x - 1.0) + 0.0
        values = np.abs(t - 1.0)
        values[50] = 0.5 * (values[49] + values[51])  # keep strictly positive kink
        rep = detect_events(t, np.abs(t - 1.0) + 1e-30, g)
        assert len(rep.deaths) == 1
        assert rep.deaths[0] == rep.revivals[0]
        assert rep.deaths[0] == pytest.approx(1.0, abs=1e-9)

    def test_narrow_dip_split_into_crossings(self):
        # Dead interval much narrower than the grid is recovered by the
        # local-minimum refinement.
        t = np.linspace(0.0, 2.0, 41)  # step 0.05
        g = lambda x: (x - 1.0) ** 2 - 1e-4  # dead on [0.99, 1.01]
        rep = detect_events(t, g(t), g, refine_tol=1e-9)
        assert len(rep.deaths) == 1 and len(rep.revivals) == 1
        assert rep.deaths[0] == pytest.approx(0.99, abs=1e-7)
        assert rep.revivals[0] == pytest.approx(1.01, abs=1e-7)

    def test_leading_dead_segment_not_a_death(self):
        t = np.linspace(0.0, 4.0, 201)
        g = lambda x: x - 1.0  # dead until t=1, then alive
        rep = detect_events(t, g(t), g)
        assert rep.deaths == ()
        assert rep.revivals == ()

    def test_trailing_death_without_revival(self):
        t = np.linspace(0.0, 4.0, 201)
        g = lambda x: 1.0 - x  # dies at t=1 and stays dead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = detect_events(t, g(t), g, refine_tol=1e-9)
        assert len(rep.deaths) == 1
        assert rep.revivals == ()
        assert rep.deaths[0] == pytest.approx(1.0, abs=1e-8)
        assert rep.asymptotic_value == 0.0

    def test_asymptotic_decay_is_not_death(self):
        # Positive exponential tail must never register as sudden death.
        t = np.linspace(0.0, 60.0, 601)
        g = lambda x: math.exp(-x)
        rep = detect_events(t, np.exp(-t), g)
        assert rep.deaths == ()

    def test_undersampled_dwell_warns(self):
        t = np.linspace(0.0, 2.0, 41)
        g = lambda x: (x - 1.0) ** 2 - 2e-3  # dead width ~0.09, ~1 sample
        with pytest.warns(UserWarning, match="dwell"):
            detect_events(t, g(t), g)

    def test_grid_fallback_without_evaluator(self):
        t = np.linspace(0.0, 5.0, 5001)
        g = (t - 1.0) * (t - 3.0)
        rep = detect_events(t, g)
        assert rep.deaths[0] == pytest.approx(1.0, abs=2e-3)
        assert rep.refined_tolerance == pytest.approx(1e-3, rel=1e-6)

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            EventReport(deaths=(2.0,), revivals=(1.0,), asymptotic_value=0.0,
                        refined_tolerance=1e-6)
        with pytest.raises(ValueError):
            EventReport(deaths=(), revivals=(1.0,), asymptotic_value=0.0,
                        refined_tolerance=1e-6)

    def test_inconsistent_evaluator_raises(self):
        # Grid samples claim a crossing the evaluator cannot reproduce.
        t = np.linspace(0.0, 2.0, 21)
        v = np.where(t < 1.0, 1.0, -1.0)
        with pytest.raises(InsufficientResolution):
            detect_events(t, v, evaluator=lambda x: 1.0)


class TestAnalyticSolvers:
    def test_critical_eps_value(self):
        assert psi1_critical_eps() == pytest.approx(1.0 / math.sqrt(1.0 + math.e ** 2),
                                                    abs=1e-15)
        assert psi1_critical_eps() == pytest.approx(0.3452578, abs=5e-7)

    def test_roots_against_reference_bisection(self):
        for eps in (0.1, 0.28, 0.34):
            k = eps / math.sqrt(1.0 - eps * eps)
            f = lambda x: x * math.exp(-x) - k
            t_d, t_r = psi1_death_revival_times(eps)
            assert t_d == pytest.approx(bisect_root(f, 0.0, 1.0), abs=1e-10)
            assert t_r == pytest.approx(bisect_root(f, 1.0, 8.0), abs=1e-10)
            assert t_d < 1.0 < t_r

    def test_frozen_values_for_028(self):
        t_d, t_r = psi1_death_revival_times(0.28)
        assert t_d == pytest.approx(0.4637638, abs=1e-6)
        assert t_r == pytest.approx(1.8441765, abs=1e-6)

    def test_no_roots_above_critical(self):
        assert psi1_death_revival_times(0.5) == ()
        assert psi1_death_revival_times(0.9) == ()

    def test_double_root_at_critical(self):
        assert psi1_death_revival_times(psi1_critical_eps()) == (1.0,)

    def test_touch_time_values(self):
        assert psi2_touch_time(0.5) == pytest.approx(0.5 * math.log(3.0), abs=1e-14)
        assert psi2_touch_time(0.5) == pytest.approx(0.5493, abs=5e-5)
        assert psi2_touch_time(0.3) == pytest.approx(0.5 * math.log(0.91 / 0.09), abs=1e-14)
        assert psi2_touch_time(0.3) == pytest.approx(1.15682, abs=5e-5)

    def test_touch_time_boundary_is_none(self):
        assert psi2_touch_time(1.0 / math.sqrt(2.0)) is None
        assert psi2_touch_time(0.8) is None

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            psi1_death_revival_times(0.0)
        with pytest.raises(ValueError):
            psi2_touch_time(1.0)


@pytest.fixture(autouse=True)
def _quiet_dwell_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


class TestEventScan:
    def test_detector_matches_analytic_psi1(self):
        for eps in (0.1, 0.28):
            rep = event_scan(InitialStateSpec.psi1(eps), BathParams(0.0))
            t_d, t_r = psi1_death_revival_times(eps)
            assert rep.deaths[0] == pytest.approx(t_d, abs=1e-4)
            assert rep.revivals[0] == pytest.approx(t_r, abs=1e-4)

    def test_detector_matches_analytic_psi2_touch(self):
        for eps in (0.3, 0.5, 0.6):
            rep = event_scan(InitialStateSpec.psi2(eps), BathParams(0.0))
            assert rep.deaths[0] == pytest.approx(psi2_touch_time(eps), abs=1e-4)
            assert rep.deaths[0] == rep.revivals[0]

    def test_invariant_states_have_no_events(self):
        for spec in (InitialStateSpec.phi(1), InitialStateSpec.phi(2)):
            rep = event_scan(spec, BathParams(0.5), t_max=5.0)
            assert rep.deaths == () and rep.revivals == ()

    def test_phi4_vacuum_never_entangled(self):
        rep = event_scan(InitialStateSpec.phi(4), BathParams(0.0))
        assert rep.deaths == () and rep.revivals == ()
        assert rep.asymptotic_value == 0.0

    def test_phi3_one_death_one_revival_decreasing_increasing(self):
        deaths, revivals = [], []
        for n in (0.1, 0.5, 1.0):
            rep = event_scan(InitialStateSpec.phi(3), BathParams(n))
            assert len(rep.deaths) == 1 and len(rep.revivals) == 1
            deaths.append(rep.deaths[0])
            revivals.append(rep.revivals[0])
        assert deaths[0] > deaths[1] > deaths[2]
        assert revivals[0] < revivals[1] < revivals[2]

    def test_psi2_multiple_deaths_at_small_n(self):
        rep = event_scan(InitialStateSpec.psi2(0.54), BathParams(0.1))
        assert len(rep.deaths) >= 2
        assert len(rep.revivals) >= 2

    def test_xstate_measure_agrees(self):
        a = event_scan(InitialStateSpec.psi1(0.28), BathParams(0.0), measure="wootters")
        b = event_scan(InitialStateSpec.psi1(0.28), BathParams(0.0), measure="xstate")
        assert a.deaths[0] == pytest.approx(b.deaths[0], abs=1e-6)
        assert a.revivals[0] == pytest.approx(b.revivals[0], abs=1e-6)

    @pytest.mark.parametrize("measure", ["wootters", "xstate"])
    @pytest.mark.parametrize("spec,n", [
        (InitialStateSpec.phi(4), 0.42),
        (InitialStateSpec.psi2(0.54), 0.1),
        (InitialStateSpec.psi1(0.3), 0.0),
    ])
    def test_grid_values_equal_scalar_measure(self, monkeypatch, measure, spec, n):
        # The batched grid must agree with the per-sample scalar evaluator
        # that refinement uses.
        captured = {}
        real_detect = events.detect_events

        def capture(times, values, evaluator, **kwargs):
            captured["times"], captured["values"] = times, values
            return real_detect(times, values, evaluator, **kwargs)

        monkeypatch.setattr(events, "detect_events", capture)
        bath = BathParams(n)
        event_scan(spec, bath, measure=measure)
        prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
        if measure == "wootters":
            scalar = [concurrence_wootters(prop.state_at(t), bath).raw
                      for t in captured["times"]]
        else:
            scalar = [concurrence_xstate(prop.state_at(t), bath=bath).raw
                      for t in captured["times"]]
        assert len(captured["times"]) == len(scan_times(events.default_t_max(bath)))
        assert np.max(np.abs(captured["values"] - np.array(scalar))) <= 1e-10


class TestSweep:
    def test_grid_alignment_and_death_curve(self):
        grid = np.array([0.1, 0.2, 0.3])
        res = sweep("psi1", "eps", grid, n_bar=0.0)
        assert len(res.reports) == 3
        td = res.death_times()
        tr = res.revival_times()
        analytic = [psi1_death_revival_times(float(e)) for e in grid]
        np.testing.assert_allclose(td, [a[0] for a in analytic], atol=1e-4)
        np.testing.assert_allclose(tr, [a[1] for a in analytic], atol=1e-4)
        # Monotone region: death time grows, revival time shrinks with eps.
        assert td[0] < td[1] < td[2]
        assert tr[0] > tr[1] > tr[2]

    def test_missing_events_are_nan(self):
        res = sweep("psi1", "eps", [0.2, 0.9], n_bar=0.0)
        td = res.death_times()
        assert not math.isnan(td[0])
        assert math.isnan(td[1])

    def test_revival_decreases_with_eps_at_fixed_n(self):
        # Revival time falls with eps for each bath occupation.
        grid = np.array([0.1, 0.2, 0.3])
        for n in (0.0, 0.1, 0.2):
            res = sweep("psi1", "eps", grid, n_bar=n)
            tr = res.revival_times()
            assert np.all(np.isfinite(tr))
            assert tr[0] > tr[1] > tr[2]

    def test_psi_sweep_requires_family(self):
        with pytest.raises(ValueError):
            sweep("phi3", "eps", [0.1, 0.2])
        with pytest.raises(ValueError):
            sweep("psi1", "n_bar", [0.1, 0.2])  # needs fixed eps


class TestBoundary:
    def test_psi1_boundary(self):
        got = find_existence_boundary("psi1", n_bar=0.0, lo=0.33, hi=0.36, tol=2e-4)
        assert got == pytest.approx(psi1_critical_eps(), abs=5e-4)

    def test_psi2_boundary(self):
        got = find_existence_boundary("psi2", n_bar=0.0, lo=0.68, hi=0.73, tol=2e-4)
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=5e-4)

    def test_rejects_inconsistent_bracket(self):
        with pytest.raises(ValueError):
            find_existence_boundary("psi1", n_bar=0.0, lo=0.5, hi=0.6, tol=1e-3)


def test_scan_times_structure():
    t = scan_times(10.0)
    assert t[0] == 0.0
    assert t[-1] == 10.0
    assert np.all(np.diff(t) > 0.0)
    # densified head resolves touch events migrating toward t = 0
    assert np.max(np.diff(t[t < 0.02])) <= 5e-4 + 1e-12
