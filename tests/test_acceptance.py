"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass. Every criterion is expected to pass. Criterion 7 (Peres) checks the
phi3 vacuum trajectory against its exact solution: the partial-transpose
minimum eigenvalue must be negative and equal, to relative 1e-10, the
smaller eigenvalue lambda(t) of the 2x2 block [[1 - e^{-2t}, e^{-2t}/2],
[e^{-2t}/2, 0]]; the concurrence must equal e^{-2t} to the same relative
tolerance; and the ``entangled`` flag must be set wherever lambda(t) is
resolvable (below -2 PPT_TOL).
"""

import math
import warnings

import numpy as np
import pytest

from sqbath.dynamics import (
    ExactPropagator,
    PropagatorSettings,
    closed_form_vacuum,
    evolve_rk4,
)
from sqbath.entanglement import (
    PPT_TOL,
    concurrence_dfs_closed,
    concurrence_wootters,
    concurrence_xstate,
    ppt_min_eigenvalue,
)
from sqbath.events import (
    event_scan,
    find_existence_boundary,
    psi1_critical_eps,
    psi1_death_revival_times,
    psi2_touch_time,
    sweep,
)
from sqbath.model import BasisTag, BathParams, InitialStateSpec, initial_state
from sqbath.validation import (
    STATUS_VERIFIED,
    general_form_report,
)

from conftest import random_xstate

EPS_SET = (0.28, 0.345, 0.5, 0.9)
MATRIX_SPECS = (
    InitialStateSpec.phi(3),
    InitialStateSpec.phi(4),
    InitialStateSpec.psi1(0.3),
    InitialStateSpec.psi2(0.4),
)
MATRIX_NS = (0.0, 0.1, 1.0)
MATRIX_TS = (0.1, 0.5, 1.0, 3.0)


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


def test_criterion_01_dfs_invariance():
    worst = 0.0
    for n in (0.0, 0.1, 0.5, 1.0, 5.0):
        bath = BathParams(n)
        for k in (1, 2):
            rho0 = initial_state(InitialStateSpec.phi(k), bath, BasisTag.DFS)
            end = ExactPropagator(rho0, bath).state_mat(10.0)
            worst = max(worst, float(np.max(np.abs(end - rho0.mat))))
    report(1, worst <= 1e-9, f"max entry drift {worst:.2e} <= 1e-9")


def test_criterion_02_phi1_concurrence_curve():
    grid = np.linspace(0.0, 10.0, 101)
    measured = []
    worst = 0.0
    for n in grid:
        bath = BathParams(float(n))
        rho0 = initial_state(InitialStateSpec.phi(1), bath, BasisTag.DFS)
        state = ExactPropagator(rho0, bath).state_at(10.0)
        c = concurrence_wootters(state, bath).value
        measured.append(c)
        formula = 2.0 * bath.m / (2.0 * float(n) + 1.0)
        worst = max(worst, abs(c - formula))
    monotone = bool(np.all(np.diff(measured) > 0.0))
    approaches_one = measured[-1] > 0.998
    report(2, worst <= 1e-9 and monotone and approaches_one,
           f"max |measured - formula| {worst:.2e} <= 1e-9, monotone rise to "
           f"{measured[-1]:.6f}")


def test_criterion_03_vacuum_closed_forms():
    bath = BathParams(0.0)
    times = np.linspace(0.0, 6.0, 601)
    specs = [InitialStateSpec.phi(3), InitialStateSpec.phi(4)]
    specs += [InitialStateSpec.psi1(e) for e in EPS_SET]
    specs += [InitialStateSpec.psi2(e) for e in EPS_SET]
    worst = 0.0
    for spec in specs:
        prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
        for t in times:
            closed = closed_form_vacuum(spec, bath, float(t))
            worst = max(worst, float(np.max(np.abs(closed.mat - prop.state_mat(float(t))))))
    report(3, worst <= 1e-9, f"max entry deviation {worst:.2e} <= 1e-9")


def test_criterion_04_explicit_concurrence_formula():
    bath = BathParams(0.0)
    times = np.linspace(0.0, 6.0, 601)
    worst = 0.0
    for eps in EPS_SET:
        spec = InitialStateSpec.psi1(eps)
        w2 = 1.0 - eps * eps
        for t in times:
            state = closed_form_vacuum(spec, bath, float(t))
            formula = max(0.0, 2.0 * eps * math.sqrt(w2) * math.exp(-t)
                          - 2.0 * t * math.exp(-2.0 * t) * w2)
            got = concurrence_wootters(state, bath).value
            worst = max(worst, abs(got - formula))
    report(4, worst <= 1e-9, f"max |matrix - formula| {worst:.2e} <= 1e-9")


def test_criterion_05_psi1_critical_eps():
    analytic = 1.0 / math.sqrt(1.0 + math.e ** 2)
    solver_ok = (abs(psi1_critical_eps() - analytic) <= 1e-10
                 and len(psi1_death_revival_times(analytic - 1e-9)) == 2
                 and psi1_death_revival_times(analytic + 1e-9) == ())
    swept = find_existence_boundary("psi1", n_bar=0.0, lo=0.34, hi=0.35, tol=1e-4)
    sweep_ok = abs(swept - 0.34525) <= 5e-4
    report(5, solver_ok and sweep_ok,
           f"swept boundary {swept:.5f} within 0.34525 +- 5e-4; analytic "
           f"{analytic:.10f} to 1e-10")


def test_criterion_06_psi2_critical_eps():
    swept = find_existence_boundary("psi2", n_bar=0.0, lo=0.70, hi=0.712, tol=1e-4)
    sweep_ok = abs(swept - 0.7071) <= 5e-4
    worst = 0.0
    for eps in (0.3, 0.5, 0.6):
        rep = event_scan(InitialStateSpec.psi2(eps), BathParams(0.0))
        worst = max(worst, abs(rep.deaths[0] - psi2_touch_time(eps)))
    report(6, sweep_ok and worst <= 1e-4,
           f"swept boundary {swept:.5f} within 0.7071 +- 5e-4; touch times "
           f"within {worst:.2e} of the formula")


def test_criterion_07_peres_always_negative():
    # Peres criterion on the phi3 vacuum trajectory, checked against the
    # exact solution. At N = 0, rho(t) = a |phi1><phi1| + b |phi3><phi3| with
    # a = 1 - e^{-2t}, b = e^{-2t}. Its partial transpose has the block
    # [[a, b/2], [b/2, 0]], whose smaller eigenvalue
    #   lambda(t) = -b^2 / (2 (a + sqrt(a^2 + b^2)))
    # is strictly negative at every t, and the concurrence is exactly b.
    # lambda(t) ~ -e^{-4t}/(4(1-e^{-2t})) rises above -PPT_TOL = -1e-10 near
    # t = 5.41, so a fixed absolute floor cannot hold on this grid; the
    # eigenvalue is pinned relative to lambda(t) instead, which holds it
    # even where it is below machine epsilon. The entangled flag is a
    # resolution threshold and is asserted only where lambda < -2 PPT_TOL.
    bath = BathParams(0.0)
    prop = ExactPropagator(initial_state(InitialStateSpec.phi(3), bath,
                                         BasisTag.DFS), bath)
    times = np.arange(0.0, 10.0001, 0.05)
    eig_err = conc_err = 0.0
    negative = conc_positive = flag_ok = True
    n_resolvable = 0
    for t in times:
        state = prop.state_at(float(t))
        ppt = ppt_min_eigenvalue(state, bath)
        c = concurrence_wootters(state, bath).value
        a = -math.expm1(-2.0 * t)
        b = math.exp(-2.0 * t)
        lam = -b * b / (2.0 * (a + math.hypot(a, b)))
        negative = negative and ppt.min_eigenvalue < 0.0
        conc_positive = conc_positive and c > 0.0
        eig_err = max(eig_err, abs(ppt.min_eigenvalue - lam) / abs(lam))
        conc_err = max(conc_err, abs(c - b) / b)
        if lam < -2.0 * PPT_TOL:
            n_resolvable += 1
            flag_ok = flag_ok and ppt.entangled
    ok = (negative and conc_positive and flag_ok
          and eig_err <= 1e-10 and conc_err <= 1e-10)
    report(7, ok,
           f"PT min eig < 0: {negative}, rel dev from lambda(t) {eig_err:.1e} "
           f"<= 1e-10; C > 0: {conc_positive}, rel dev from e^-2t "
           f"{conc_err:.1e} <= 1e-10; entangled flag at all {n_resolvable} "
           f"samples with lambda < -2e-10: {flag_ok}; {len(times)} samples")


def test_criterion_08_phi4_vacuum_never_entangled():
    bath = BathParams(0.0)
    prop = ExactPropagator(initial_state(InitialStateSpec.phi(4), bath,
                                         BasisTag.DFS), bath)
    worst = 0.0
    for t in np.arange(0.0, 10.0001, 0.05):
        worst = max(worst, concurrence_wootters(prop.state_at(float(t)), bath).value)
    report(8, worst <= 1e-9, f"max concurrence {worst:.2e} <= 1e-9")


def test_criterion_09_phi4_critical_n():
    grid = np.linspace(0.05, 1.0, 191)  # step 0.005
    result = sweep("phi4", "n_bar", grid)
    td = result.death_times()
    assert np.all(np.isfinite(td)), "every grid point must show a death"
    k = int(np.argmax(td))
    interior = 2 <= k <= len(grid) - 3
    # The curve is flat to ~3e-5 around its top; refine the grid argmax
    # with a local quadratic fit to remove grid quantization.
    sl = slice(k - 2, k + 3)
    coeff = np.polyfit(grid[sl], td[sl], 2)
    peak = float(-coeff[1] / (2.0 * coeff[0]))
    ok = interior and abs(peak - 0.421) <= 0.01
    report(9, ok, f"interior maximum at N = {peak:.4f} within 0.421 +- 0.01 "
                  f"(grid argmax {grid[k]:.3f})")


def test_criterion_10_phi3_death_revival_monotonicity():
    deaths, revivals = [], []
    ok = True
    for n in (0.1, 0.5, 1.0):
        rep = event_scan(InitialStateSpec.phi(3), BathParams(n))
        ok = ok and len(rep.deaths) == 1 and len(rep.revivals) == 1
        deaths.append(rep.deaths[0])
        revivals.append(rep.revivals[0])
    ok = ok and deaths[0] > deaths[1] > deaths[2]
    ok = ok and revivals[0] < revivals[1] < revivals[2]
    report(10, ok, f"single death/revival pairs; deaths {[f'{d:.3f}' for d in deaths]} "
                   f"decrease, revivals {[f'{r:.3f}' for r in revivals]} increase")


def test_criterion_11_psi2_multiple_deaths():
    counts = {}
    for eps in (0.49, 0.54):
        rep = event_scan(InitialStateSpec.psi2(eps), BathParams(0.1))
        counts[eps] = len(rep.deaths)
    ok = any(c >= 2 for c in counts.values())
    report(11, ok, f"death counts {counts}; at least one >= 2")


def test_criterion_12_rk4_matches_exact():
    worst = 0.0
    for spec in MATRIX_SPECS:
        for n in MATRIX_NS:
            bath = BathParams(n)
            rho0 = initial_state(spec, bath, BasisTag.DFS)
            prop = ExactPropagator(rho0, bath)
            settings = PropagatorSettings(t_max=MATRIX_TS[-1], dt=1e-3,
                                          sample_stride=100)
            traj = evolve_rk4(rho0, bath, settings)
            for t in MATRIX_TS:
                idx = int(np.argmin(np.abs(traj.times - t)))
                assert abs(traj.times[idx] - t) < 1e-9
                dev = float(np.max(np.abs(traj.states[idx] - prop.state_mat(t))))
                worst = max(worst, dev)
    report(12, worst <= 1e-6, f"max RK4-vs-exact entry deviation {worst:.2e} <= 1e-6")


def test_criterion_13_concurrence_cross_checks():
    worst_traj = 0.0
    for spec in MATRIX_SPECS:
        family = "psi2" if spec.kind == "psi2" else "psi1"
        for n in MATRIX_NS:
            bath = BathParams(n)
            prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
            for t in np.linspace(0.0, 3.0, 16):
                state = prop.state_at(float(t))
                generic = concurrence_wootters(state, bath).value
                closed = concurrence_dfs_closed(state, bath, family).value
                xform = concurrence_xstate(state, bath=bath).value
                worst_traj = max(worst_traj, abs(closed - generic),
                                 abs(xform - generic))
    rng = np.random.default_rng(13)
    worst_x = 0.0
    for _ in range(500):
        rho = random_xstate(rng)
        worst_x = max(worst_x, abs(concurrence_xstate(rho).value
                                   - concurrence_wootters(rho).value))
    ok = worst_traj <= 1e-9 and worst_x <= 1e-9
    report(13, ok, f"trajectory max dev {worst_traj:.2e}, random-X max dev "
                   f"{worst_x:.2e}, both <= 1e-9")


def test_criterion_14_general_form_gate():
    rows_a = general_form_report()
    rows_b = general_form_report()
    complete = len(rows_a) == 16
    deterministic = [(r.name, r.max_deviation, r.status) for r in rows_a] == \
                    [(r.name, r.max_deviation, r.status) for r in rows_b]
    by_name = {r.name: r for r in rows_a}
    expected_verified = ("rho12", "rho23", "rho24", "rho32", "rho34",
                         "rho42", "rho43")
    verified_ok = all(by_name[f"general-form {t}"].status == STATUS_VERIFIED
                      for t in expected_verified)
    measured = all(math.isfinite(r.max_deviation) for r in rows_a)
    n_verified = sum(r.status == STATUS_VERIFIED for r in rows_a)
    ok = complete and deterministic and verified_ok and measured
    report(14, ok, f"16/16 entries reported, deterministic; {n_verified} verified "
                   f"at 1e-8 incl. all the simple tabulated forms, rest carry measured "
                   f"deviations")
