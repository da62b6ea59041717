import numpy as np
import pytest

from sqbath import validation
from sqbath.validation import (
    STATUS_FAIL,
    STATUS_KNOWN_DEVIATION,
    STATUS_OK,
    STATUS_VERIFIED,
    concurrence_report,
    format_table,
    general_form_report,
    run_all,
    vacuum_report,
)


def test_vacuum_report_all_ok():
    rows = vacuum_report(eps_values=(0.28, 0.5), t_max=3.0, dt=0.05)
    assert len(rows) == 8  # phi1..phi4 + psi1/psi2 per eps
    for row in rows:
        assert row.status == STATUS_OK
        assert row.max_deviation <= 1e-9


def test_concurrence_report_all_ok():
    rows = concurrence_report(n_values=(0.1, 0.5), eps_values=(0.3, 0.7),
                              n_random_xstates=100)
    assert {r.status for r in rows} == {STATUS_OK}


def test_general_form_report_statuses():
    rows = general_form_report(n_values=(0.1, 0.5), t_values=(0.2, 1.0))
    assert len(rows) == 16
    by_name = {r.name: r for r in rows}
    for tag in ("rho12", "rho21", "rho22", "rho23", "rho24",
                "rho32", "rho34", "rho42", "rho43", "rho44"):
        assert by_name[f"general-form {tag}"].status == STATUS_VERIFIED
    for tag in ("rho11", "rho13", "rho14", "rho31", "rho33", "rho41"):
        row = by_name[f"general-form {tag}"]
        assert row.status == STATUS_KNOWN_DEVIATION
        assert row.max_deviation > 1e-8  # genuinely off, not spuriously listed


def test_known_deviations_never_gate():
    rows, gate_ok = run_all(n_values=(0.5,), eps_values=(0.3,), t_values=(0.5,))
    assert gate_ok
    assert all(r.status != STATUS_FAIL for r in rows)


def test_report_is_deterministic():
    a, _ = run_all(n_values=(0.5,), eps_values=(0.3,), t_values=(0.5,))
    b, _ = run_all(n_values=(0.5,), eps_values=(0.3,), t_values=(0.5,))
    assert [(r.name, r.max_deviation, r.status) for r in a] == \
           [(r.name, r.max_deviation, r.status) for r in b]


def test_format_table_shape():
    rows, _ = run_all(n_values=(0.5,), eps_values=(0.3,), t_values=(0.5,))
    text = format_table(rows)
    lines = text.splitlines()
    assert len(lines) == len(rows) + 1
    assert "status" in lines[0]


# Default table as printed by the scalar (one state at a time) reports:
# row name, max deviation, status. The stacked reports must reproduce the
# names, order and statuses, and every deviation to 1e-13.
DEFAULT_TABLE = [
    ("vacuum-form phi1", 6.661338147750939e-14, "ok"),
    ("vacuum-form phi2", 6.650235917504688e-14, "ok"),
    ("vacuum-form phi3", 5.984102102729594e-14, "ok"),
    ("vacuum-form phi4", 5.295763827461997e-14, "ok"),
    ("vacuum-form psi1(eps=0.28)", 5.4067861299245124e-14, "ok"),
    ("vacuum-form psi2(eps=0.28)", 6.017408793468348e-14, "ok"),
    ("vacuum-form psi1(eps=0.345)", 5.595524044110789e-14, "ok"),
    ("vacuum-form psi2(eps=0.345)", 5.972999872483342e-14, "ok"),
    ("vacuum-form psi1(eps=0.5)", 5.6288307348495437e-14, "ok"),
    ("vacuum-form psi2(eps=0.5)", 5.96189764223709e-14, "ok"),
    ("vacuum-form psi1(eps=0.9)", 6.616929226765933e-14, "ok"),
    ("vacuum-form psi2(eps=0.9)", 6.650235917504688e-14, "ok"),
    ("xstate-form vs generic (500 random X states)", 3.3306690738754696e-16, "ok"),
    ("dfs-form vs generic (psi1 family)", 9.992007221626409e-16, "ok"),
    ("dfs-form vs generic (psi2 family)", 6.661338147750939e-16, "ok"),
    ("general-form rho11", 0.6342857238311314, "known-deviation"),
    ("general-form rho12", 2.6558837364083264e-16, "verified"),
    ("general-form rho13", 7.571603649602601, "known-deviation"),
    ("general-form rho14", 4.45981800973453, "known-deviation"),
    ("general-form rho21", 2.633125101432526e-16, "verified"),
    ("general-form rho22", 7.771570914938056e-16, "verified"),
    ("general-form rho23", 1.249000902703301e-16, "verified"),
    ("general-form rho24", 6.206335383118183e-17, "verified"),
    ("general-form rho31", 0.7895081835930826, "known-deviation"),
    ("general-form rho32", 1.249000902703301e-16, "verified"),
    ("general-form rho33", 1.4842444767633514, "known-deviation"),
    ("general-form rho34", 7.982938073054463e-17, "verified"),
    ("general-form rho41", 1.338823725742287, "known-deviation"),
    ("general-form rho42", 7.850462293418876e-17, "verified"),
    ("general-form rho43", 7.982938073054463e-17, "verified"),
    ("general-form rho44", 3.885780586188048e-16, "verified"),
]


def test_default_table_pinned():
    rows, gate_ok = run_all()
    assert gate_ok
    assert [(r.name, r.status) for r in rows] == [(n, s) for n, _, s in DEFAULT_TABLE]
    for row, (_, dev, _) in zip(rows, DEFAULT_TABLE):
        assert abs(row.max_deviation - dev) <= 1e-13, row.name


SMALL = dict(n_values=(0.5,), eps_values=(0.3,), t_values=(0.5,))


def _failing(rows):
    return [r.name for r in rows if r.status == STATUS_FAIL]


@pytest.mark.parametrize("t_hit", [0.01, 3.0, 6.0])
def test_vacuum_report_gates_one_sample(monkeypatch, t_hit):
    # A 1e-8 error in one closed-form sample (first step, a middle block,
    # the last sample of the last block) must fail that state's row only.
    real = validation._vacuum_entries

    def perturbed(spec, tau):
        m = real(spec, tau)
        if spec.kind == "phi4":
            m[np.isclose(tau, t_hit), 3, 3] += 1e-8
        return m

    monkeypatch.setattr(validation, "_vacuum_entries", perturbed)
    rows, gate_ok = run_all(**SMALL)
    assert not gate_ok
    assert _failing(rows) == ["vacuum-form phi4"]
    row = next(r for r in rows if r.name == "vacuum-form phi4")
    assert abs(row.max_deviation - 1e-8) <= 1e-12


def test_dfs_report_gates(monkeypatch):
    real = validation.dfs_closed_raw

    def perturbed(mats, bath, family):
        out = real(mats, bath, family)
        return out + 1e-8 if family == "psi2" else out

    monkeypatch.setattr(validation, "dfs_closed_raw", perturbed)
    rows, gate_ok = run_all(**SMALL)
    assert not gate_ok
    assert _failing(rows) == ["dfs-form vs generic (psi2 family)"]
    row = next(r for r in rows if r.name == "dfs-form vs generic (psi2 family)")
    assert abs(row.max_deviation - 1e-8) <= 1e-12


def test_xstate_report_gates(monkeypatch):
    real = validation.xstate_raw
    monkeypatch.setattr(validation, "xstate_raw",
                        lambda mats, *a, **k: real(mats, *a, **k) + 1e-8)
    rows, gate_ok = run_all(**SMALL)
    assert not gate_ok
    assert _failing(rows) == ["xstate-form vs generic (500 random X states)"]
    row = next(r for r in rows if r.name.startswith("xstate-form"))
    assert abs(row.max_deviation - 1e-8) <= 1e-12


def test_corrupted_xstate_is_rejected(monkeypatch):
    # The X states are checked as one stack; a draw that is no density
    # matrix stops the report with DensityMatrix.validated's error.
    real = validation._random_xstate
    draws = []

    def corrupted(rng):
        m = real(rng)
        draws.append(m)
        return 1.5 * m if len(draws) == 40 else m

    monkeypatch.setattr(validation, "_random_xstate", corrupted)
    with pytest.raises(ValueError, match="trace"):
        concurrence_report(n_values=(0.5,), eps_values=(0.3,))
