import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqbath
from sqbath.cli import _write_table, main
from sqbath.dynamics import ExactPropagator
from sqbath.entanglement import concurrence_wootters, ppt_min_eigenvalue
from sqbath.events import psi2_touch_time
from sqbath.model import BasisTag, BathParams, InitialStateSpec, initial_state


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(x) if x not in ("death", "revival") else x
             for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestEvolve:
    def test_phi2_concurrence_constant_one(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--initial", "phi2",
                               "--N", "0.5", "--tmax", "5", "--samples", "21")
        assert code == 0
        header, rows = parse_csv(out)
        c_idx = header.index("concurrence")
        for row in rows:
            assert abs(row[c_idx] - 1.0) <= 1e-9

    def test_phi4_vacuum_concurrence_zero(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--initial", "phi4",
                               "--N", "0", "--tmax", "5", "--samples", "21")
        assert code == 0
        header, rows = parse_csv(out)
        c_idx = header.index("concurrence")
        for row in rows:
            assert row[c_idx] <= 1e-9

    def test_psi1_dies_and_revives(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--initial", "psi1",
                               "--eps", "0.28", "--N", "0", "--tmax", "6",
                               "--samples", "121")
        assert code == 0
        header, rows = parse_csv(out)
        c_idx = header.index("concurrence")
        c = np.array([row[c_idx] for row in rows])
        t = np.array([row[0] for row in rows])
        assert c[0] > 0.5  # starts entangled
        assert np.any(c[(t > 0.5) & (t < 1.8)] == 0.0)  # dead interval
        assert np.any(c[t > 2.0] > 1e-4)  # revived

    def test_determinism(self, tmp_path, capsys):
        args = ["evolve", "--initial", "psi2", "--eps", "0.4", "--N", "0.3",
                "--tmax", "2", "--samples", "41"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_methods_agree(self, tmp_path):
        common = ["evolve", "--initial", "phi3", "--N", "0", "--tmax", "1",
                  "--samples", "11"]
        fa = tmp_path / "exact.csv"
        fb = tmp_path / "rk4.csv"
        fc = tmp_path / "closed.csv"
        assert main(common + ["--method", "exact", "--out", str(fa)]) == 0
        assert main(common + ["--method", "rk4", "--out", str(fb)]) == 0
        assert main(common + ["--method", "closed", "--out", str(fc)]) == 0
        _, ra = parse_csv(fa.read_text())
        _, rb = parse_csv(fb.read_text())
        _, rc = parse_csv(fc.read_text())
        for rowa, rowb, rowc in zip(ra, rb, rc):
            np.testing.assert_allclose(rowa, rowb, atol=2e-6)
            np.testing.assert_allclose(rowa, rowc, atol=1e-9)

    def test_jsonl_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--initial", "phi3", "--N", "0.2",
                               "--tmax", "1", "--samples", "6", "--format", "jsonl")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        rec = json.loads(lines[-1])
        assert rec["t"] == 1.0
        assert abs(rec["re_r11"] + rec["re_r22"] + rec["re_r33"] + rec["re_r44"] - 1.0) <= 1e-10

    def test_csv_roundtrip_precision(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--initial", "psi1", "--eps", "0.3",
                               "--N", "0.1", "--tmax", "2", "--samples", "5")
        header, rows = parse_csv(out)
        # 15 significant digits survive the parse within float rounding
        rec = dict(zip(header, rows[2]))
        total = rec["re_r11"] + rec["re_r22"] + rec["re_r33"] + rec["re_r44"]
        assert abs(total - 1.0) <= 1e-13


class TestEvents:
    def test_psi2_touch_pair(self, capsys):
        code, out, _ = run_cli(capsys, "events", "--initial", "psi2",
                               "--eps", "0.5", "--N", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["death", "revival"]
        assert rows[0][1] == pytest.approx(psi2_touch_time(0.5), abs=1e-4)
        assert rows[0][1] == pytest.approx(rows[1][1], abs=1e-9)

    def test_invariant_state_empty(self, capsys):
        code, out, _ = run_cli(capsys, "events", "--initial", "phi1", "--N", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows == []

    def test_phi3_death_then_revival(self, capsys):
        code, out, _ = run_cli(capsys, "events", "--initial", "phi3", "--N", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["death", "revival"]
        assert rows[0][1] < rows[1][1]

    def test_jsonl_events(self, capsys):
        code, out, _ = run_cli(capsys, "events", "--initial", "psi2", "--eps", "0.5",
                               "--N", "0", "--format", "jsonl")
        assert code == 0
        recs = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [r["event"] for r in recs] == ["death", "revival"]


class TestFigures:
    def test_figure_1_matches_formula(self, tmp_path, capsys):
        code = main(["figure", "1", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "fig01_phi1_concurrence_vs_N.csv").read_text()
        _, rows = parse_csv(text)
        assert len(rows) == 101
        for nb, c in rows:
            expected = 2.0 * math.sqrt(nb * (nb + 1.0)) / (2.0 * nb + 1.0)
            assert abs(c - expected) <= 1e-9

    def test_figure_6_touch_curve(self, tmp_path):
        code = main(["figure", "6", "--out", str(tmp_path)])
        assert code == 0
        _, rows = parse_csv((tmp_path / "fig06_psi2_touch_time_vs_eps.csv").read_text())
        for eps, t in rows:
            assert t == pytest.approx(psi2_touch_time(eps), abs=1e-12)

    def test_figure_3_series_files(self, tmp_path):
        code = main(["figure", "3", "--out", str(tmp_path), "--tmax", "2"])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("fig03_*.csv"))
        assert files == ["fig03_psi1_eps0.28.csv", "fig03_psi1_eps0.345.csv",
                         "fig03_psi1_eps0.9.csv"]
        text = (tmp_path / "fig03_psi1_eps0.28.csv").read_text()
        assert text.startswith("#")  # caption comment embedded
        _, rows = parse_csv(text)
        assert rows[0][1] == pytest.approx(2 * 0.28 * math.sqrt(1 - 0.28 ** 2), abs=1e-9)

    def test_figure_2_and_3_match_per_sample_route(self, tmp_path):
        # The figure series come from one states_at walk and stacked
        # measures; each value must equal state_at plus the scalar measure.
        assert main(["figure", "2", "--out", str(tmp_path)]) == 0
        assert main(["figure", "3", "--out", str(tmp_path)]) == 0
        bath = BathParams(0.0)

        def scalar_route(spec, name, grid, measure, tol):
            prop = ExactPropagator(initial_state(spec, bath, BasisTag.DFS), bath)
            _, rows = parse_csv((tmp_path / name).read_text())
            assert len(rows) == len(grid)
            for t, (t_csv, value) in zip(grid, rows):
                assert t_csv == pytest.approx(t, abs=1e-13)
                assert abs(value - measure(prop.state_at(float(t)))) <= tol

        scalar_route(InitialStateSpec.phi(3), "fig02_phi3_ppt_min_eig.csv",
                     np.linspace(0.0, 10.0, 201),
                     lambda s: ppt_min_eigenvalue(s, bath).min_eigenvalue, 1e-12)
        for eps in (0.28, 0.345, 0.9):
            scalar_route(InitialStateSpec.psi1(eps), f"fig03_psi1_eps{eps:g}.csv",
                         np.linspace(0.0, 6.0, 601),
                         lambda s: concurrence_wootters(s, bath).value, 1e-10)

    def test_figure_9_grid_override(self, tmp_path):
        code = main(["figure", "9", "--out", str(tmp_path),
                     "--grid", "0.39:0.43:0.02"])
        assert code == 0
        _, rows = parse_csv((tmp_path / "fig09_phi4_death_vs_N.csv").read_text())
        assert len(rows) == 3
        assert all(0.3 < td < 0.45 for _, td in rows)

    def test_unknown_figure_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "figure", "14")
        assert code == 2

    def test_figure_output_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["figure", "6", "--out", str(a)]) == 0
        assert main(["figure", "6", "--out", str(b)]) == 0
        fa = a / "fig06_psi2_touch_time_vs_eps.csv"
        fb = b / "fig06_psi2_touch_time_vs_eps.csv"
        assert fa.read_bytes() == fb.read_bytes()


class TestValidateCommand:
    def test_gate_ok_and_table(self, capsys, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "validate", "--N", "0.5",
                               "--initial", "phi3", "--out", str(out_csv))
        assert code == 0
        assert "gate: ok" in out
        assert "general-form rho44" in out
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "check"
        assert len(lines) == 17  # header + 16 entry rows


class TestModuleEntryPoint:
    def test_python_m_sqbath_validate(self):
        env = dict(os.environ)
        src = str(Path(sqbath.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "sqbath", "validate"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[-1] == "gate: ok"
        assert len(lines) == 33  # header, 31 rows, gate line


def _old_csv(rows):
    """The per-cell formatter the CSV writer used before the row template."""
    return "".join(
        ",".join(f"{x:.15g}" if isinstance(x, float) else str(x) for x in row) + "\n"
        for row in rows)


class TestCsvFormatting:
    def test_bytes_match_per_cell_formatter(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2 ** 64, size=20000, dtype=np.uint64)
        doubles = bits.view(np.float64).tolist()  # every exponent, nan payloads
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    1e-310, 1e300, -1e300, 1e-300, 1.7976931348623157e308,
                    math.inf, -math.inf, math.nan, 1.0, 0.1, 123456789012345678.0]
        floats = doubles + rng.normal(size=5000).tolist() + specials
        rows = [floats[k:k + 35] for k in range(0, len(floats), 35)]
        rows += [["death", 1.25, 1e-6], [True, False, 3, 2.5], [np.float64(0.3), 1.0],
                 [], [7, "x"]]
        fh = io.StringIO()
        _write_table(fh, ["h"], rows, "csv")
        assert fh.getvalue() == "h\n" + _old_csv(rows)
        assert "True,False,3,2.5\n" in fh.getvalue()


class TestExitCodes:
    def test_bad_eps_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--initial", "psi1",
                               "--eps", "1.5", "--N", "0", "--tmax", "1")
        assert code == 2
        assert err

    def test_missing_eps_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "events", "--initial", "psi1", "--N", "0")
        assert code == 2

    def test_stiff_dt_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "evolve", "--initial", "phi3", "--N", "5",
                             "--method", "rk4", "--dt", "0.01", "--tmax", "1")
        assert code == 2

    def test_closed_method_needs_vacuum(self, capsys):
        code, _, _ = run_cli(capsys, "evolve", "--initial", "phi3", "--N", "0.5",
                             "--method", "closed", "--tmax", "1")
        assert code == 2

    def test_bad_custom_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "state.txt"
        bad.write_text("standard\n1,0 0,0 0,0\n")
        code, _, _ = run_cli(capsys, "evolve", "--initial", "custom",
                             "--custom-file", str(bad), "--tmax", "1")
        assert code == 2


class TestCustomState:
    def test_custom_bell_state(self, tmp_path, capsys):
        f = tmp_path / "bell.txt"
        f.write_text(
            "standard\n"
            "0.5,0 0,0 0,0 0.5,0\n"
            "0,0 0,0 0,0 0,0\n"
            "0,0 0,0 0,0 0,0\n"
            "0.5,0 0,0 0,0 0.5,0\n"
        )
        code, out, _ = run_cli(capsys, "evolve", "--initial", "custom",
                               "--custom-file", str(f), "--N", "0",
                               "--tmax", "1", "--samples", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][header.index("concurrence")] == pytest.approx(1.0, abs=1e-9)
