"""Command-line interface: formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from robinwall.cli import main
from robinwall.spectrum import energy

SPECTRUM_HEADER = "bc,n,field,energy,residual,error"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_spectrum_csv_on_stdout(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--bc", "robin-", "--n", "0",
                             "--field", "1.0")
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == SPECTRUM_HEADER
    rows = parse_csv(out)
    assert len(rows) == 1
    want = energy("robin-", 0, 1.0).energy
    assert math.isclose(float(rows[0]["energy"]), want, rel_tol=1e-15)
    assert rows[0]["error"] == ""


def test_spectrum_json_payload(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--bc", "dirichlet", "--n", "0,1",
                           "--field", "2.0", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "robinwall/1"
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["bc"] == "dirichlet"
    assert payload["rows"][1]["n"] == 1


def test_output_file_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "levels.csv"
    code, out, _ = run_cli(capsys, "spectrum", "--bc", "neumann", "--n", "0",
                           "--field", "1.0", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == SPECTRUM_HEADER


def test_field_range_sweep(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--bc", "dirichlet", "--n", "0",
                           "--field-range", "0.5:2.0:4")
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["field"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]


def test_spectrum_oracle_column(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--bc", "robin+", "--n", "0",
                           "--field", "1.0", "--oracle")
    assert code == 0
    rows = parse_csv(out)
    diff = abs(float(rows[0]["energy_fd"]) - float(rows[0]["energy"]))
    assert diff < 1e-6


def test_bad_wall_name_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--bc", "periodic", "--n", "0",
                           "--field", "1.0")
    assert code == 1
    assert "usage error" in err
    assert "unknown boundary" in err
    assert "robin-" in err


def test_unknown_config_key_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_knob = 3\n")
    code, _, err = run_cli(capsys, "spectrum", "--bc", "robin-", "--n", "0",
                           "--field", "1.0", "--config", str(cfg))
    assert code == 1
    assert "no_such_knob" in err


def test_domain_failure_exits_two(capsys):
    code, _, err = run_cli(capsys, "fishermax", "--n", "0")
    assert code == 2
    assert err.startswith("error:")


def test_failed_rows_carry_diagnostics_and_exit_two(capsys):
    code, out, _ = run_cli(capsys, "measures", "--bc", "robin-", "--n", "0",
                           "--field", "1.0", "--tol-abs", "1e-30",
                           "--tol-rel", "1e-30")
    assert code == 2
    rows = parse_csv(out)
    assert rows[0]["error"] != ""


def test_parallel_rows_match_serial_bytes(capsys):
    argv = ("spectrum", "--bc", "robin-", "--n", "0,1,2",
            "--field-range", "0.5:1.5:3")
    _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
    _, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert serial == parallel


def test_config_file_loses_to_explicit_flags(capsys, tmp_path):
    # Alone, the file's tolerances are out of reach of the interval budget.
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("# comment line\nabs_tol = 1e-15\nrel_tol = 1e-15\n")
    argv = ("measures", "--bc", "robin-", "--n", "0", "--field", "1.0")
    flags = ("--tol-abs", "1e-10", "--tol-rel", "1e-10")
    _, with_both, _ = run_cli(capsys, *argv, "--config", str(cfg), *flags)
    _, flag_only, _ = run_cli(capsys, *argv, *flags)
    code, _, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert with_both == flag_only
    assert code == 2


def _levels_outer(capsys, out, err):
    assert out.splitlines()[0] == SPECTRUM_HEADER
    assert [(r["n"], r["field"]) for r in parse_csv(out)] == [
        ("0", "0.5"), ("0", "1"), ("1", "0.5"), ("1", "1")]


def _profile_points_inner(capsys, out, err):
    assert out.splitlines()[0] == "bc,n,field,x,psi,rho,error"
    rows = parse_csv(out)
    assert [(r["n"], r["field"]) for r in rows] == [
        (n, field) for n in ("0", "1") for field in ("0.5", "1") for _ in range(3)]
    assert [r["x"] for r in rows[2::3]] == ["0"] * 4
    assert all(float(r["x"]) < 0.0 for i, r in enumerate(rows) if i % 3 != 2)


def _matrix_error_row(capsys, out, err):
    assert out.splitlines()[0] == "bc,n,field,m,dipole,error"
    rows = parse_csv(out)
    assert len(rows) == 1 + 2 * 4
    failed = rows[0]
    assert (failed["n"], failed["m"], failed["dipole"]) == ("0", "0", "")
    assert float(failed["field"]) == pytest.approx(1e-6)
    assert failed["error"] != ""
    assert all(r["error"] == "" and r["dipole"] != "" for r in rows[1:])


def _field_must_be_positive(capsys, out, err):
    assert out == ""
    assert err == "error: field grids must stay strictly positive\n"


def _usage_error(capsys, out, err):
    assert out == ""
    assert err.startswith("usage error:")


def _matches_serial(capsys, out, err):
    code, serial, _ = run_cli(capsys, "table1", "--levels", "2")
    assert code == 0
    assert out == serial
    assert [(r["bc"], r["n"]) for r in parse_csv(out)] == [
        ("dirichlet", "0"), ("dirichlet", "1"), ("neumann", "0"), ("neumann", "1")]


@pytest.mark.parametrize("argv, want_code, check", [
    pytest.param(("spectrum", "--bc", "dirichlet", "--n", "0,1", "--field-range", "0.5:1:2"),
                 0, _levels_outer, id="spectrum-level-outer"),
    pytest.param(("state", "--bc", "robin-", "--n", "0,1", "--field-range", "0.5:1:2",
                  "--points", "3"), 0, _profile_points_inner, id="state-profile-rows"),
    pytest.param(("polarization", "--bc", "robin-", "--matrix", "2",
                  "--field-range", "1e-6:1:3:log"), 2, _matrix_error_row, id="matrix-error-row"),
    pytest.param(("spectrum", "--bc", "dirichlet", "--field", "0"),
                 2, _field_must_be_positive, id="spectrum-field-zero"),
    pytest.param(("spectrum", "--bc", "dirichlet", "--field", "1", "--tol-abs", "-1"),
                 1, _usage_error, id="spectrum-negative-tolerance"),
    pytest.param(("table1", "--levels", "2", "--jobs", "2"),
                 0, _matches_serial, id="table1-parallel"),
])
def test_table_layouts_are_pinned(capsys, argv, want_code, check):
    code, out, err = run_cli(capsys, *argv)
    assert code == want_code
    check(capsys, out, err)


def test_wavefunction_profile_rows(capsys):
    code, out, _ = run_cli(capsys, "state", "--bc", "robin-", "--n", "0",
                           "--field", "1.0", "--points", "5")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    for row in rows:
        assert math.isclose(float(row["rho"]), float(row["psi"]) ** 2,
                            rel_tol=1e-12, abs_tol=1e-300)
    assert float(rows[-1]["x"]) == 0.0


def test_momentum_profile_rows(capsys):
    code, out, _ = run_cli(capsys, "state", "--bc", "robin-", "--n", "0",
                           "--field", "1.0", "--what", "momentum_density",
                           "--points", "4", "--k-max", "2.0")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    gammas = [float(r["gamma"]) for r in rows]
    assert all(g > 0.0 for g in gammas)
    assert gammas[0] == max(gammas)


def test_polarization_matrix_rows(capsys):
    code, out, _ = run_cli(capsys, "polarization", "--bc", "dirichlet",
                           "--field", "1.0", "--matrix", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    by_index = {(r["n"], r["m"]): float(r["dipole"]) for r in rows}
    assert by_index[("0", "1")] == by_index[("1", "0")]
    assert math.isclose(by_index[("0", "1")], 0.653179139522773543253,
                        rel_tol=1e-10)


def test_table_of_complexities(capsys):
    code, out, _ = run_cli(capsys, "table1", "--levels", "1")
    assert code == 0
    rows = parse_csv(out)
    assert [r["bc"] for r in rows] == ["dirichlet", "neumann"]
    assert math.isclose(float(rows[0]["CGL_x"]), 1.1542, abs_tol=5e-4)
    assert math.isclose(float(rows[1]["CGL_x"]), 1.1933, abs_tol=5e-4)


def test_table_rejects_robin_walls(capsys):
    code, _, err = run_cli(capsys, "table1", "--bc", "robin-", "--levels", "1")
    assert code == 1
    assert "usage error" in err


def test_oracle_check_rows(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--bc", "neumann",
                           "--n", "0,1", "--field", "1.0")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert all(float(r["rel_diff"]) < 1e-5 for r in rows)


@pytest.mark.parametrize("field", ["1e9", "1e12"])
def test_oracle_check_at_strong_field(capsys, field):
    # The grid must follow the F^(-1/3) width of the states, not the
    # F^(-1) length of a margin proportional to the field.
    code, out, _ = run_cli(capsys, "oracle-check", "--bc", "dirichlet",
                           "--n", "0,1,2", "--field", field)
    assert code == 0
    assert all(float(r["rel_diff"]) < 1e-6 for r in parse_csv(out))


def test_measures_at_a_huge_field_names_the_fault(capsys):
    # Hard walls compute at any finite field; a Robin level at 1e300 sits
    # within rounding of its hard-wall limit and cannot be solved.
    code, out, _ = run_cli(capsys, "measures", "--bc", "robin+", "--n", "0",
                           "--field", "1e300")
    assert code == 2
    (row,) = parse_csv(out)
    assert row["error"] != ""
    assert not row["error"].startswith("(34,")
    assert "1e+300" in row["error"]


def test_oracle_check_refuses_an_unresolved_grid(capsys):
    # robin- at 1e-3 carries a half-step correction of 0.14, and its
    # Richardson energy would be 2.3e-2 off.
    code, out, _ = run_cli(capsys, "oracle-check", "--bc", "robin-", "--n", "0",
                           "--field", "1e-3")
    assert code == 2
    (row,) = parse_csv(out)
    assert "half-step correction" in row["error"]
    assert row["energy_fd"] == ""


def test_oracle_check_at_the_zero_energy_field(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--bc", "robin-", "--n", "0,1,2",
                           "--field", "2.5811")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    assert all(row["error"] == "" for row in rows)


def test_crossing_smoke(capsys):
    code, out, _ = run_cli(capsys, "crossing", "--lo", "1.2", "--hi", "1.7",
                           "--xtol", "0.2")
    assert code == 0
    rows = parse_csv(out)
    assert 1.2 < float(rows[0]["field_cross"]) < 1.7


def test_fishermax_smoke(capsys):
    code, out, _ = run_cli(capsys, "fishermax", "--n", "1", "--lo", "0.005",
                           "--hi", "0.05", "--xtol", "0.02")
    assert code == 0
    rows = parse_csv(out)
    assert 0.005 < float(rows[0]["field_max"]) < 0.05
    assert float(rows[0]["fisher_product"]) > 5.0


def test_module_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "robinwall", "spectrum", "--bc", "robin-",
                           "--n", "0", "--field", "1"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == SPECTRUM_HEADER
    want = energy("robin-", 0, 1.0).energy
    assert math.isclose(float(lines[1].split(",")[3]), want, rel_tol=1e-15)


def test_installed_script_runs():
    exe = shutil.which("robinwall")
    assert exe is not None
    proc = subprocess.run([exe, "spectrum", "--bc", "dirichlet", "--n", "0",
                           "--field", "1.0"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == SPECTRUM_HEADER
