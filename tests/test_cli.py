"""Command-line interface: formats, exit codes, determinism."""

import argparse
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

from robinwall.cli import _build_parser, main
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


def test_bad_wall_name_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--bc", "periodic", "--n", "0",
                           "--field", "1.0")
    assert code == 1
    assert "usage error" in err
    assert "unknown boundary" in err
    assert "robin-" in err


# Every option of every subcommand, in parser order; each changes some result.
HONOURED_OPTIONS = {
    "spectrum": ["--bc", "--n", "--out", "--output", "--jobs", "--field", "--field-range"],
    "state": ["--bc", "--n", "--what", "--points", "--k-max", "--out", "--output",
              "--jobs", "--field", "--field-range"],
    "polarization": ["--bc", "--n", "--matrix", "--out", "--output", "--jobs",
                     "--field", "--field-range"],
    "measures": ["--bc", "--n", "--out", "--output", "--jobs", "--field", "--field-range"],
    "crossing": ["--lo", "--hi", "--xtol", "--out", "--output"],
    "fishermax": ["--n", "--lo", "--hi", "--xtol", "--out", "--output"],
    "table1": ["--bc", "--levels", "--out", "--output", "--jobs", "--field", "--field-range"],
    "oracle-check": ["--bc", "--n", "--out", "--output", "--field", "--field-range"],
}


def test_each_subcommand_parses_only_the_options_it_honours():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: [opt for action in sub._actions if action.dest != "help"
                  for opt in action.option_strings]
           for name, sub in commands.choices.items()}
    assert got == HONOURED_OPTIONS
    assert sum(len(options) for options in got.values()) == 56


_SPECTRUM = ("spectrum", "--bc", "robin-", "--n", "0", "--field", "1.0")
_CROSSING = ("crossing", "--lo", "1.2", "--hi", "1.7", "--xtol", "0.2")
_FISHERMAX = ("fishermax", "--n", "1", "--lo", "0.005", "--hi", "0.05", "--xtol", "0.02")


@pytest.mark.parametrize("argv, extra", [
    pytest.param(_SPECTRUM, ("--config", "tol.cfg"), id="config"),
    pytest.param(_SPECTRUM, ("--oracle",), id="spectrum-oracle"),
    *[pytest.param(argv, (option, "1e-3"), id=f"{argv[0]}{option}")
      for argv in [(command, "--bc", "neumann", "--field", "1")
                   for command in ("spectrum", "state", "polarization", "oracle-check",
                                   "measures", "table1")] + [_CROSSING, _FISHERMAX]
      for option in ("--tol-abs", "--tol-rel")],
    *[pytest.param(argv, extra, id=f"{argv[0]}{extra[0]}")
      for argv in (_CROSSING, _FISHERMAX)
      for extra in (("--field", "99"), ("--field-range", "0.5:2:3"), ("--jobs", "2"))],
    pytest.param(("oracle-check", "--bc", "neumann", "--field", "1"), ("--jobs", "2"),
                 id="oracle-check--jobs"),
    pytest.param(("polarization", "--bc", "dirichlet", "--field", "1", "--matrix", "2"),
                 ("--n", "5"), id="polarization-matrix--n"),
    pytest.param(("state", "--bc", "neumann", "--field", "1", "--what", "wavefunction"),
                 ("--k-max", "8"), id="state-wavefunction--k-max"),
])
def test_removed_options_are_usage_errors(capsys, argv, extra):
    # Every adaptive pass meets one fixed tolerance; oracle-check is the one
    # route to finite-difference energies; crossing and fishermax search the
    # field themselves; only the _table sweeps take --jobs; the --matrix
    # table always spans levels 0 to SIZE - 1; a wavefunction profile has
    # no momentum axis.
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")
    assert extra[0] in err


@pytest.mark.parametrize("k_max", ["nan", "inf", "-1", "0"])
def test_k_max_must_be_positive_and_finite(capsys, k_max):
    # Each of these would otherwise print nan cells, negative momenta or
    # 401 rows at k = 0 and exit 0.
    code, out, err = run_cli(capsys, "state", "--bc", "neumann", "--field", "1",
                             "--what", "momentum_density", "--k-max", k_max)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")
    assert "--k-max" in err


def test_domain_failure_exits_two(capsys):
    code, _, err = run_cli(capsys, "fishermax", "--n", "0")
    assert code == 2
    assert err.startswith("error:")


def test_failed_rows_carry_diagnostics_and_exit_two(capsys):
    # Below 2^-30 the attractive ground level is refused by design.
    code, out, _ = run_cli(capsys, "measures", "--bc", "robin-", "--n", "0",
                           "--field", "1e-10")
    assert code == 2
    rows = parse_csv(out)
    assert rows[0]["error"] != ""


def test_stam_failure_is_an_error_row(capsys, half_stam_momentum):
    code, out, _ = run_cli(capsys, "measures", "--bc", "neumann", "--n", "0", "--field", "2.0")
    assert code == 2
    assert "momentum Stam product" in parse_csv(out)[0]["error"]


def test_parallel_rows_match_serial_bytes(capsys):
    argv = ("spectrum", "--bc", "robin-", "--n", "0,1,2",
            "--field-range", "0.5:1.5:3")
    _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
    _, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert serial == parallel


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
    # Refused while parsing, as a field range through zero is.
    assert out == ""
    assert err == "usage error: argument --field: field grids must stay strictly positive\n"


def _field_must_be_finite(option):
    def check(capsys, out, err):
        # Refused while parsing, before any row or NumPy warning.
        assert out == ""
        assert err == f"usage error: argument {option}: field grids must stay finite\n"

    return check


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
    *[pytest.param(("spectrum", "--bc", "dirichlet", "--field", field),
                   1, _field_must_be_positive, id=f"spectrum-field-{name}")
      for name, field in (("zero", "0"), ("negative", "-1"), ("nan", "nan"))],
    pytest.param(("spectrum", "--bc", "neumann", "--field", "inf"),
                 1, _field_must_be_finite("--field"), id="spectrum-field-inf"),
    pytest.param(("spectrum", "--bc", "neumann", "--field-range", "1:inf:3"),
                 1, _field_must_be_finite("--field-range"), id="spectrum-field-range-inf"),
    pytest.param(("table1", "--levels", "2", "--jobs", "2"),
                 0, _matches_serial, id="table1-parallel"),
    pytest.param(("spectrum", "--bc", "dirichlet", "--field", "1", "--jobs", "0"),
                 1, _usage_error, id="spectrum-zero-jobs"),
    pytest.param(("measures", "--bc", "robin-", "--field", "1", "--jobs", "-3"),
                 1, _usage_error, id="measures-negative-jobs"),
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
    assert row["rel_diff"] == ""
    assert float(row["energy"]) == energy("robin-", 0, 1e-3).energy


def test_refused_oracle_rows_keep_the_analytic_energy(capsys):
    # The grid is refused once for the field; every level still carries
    # the energy the solver finds there.
    code, out, _ = run_cli(capsys, "oracle-check", "--bc", "robin-", "--n", "0,1,2",
                           "--field", "1e-3")
    assert code == 2
    rows = parse_csv(out)
    assert [row["n"] for row in rows] == ["0", "1", "2"]
    for n, row in enumerate(rows):
        assert float(row["energy"]) == energy("robin-", n, 1e-3).energy
        assert (row["energy_fd"], row["rel_diff"]) == ("", "")
        assert "half-step correction" in row["error"]


def test_oracle_check_names_an_unconverged_grid(capsys):
    # The grid eigensolver fails at 1e300; the row keeps the analytic
    # energy and says which wall and field the grid was refused for.
    code, out, _ = run_cli(capsys, "oracle-check", "--bc", "neumann", "--n", "0",
                           "--field", "1e300")
    assert code == 2
    (row,) = parse_csv(out)
    assert row["energy"] == "1.0187929716474711e+200"
    assert row["error"].startswith("neumann grid at field 1e+300 ")
    assert "did not converge" in row["error"]


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


@pytest.mark.parametrize("argv", [
    pytest.param((*base, option, value), id=f"{base[0]}{option}={value}")
    for base in (_CROSSING, _FISHERMAX)
    for option, value in (("--xtol", "nan"), ("--xtol", "inf"), ("--lo", "0"),
                          ("--lo", "-1"), ("--hi", "inf"), ("--hi", "nan"))
])
def test_search_bounds_and_tolerance_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: argument {argv[-2]}: ")


@pytest.mark.parametrize("argv", [
    ("crossing", "--lo", "2", "--hi", "1"),
    ("crossing", "--lo", "1.5", "--hi", "1.5"),
    ("fishermax", "--n", "1", "--lo", "0.5", "--hi", "0.01"),
    ("fishermax", "--n", "1", "--lo", "0.05", "--hi", "0.05"),
])
def test_reversed_search_bracket_is_a_usage_error(capsys, argv):
    # crossing used to sort a reversed bracket out through Brent, and
    # fishermax skipped its search and reported no interior maximum.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: --lo (")
    assert "must be below --hi" in err


@pytest.mark.parametrize("argv", [
    pytest.param((*base, "--xtol", value), id=f"{base[0]}--xtol={value}")
    for base in (_CROSSING, _FISHERMAX) for value in ("0", "-1")
])
def test_nonpositive_xtol_is_a_usage_error(argv):
    # fishermax never ended here, so a timeout turns a regression into a failure.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "robinwall", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("usage error: argument --xtol: "
                           "tolerance must be positive and finite\n")


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


IMPORT_PROBE = """
import contextlib, io, json, sys
import robinwall.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return robinwall.cli.main(list(argv))

at_import = scipy_modules() + [m for m in ("mpmath",) if m in sys.modules]
codes = [run(command, "--bc", "robin-", "--n", "0,1", "--field", "1")
         for command in ("spectrum", "polarization", "measures")]
after_calls = scipy_modules()
codes.append(run("oracle-check", "--bc", "robin-", "--n", "0", "--field", "1"))
# scipy's public subpackages (scipy.version comes with scipy itself).
parts = {m.split(".")[1] for m in scipy_modules() if "." in m}
print(json.dumps([at_import, after_calls, codes,
                  sorted(p for p in parts if not p.startswith("_") and p != "version")]))
"""


def test_cli_loads_no_scipy_module_outside_the_oracle():
    # A fresh interpreter: the test process itself has loaded all of scipy.
    # The package evaluates its own Airy functions, so importing the CLI
    # and running the spectrum, polarization and measures subcommands
    # loads no scipy module at all; only the oracle's grid solve loads
    # scipy.linalg.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, after_calls, codes, after_oracle = json.loads(proc.stdout)
    assert at_import == []
    assert after_calls == []
    assert codes == [0, 0, 0, 0]
    assert after_oracle == ["linalg"]


def test_installed_script_runs():
    exe = shutil.which("robinwall")
    assert exe is not None
    proc = subprocess.run([exe, "spectrum", "--bc", "dirichlet", "--n", "0",
                           "--field", "1.0"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == SPECTRUM_HEADER
