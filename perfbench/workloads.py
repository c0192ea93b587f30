"""Seeded inputs and one round of each benchmark workload.

A round is a fixed list of operations whose inputs come from the seed and
the round's index, so repeated rounds in one process never meet the
solver's LRU cache with a field it has seen.  Every round of a workload
has the same structure (the same walls, levels and field slices), so the
rates do not depend on how many rounds fit in a run.  Only program calls
are timed; the checks run between them, untimed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
from scipy import special as sp

import checks

WORKLOAD_IDS = {"measures": 1, "weak-spectrum": 2, "cli-fresh": 3}

WALLS = checks.WALLS
RECORD_FIELDS = ("S_x", "S_k", "S_t", "I_x", "I_k", "fisher_product",
                 "O_x", "O_k", "onicescu_product", "CGL_x", "CGL_k", "CGL_product")

CHILD_TIMEOUT = 150


def round_rng(seed: int, workload: str, index: int):
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def stratified_fields(rng, lo: float, hi: float, count: int) -> list:
    """One log-uniform field in each of ``count`` equal slices of [lo, hi].

    Slices 2j and 2j+1 take offsets u and 1-u.  The cost of a level grows
    like a power of 1/field, so the pairing keeps a round's cost nearly
    the same from seed to seed.
    """
    u = rng.random((count + 1) // 2)
    offsets = np.empty(count)
    offsets[0::2] = u[: len(offsets[0::2])]
    offsets[1::2] = 1.0 - u[: len(offsets[1::2])]
    a, b = math.log10(lo), math.log10(hi)
    width = (b - a) / count
    return [float(10.0 ** (a + (s + offsets[s]) * width)) for s in range(count)]


PROBE_X = np.linspace(-20.0, 5.0, 20000)


def speed_probe() -> float:
    """Best of three timings of a fixed kernel: scipy.special.airy and a Python loop."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        sp.airy(PROBE_X)
        acc = 0
        for i in range(20000):
            acc += i * i
        best = min(best, perf_counter() - start)
    return best


class Recorder:
    """A run's timed operations in order, with a speed probe after each one when asked."""

    def __init__(self, probing: bool):
        self.ops = []
        self.probes = []
        self.round = 0
        self._probing = probing

    def sample(self) -> None:
        if self._probing:
            self.probes.append(speed_probe())

    def op(self, label: str, kind: str, seconds: float, faults=None, **counts) -> dict:
        """Record one operation; ``kind`` names its part of the workload."""
        entry = dict(counts, label=label, kind=kind, seconds=seconds,
                     faults=list(faults or []), round=self.round)
        self.ops.append(entry)
        self.sample()
        return entry


def failure(label: str, exc: Exception) -> list:
    return [f"{label}: {type(exc).__name__}: {exc}"]


# -- measures ----------------------------------------------------------------

MEASURES_RANGE = (1e-2, 1e3)
TABLE1_POINTS = [(bc, n, 1.0) for n in range(6) for bc in ("dirichlet", "neumann")]
FISHER_BRACKET = (0.005, 0.1)


def measures_points(seed: int, index: int) -> list:
    """16 seeded states, every wall at n = 0..3, plus the 12 Table 1 states.

    Combination i = 4n + wall goes to field slice (5i + 12) mod 16, which
    spreads walls and levels over the range and puts robin- n=1 in the
    weakest slice, where its Fourier table runs to 15k-40k nodes.
    """
    fields = stratified_fields(round_rng(seed, "measures", index), *MEASURES_RANGE, 16)
    points = []
    for i in range(16):
        n, w = divmod(i, 4)
        points.append((WALLS[w], n, fields[(5 * i + 12) % 16]))
    return points + TABLE1_POINTS


def record_values(rec) -> dict:
    return {name: float(getattr(rec, name)) for name in RECORD_FIELDS}


def state_faults(label: str, bc: str, n: int, field: float, energy: float,
                 values: dict) -> list:
    """Level, position-side and momentum-side checks of one measured state.

    ``values`` holds the record's measures and, when the state was also
    polarized, its ``mean_x``.
    """
    faults = checks.level_faults(bc, n, field, energy)
    if faults:
        return faults
    ref = checks.Profile(field, energy).measures()
    got = {k: values[k] for k in ("S_x", "O_x", "I_x", "CGL_x", "mean_x") if k in values}
    faults += checks.position_faults(label, ref, got)
    faults += checks.momentum_faults(label, values, ref["var_x"])
    return faults


def measures_round(rw, seed: int, index: int, rec: Recorder) -> None:
    records = {}
    for bc, n, field in measures_points(seed, index):
        label = f"measure {bc} n={n} F={field!r}"
        start = perf_counter()
        try:
            record = rw.measure_state(rw.build_state(bc, n, field))
            mean_x = rw.polarization(record.state).mean_x
        except Exception as exc:
            rec.op(label, "state", perf_counter() - start, failure(label, exc))
            continue
        seconds = perf_counter() - start
        values = dict(record_values(record), mean_x=mean_x)
        entry = rec.op(label, "state", seconds,
                       state_faults(label, bc, n, field, record.state.energy, values))
        records[(bc, n, field)] = (entry, values)

    unit = {(bc, n): v for (bc, n, f), (_, v) in records.items() if f == 1.0}
    table = {key: (v["CGL_x"], v["CGL_k"], v["CGL_product"]) for key, v in unit.items()}
    for (bc, n), fault in checks.table1_faults(table):
        records[(bc, n, 1.0)][0]["faults"].append(fault)
    for (bc, n, field), (entry, values) in records.items():
        if bc in ("dirichlet", "neumann") and field != 1.0 and (bc, n) in unit:
            entry["faults"] += checks.invariant_faults(entry["label"], values, unit[(bc, n)])


def fisher_search(rw, rec: Recorder) -> None:
    label = f"fisher_product_maximum(1, bracket={FISHER_BRACKET})"
    start = perf_counter()
    try:
        best = rw.fisher_product_maximum(1, bracket=FISHER_BRACKET)
    except Exception as exc:
        rec.op(label, "search", perf_counter() - start, failure(label, exc))
        return
    rec.op(label, "search", perf_counter() - start,
           checks.fisher_max_faults(best.field, best.product))


# -- weak-spectrum -------------------------------------------------------------

TOP_LEVEL = 30
DIPOLE_WALLS = ("robin+", "neumann", "dirichlet")
# Below about 1e-3 the Robin solver's absolute residual check (1e-11)
# rejects some correctly refined levels, depending on where Brent's method
# stops (see CHANGES.md).  Seeded fields therefore start at 1e-3, and the
# weak end is a fixed ladder, the same for every seed, which passes at the
# commit that defined this benchmark.
SEEDED_RANGE = (1e-3, 1e2)
SEEDED_SLICES = 10
WEAK_LADDER = tuple((10.0 ** (-7 + j / 2), n) for j, n in enumerate((1, 17, 9, 25, 5, 21, 13, 29)))
CORNER = ("robin+", TOP_LEVEL, 1e-7)
# The attractive-wall ground state's closed-form mean position loses
# accuracy like 1e-16 / F^2 (see CHANGES.md).  The points leave it out
# (robin- gets no dipole matrix, and its level 0 is polarized only at a
# seeded field above 3e-3); it is shown once per round at a fixed field
# instead, where it fails every time.
GROUND_FAULT_FIELD = 1e-7


def weak_points(seed: int, index: int):
    """(field, level) points of one round and the round's corner field.

    The ladder runs from 1e-7 to 3e-4 in half decades; the 10 seeded
    points take one log-uniform field in each half decade of [1e-3, 1e2],
    slice s at level (11 s + 20) mod 31, which keeps n = 0 above 3e-3.
    Round r scales the ladder and the corner by 1 + 1e-3 r so no round
    meets the solver's cache.  The corner, robin+ n=30 at 1e-7, is the
    largest sign scan of the domain: it sets the peak memory and the
    slowest single level.
    """
    shift = 1.0 + 1e-3 * index
    ladder = [(field * shift, n) for field, n in WEAK_LADDER]
    fields = stratified_fields(round_rng(seed, "weak-spectrum", index), *SEEDED_RANGE,
                               SEEDED_SLICES)
    seeded = [(fields[s], (11 * s + 20) % (TOP_LEVEL + 1)) for s in range(SEEDED_SLICES)]
    return ladder + seeded, CORNER[2] * shift


def weak_point(rw, field: float, n: int):
    """Timed calls of one point; returns (seconds, energies, polarizations, matrices).

    ``energies`` maps (bc, level) to every level the point solved, those
    behind the dipole matrices included.
    """
    start = perf_counter()
    levels = {(bc, n): rw.energy(bc, n, field) for bc in WALLS}
    if n >= 1:
        levels[("dirichlet", n - 1)] = rw.energy("dirichlet", n - 1, field)
        levels[("robin-", 0)] = rw.energy("robin-", 0, field)
    pols = {bc: rw.polarization(levels[(bc, n)]) for bc in WALLS}
    mats = {bc: rw.dipole_matrix(bc, field, 2) for bc in DIPOLE_WALLS}
    for bc in DIPOLE_WALLS:
        for m in (0, 1):
            levels[(bc, m)] = rw.energy(bc, m, field)
    seconds = perf_counter() - start
    return seconds, {key: s.energy for key, s in levels.items()}, pols, mats


def zero_field_mean(bc: str, n: int) -> float:
    """Only the attractive-wall ground state stays bound at zero field, at <x> = -1/2."""
    return -0.5 if (bc, n) == ("robin-", 0) else 0.0


def polarization_faults(label: str, rec, ref: dict) -> list:
    faults = checks.position_faults(label, ref, {"mean_x": rec.mean_x})
    expected = rec.mean_x - zero_field_mean(rec.state.bc.value, rec.state.n)
    if rec.dipole != expected:
        faults.append(f"{label}: dipole {rec.dipole!r} is not mean_x minus the zero-field mean")
    return faults


def weak_point_faults(field: float, n: int, energies, pols, mats) -> list:
    label = f"F={field!r} n={n}"
    faults = []
    for (bc, m), e in energies.items():
        faults += checks.level_faults(bc, m, field, e)
    if faults:
        return faults
    faults += checks.ordering_faults(field, n, energies)
    if field <= 1e-2:
        faults += checks.weak_series_faults(field, energies[("robin-", 0)])
    for bc, rec in pols.items():
        ref = checks.Profile(field, energies[(bc, n)]).measures()
        faults += polarization_faults(f"{label} {bc}", rec, ref)
    for bc, mat in mats.items():
        pair = [energies[(bc, 0)], energies[(bc, 1)]]
        faults += checks.dipole_faults(f"{label} {bc} dipole", field, pair, mat.values)
    return faults


def weak_round(rw, seed: int, index: int, rec: Recorder) -> None:
    """Operations of kind corner, ladder, seeded and known-fault (each point counts its levels)."""
    points, corner = weak_points(seed, index)
    bc, n, _ = CORNER
    label = f"corner {bc} n={n} F={corner!r}"
    start = perf_counter()
    try:
        state = rw.energy(bc, n, corner)
        seconds = perf_counter() - start
        rec.op(label, "corner", seconds, checks.level_faults(bc, n, corner, state.energy))
    except Exception as exc:
        rec.op(label, "corner", perf_counter() - start, failure(label, exc))

    for i, (field, n) in enumerate(points):
        label = f"point F={field!r} n={n}"
        kind = "ladder" if i < len(WEAK_LADDER) else "seeded"
        start = perf_counter()
        try:
            seconds, energies, pols, mats = weak_point(rw, field, n)
        except Exception as exc:
            rec.op(label, kind, perf_counter() - start, failure(label, exc), levels=0)
            continue
        rec.op(label, kind, seconds, weak_point_faults(field, n, energies, pols, mats),
               levels=len(energies))

    label = f"polarization robin- n=0 F={GROUND_FAULT_FIELD!r}"
    start = perf_counter()
    try:
        state = rw.energy("robin-", 0, GROUND_FAULT_FIELD)
        pol = rw.polarization(state)
        seconds = perf_counter() - start
        ref = checks.Profile(GROUND_FAULT_FIELD, state.energy).measures()
        faults = checks.level_faults("robin-", 0, GROUND_FAULT_FIELD, state.energy)
        rec.op(label, "known-fault", seconds, faults + polarization_faults(label, pol, ref))
    except Exception as exc:
        rec.op(label, "known-fault", perf_counter() - start, failure(label, exc))


# -- cli-fresh -------------------------------------------------------------------


def cli_calls(seed: int, index: int):
    """Six short single-field calls and one 12-row Robin measures sweep.

    Short calls draw a wall and a log-uniform field in [0.1, 10]; the
    sweep's range ends are jittered by up to 12 % around 0.05 and 4 so its
    cost stays put from seed to seed.
    """
    rng = round_rng(seed, "cli-fresh", index)
    short = []
    for _ in range(2):
        bc = WALLS[int(rng.integers(4))]
        field = repr(float(10.0 ** rng.uniform(-1.0, 1.0)))
        short += [
            ["spectrum", "--bc", bc, "--n", "0,1,2", "--field", field],
            ["polarization", "--bc", bc, "--n", "0,1", "--field", field],
            ["oracle-check", "--bc", bc, "--n", "0,1,2", "--field", field],
        ]
    lo = 0.05 * 10.0 ** (0.05 * float(rng.random()))
    hi = 4.0 * 10.0 ** (-0.05 * float(rng.random()))
    sweep = ["measures", "--bc", "robin-", "--n", "0,1", "--field-range", f"{lo!r}:{hi!r}:6:log"]
    return short, sweep


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list) -> tuple:
    """Run ``python args`` to completion; returns (seconds, exit code, stdout).

    A child still running after CHILD_TIMEOUT seconds is killed and
    reported with exit code -9.
    """
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, -9, ""
    return perf_counter() - start, proc.returncode, proc.stdout


def cli_fresh(argv: list) -> tuple:
    return run_child(["-m", "robinwall.cli", *argv])


def cli_in_process(rw, argv: list) -> tuple:
    """The traced path: ``robinwall.cli.main`` in this process."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = rw.cli.main(list(argv))
    return perf_counter() - start, code, out.getvalue()


def cli_output_faults(rw, argv: list, code: int, stdout: str) -> tuple:
    """Checks of one CLI table; sweep rows are re-derived from ``rw.energy``."""
    label = " ".join(argv)
    rows, faults = checks.cli_rows(label, code, stdout)
    if faults:
        return rows, faults
    command = argv[0]
    for row in rows:
        bc, n, field = row["bc"], int(row["n"]), float(row["field"])
        where = f"{label} row n={n}"
        if command == "measures":
            energy = rw.energy(bc, n, field).energy
            values = {name: float(row[name]) for name in RECORD_FIELDS}
            faults += state_faults(where, bc, n, field, energy, values)
            continue
        energy = float(row["energy"])
        level = checks.level_faults(bc, n, field, energy)
        faults += level
        if level:
            continue
        if command == "polarization":
            ref = checks.Profile(field, energy).measures()
            faults += checks.position_faults(where, ref, {"mean_x": float(row["mean_x"])})
            if float(row["dipole"]) != float(row["mean_x"]) - zero_field_mean(bc, n):
                faults.append(f"{where}: dipole is not mean_x minus the zero-field mean")
    if command == "oracle-check":
        faults += checks.oracle_faults(label, rows)
    return rows, faults


def cli_round(rw, seed: int, index: int, rec: Recorder, tracer=None) -> None:
    """Operations of kind short, serial and jobs2 (sweeps count their rows).

    With a tracer the calls run in this process and the checks, which look
    levels up through ``rw.energy``, run with the tracer paused.
    """
    short, sweep = cli_calls(seed, index)
    call = cli_fresh if tracer is None else (lambda argv: cli_in_process(rw, argv))
    checking = contextlib.nullcontext if tracer is None else tracer.paused
    for argv in short:
        seconds, code, stdout = call(argv)
        with checking():
            faults = cli_output_faults(rw, argv, code, stdout)[1]
        rec.op(" ".join(argv), "short", seconds, faults)
    outputs = []
    for kind, jobs in (("serial", "1"), ("jobs2", "2")):
        argv = sweep + ["--jobs", jobs]
        seconds, code, stdout = call(argv)
        with checking():
            rows, faults = cli_output_faults(rw, argv, code, stdout)
        if kind == "jobs2":
            faults += checks.parallel_faults(outputs[0], stdout)
        rec.op(" ".join(argv), kind, seconds, faults, rows=len(rows))
        outputs.append(stdout)


def interpreter_probe(samples: int = 3) -> tuple:
    """Median wall seconds of a fresh ``python -c pass`` and of ``import robinwall``."""
    bare = statistics.median(run_child(["-c", "pass"])[0] for _ in range(samples))
    imported = statistics.median(run_child(["-c", "import robinwall"])[0] for _ in range(samples))
    return bare, imported
