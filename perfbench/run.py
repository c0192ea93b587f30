"""Benchmark of robinwall: three workloads, end-to-end metrics, a traced per-layer split.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload measures --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
inputs with every layer boundary wrapped and prints the per-layer metrics.
The program is imported from ``src/`` of the checkout and nowhere else.
The last line of standard output is one JSON object; the lines before it
are the run report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("measures", "weak-spectrum", "cli-fresh")
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "long_call_s": "s",
}
SETUP_SAMPLES = 3
# Times and rates are reported at the speed where the probe in
# workloads.speed_probe takes this long (see README, "Steadiness").
REFERENCE_PROBE_S = 0.040


def program_sources() -> str:
    """./src of the checkout; exits 2 when it holds no robinwall."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "robinwall", "__init__.py")):
        print(f"no robinwall sources under {src}", file=sys.stderr)
        sys.exit(2)
    return src


def import_program():
    """robinwall (and its CLI) from ./src and nowhere else."""
    src = program_sources()
    sys.path.insert(0, src)
    rw = importlib.import_module("robinwall")
    importlib.import_module("robinwall.cli")
    if not os.path.abspath(rw.__file__).startswith(src + os.sep):
        print(f"robinwall imported from {rw.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return rw


def setup(workload: str, seed: int):
    """Import, first round's inputs and warm-up; returns (robinwall, seconds).

    The benchmark's own modules (mpmath for the checks) load between the
    two timed spans, so only the program's set-up is counted.
    """
    start = perf_counter()
    rw = import_program()
    imported = perf_counter() - start
    import workloads as wl

    start = perf_counter()
    if workload == "measures":
        wl.measures_points(seed, 0)
        rw.measure_state(rw.build_state("dirichlet", 0, 1e3))
    else:
        wl.weak_points(seed, 0)
        rw.dipole_matrix("robin-", 1.0, 2)
        rw.polarization(rw.energy("robin+", 0, 1.0))
    return rw, imported + perf_counter() - start


def environment_header(seed: int) -> list:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [
        f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}"
        f" blas {blas.get('name')} {blas.get('version')}",
        f"nproc {len(os.sched_getaffinity(0))} seed {seed} "
        + " ".join(f"{v}={os.environ.get(v, '(unset)')}" for v in BLAS_VARIABLES),
    ]
    return ["# " + line for line in lines]


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_rounds(rec, run_round, seconds: float, traced: bool) -> None:
    """Whole rounds while the next one, as long as the last, still fits in ``seconds``.

    A traced run runs exactly one round, so its counts compare across commits.
    """
    rec.sample()
    start = perf_counter()
    while True:
        began = perf_counter()
        run_round(rec.round)
        last = perf_counter() - began
        if traced or perf_counter() - start + last > seconds:
            return
        rec.round += 1


def seconds_of(ops, *kinds) -> list:
    return [o["seconds"] for o in ops if o["kind"] in kinds]


def per_round(ops, *kinds) -> list:
    """Seconds spent on ``kinds`` in each round."""
    totals = {}
    for o in ops:
        if o["kind"] in kinds:
            totals[o["round"]] = totals.get(o["round"], 0.0) + o["seconds"]
    return list(totals.values())


def workload_metrics(workload: str, ops: list) -> dict:
    """throughput_per_s and long_call_s of one workload (README table)."""
    if workload == "measures":
        states = seconds_of(ops, "state")
        return {"throughput_per_s": len(states) / sum(states),
                "long_call_s": statistics.median(seconds_of(ops, "search"))}
    if workload == "weak-spectrum":
        points = [o for o in ops if o["kind"] in ("ladder", "seeded")]
        return {"throughput_per_s": sum(o["levels"] for o in points)
                / sum(o["seconds"] for o in points),
                "long_call_s": statistics.median(per_round(ops, "corner", "ladder"))}
    return {"throughput_per_s": statistics.median(o["rows"] / o["seconds"]
                                                  for o in ops if o["kind"] == "jobs2"),
            "long_call_s": statistics.median(seconds_of(ops, "serial"))}


def start_tracer():
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def run_in_process(workload: str, seed: int, seconds: float, traced: bool):
    """Returns (recorder, set-up seconds samples, tracer or None)."""
    import workloads as wl

    rw, setup_s = setup(workload, seed)
    setup_samples = [setup_s]
    if not traced:
        for _ in range(SETUP_SAMPLES - 1):
            _, code, out = wl.run_child([os.path.join(HERE, "run.py"), "--workload", workload,
                                         "--seed", str(seed), "--setup-probe"])
            if code != 0:
                raise RuntimeError(f"set-up probe exited with {code}")
            setup_samples.append(float(out.split()[-1]))
    tracer = start_tracer() if traced else None
    rec = wl.Recorder(probing=not traced)
    if workload == "measures":
        run_rounds(rec, lambda i: wl.measures_round(rw, seed, i, rec), seconds, traced)
        wl.fisher_search(rw, rec)
    else:
        run_rounds(rec, lambda i: wl.weak_round(rw, seed, i, rec), seconds, traced)
    return rec, setup_samples, tracer


def run_cli(seed: int, seconds: float, traced: bool):
    """Returns (recorder, set-up seconds samples, tracer or None)."""
    import workloads as wl

    setup_samples = [wl.run_child(["-c", "import robinwall"])[0] for _ in range(SETUP_SAMPLES)]
    rw = import_program()
    tracer = start_tracer() if traced else None
    # The calls run in child processes, which the parent's probe does not
    # follow, so cli-fresh reports wall-clock figures unscaled.
    rec = wl.Recorder(probing=False)
    run_rounds(rec, lambda i: wl.cli_round(rw, seed, i, rec, tracer), seconds, traced)
    return rec, setup_samples, tracer


def layer_report(workload: str, seed: int, ops: list, tracer) -> dict:
    import tracing
    import workloads as wl

    bare, imported = wl.interpreter_probe()
    layer = tracer.layer_metrics()
    layer.update({"cli.interpreter_s": bare, "cli.import_s": imported - bare,
                  "cli.sweep_rows": sum(o.get("rows", 0) for o in ops)})
    overhead, span_cost, add_cost = tracer.overhead_estimate()
    print(f"# tracing overhead, estimated: {overhead:.3f} s = {len(tracer.spans)} spans x "
          f"{span_cost * 1e6:.2f} us + {tracer.adds} counts x {add_cost * 1e6:.2f} us")
    out_dir = os.path.join(HERE, "traces")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"{workload}-seed{seed}.csv"))
    return {name: (float(layer[name]) if unit == "s" else layer[name], unit)
            for name, unit in tracing.PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this fresh interpreter and print it")
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup(args.workload, args.seed)[1])
        return 0

    program_sources()
    traced = bool(args.trace)
    started = perf_counter()
    if args.workload == "cli-fresh":
        rec, setup_samples, tracer = run_cli(args.seed, args.seconds, traced)
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    else:
        rec, setup_samples, tracer = run_in_process(args.workload, args.seed, args.seconds,
                                                    traced)
        rss = peak_rss_mb(resource.RUSAGE_SELF)
    ops = rec.ops
    for line in environment_header(args.seed):
        print(line)
    failed = [o for o in ops if o["faults"]]
    # Only the documented always-failing operation may fail with the
    # output still counted as correct.
    correct = all(o["kind"] == "known-fault" for o in failed)
    for o in failed:
        for fault in o["faults"]:
            print(f"# FAILED {o['label']}: {fault}")

    if traced:
        report = layer_report(args.workload, args.seed, ops, tracer)
    else:
        raw = dict(workload_metrics(args.workload, ops),
                   setup_s=statistics.median(setup_samples))
        slowdown = 1.0
        if rec.probes:
            slowdown = statistics.mean(rec.probes) / REFERENCE_PROBE_S
            print(f"# speed probe: mean {statistics.mean(rec.probes) * 1e3:.2f} ms over "
                  f"{len(rec.probes)} probes, {slowdown:.3f} x the reference "
                  f"{REFERENCE_PROBE_S * 1e3:.0f} ms")
            for name, value in raw.items():
                print(f"# raw {name} = {value}")
        metrics = {name: value * slowdown if name == "throughput_per_s" else value / slowdown
                   for name, value in raw.items()}
        metrics["peak_rss_mb"] = rss
        report = {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}

    print(f"# workload {args.workload}: attempted {len(ops)} failed {len(failed)} "
          f"in {1 + max(o['round'] for o in ops)} round(s); program time "
          f"{sum(o['seconds'] for o in ops):.3f} s, wall {perf_counter() - started:.3f} s"
          f"{' (traced)' if traced else ''}")
    for name, (value, unit) in report.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
