"""Command-line front end: sweeps, profiles, and scalar searches.

Every subcommand emits a flat table (CSV by default, JSON with
``--out json``).  The per-level tables lead with ``bc, n, field``;
``crossing`` emits ``bc, lo, hi, field_cross`` and ``fishermax`` emits
``bc, n, field_max, fisher_product``.  Rows follow the request order
deterministically, failures are reported as rows with a diagnostic in
the ``error`` column, and the process exit code distinguishes usage
problems (1) from computation failures (2).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .infomeasures import entropy_crossing, fisher_product_maximum, measure_state
from .observables import dipole_matrix, polarization
from .oracle import fd_energies
from .spectrum import BoundarySpec, energy, field_roots
from .states import build_state

__all__ = ["main"]


_MEASURE_COLUMNS = (
    "S_x", "S_k", "S_t", "I_x", "I_k", "fisher_product",
    "O_x", "O_k", "onicescu_product", "CGL_x", "CGL_k", "CGL_product",
)


def _table(bc, levels, fields, columns, point, jobs, failed=None) -> tuple:
    """Rows and columns of a per-level table, level outer and field inner.

    ``point(n, field)`` returns the value rows of one grid point; each
    gets ``bc``, ``n`` and ``field`` (a value row may set its own ``n``)
    and an empty ``error``.  A point that raises becomes one row whose
    ``error`` carries the diagnostic, plus the ``failed`` cells; the
    sweep goes on.  With ``jobs`` > 1 the points run on that many
    threads and the rows keep their order.
    """

    def rows(task):
        n, field = task
        head = {"bc": bc.value, "n": n, "field": field}
        try:
            return [{**head, **cells, "error": ""} for cells in point(n, field)]
        except Exception as exc:
            return [{**head, **(failed or {}), "error": str(exc)}]

    tasks = [(n, field) for n in levels for field in fields]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(rows, tasks))
    else:
        chunks = [rows(task) for task in tasks]
    return [row for chunk in chunks for row in chunk], ["bc", "n", "field", *columns, "error"]


# -- output ----------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _emit(rows: list, columns: list, out_format: str, output_path) -> None:
    if out_format == "json":
        payload = {
            "schema": "robinwall/1",
            "rows": [{c: row.get(c, "") for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
        if output_path:
            with open(output_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    if output_path:
        with open(output_path, "w", newline="") as fh:
            _write_csv(fh, rows, columns)
    else:
        _write_csv(sys.stdout, rows, columns)


def _write_csv(fh, rows: list, columns: list) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(c, "")) for c in columns])


# -- argument plumbing -------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_n_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty level list")
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("levels must be non-negative")
    return values


def _parse_bc(text: str) -> BoundarySpec:
    try:
        return BoundarySpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_field(text: str) -> float:
    try:
        field = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad field {text!r}") from None
    if not field > 0.0:
        raise argparse.ArgumentTypeError("field grids must stay strictly positive")
    if field == math.inf:
        raise argparse.ArgumentTypeError("field grids must stay finite")
    return field


def _parse_xtol(text: str) -> float:
    try:
        xtol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from None
    if not 0.0 < xtol < math.inf:
        raise argparse.ArgumentTypeError("tolerance must be positive and finite")
    return xtol


def _parse_field_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count or start:stop:count:log, got {text!r}"
        )
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad field range {text!r}") from None
    if len(parts) == 4 and parts[3] != "log":
        raise argparse.ArgumentTypeError(f"unknown spacing {parts[3]!r}")
    if count < 2:
        raise argparse.ArgumentTypeError("field ranges need count >= 2")
    start, stop = _parse_field(parts[0]), _parse_field(parts[1])
    spaced = np.geomspace if len(parts) == 4 else np.linspace
    return tuple(spaced(start, stop, count).tolist())


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad worker count {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError("needs at least 1 worker")
    return jobs


def _fields(args) -> tuple:
    if args.field_range is not None:
        return args.field_range
    return (args.field,)


def _add_shared(p, *, fields: bool = False, jobs: bool = False) -> None:
    """Give p the output options and the shared groups that it honours.

    ``fields`` adds --field/--field-range (the per-level tables) and
    ``jobs`` adds --jobs (the sweeps that run through _table).
    """
    p.add_argument("--out", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write to FILE instead of stdout")
    if jobs:
        p.add_argument("--jobs", type=_parse_jobs, default=1,
                       help="parallel workers for sweep rows (default 1)")
    if fields:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--field", type=_parse_field, default=1.0,
                           help="single field value (default 1.0)")
        group.add_argument("--field-range", type=_parse_field_range, default=None,
                           metavar="A:B:COUNT[:log]",
                           help="sweep fields from A to B in COUNT steps")


_BC_HELP = "wall type: dirichlet, neumann, robin-, robin+"


def _add_wall_levels(p, levels=None) -> None:
    """Add --bc to p and --n to ``levels``, a group of p, or else to p."""
    p.add_argument("--bc", type=_parse_bc, required=True, help=_BC_HELP)
    target = p if levels is None else levels
    target.add_argument("--n", type=_parse_n_list, default=(0,), help="comma list of levels")


def _build_parser() -> _Parser:
    parser = _Parser(prog="robinwall",
                     description="Levels and information measures of a wall "
                                 "on a half-line in a uniform field.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("spectrum", help="level energies over a field grid")
    p.set_defaults(handler=_handle_spectrum)
    _add_wall_levels(p)
    _add_shared(p, fields=True, jobs=True)

    p = sub.add_parser("state", help="wavefunction or momentum-density profile")
    p.set_defaults(handler=_handle_state)
    _add_wall_levels(p)
    p.add_argument("--what", choices=("wavefunction", "momentum_density"),
                   default="wavefunction")
    p.add_argument("--points", type=int, default=401, help="profile resolution")
    p.add_argument("--k-max", type=float, default=None,
                   help="momentum profile endpoint (default 5*max(1, field^(1/3)))")
    _add_shared(p, fields=True, jobs=True)

    p = sub.add_parser("polarization", help="mean positions and dipole shifts")
    p.set_defaults(handler=_handle_polarization)
    # The matrix always spans levels 0 to SIZE - 1, so --n has no say in it.
    group = p.add_mutually_exclusive_group()
    _add_wall_levels(p, group)
    group.add_argument("--matrix", type=int, default=0, metavar="SIZE",
                       help="emit the SIZE x SIZE coordinate matrix instead")
    _add_shared(p, fields=True, jobs=True)

    p = sub.add_parser("measures", help="entropies, Fisher, disequilibria, products")
    p.set_defaults(handler=_handle_measures)
    _add_wall_levels(p)
    _add_shared(p, fields=True, jobs=True)

    p = sub.add_parser("crossing",
                       help="field where the two lowest attractive-wall total "
                            "entropies meet")
    p.set_defaults(handler=_handle_crossing)
    p.add_argument("--lo", type=_parse_field, default=0.1)
    p.add_argument("--hi", type=_parse_field, default=5.0)
    p.add_argument("--xtol", type=_parse_xtol, default=1e-3)
    _add_shared(p)

    p = sub.add_parser("fishermax",
                       help="interior maximum of the Fisher product over the field")
    p.set_defaults(handler=_handle_fishermax)
    p.add_argument("--n", type=int, default=1, help="attractive-wall level")
    p.add_argument("--lo", type=_parse_field, default=1e-4)
    p.add_argument("--hi", type=_parse_field, default=1.0)
    p.add_argument("--xtol", type=_parse_xtol, default=1e-3)
    _add_shared(p)

    p = sub.add_parser("table1",
                       help="shape-complexity table of the lowest hard- and "
                            "soft-wall levels")
    p.set_defaults(handler=_handle_table1)
    p.add_argument("--bc", type=_parse_bc, default=None,
                   help="restrict to dirichlet or neumann (default both)")
    p.add_argument("--levels", type=int, default=6, help="levels per wall (default 6)")
    _add_shared(p, fields=True, jobs=True)

    p = sub.add_parser("oracle-check",
                       help="solver energies against the finite-difference route")
    p.set_defaults(handler=_handle_oracle_check)
    _add_wall_levels(p)
    _add_shared(p, fields=True)

    return parser


# -- subcommand handlers -----------------------------------------------------


def _handle_spectrum(args) -> tuple:
    def point(n, field):
        state = energy(args.bc, n, field)
        return [{"energy": state.energy, "residual": state.residual}]

    return _table(args.bc, args.n, _fields(args), ["energy", "residual"], point, args.jobs)


def _handle_polarization(args) -> tuple:
    if args.matrix:
        if args.matrix < 2:
            raise _UsageError("--matrix needs at least 2 levels")
        size = range(args.matrix)

        def matrix_point(_, field):
            matrix = dipole_matrix(args.bc, field, args.matrix)
            return [{"n": n, "m": m, "dipole": matrix.element(n, m)} for n in size for m in size]

        return _table(args.bc, (0,), _fields(args), ["m", "dipole"], matrix_point,
                      args.jobs, failed={"m": 0})

    def point(n, field):
        state = energy(args.bc, n, field)
        rec = polarization(state)
        return [{"energy": state.energy, "mean_x": rec.mean_x,
                 "zero_field_mean_x": rec.zero_field_mean_x, "dipole": rec.dipole}]

    return _table(args.bc, args.n, _fields(args),
                  ["energy", "mean_x", "zero_field_mean_x", "dipole"], point, args.jobs)


def _measure_table(bc, levels, fields, columns, jobs) -> tuple:
    def point(n, field):
        rec = measure_state(build_state(bc, n, field))
        return [{name: getattr(rec, name) for name in columns}]

    return _table(bc, levels, fields, columns, point, jobs)


def _handle_measures(args) -> tuple:
    return _measure_table(args.bc, args.n, _fields(args), _MEASURE_COLUMNS, args.jobs)


def _handle_state(args) -> tuple:
    if args.points < 2:
        raise _UsageError("--points must be at least 2")
    if args.k_max is not None and not (0.0 < args.k_max < math.inf):
        raise _UsageError("--k-max must be a positive finite number")
    wavefunction = args.what == "wavefunction"
    if wavefunction and args.k_max is not None:
        raise _UsageError("--k-max applies to --what momentum_density only")

    def point(n, field):
        sf = build_state(args.bc, n, field)
        if wavefunction:
            xs = np.linspace(sf.x_cut, 0.0, args.points)
            return [{"x": x, "psi": p_val, "rho": p_val * p_val}
                    for x, p_val in zip(xs.tolist(), sf.psi(xs).tolist())]
        top = args.k_max
        if top is None:
            top = 5.0 * max(1.0, field_roots(field)[0])
        ks = np.linspace(0.0, top, args.points)
        return [{"k": k, "gamma": g} for k, g in zip(ks.tolist(), sf.gamma(ks).tolist())]

    columns = ["x", "psi", "rho"] if wavefunction else ["k", "gamma"]
    return _table(args.bc, args.n, _fields(args), columns, point, args.jobs)


def _bracket(args) -> tuple:
    if not args.lo < args.hi:
        raise _UsageError(f"--lo ({args.lo:g}) must be below --hi ({args.hi:g})")
    return args.lo, args.hi


def _handle_crossing(args) -> tuple:
    field_cross = entropy_crossing(bracket=_bracket(args), xtol=args.xtol)
    rows = [{"bc": BoundarySpec.ROBIN_MINUS.value, "lo": args.lo, "hi": args.hi,
             "field_cross": field_cross}]
    return rows, ["bc", "lo", "hi", "field_cross"]


def _handle_fishermax(args) -> tuple:
    result = fisher_product_maximum(args.n, bracket=_bracket(args), xtol=args.xtol)
    rows = [{"bc": BoundarySpec.ROBIN_MINUS.value, "n": args.n,
             "field_max": result.field, "fisher_product": result.product}]
    return rows, ["bc", "n", "field_max", "fisher_product"]


def _handle_table1(args) -> tuple:
    if args.bc is None:
        walls = (BoundarySpec.DIRICHLET, BoundarySpec.NEUMANN)
    elif args.bc.is_robin:
        raise _UsageError("table1 covers the dirichlet and neumann walls only")
    else:
        walls = (args.bc,)
    if args.levels < 1:
        raise _UsageError("--levels must be positive")
    fields = _fields(args)
    rows = []
    for wall in walls:
        wall_rows, columns = _measure_table(wall, range(args.levels), fields,
                                            _MEASURE_COLUMNS[-3:], args.jobs)
        rows.extend(wall_rows)
    return rows, columns


def _handle_oracle_check(args) -> tuple:
    columns = ["bc", "n", "field", "energy", "energy_fd", "rel_diff", "error"]
    rows = []
    top = max(args.n)
    for field in _fields(args):
        # One grid solve per field; a refused grid still leaves the
        # analytic energy in every row, with the refusal as its error.
        try:
            fd_vals, refusal = fd_energies(args.bc, field, top + 1), ""
        except Exception as exc:
            fd_vals, refusal = None, str(exc)
        for n in args.n:
            row = {"bc": args.bc.value, "n": n, "field": field, "error": refusal}
            try:
                exact = energy(args.bc, n, field).energy
            except Exception as exc:
                row["error"] = refusal or str(exc)
            else:
                row["energy"] = exact
                if fd_vals is not None:
                    approx = float(fd_vals[n])
                    row["energy_fd"] = approx
                    row["rel_diff"] = abs(approx - exact) / max(abs(exact), 1e-300)
            rows.append(row)
    return rows, columns


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        rows, columns = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(rows, columns, args.out, args.output)
    if any(row.get("error") for row in rows):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
