"""Command-line front end: sweeps, profiles, and scalar searches.

Every subcommand emits a flat table (CSV by default, JSON with
``--out json``) whose leading columns are always ``bc, n, field``.  Rows
follow the request order deterministically, failures are reported as
rows with a diagnostic in the ``error`` column, and the process exit
code distinguishes usage problems (1) from computation failures (2).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .infomeasures import entropy_crossing, fisher_product_maximum, measure_state
from .observables import dipole_matrix, polarization
from .oracle import fd_energies
from .quadrature import DEFAULT_TOLERANCES, ToleranceConfig
from .spectrum import BoundarySpec, energy
from .states import StateFunctions

__all__ = ["FieldGrid", "SweepRequest", "main", "run_sweep"]


_QUANTITY_COLUMNS = {
    "energy": ("energy", "residual"),
    "polarization": ("energy", "mean_x", "zero_field_mean_x", "dipole"),
    "cgl": ("CGL_x", "CGL_k", "CGL_product"),
    "measures": (
        "S_x", "S_k", "S_t", "I_x", "I_k", "fisher_product",
        "O_x", "O_k", "onicescu_product", "CGL_x", "CGL_k", "CGL_product",
    ),
    "dipole_matrix": ("m", "dipole"),
}

_QUANTITY_ORDER = tuple(_QUANTITY_COLUMNS)


@dataclass(frozen=True)
class FieldGrid:
    """Field values of a sweep: a single point or a spaced range."""

    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if not (self.start > 0.0 and self.stop > 0.0):
            raise ValueError("field grids must stay strictly positive")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be 'linear' or 'log'")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.count == 1 and self.start != self.stop:
            raise ValueError("a single-point grid needs start == stop")

    @classmethod
    def single(cls, value: float) -> "FieldGrid":
        return cls(start=value, stop=value, count=1)

    def values(self) -> tuple:
        if self.count == 1:
            return (self.start,)
        if self.spacing == "log":
            return tuple(np.geomspace(self.start, self.stop, self.count).tolist())
        return tuple(np.linspace(self.start, self.stop, self.count).tolist())


@dataclass(frozen=True)
class SweepRequest:
    """One table request: which levels, which fields, which quantities."""

    bc: BoundarySpec
    n_list: tuple
    field_grid: FieldGrid
    quantities: tuple
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES
    oracle: bool = False
    matrix_size: int = 0

    def __post_init__(self):
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if any(int(n) < 0 for n in self.n_list):
            raise ValueError("quantum numbers must be non-negative")
        unknown = [q for q in self.quantities if q not in _QUANTITY_COLUMNS]
        if unknown:
            raise ValueError(f"unknown quantities: {', '.join(unknown)}")
        if "dipole_matrix" in self.quantities:
            if len(self.quantities) != 1:
                raise ValueError("dipole_matrix rows have their own shape; request it alone")
            if self.matrix_size < 2:
                raise ValueError("dipole_matrix needs matrix_size >= 2")

    def columns(self) -> list:
        cols = ["bc", "n", "field"]
        for q in _QUANTITY_ORDER:
            if q not in self.quantities:
                continue
            for c in _QUANTITY_COLUMNS[q]:
                if c not in cols:
                    cols.append(c)
            if q == "energy" and self.oracle:
                cols.append("energy_fd")
        cols.append("error")
        return cols


def _row_values(req: SweepRequest, n: int, field: float) -> dict:
    vals = {}
    state = energy(req.bc, n, field)
    vals["energy"] = state.energy
    vals["residual"] = state.residual
    if req.oracle:
        vals["energy_fd"] = float(fd_energies(req.bc, field, n + 1)[n])
    qs = set(req.quantities)
    if "polarization" in qs:
        rec = polarization(state)
        vals.update(
            mean_x=rec.mean_x,
            zero_field_mean_x=rec.zero_field_mean_x,
            dipole=rec.dipole,
        )
    if qs & {"cgl", "measures"}:
        # The cgl columns are a subset of the measures columns.
        rec = measure_state(StateFunctions(state, req.tolerances), req.tolerances)
        vals.update((name, getattr(rec, name)) for name in _QUANTITY_COLUMNS["measures"])
    return vals


def _matrix_rows(req: SweepRequest) -> list:
    rows = []
    for field in req.field_grid.values():
        try:
            matrix = dipole_matrix(req.bc, field, req.matrix_size)
        except Exception as exc:
            rows.append({"bc": req.bc.value, "n": 0, "field": field,
                         "m": 0, "dipole": "", "error": str(exc)})
            continue
        for n in range(req.matrix_size):
            for m in range(req.matrix_size):
                rows.append({
                    "bc": req.bc.value, "n": n, "field": field,
                    "m": m, "dipole": matrix.element(n, m), "error": "",
                })
    return rows


def run_sweep(req: SweepRequest, jobs: int = 1) -> list:
    """Compute all rows of a request, in request order.

    Failures never abort the sweep; they surface as rows whose ``error``
    column carries the diagnostic.
    """
    if "dipole_matrix" in req.quantities:
        return _matrix_rows(req)

    tasks = [(int(n), field) for n in req.n_list for field in req.field_grid.values()]

    def worker(task):
        n, field = task
        row = {"bc": req.bc.value, "n": n, "field": field, "error": ""}
        try:
            row.update(_row_values(req, n, field))
        except Exception as exc:
            row["error"] = str(exc)
        return row

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks))
    return [worker(t) for t in tasks]


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


def _parse_field_range(text: str) -> FieldGrid:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count or start:stop:count:log, got {text!r}"
        )
    try:
        start = float(parts[0])
        stop = float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad field range {text!r}") from None
    spacing = "linear"
    if len(parts) == 4:
        if parts[3] != "log":
            raise argparse.ArgumentTypeError(f"unknown spacing {parts[3]!r}")
        spacing = "log"
    if count < 2:
        raise argparse.ArgumentTypeError("field ranges need count >= 2")
    try:
        return FieldGrid(start=start, stop=stop, count=count, spacing=spacing)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_CONFIG_KEYS = {
    "abs_tol": float,
    "rel_tol": float,
    "max_subdivisions": int,
    "x_cut_threshold": float,
    "k_tail_switch": float,
}


def _read_config(path: str) -> dict:
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise _UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; "
                    f"valid keys: {', '.join(sorted(_CONFIG_KEYS))}"
                )
            try:
                overrides[key] = _CONFIG_KEYS[key](value.strip())
            except ValueError:
                raise _UsageError(f"{path}:{lineno}: bad value for {key}") from None
    return overrides


def _tolerances(args) -> ToleranceConfig:
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(_read_config(args.config))
    if getattr(args, "tol_abs", None) is not None:
        overrides["abs_tol"] = args.tol_abs
    if getattr(args, "tol_rel", None) is not None:
        overrides["rel_tol"] = args.tol_rel
    if getattr(args, "tail_k", None) is not None:
        overrides["k_tail_switch"] = args.tail_k
    try:
        return replace(DEFAULT_TOLERANCES, **overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _field_grid(args) -> FieldGrid:
    if getattr(args, "field_range", None) is not None:
        return args.field_range
    return FieldGrid.single(args.field)


def _add_common(p, field_default: float = 1.0):
    p.add_argument("--out", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write to FILE instead of stdout")
    p.add_argument("--tol-abs", type=float, default=None,
                   help="absolute quadrature tolerance override")
    p.add_argument("--tol-rel", type=float, default=None,
                   help="relative quadrature tolerance override")
    p.add_argument("--tail-k", type=float, default=None,
                   help="base switch momentum for the density tail model")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value tolerance overrides; flags win")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for sweep rows (default 1)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--field", type=float, default=field_default,
                       help=f"single field value (default {field_default})")
    group.add_argument("--field-range", type=_parse_field_range, default=None,
                       metavar="A:B:COUNT[:log]",
                       help="sweep fields from A to B in COUNT steps")


_BC_HELP = "wall type: dirichlet, neumann, robin-, robin+"


def _build_parser() -> _Parser:
    parser = _Parser(prog="robinwall",
                     description="Levels and information measures of a wall "
                                 "on a half-line in a uniform field.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("spectrum", help="level energies over a field grid")
    p.add_argument("--bc", type=BoundarySpec.parse, required=True, help=_BC_HELP)
    p.add_argument("--n", type=_parse_n_list, default=(0,), help="comma list of levels")
    p.add_argument("--oracle", action="store_true",
                   help="append an independent finite-difference energy column")
    _add_common(p)

    p = sub.add_parser("state", help="wavefunction or momentum-density profile")
    p.add_argument("--bc", type=BoundarySpec.parse, required=True, help=_BC_HELP)
    p.add_argument("--n", type=_parse_n_list, default=(0,), help="comma list of levels")
    p.add_argument("--what", choices=("wavefunction", "momentum_density"),
                   default="wavefunction")
    p.add_argument("--points", type=int, default=401, help="profile resolution")
    p.add_argument("--k-max", type=float, default=None,
                   help="momentum profile endpoint (default 5*max(1, field^(1/3)))")
    _add_common(p)

    p = sub.add_parser("polarization", help="mean positions and dipole shifts")
    p.add_argument("--bc", type=BoundarySpec.parse, required=True, help=_BC_HELP)
    p.add_argument("--n", type=_parse_n_list, default=(0,), help="comma list of levels")
    p.add_argument("--matrix", type=int, default=0, metavar="SIZE",
                   help="emit the SIZE x SIZE coordinate matrix instead")
    _add_common(p)

    p = sub.add_parser("measures", help="entropies, Fisher, disequilibria, products")
    p.add_argument("--bc", type=BoundarySpec.parse, required=True, help=_BC_HELP)
    p.add_argument("--n", type=_parse_n_list, default=(0,), help="comma list of levels")
    _add_common(p)

    p = sub.add_parser("crossing",
                       help="field where the two lowest attractive-wall total "
                            "entropies meet")
    p.add_argument("--lo", type=float, default=0.1)
    p.add_argument("--hi", type=float, default=5.0)
    p.add_argument("--xtol", type=float, default=1e-3)
    _add_common(p)

    p = sub.add_parser("fishermax",
                       help="interior maximum of the Fisher product over the field")
    p.add_argument("--n", type=int, default=1, help="attractive-wall level")
    p.add_argument("--lo", type=float, default=1e-4)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--xtol", type=float, default=1e-3)
    _add_common(p)

    p = sub.add_parser("table1",
                       help="shape-complexity table of the lowest hard- and "
                            "soft-wall levels")
    p.add_argument("--bc", type=BoundarySpec.parse, default=None,
                   help="restrict to dirichlet or neumann (default both)")
    p.add_argument("--levels", type=int, default=6, help="levels per wall (default 6)")
    _add_common(p)

    p = sub.add_parser("oracle-check",
                       help="solver energies against the finite-difference route")
    p.add_argument("--bc", type=BoundarySpec.parse, required=True, help=_BC_HELP)
    p.add_argument("--n", type=_parse_n_list, default=(0,), help="comma list of levels")
    _add_common(p)

    return parser


# -- subcommand handlers -----------------------------------------------------


def _handle_sweep(args, quantities) -> tuple:
    req = SweepRequest(
        bc=args.bc,
        n_list=args.n,
        field_grid=_field_grid(args),
        quantities=quantities,
        tolerances=_tolerances(args),
        oracle=getattr(args, "oracle", False),
        matrix_size=getattr(args, "matrix", 0),
    )
    rows = run_sweep(req, jobs=max(1, args.jobs))
    return rows, req.columns()


def _handle_polarization(args) -> tuple:
    if args.matrix:
        if args.matrix < 2:
            raise _UsageError("--matrix needs at least 2 levels")
        return _handle_sweep(args, ("dipole_matrix",))
    return _handle_sweep(args, ("polarization",))


def _handle_state(args) -> tuple:
    cfg = _tolerances(args)
    if args.points < 2:
        raise _UsageError("--points must be at least 2")
    profile = args.what
    if profile == "wavefunction":
        columns = ["bc", "n", "field", "x", "psi", "rho", "error"]
    else:
        columns = ["bc", "n", "field", "k", "gamma", "error"]
    rows = []
    for n in args.n:
        for field in _field_grid(args).values():
            try:
                sf = StateFunctions(energy(args.bc, n, field), cfg)
                if profile == "wavefunction":
                    xs = np.linspace(sf.x_cut, 0.0, args.points)
                    psi = sf.psi(xs)
                    for x, p_val in zip(xs.tolist(), psi.tolist()):
                        rows.append({"bc": args.bc.value, "n": n, "field": field,
                                     "x": x, "psi": p_val, "rho": p_val * p_val,
                                     "error": ""})
                else:
                    top = args.k_max
                    if top is None:
                        top = 5.0 * max(1.0, field ** (1.0 / 3.0))
                    ks = np.linspace(0.0, top, args.points)
                    gam = sf.gamma(ks)
                    for k, g in zip(ks.tolist(), gam.tolist()):
                        rows.append({"bc": args.bc.value, "n": n, "field": field,
                                     "k": k, "gamma": g, "error": ""})
            except Exception as exc:
                rows.append({"bc": args.bc.value, "n": n, "field": field,
                             "error": str(exc)})
    return rows, columns


def _handle_crossing(args) -> tuple:
    cfg = _tolerances(args)
    field_cross = entropy_crossing(cfg, bracket=(args.lo, args.hi), xtol=args.xtol)
    rows = [{"bc": BoundarySpec.ROBIN_MINUS.value, "lo": args.lo, "hi": args.hi,
             "field_cross": field_cross}]
    return rows, ["bc", "lo", "hi", "field_cross"]


def _handle_fishermax(args) -> tuple:
    cfg = _tolerances(args)
    result = fisher_product_maximum(args.n, bracket=(args.lo, args.hi),
                                    xtol=args.xtol, cfg=cfg)
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
    cfg = _tolerances(args)
    rows = []
    columns = None
    for wall in walls:
        req = SweepRequest(
            bc=wall,
            n_list=tuple(range(args.levels)),
            field_grid=_field_grid(args),
            quantities=("cgl",),
            tolerances=cfg,
        )
        rows.extend(run_sweep(req, jobs=max(1, args.jobs)))
        columns = req.columns()
    return rows, columns


def _handle_oracle_check(args) -> tuple:
    cfg = _tolerances(args)
    del cfg  # the grid route has its own fixed tolerances
    columns = ["bc", "n", "field", "energy", "energy_fd", "rel_diff", "error"]
    rows = []
    top = max(args.n)
    for field in _field_grid(args).values():
        try:
            fd_vals = fd_energies(args.bc, field, top + 1)
        except Exception as exc:
            for n in args.n:
                rows.append({"bc": args.bc.value, "n": n, "field": field,
                             "error": str(exc)})
            continue
        for n in args.n:
            try:
                exact = energy(args.bc, n, field).energy
                approx = float(fd_vals[n])
                rows.append({
                    "bc": args.bc.value, "n": n, "field": field,
                    "energy": exact, "energy_fd": approx,
                    "rel_diff": abs(approx - exact) / max(abs(exact), 1e-300),
                    "error": "",
                })
            except Exception as exc:
                rows.append({"bc": args.bc.value, "n": n, "field": field,
                             "error": str(exc)})
    return rows, columns


_SWEEP_QUANTITIES = {
    "spectrum": ("energy",),
    "measures": ("measures",),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command in _SWEEP_QUANTITIES:
            rows, columns = _handle_sweep(args, _SWEEP_QUANTITIES[args.command])
        elif args.command == "polarization":
            rows, columns = _handle_polarization(args)
        elif args.command == "state":
            rows, columns = _handle_state(args)
        elif args.command == "crossing":
            rows, columns = _handle_crossing(args)
        elif args.command == "fishermax":
            rows, columns = _handle_fishermax(args)
        elif args.command == "table1":
            rows, columns = _handle_table1(args)
        else:
            rows, columns = _handle_oracle_check(args)
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
