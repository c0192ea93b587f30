"""Package surface: the public names, and no import left unused."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import robinwall

SOURCE = Path(robinwall.__file__).resolve().parent

PUBLIC = [
    "ENTROPY_FLOOR",
    "AiryRootTable",
    "BoundState",
    "BoundarySpec",
    "BracketError",
    "ConsistencyError",
    "DipoleMatrix",
    "DomainError",
    "FisherMaximum",
    "InfoRecord",
    "PolarizationRecord",
    "QuadratureError",
    "StateFunctions",
    "build_state",
    "dipole_matrix",
    "energy",
    "entropy_crossing",
    "fd_energies",
    "fisher",
    "fisher_position_closed",
    "fisher_product_maximum",
    "mean_position",
    "measure_state",
    "polarization",
    "root_table",
    "zero_field_mean_x",
]

# An import marked this way is kept for a caller outside the module.
_NOQA_F401 = re.compile(r"#\s*noqa:.*\bF401\b")


def test_public_surface_is_pinned():
    assert len(set(robinwall.__all__)) == len(robinwall.__all__) == 26
    assert sorted(robinwall.__all__) == sorted(PUBLIC)
    stale = []
    for path in sorted(SOURCE.glob("*.py")):
        name = "robinwall" if path.stem == "__init__" else f"robinwall.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", [])
                  if not hasattr(module, attr)]
    assert stale == []


def _loads_by_owner() -> dict:
    """{name: top-level definitions of the package that load it}, None for module code.

    A load is a Name or an Attribute read anywhere in ``src/robinwall/``
    outside ``__init__.py``; its owner is the function or class at the top
    of the module that holds it.
    """
    loads = defaultdict(set)
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads[node.id].add(owner)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads[node.attr].add(owner)
    return loads


def test_every_public_name_has_a_library_caller():
    # A public name is dead when every load of it sits inside its own
    # definition or that of another dead public name, so a record that
    # only a dead function builds is dead with it.
    loads = _loads_by_owner()
    dead = set()
    while True:
        grown = {name for name in robinwall.__all__ if loads[name] <= dead | {name}}
        if grown == dead:
            break
        dead = grown
    assert sorted(dead) == []


def _unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if _NOQA_F401.search(lines[node.end_lineno - 1]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Names re-exported through __all__ count as used.
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    unused = []
    for path in sorted(SOURCE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        unused += _unused_imports(path)
    assert unused == []


TRACER_PROBE = """
import tracing
tracing.install(tracing.Tracer())
from robinwall import build_state, dipole_matrix, energy, measure_state, polarization
measure_state(build_state("robin-", 0, 1.0))
polarization(energy("dirichlet", 1, 2.0))
dipole_matrix("neumann", 1.0, 3)
"""


def test_benchmark_tracer_installs_and_runs():
    # perfbench/tracing.py wraps names from outside the package:
    # HalfLineFourierTable, the ``sp`` attribute of special, spectrum and
    # states, infomeasures.fisher, StateFunctions.__init__ and x_cut.  A
    # change that drops one fails here.  install() rebinds module
    # attributes, so it runs in a fresh interpreter.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), str(root / "perfbench"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
