"""Package surface: the public names, and no import left unused."""

import ast
import importlib
import re
from pathlib import Path

import robinwall

SOURCE = Path(robinwall.__file__).resolve().parent

PUBLIC = [
    "ENTROPY_FLOOR",
    "DEFAULT_TOLERANCES",
    "AiryRootTable",
    "BoundState",
    "BoundarySpec",
    "BracketError",
    "ConsistencyError",
    "DecayError",
    "DipoleMatrix",
    "DomainError",
    "FisherMaximum",
    "FlatWellEntropies",
    "GridSpec",
    "InfoRecord",
    "PolarizationRecord",
    "QuadratureError",
    "StateFunctions",
    "ToleranceConfig",
    "boundary_residual",
    "build_state",
    "default_grid",
    "dipole_element_quadrature",
    "dipole_matrix",
    "eigenvalue_function",
    "energy",
    "energy_identity_residual",
    "entropy_crossing",
    "fd_energies",
    "fd_moment",
    "fisher",
    "fisher_position_closed",
    "fisher_product_maximum",
    "flat_well_approximation",
    "hellmann_feynman_mean_x",
    "mean_position",
    "mean_x_quadrature",
    "measure_state",
    "momentum_norm",
    "node_count",
    "polarization",
    "position_norm",
    "root_table",
    "zero_energy_field",
    "zero_energy_field_solved",
    "zero_field_mean_x",
]

# An import marked this way is kept for a caller outside the module.
_NOQA_F401 = re.compile(r"#\s*noqa:.*\bF401\b")


def test_public_surface_is_pinned():
    assert len(set(robinwall.__all__)) == len(robinwall.__all__)
    assert sorted(robinwall.__all__) == sorted(PUBLIC)
    stale = []
    for path in sorted(SOURCE.glob("*.py")):
        name = "robinwall" if path.stem == "__init__" else f"robinwall.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", [])
                  if not hasattr(module, attr)]
    assert stale == []


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
    for path in sorted(SOURCE.glob("*.py")):
        unused += _unused_imports(path)
    assert unused == []
