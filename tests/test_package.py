"""The package namespace: what ``import shockstab`` exports."""

import ast
import importlib
from pathlib import Path

import shockstab

# Every name the package exported before its namespace was built from the
# submodules' ``__all__`` lists (less the removed validation-case record).
EXPORTED = [
    "__version__", "ShockStabError", "GridError", "FlowFileError", "StateError", "SettingsError",
    "LinearizationError", "EigenSolveError", "EvolutionError", "FitError", "Grid", "GridMetrics",
    "read_grid", "write_grid", "make_cartesian_grid", "make_annular_grid", "compute_metrics",
    "GasModel", "FlowField", "prim_to_cons", "cons_to_prim", "sound_speed", "is_physical_prim",
    "normal_shock_states", "init_normal_shock_rh", "read_flow_files", "write_flow_files",
    "perturbation_to_primitive", "LIMITERS", "RECONSTRUCTION_KINDS", "RIEMANN_SOLVERS",
    "RoundParams", "ReconstructionScheme", "limiter_value", "round_face_value", "reconstruct_pair",
    "physical_flux", "riemann_flux", "BC_KINDS", "BoundaryCondition", "BoundaryConditionSet",
    "GhostField", "normal_shock_bcs", "fill_ghosts", "ghost_dependency", "face_reconstruction",
    "residual", "NEUTRAL_TOL", "StabilityMatrix", "EigenPair", "stability_verdict",
    "flux_jacobians", "reconstruction_coefficients", "assemble", "eigensolve",
    "eigensolve_leading", "max_real_eigenpair", "spectral_radius_upper", "mode_field",
    "write_matrix", "read_matrix", "OneDResult", "EvolutionSeries", "GrowthRateFit",
    "solve_1d_steady", "project_1d_to_2d", "make_base_flow", "evolve_linear", "evolve_nonlinear",
    "fit_growth_rate", "dominance_gap", "write_series",
]


def test_earlier_exports_still_resolve():
    assert [name for name in EXPORTED if name not in shockstab.__all__] == []
    namespace = {}
    exec("from shockstab import *", namespace)
    assert [name for name in EXPORTED if name not in namespace] == []


def test_exports_are_the_defining_objects():
    assert len(set(shockstab.__all__)) == len(shockstab.__all__)
    for modname in ("errors", "mesh", "state", "numerics", "residual", "stability", "harness"):
        module = importlib.import_module(f"shockstab.{modname}")
        for name in module.__all__:
            assert getattr(shockstab, name) is getattr(module, name), name


def _module_level_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_module_level_name_is_used_or_exported():
    # A definition nothing in the package reads, and no module exports, is dead.
    src = Path(shockstab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = []
    for modname, tree in trees.items():
        module = shockstab if modname == "__init__" else importlib.import_module(f"shockstab.{modname}")
        exported = set(getattr(module, "__all__", ()))
        dead += [f"{modname}.{name}" for name in _module_level_definitions(tree)
                 if not name.startswith("__") and name not in exported and name not in used]
    assert dead == []
