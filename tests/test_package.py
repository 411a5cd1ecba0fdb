"""The package namespace: what ``import shockstab`` exports."""

import ast
import importlib
import inspect
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


def _benchmark_hook_names():
    """``"module.function"`` strings the benchmark's tracer times, counts or observes.

    ``perfbench/tracing.py`` is parsed, not imported, so the check does not
    depend on the benchmark's own imports.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TIMED", "CALLED", "FLOW_IO", "GRID_IO") for t in node.targets
        ):
            names += [elt.value for elt in node.value.elts]
    observers = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_observers")
    returned = [n.value for n in ast.walk(observers) if isinstance(n, ast.Return) and isinstance(n.value, ast.Dict)]
    assert len(returned) == 1
    names += [key.value for key in returned[0].keys]
    return names


def test_benchmark_hooks_name_public_functions():
    # The tracer silently skips a name that no longer exists, which would
    # empty the per-layer metrics built on it.
    names = _benchmark_hook_names()
    assert len(names) > 20 and all(isinstance(name, str) for name in names)
    missing = []
    for qualname in names:
        modname, _, attr = qualname.partition(".")
        module = importlib.import_module(f"shockstab.{modname}")
        fn = getattr(module, attr, None)
        if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            missing.append(qualname)
    assert missing == []


def test_benchmark_observed_parameters():
    # The observers read these arguments by name or by position.
    from shockstab import harness, numerics, stability

    assert "steps" in inspect.signature(harness.solve_1d_steady).parameters
    assert list(inspect.signature(numerics.riemann_flux).parameters)[1] == "left"
    assert list(inspect.signature(stability.write_matrix).parameters)[1] == "path"


def test_riemann_flux_parameters():
    # The public flux takes the face states and nothing that a reconstruction
    # carries alongside them.
    from shockstab import numerics

    assert list(inspect.signature(numerics.riemann_flux).parameters) == [
        "solver", "left", "right", "normal", "gas", "validate"]


def test_residual_makes_one_reconstruction_and_one_flux_call(monkeypatch):
    # Both face families go through one batch: splitting them again would
    # double the per-call overhead, and bypassing face_reconstruction would
    # leave the benchmark hook on it timing nothing.  The flux is the public
    # riemann_flux, which validates every face state.
    from shockstab import mesh, numerics, state

    residual = importlib.import_module("shockstab.residual")  # the package exports a function of that name
    calls = {"reconstruct_pair": 0, "riemann_flux": 0, "face_reconstruction": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(residual, name, counted(name, getattr(residual, name)))
    gas = state.GasModel()
    metrics = mesh.compute_metrics(mesh.make_cartesian_grid(5, 3))
    field = state.init_normal_shock_rh(5, 3, 3.0, 0.1, gas=gas)
    ghosts = residual.fill_ghosts(field, residual.normal_shock_bcs(3.0, gas), metrics, gas)
    scheme = numerics.ReconstructionScheme(kind="muscl", limiter="van_albada")
    residual.residual(field, ghosts, metrics, scheme, "hllc", gas)
    assert calls == {"reconstruct_pair": 1, "riemann_flux": 1, "face_reconstruction": 1}


def test_assemble_linearizes_every_face_in_one_pass(monkeypatch):
    # assemble reads the residual's one face batch: a second flux or
    # reconstruction linearization would mean the face families were split
    # apart again.  Its stencils come in one gather from the cells and the
    # ghost rows, so it forms the ghost rows once and builds no ghost frame,
    # no frame-sized ghost Jacobian and no second reconstruction.
    from shockstab import mesh, numerics, stability, state
    from shockstab.residual import normal_shock_bcs

    residual = importlib.import_module("shockstab.residual")  # the package exports a function of that name
    calls = {"flux_jacobians": 0, "reconstruction_coefficients": 0, "reconstruction_kink_flags": 0,
             "_ghost_table": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(name):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"assemble called {name}")
        return wrapper

    for name in calls:
        monkeypatch.setattr(stability, name, counted(name, getattr(stability, name)))
    for name in ("fill_ghosts", "ghost_dependency", "face_reconstruction"):
        monkeypatch.setattr(residual, name, forbidden(name))
        monkeypatch.setattr(stability, name, forbidden(name), raising=False)
    gas = state.GasModel()
    metrics = mesh.compute_metrics(mesh.make_cartesian_grid(5, 3))
    field = state.init_normal_shock_rh(5, 3, 3.0, 0.1, gas=gas)
    scheme = numerics.ReconstructionScheme(kind="muscl", limiter="van_albada")
    stability.assemble(field, metrics, scheme, "hllc", normal_shock_bcs(3.0, gas), gas)
    assert calls == dict.fromkeys(calls, 1)


def test_one_dense_eigenvalue_call_site():
    # Every full spectrum goes through the one transverse-Fourier solve in
    # stability.eigensolve; a second dense call would be a second path.
    src = Path(shockstab.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("eig", "eigvals")):
                sites.append((path.stem, ast.unparse(node.func)))
    assert sites == [("stability", "np.linalg.eigvals")]
