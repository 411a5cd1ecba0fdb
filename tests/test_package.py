"""The package namespace: what ``import shockstab`` exports."""

import importlib

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
