"""The benchmark's workloads: which CLI calls each one makes, and their inputs.

Each workload is a list of ``shockstab`` CLI calls.  A call is a settings
file plus command-line flags; the program sees nothing else.  The benchmark
seed only permutes the order of the cases and sets the program's ``seed``
key (see ``calls``).

Why these three (they stress different layers):

* ``sweep_small`` -- one ``--sweep`` over 2 Mach numbers x 4 flux functions
  on the 11x11 anchor grid: eight small cases, each dominated by its own
  1-D base march (no two cases share a 1-D profile).
* ``spectrum_large`` -- three single analyses on larger operators: a dense
  21x21 spectrum, a 41x41 Arnoldi solve, and a 20x20 annular
  ``external_flow`` case read from grid and flow files, whose matrix is
  also written out.  Time goes to the eigensolvers, assembly and file I/O.
* ``validate_small`` -- the anchor configuration (M=20, HLLC, MUSCL/van
  Albada) on a 5x5 grid under ``--validate``: linear and nonlinear time
  marches, plus the base, matrix and spectrum built twice.

Sizes are set so that one pass takes a few seconds: on a shared 2-core
host a single pass can fall in a slow spell, and only the median of
several passes per run is steady.  That is why the 1-D base march runs 500 steps
in the sweep and the spectra (a prefix of the default 2000-step march),
and why the validation runs on 5x5 cells with 600 nonlinear steps: on the
11x11 anchor one validation takes about 20 s, most of it a linear march
that needs all of its 20000 steps to meet criterion 05's tolerance (the
dominance gap is 0.007, against 0.05 at 5x5).  The validation keeps the
default 2000-step 1-D march, because the nonlinear growth rate cannot be
fitted about an unconverged base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep_small", "spectrum_large", "validate_small")

#: The anchor configuration (11x11, M=20, eps=0.1, HLLC, MUSCL/van Albada).
ANCHOR = {
    "test_case": "normal_shock",
    "grid": "11x11",
    "mach": "20",
    "epsilon": "0.1",
    "solver": "hllc",
    "reconstruction": "muscl",
    "limiter": "van_albada",
}

SPECTRUM_CASES = ("g21_dense", "g41_arnoldi", "ring20_file")
SWEEP_MACH = ("3", "20")
SWEEP_SOLVERS = ("hll", "hllc", "ausm_plus", "slau")

#: Program seed for ``validate_small``.  The nonlinear march stops when the
#: perturbed shock leaves the physical state space, and how soon that
#: happens depends on the random perturbation (on the 11x11 anchor, after
#: 1019 to 4000 steps over seeds 0-3), so a seed-dependent program seed
#: would make the workload's cost vary with the seed rather than the code.
VALIDATE_PROGRAM_SEED = 20230614

# Settings that differ between the measured size and the smoke size, which
# keeps every case and code path of a workload but runs in seconds.  The
# validation is already that small and has one size.
SIZES = {
    False: {"sweep": {"grid": "11x11", "oned_steps": "500"},
            "g21_dense": {"grid": "21x21", "oned_steps": "500"},
            "g41_arnoldi": {"grid": "41x41", "oned_steps": "500"},
            "ring": 20},
    True: {"sweep": {"grid": "5x5", "oned_steps": "100"},
           "g21_dense": {"grid": "7x7", "oned_steps": "100"},
           "g41_arnoldi": {"grid": "15x15", "oned_steps": "100"},
           "ring": 6},
}
VALIDATE = {"grid": "5x5", "validate_nonlinear_steps": "600"}


@dataclass(frozen=True)
class Call:
    """One CLI call: case id, settings (without ``output_dir``) and flags."""

    id: str
    settings: tuple[tuple[str, str], ...]
    flags: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        if "--sweep" in self.flags:
            return "sweep"
        return "validate" if "--validate" in self.flags else "analysis"


def _call(case_id: str, settings: dict, flags=()) -> Call:
    return Call(case_id, tuple(settings.items()), tuple(flags))


def calls(workload: str, smoke: bool, seed: int, inputs: Path) -> list[Call]:
    """The workload's calls, in the order the seed picks."""
    size = SIZES[smoke]
    rng = random.Random(seed)
    if workload == "sweep_small":
        machs, solvers = list(SWEEP_MACH), list(SWEEP_SOLVERS)
        rng.shuffle(machs)
        rng.shuffle(solvers)
        settings = {**ANCHOR, **size["sweep"], "seed": str(seed),
                    "sweep_mach": ",".join(machs), "sweep_solvers": ",".join(solvers)}
        return [_call("sweep", settings, ("--sweep",))]
    if workload == "spectrum_large":
        ring = size["ring"]
        cases = [
            _call("g21_dense", {**ANCHOR, **size["g21_dense"], "seed": str(seed)}),
            _call("g41_arnoldi", {**ANCHOR, **size["g41_arnoldi"], "seed": str(seed),
                                  "eig_method": "arnoldi", "arnoldi_k": "12"}),
            _call("ring20_file", {
                "test_case": "external_flow",
                "grid_file": str(inputs / f"ring{ring}.grd"),
                "flow_file_prefix": str(inputs / f"ring{ring}_"),
                "bc_left": "zero_gradient", "bc_right": "zero_gradient",
                "bc_bottom": "slip_wall", "bc_top": "slip_wall",
                "solver": "hllc", "reconstruction": "muscl", "limiter": "van_albada",
                "seed": str(seed),
            }, ("--dump-matrix",)),
        ]
        rng.shuffle(cases)
        return cases
    if workload == "validate_small":
        settings = {**ANCHOR, **VALIDATE, "seed": str(VALIDATE_PROGRAM_SEED)}
        return [_call("validate", settings, ("--validate",))]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def write_inputs(workload: str, smoke: bool, inputs: Path) -> None:
    """Write the grid and flow files a workload reads.

    The annular case is criterion 09's curved-wall flow: a circumferential
    stream of speed 2 in a quarter annulus between radii 1 and 2.
    """
    if workload != "spectrum_large":
        return
    import numpy as np
    from shockstab.mesh import make_annular_grid, write_grid
    from shockstab.state import FlowField, GasModel, prim_to_cons, write_flow_files

    n = SIZES[smoke]["ring"]
    gas = GasModel()
    grid = make_annular_grid(n, n, 1.0, 2.0, np.deg2rad(90.0))
    write_grid(grid, inputs / f"ring{n}.grd")
    xc = 0.25 * (grid.x[:-1, :-1] + grid.x[1:, :-1] + grid.x[:-1, 1:] + grid.x[1:, 1:])
    yc = 0.25 * (grid.y[:-1, :-1] + grid.y[1:, :-1] + grid.y[:-1, 1:] + grid.y[1:, 1:])
    theta = np.arctan2(yc, xc)
    prim = np.empty((n, n, 4))
    prim[..., 0] = 1.0
    prim[..., 1] = -2.0 * np.sin(theta)
    prim[..., 2] = 2.0 * np.cos(theta)
    prim[..., 3] = 1.0 / gas.gamma
    write_flow_files(FlowField(q=prim_to_cons(prim, gas)), str(inputs / f"ring{n}_"), gas)


def settings_text(call: Call, outdir: Path) -> str:
    lines = [f"{key} = {value}" for key, value in call.settings]
    lines.append(f"output_dir = {outdir}")
    return "\n".join(lines) + "\n"
