"""Span tracing of shockstab's public functions, installed from outside.

``Tracer.install()`` replaces every public function of the traced modules
with a timing wrapper.  The wrapper is bound under the function's name in
every ``shockstab`` module that holds the original (the defining module,
modules that imported it by name, and the package namespace), so calls made
through any of those names are recorded.  Calls a module makes to its own
private helpers are not spans; their time is the caller's self time.

Spans live in flat arrays while the benchmark runs and are written out only
at the end.  Counts (faces fluxed, march steps, matrix size, bytes written)
are taken in the same wrappers, from the arguments and results of the call.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "harness", "stability", "residual", "numerics", "state", "mesh")

# Functions whose calls read or write the flow-file and grid-file formats.
FLOW_IO = ("state.read_prim_files", "state.write_prim_files")
GRID_IO = ("mesh.read_grid", "mesh.write_grid")

# Functions reported by inclusive time (``<name>.s``) and by call count
# (``<name>.calls``).
TIMED = (
    "harness.solve_1d_steady",
    "residual.residual",
    "residual.fill_ghosts",
    "residual.face_reconstruction",
    "numerics.riemann_flux",
    "numerics.reconstruct_pair",
    "state.cons_to_prim",
    "harness.evolve_linear",
    "harness.evolve_nonlinear",
    "harness.fit_growth_rate",
    "stability.eigensolve",
    "stability.eigensolve_leading",
    "stability.max_real_eigenpair",
    "stability.assemble",
    "stability.flux_jacobians",
    "stability.reconstruction_coefficients",
    "stability.write_matrix",
    "mesh.compute_metrics",
)
CALLED = (
    "harness.solve_1d_steady",
    "residual.residual",
    "numerics.riemann_flux",
    "state.cons_to_prim",
    "stability.eigensolve",
    "stability.assemble",
)


class Tracer:
    """Records a span per call of a public shockstab function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.cases: list[str] = []
        self.case_pass: list[int] = []
        self._case = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # Per pass: counts taken by the observers, and the distinct 1-D
        # profile keys seen.
        self.counts: list[dict[str, float]] = [{}]
        self.oned_keys: list[set] = [set()]

    # -- recording ---------------------------------------------------------

    def begin_case(self, label: str) -> None:
        """Tag the spans that follow with a new case id."""
        self.cases.append(label)
        self.case_pass.append(len(self.counts) - 1)
        self._case = len(self.cases) - 1

    def next_pass(self) -> None:
        """Count what follows towards a new pass."""
        self.counts.append({})
        self.oned_keys.append(set())

    def _add(self, key: str, value: float) -> None:
        counts = self.counts[-1]
        counts[key] = counts.get(key, 0) + value

    def _wrap(self, qualname: str, fn, observe):
        name_id = self._name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        clock = time.perf_counter
        stack, name_arr, start, end = self._stack, self.name, self.start, self.end
        parent, case = self.parent, self.case
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_arr.append(name_id)
            parent.append(stack[-1] if stack else -1)
            case.append(tracer._case)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end[idx] = clock()
                stack.pop()
                tracer._add(qualname + ".failed", 1)
                raise
            end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- counts taken from arguments and results --------------------------

    def _observers(self, mods):
        add = self._add
        oned_signature = inspect.signature(mods["harness"].solve_1d_steady)

        def riemann(args, kwargs, result):
            left = args[1] if len(args) > 1 else kwargs["left"]
            add("numerics.riemann_flux.faces", int(np.prod(np.shape(left)[:-1])))

        def oned(args, kwargs, result):
            bound = oned_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            add("harness.oned_steps", bound.arguments["steps"])
            self.oned_keys[-1].add(repr(sorted((k, repr(v)) for k, v in bound.arguments.items())))

        def linear(args, kwargs, result):
            add("harness.linear_steps", len(result.t) - 1)

        def nonlinear(args, kwargs, result):
            add("harness.nonlinear_steps", len(result.t) - 1)

        def eig(args, kwargs, result):
            n = int(len(result))
            counts = self.counts[-1]
            counts["stability.eigensolve.n"] = max(counts.get("stability.eigensolve.n", 0), n)
            add("stability.eigensolve.gflop_computed", 10.0 * n ** 3 / 1e9)

        def assembled(args, kwargs, result):
            add("stability.matrix_nnz", int(result.matrix.nnz))

        def matrix_file(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            add("stability.write_matrix.bytes", os.path.getsize(path))

        def flow_file(args, kwargs, result):
            prefix = next(a for a in list(args) + list(kwargs.values()) if isinstance(a, str))
            paths = mods["state"].flow_file_paths(prefix)
            add("state.flow_io.bytes", sum(os.path.getsize(p) for p in paths if os.path.isfile(p)))

        return {
            "numerics.riemann_flux": riemann,
            "harness.solve_1d_steady": oned,
            "harness.evolve_linear": linear,
            "harness.evolve_nonlinear": nonlinear,
            "stability.eigensolve": eig,
            "stability.assemble": assembled,
            "stability.write_matrix": matrix_file,
            "state.read_prim_files": flow_file,
            "state.write_prim_files": flow_file,
        }

    def install(self) -> None:
        """Wrap every public function of the traced shockstab modules."""
        import shockstab

        mods = {m: sys.modules[f"shockstab.{m}"] for m in MODULES}
        holders = [shockstab] + [sys.modules[n] for n in sorted(sys.modules)
                                 if n.startswith("shockstab.")]
        observers = self._observers(mods)
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qualname = f"{short}.{attr}"
                wrapped = self._wrap(qualname, fn, observers.get(qualname))
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapped)
                            self._installed.append((holder, name, fn))

    def uninstall(self) -> None:
        """Restore every rebound name to the original function."""
        for holder, name, fn in reversed(self._installed):
            setattr(holder, name, fn)
        self._installed.clear()

    # -- derived numbers -----------------------------------------------------

    def summary(self, passes: list[int]) -> dict[str, float]:
        """Layer metrics per pass, averaged over the given passes."""
        case_pass = np.asarray(self.case_pass + [-1], dtype=np.int64)
        keep = np.isin(case_pass[np.frombuffer(self.case, dtype=np.int32)], passes)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        selftime = dur - child
        name, dur, selftime = name[keep], dur[keep], selftime[keep]

        def total(names, values):
            ids = [self._name_ids[n] for n in names if n in self._name_ids]
            return float(values[np.isin(name, ids)].sum()) if ids else 0.0

        def calls(qualname):
            i = self._name_ids.get(qualname)
            return int(np.count_nonzero(name == i)) if i is not None else 0

        def counted(key):
            return sum(self.counts[p].get(key, 0) for p in passes)

        per = 1.0 / len(passes)
        out = {f"{n}.s": total([n], dur) * per for n in TIMED}
        out.update({f"{n}.calls": calls(n) * per for n in CALLED})
        for mod in MODULES:
            out[f"{mod}.self_s"] = total([n for n in self.names if n.startswith(mod + ".")], selftime) * per
        out["state.flow_io.s"] = total(FLOW_IO, dur) * per
        out["mesh.grid_io.s"] = total(GRID_IO, dur) * per
        for key in ("numerics.riemann_flux.faces", "harness.oned_steps", "harness.linear_steps",
                    "harness.nonlinear_steps", "stability.eigensolve.gflop_computed",
                    "stability.matrix_nnz", "stability.write_matrix.bytes", "state.flow_io.bytes",
                    "stability.eigensolve_leading.failed"):
            out[key] = counted(key) * per
        out["stability.eigensolve.n"] = max(self.counts[p].get("stability.eigensolve.n", 0) for p in passes)
        faces = out["numerics.riemann_flux.faces"]
        out["numerics.riemann_flux.ns_per_face"] = out["numerics.riemann_flux.s"] / faces * 1e9 if faces else 0.0
        for metric, time_key, steps_key in (
            ("harness.oned_step_us", "harness.solve_1d_steady.s", "harness.oned_steps"),
            ("harness.linear_step_us", "harness.evolve_linear.s", "harness.linear_steps"),
            ("harness.nonlinear_step_us", "harness.evolve_nonlinear.s", "harness.nonlinear_steps"),
        ):
            out[metric] = out[time_key] / out[steps_key] * 1e6 if out[steps_key] else 0.0
        oned_calls = out["harness.solve_1d_steady.calls"]
        unique = sum(len(self.oned_keys[p]) for p in passes) * per
        out["harness.oned_unique_ratio"] = unique / oned_calls if oned_calls else 0.0
        out["trace.spans"] = len(dur) * per
        return out

    def write_spans(self, path) -> None:
        """Write gzip-compressed ``span name start end parent case`` rows,
        one span per line, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        names, cases = self.names, self.cases + ["-"]
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("# span name start_s end_s parent case\n")
            fh.writelines(
                f"{i} {names[n]} {a - t0:.9f} {b - t0:.9f} {p} {cases[c]}\n"
                for i, (n, a, b, p, c) in enumerate(zip(self.name, self.start, self.end, self.parent, self.case)))
