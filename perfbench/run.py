"""shockstab benchmark: closed-loop CLI workloads, checked against a reference.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 40 --trace 0

One process runs one workload (see ``workloads.py``) as a single closed-loop
caller: it calls ``shockstab.cli.main`` in-process (capturing what the CLI
prints), and the next call starts only when the previous one has returned.
A *pass* is one run through the workload's calls.  Passes repeat while the
next one is expected to end inside the ``--seconds`` window; at least one
pass always runs.  BLAS is pinned to ``BLAS_THREADS`` threads.  Every call
is checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
``SETUP_REPS`` set-ups, each a fresh interpreter importing ``shockstab.cli``
plus writing the workload's input files), ``wall_norm_s`` (median seconds of
the CLI calls of one pass, at the host's reference speed; see
``SpeedProbe``) and ``peak_rss_mb`` (this process).  The raw median,
``wall_s``, is in the report.

``--trace 1`` first runs one untraced pass, then traced passes, and prints
per-layer metrics per pass: times, calls and counts of the public functions
of each shockstab module, module self times, per-case verdict times, and the
tracing overhead (median traced pass minus the untraced pass).  Spans go to
``perfbench/_out/spans-<workload>.txt.gz``.  Exact counts are compared with the
previous traced run of the same source tree, workload and seed, and between
the traced passes; ``bench.counts_mismatch`` counts those that differ.

``--smoke`` runs every workload on tiny grids, in seconds.

The last line of standard output is the JSON result; the line before it is a
JSON report (environment, per-call samples, failures, artifact identity),
also written to ``perfbench/_out/``.  Exit code 2 means the benchmark could
not run (no ``src/shockstab`` beside it, or bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

BLAS_THREADS = 1
SETUP_REPS = 3

#: Typical mean ``SpeedProbe`` sample on the 2-core Xeon host the benchmark
#: was written on; ``wall_norm_s`` reads in seconds at that speed.
PROBE_REF_S = 7.0e-4
#: Seconds between ``SpeedProbe`` samples.
PROBE_PERIOD_S = 0.02


def work_dir(workload: str, smoke: bool) -> Path:
    """Inputs and outputs of a workload, relative to the repository root.

    The path is the same in every checkout, so artifacts that echo it (the
    settings echo holds ``output_dir``) can match the reference byte for byte.
    """
    return Path("perfbench", "_work", workload + ("-smoke" if smoke else ""))


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "shockstab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "cpu": _cpu_model(),
        "git_revision": _git_revision(),
        "source_hash": _source_hash(),
        "loadavg_start": list(load_at_start),
    }


def _import_fresh() -> None:
    """Import the CLI module in a fresh interpreter, as each user run does."""
    subprocess.run([sys.executable, "-c", "import shockstab.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


class SpeedProbe:
    """Samples the host's speed while a pass runs.

    On a shared host the speed of one core swings by up to 1.5x within
    seconds and drifts over minutes, as other jobs come and go.  While a pass
    runs, a thread pinned to the pass's core wakes every ``PROBE_PERIOD_S``
    and times a fixed numpy-only kernel on its own CPU clock (``samples``);
    it also samples while the pass is inside LAPACK, which releases the
    interpreter lock.  The mean sample over a pass tracks the host's mean
    speed during it, so pass time over that mean does not drift with the
    host.  The kernel does what shockstab spends most of its time on, numpy
    calls on arrays of tens of elements, and runs no shockstab code, so a
    change to the program does not move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self.samples: list[float] = []
        self._q = np.linspace(1.0, 2.0, 44).reshape(11, 4)
        self._cpu = min(os.sched_getaffinity(0))
        self._affinity = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _kernel(self, steps: int) -> None:
        import numpy as np

        q = self._q
        for _ in range(steps):
            u = q[:, 1] / q[:, 0]
            p = 0.4 * (q[:, 3] - 0.5 * q[:, 0] * u * u)
            speed = np.abs(u) + np.sqrt(1.4 * np.abs(p) / q[:, 0])
            q = q + 1.0e-9 * speed[:, None]

    def _sample(self) -> None:
        # The untimed first steps reload the caches the pass evicted, so
        # that the sample does not depend on what the pass was doing.
        self._kernel(20)
        t0 = time.thread_time()
        self._kernel(40)
        self.samples.append(time.thread_time() - t0)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        # Pinning the calling thread before starting the probe thread pins
        # both to one core, where they take turns rather than run in parallel.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self._cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)
        if not self.samples:
            self._sample()


def set_up(workload: str, smoke: bool, seed: int, work: Path):
    """Write the inputs ``SETUP_REPS`` times; returns (median seconds, calls)."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        _import_fresh()
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        workloads.write_inputs(workload, smoke, inputs)
        calls = workloads.calls(workload, smoke, seed, inputs)
        for call in calls:
            (inputs / f"{call.id}.cfg").write_text(
                workloads.settings_text(call, work / call.id), encoding="ascii")
        times.append(time.perf_counter() - t0)
    return statistics.median(times), calls


class Runner:
    """Calls the CLI for each case and checks what it wrote."""

    def __init__(self, cli, calls, work: Path, refs: dict, tracer=None):
        self.cli = cli
        self.calls = calls
        self.work = work
        self.refs = refs
        self.tracer = tracer
        self.samples: list[dict[str, float]] = []
        self.probe_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.identical = 0
        self.compared = 0
        self.artifact_bytes = 0

    def one_pass(self) -> float:
        times = {}
        for call in self.calls:
            outdir = self.work / call.id
            shutil.rmtree(outdir, ignore_errors=True)
            argv = [str(self.work / "inputs" / f"{call.id}.cfg"), *call.flags]
            if self.tracer is not None:
                self.tracer.begin_case(call.id)
            gc.collect()
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed case, not a crashed benchmark
                code = None
                sink.write(f"{type(exc).__name__}: {exc}\n")
            times[call.id] = time.perf_counter() - t0
            result = checks.check_call(self.refs[call.id], call.kind, call.id, code, outdir)
            self.attempted += result["cases"]
            self.failed += result["failed"]
            self.failures += [f"{call.id} {msg} [{sink.getvalue().strip()[-300:]}]"
                              for msg in result["failures"]]
            self.identical += result["identical"]
            self.compared += result["compared"]
            if outdir.is_dir():
                self.artifact_bytes += checks.artifact_bytes(outdir)
        self.samples.append(times)
        return sum(times.values())

    def run_window(self, seconds: float, on_pass=None, probe: bool = False) -> list[float]:
        """Passes until the next one would end past ``seconds``; at least one.

        With ``probe``, each pass runs under a ``SpeedProbe``, whose mean
        sample goes to ``probe_s``.
        """
        walls = []
        t_start = time.perf_counter()
        while True:
            if on_pass is not None and walls:
                on_pass()
            if probe:
                with SpeedProbe() as speed:
                    walls.append(self.one_pass())
                self.probe_s.append(statistics.fmean(speed.samples))
            else:
                walls.append(self.one_pass())
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(walls) > seconds:
                return walls

    def normalized(self, walls: list[float]) -> list[float]:
        """Pass times at the reference speed: each scaled by ``PROBE_REF_S``
        over the pass's mean probe sample."""
        return [w * PROBE_REF_S / mean for w, mean in zip(walls, self.probe_s)]


def _counts_check(path: Path, source: str, counts: dict) -> tuple[int, bool]:
    """Number of exact counts that differ from the last run of this source."""
    mismatched, compared = 0, False
    try:
        previous = json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError):
        previous = None
    if previous and previous.get("source") == source:
        compared = True
        mismatched = sum(previous["counts"].get(k) != v for k, v in counts.items())
    path.write_text(json.dumps({"source": source, "counts": counts}, sort_keys=True), encoding="ascii")
    return mismatched, compared


# Counts that must repeat exactly for the same source, workload and seed.
EXACT = ("numerics.riemann_flux.faces", "numerics.riemann_flux.calls", "residual.residual.calls",
         "state.cons_to_prim.calls", "harness.solve_1d_steady.calls", "harness.oned_steps",
         "harness.linear_steps", "harness.nonlinear_steps", "stability.assemble.calls",
         "stability.matrix_nnz", "stability.eigensolve.calls", "stability.eigensolve.n",
         "stability.eigensolve.gflop_computed", "stability.write_matrix.bytes",
         "state.flow_io.bytes", "cli.artifact_bytes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shockstab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for the benchmark's test")
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "shockstab" / "__init__.py").is_file():
        print(f"error: no shockstab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _pin_blas()
    sys.path.insert(0, str(SRC))
    from shockstab import cli

    os.chdir(ROOT)
    size = "smoke" if args.smoke else "full"
    tag = args.workload + ("-smoke" if args.smoke else "")
    OUT.mkdir(exist_ok=True)
    work = work_dir(args.workload, args.smoke)
    try:
        setup_s, calls = set_up(args.workload, args.smoke, args.seed, work)
        refs = checks.load_reference(size, args.workload)
        env = environment(load_at_start)
        if args.trace:
            metrics, report = _traced(cli, calls, work, refs, args, tag, env)
        else:
            runner = Runner(cli, calls, work, refs)
            walls = runner.run_window(args.seconds, probe=True)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_norm_s": {"value": statistics.median(runner.normalized(walls)), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
            report = _report(runner, walls, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["setup_s"] = setup_s
    attempted, failed = report["attempted"], report["failed"]
    (OUT / f"report-{tag}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="ascii")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _report(runner: Runner, walls: list[float], env: dict) -> dict:
    return {
        "env": env,
        "passes": len(walls),
        "wall_s": statistics.median(walls),
        "wall_s_samples": walls,
        "wall_norm_s_samples": runner.normalized(walls),
        "probe_s_samples": runner.probe_s,
        "call_s_samples": runner.samples,
        "verdict_s": {case: statistics.median(s[case] for s in runner.samples)
                      for case in runner.samples[0]},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_frac": runner.failed / runner.attempted,
        "failures": runner.failures,
        "artifacts_identical": runner.identical,
        "artifacts_compared": runner.compared,
        "artifact_bytes_per_pass": runner.artifact_bytes / len(walls),
    }


def _traced(cli, calls, work, refs, args, tag, env):
    import tracing

    baseline = Runner(cli, calls, work, refs)
    untraced = baseline.one_pass()
    tracer = tracing.Tracer()
    runner = Runner(cli, calls, work, refs, tracer)
    tracer.install()
    try:
        walls = runner.run_window(args.seconds, on_pass=tracer.next_pass)
    finally:
        tracer.uninstall()
    passes = len(walls)
    layer = tracer.summary(list(range(passes)))
    layer["cli.artifact_bytes"] = runner.artifact_bytes / passes
    for case in workloads.SPECTRUM_CASES:
        layer[f"verdict_s.{case}"] = (statistics.median(s[case] for s in runner.samples)
                                      if case in runner.samples[0] else 0.0)
    layer["trace.overhead_s"] = statistics.median(walls) - untraced
    counts = {k: layer[k] for k in EXACT}
    mismatched, compared = _counts_check(OUT / f"counts-{tag}-seed{args.seed}.json",
                                         env["source_hash"], counts)
    first = tracer.summary([0])
    for p in range(1, passes):
        later = tracer.summary([p])
        mismatched += sum(later[k] != first[k] for k in EXACT if k != "cli.artifact_bytes")
    layer["bench.counts_mismatch"] = mismatched
    tracer.write_spans(OUT / f"spans-{tag}.txt.gz")

    report = _report(runner, walls, env)
    report["attempted"] += baseline.attempted
    report["failed"] += baseline.failed
    report["failures"] += baseline.failures
    report["fail_frac"] = report["failed"] / report["attempted"]
    report["untraced_wall_s"] = untraced
    report["counts_compared_with_previous_run"] = compared
    report["layers"] = layer
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in sorted(layer.items())}
    return metrics, report


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.startswith("verdict_s.") or name.endswith((".s", "_s")):
        return "s"
    for end, unit in (("_us", "us"), (".ns_per_face", "ns"), ("_ratio", "ratio"),
                      (".gflop_computed", "GFLOP"), ("bytes", "B")):
        if name.endswith(end):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
