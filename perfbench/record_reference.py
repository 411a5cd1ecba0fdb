"""Record ``reference.json`` from the current source tree.

    python3 perfbench/record_reference.py

Runs every call of every workload, at full and smoke size, under two
benchmark seeds, and stores per call the exit code, each case's verdict and
``max_re_lambda`` (from the first seed), and the SHA-256 of every artifact
that came out byte-identical under both seeds, i.e. that does not depend on
the program's ``seed`` key.  Run it only on a commit whose results are the
intended reference; the file in the repository was recorded at the commit
that added the benchmark, before any change to ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import checks
import run
import workloads

SEEDS = (0, 1)


def record_call(cli, call, work) -> dict:
    outdir = work / call.id
    shutil.rmtree(outdir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(work / "inputs" / f"{call.id}.cfg"), *call.flags])
    if code == 2:
        raise SystemExit(f"{call.id} exited with 2; not a usable reference")
    return {"exit": code, "cases": checks.observe(call.kind, call.id, outdir),
            "artifacts": checks.artifact_hashes(outdir)}


def main() -> int:
    run._pin_blas()
    sys.path.insert(0, str(run.SRC))
    from shockstab import cli

    reference = {"source_hash": run._source_hash(), "git_revision": run._git_revision()}
    os.chdir(run.ROOT)
    for size, smoke in (("full", False), ("smoke", True)):
        reference[size] = {}
        for workload in workloads.WORKLOADS:
            work = run.work_dir(workload, smoke)
            try:
                per_seed = []
                for seed in SEEDS:
                    _, calls = run.set_up(workload, smoke, seed, work)
                    per_seed.append({call.id: record_call(cli, call, work) for call in calls})
            finally:
                shutil.rmtree(work, ignore_errors=True)
            first, second = per_seed
            for call_id, rec in first.items():
                other = second[call_id]["artifacts"]
                rec["artifacts"] = {name: digest for name, digest in rec["artifacts"].items()
                                    if other.get(name) == digest}
                for case in rec["cases"].values():
                    for key in ("rel_linear", "rel_nonlinear"):
                        case.pop(key, None)
            reference[size][workload] = first
            print(size, workload, "recorded", flush=True)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
