"""Reading a call's artifacts and checking them against the recorded reference.

``reference.json`` holds, per workload and size, what the seed commit
produced for each call: its exit code, the verdict and ``max_re_lambda`` of
each case, and the SHA-256 of every artifact that does not depend on the
program's ``seed`` key.  ``record_reference.py`` writes it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Band around zero read as neutral (the program's ``NEUTRAL_TOL``).
NEUTRAL_TOL = 1.0e-10
#: |max_re - ref| may not exceed this times max(1, |ref|).
MAX_RE_RTOL = 1.0e-9
#: Acceptance criterion 05: growth rates fitted to the linear and the
#: nonlinear march must match max Re(lambda) to these relative errors.
LINEAR_RTOL = 1.0e-3
NONLINEAR_RTOL = 0.1


def verdict(max_re: float) -> str:
    return "unstable" if max_re > NEUTRAL_TOL else "stable"


def _summary(outdir: Path) -> dict[str, str]:
    lines = (outdir / "summary.txt").read_text(encoding="ascii").splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def observe(kind: str, case_id: str, outdir: Path) -> dict[str, dict]:
    """Per-case results a call left in ``outdir``: ``{case: {...}}``.

    A sweep reports one case per table row, labelled ``M<mach>/<solver>``.
    Raises ``OSError``/``ValueError``/``KeyError`` on missing or malformed
    artifacts.
    """
    if kind == "sweep":
        cases = {}
        for line in (outdir / "sweep.dat").read_text(encoding="ascii").splitlines():
            if line.startswith("#") or not line.strip():
                continue
            mach, solver, _scheme, max_re, _im, _gap = line.split()
            cases[f"M{float(mach):g}/{solver}"] = {"max_re": float(max_re), "verdict": verdict(float(max_re))}
        return cases
    summary = _summary(outdir)
    case = {"max_re": float(summary["max_re_lambda"]), "verdict": summary["verdict"]}
    if kind == "validate":
        row = [line for line in (outdir / "validation.dat").read_text(encoding="ascii").splitlines()
               if not line.startswith("#")][0].split()
        case["rel_linear"] = float(row[5])
        case["rel_nonlinear"] = float(row[7])
    return {case_id: case}


def artifact_hashes(outdir: Path) -> dict[str, str]:
    """SHA-256 of each file; ``sweep.dat`` rows are sorted first, because the
    benchmark seed orders the sweep axes and so the rows."""
    hashes = {}
    for path in sorted(outdir.iterdir()):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "sweep.dat":
                data = b"".join(sorted(data.splitlines(keepends=True)))
            hashes[path.name] = hashlib.sha256(data).hexdigest()
    return hashes


def artifact_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


def load_reference(size: str, workload: str) -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)[size][workload]


def check_call(ref: dict, kind: str, case_id: str, code, outdir: Path) -> dict:
    """Compare one call with its reference.

    Returns ``{"cases": n, "failed": f, "failures": [...], "identical": k,
    "compared": m}``, with one or more failure messages per failed case.  A
    case fails if the call raised or exited 2, exited otherwise than the
    reference, lost the case, changed its verdict, moved ``max_re_lambda``
    by more than ``MAX_RE_RTOL``, or (validation) broke criterion 05's
    rate tolerances.  Artifact byte identity is counted, not failed.
    """
    expected = ref["cases"]
    failures = []
    observed = {}
    if code is None or code == 2 or code != ref["exit"]:
        failures = [f"{case}: exit {code}, reference {ref['exit']}" for case in expected]
    else:
        try:
            observed = observe(kind, case_id, outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures = [f"{case}: unreadable artifacts ({exc!r})" for case in expected]
    if observed:
        for case, want in expected.items():
            got = observed.get(case)
            if got is None:
                failures.append(f"{case}: missing from the output")
                continue
            if got["verdict"] != want["verdict"]:
                failures.append(f"{case}: verdict {got['verdict']}, reference {want['verdict']}")
            if not abs(got["max_re"] - want["max_re"]) <= MAX_RE_RTOL * max(1.0, abs(want["max_re"])):
                failures.append(f"{case}: max_re {got['max_re']!r}, reference {want['max_re']!r}")
            if kind == "validate":
                for key, tol in (("rel_linear", LINEAR_RTOL), ("rel_nonlinear", NONLINEAR_RTOL)):
                    if not (math.isfinite(got[key]) and got[key] <= tol):
                        failures.append(f"{case}: {key} {got[key]!r} exceeds {tol:g}")
    hashes = artifact_hashes(outdir) if outdir.is_dir() else {}
    same = sum(hashes.get(name) == digest for name, digest in ref["artifacts"].items())
    failed = len({msg.split(":", 1)[0] for msg in failures})
    return {"cases": len(expected), "failed": failed, "failures": failures, "identical": same,
            "compared": len(ref["artifacts"])}
