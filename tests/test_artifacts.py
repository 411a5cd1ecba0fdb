"""Pinned bytes of the anchor run's artifacts that no LAPACK routine touches.

The anchor case (11x11, M=20, eps=0.1, HLLC, MUSCL/van Albada) is run once
through the command line with ``--dump-matrix``.  Its base flow, 1-D march
history, assembled operator and settings echo come from the package's own
elementwise arithmetic, so a change meant to leave results alone must leave
these files byte for byte as they are.  The eigenvalues, modes and summary
go through LAPACK and are left out.
"""

import hashlib

import pytest

from shockstab import cli

ANCHOR = (
    "test_case = normal_shock\ngrid = 11x11\nmach = 20\nepsilon = 0.1\n"
    "solver = hllc\nreconstruction = muscl\nlimiter = van_albada\noutput_dir = out\n"
)

PINNED_ARTIFACT_DIGESTS = {
    "flow_p.dat": "f5b7f543c0a9f4704da2a004caa3de0eec73e71715ed5022e84546fbb2fbdbae",
    "flow_rho.dat": "785f75bebda2eccda59748319529b99f74ae9b67818de3c8fcc2328c7417d6b2",
    "flow_u.dat": "8f27cb8ee0ebe2f6166d304fd0c6f9baaf38324120a4e74384d58eea86d68922",
    "flow_v.dat": "ec009e7ab03aa1b84c679ffd26a3fd21a4570d7632bdcc88add0a2162e72675e",
    "matrix.dat": "1f718610e6f339b9adeaf9cfca3b037134c3ff17e535105f9839c1af99b0b922",
    "series_oned.dat": "5b95820c48771db68c07d13393d8d1ad3fdc9086defc239651825676fdeb56e0",
    "settings_echo.dat": "1b54631e2c7788c102eb4bb9c5d1ebae40da3dfb8182f7b8dc6fa449c31eb129",
}


@pytest.fixture(scope="module")
def anchor_run(tmp_path_factory):
    """The anchor's output directory, run from its own working directory so the echo reads ``output_dir = out``."""
    work = tmp_path_factory.mktemp("anchor")
    (work / "anchor.cfg").write_text(ANCHOR, encoding="ascii")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        code = cli.main(["anchor.cfg", "--dump-matrix"])
    return code, work / "out"


def test_anchor_exit_code(anchor_run):
    assert anchor_run[0] == 1  # unstable


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACT_DIGESTS))
def test_anchor_artifact_bytes(anchor_run, name):
    digest = hashlib.sha256((anchor_run[1] / name).read_bytes()).hexdigest()
    assert digest == PINNED_ARTIFACT_DIGESTS[name]
