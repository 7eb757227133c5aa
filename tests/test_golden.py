"""Golden outputs: each argv of :data:`ARGVS`, run in process, prints the
exact stdout and stderr and exits with the exact code stored in its file
under ``tests/golden/``.  A change that moves one byte of a report fails
here.  Where an output changes by design, rewrite the files with
``PYTHONPATH=src python tests/golden/rewrite.py`` and commit them with the
reason."""

import json
import pathlib
import re

import pytest

from test_argv_boundaries import run

GOLDEN = pathlib.Path(__file__).parent / "golden"

ARGVS = [argv.split() for argv in (
    # the README examples
    "model --length 1 --eval 0+2i --oracle",
    "model --length 1 --grid default --format csv",
    "couple --kappa1 0.5 --kappa2 0.5 --grid default --check nunu",
    "couple --kappa1 0.25 --kappa2 0.75 --check formula1",
    # the product of the tags prints as 0.14999999999999999, not 0.15
    "multiply --kappa1 0.5 --kappa2 0.3",
    "add --alpha 0.7853981633974483",
    "measure --atoms 0:1 --check-normalization",
    "measure --atoms=1:1,-1:1 --invert --window=-2:2 --eps 0.01,0.001,0.0001",
    "check-class --length 1",
    "check-class --probe cayley",
    "verify-all",
    # outputs at the edges: a failed verdict, a constant probe, a grid
    # with poles, a signed zero, an inversion off the scan lattice
    "check-class --length 0.01",
    "check-class --probe const:0.5",
    "model --length 1.7e308 --grid default",
    "add --alpha -0.0",
    "measure --atoms=0.123456:1,1.5:0.5 --invert",
    "model --length 1 --eval 0+2i",
    "couple --kappa1 0.5 --kappa2 0.5",
    # one argv for each class of exit 2: argparse, OutOfRange (a point off
    # the half-plane, and a subnormal length at a point and on a grid),
    # UsageError, OSError, a pole and QuadratureFailed
    "model --length 1",
    "model --length 1 --eval 0-1i",
    "model --length 5e-324 --grid default",
    "model --length 1 --grid default --oracle",
    "model --length 1 --grid file:/nonexistent/grid.json",
    "model --length 5e-324 --eval 0+2i",
    "check-class --length 1.7e308",
    "model --length 2 --eval 10000000+0.1i --oracle",
)]


def path_of(argv) -> pathlib.Path:
    return GOLDEN / (re.sub(r"[^\w.+-]+", "_", " ".join(argv).replace("--", "")) + ".json")


def render(argv) -> str:
    """The golden file's text for ``argv``, as the current tree prints it."""
    code, out, err = run(argv)
    return json.dumps({"argv": argv, "exit": code, "stdout": out.splitlines(keepends=True),
                       "stderr": err.splitlines(keepends=True)}, indent=1) + "\n"


def test_every_file_belongs_to_one_argv():
    paths = {path_of(argv) for argv in ARGVS}
    assert len(paths) == len(ARGVS)
    assert set(GOLDEN.glob("*.json")) == paths


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_golden_output(argv):
    assert render(argv) == path_of(argv).read_text()
