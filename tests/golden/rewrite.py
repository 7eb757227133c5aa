"""Rewrite every golden file of ``tests/test_golden.py`` from the current
tree, and delete the files that no argv names any more.  Run it by hand,
from the repository root::

    PYTHONPATH=src python tests/golden/rewrite.py

then commit the files whose output changed by design, with the reason."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from test_golden import ARGVS, GOLDEN, path_of, render  # noqa: E402

for stale in set(GOLDEN.glob("*.json")) - {path_of(argv) for argv in ARGVS}:
    stale.unlink()
for argv in ARGVS:
    path_of(argv).write_text(render(argv))
    print(path_of(argv).name)
