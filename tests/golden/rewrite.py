"""Rewrite every golden file of ``tests/test_golden.py`` from the current
tree, and delete the files that no argv names any more.  Run it by hand,
from the repository root::

    PYTHONPATH=src python tests/golden/rewrite.py [--check]

then commit the files whose output changed by design, with the reason.
With ``--check`` it writes and deletes nothing: it prints the name of each
file that a rewrite would change, add or delete, and exits 1 if there is
any."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from test_golden import ARGVS, GOLDEN, path_of, render  # noqa: E402

if sys.argv[1:] not in ([], ["--check"]):
    sys.exit("usage: rewrite.py [--check]")
texts = {path_of(argv): render(argv) for argv in ARGVS}
stale = set(GOLDEN.glob("*.json")) - set(texts)
if sys.argv[1:] == ["--check"]:
    changed = stale | {path for path, text in texts.items()
                       if not path.exists() or path.read_text() != text}
    for path in sorted(changed):
        print(path.name)
    sys.exit(1 if changed else 0)
for path in stale:
    path.unlink()
for path, text in texts.items():
    path.write_text(text)
    print(path.name)
