import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys
import tomllib

import pytest
from test_argv_boundaries import check, run
from test_golden import path_of

import livcalc
from livcalc.cli import build_parser, parse_atoms, parse_complex


def report(argv: str, code: int = 0) -> dict:
    """The JSON report of ``argv``, which must exit with ``code``."""
    return json.loads(check(argv, code)[1])


def run_cold(*args):
    """A fresh interpreter that imports this checkout's livcalc."""
    src = os.path.dirname(os.path.dirname(livcalc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0+2i", 2j),
            ("1.5-0.5i", 1.5 - 0.5j),
            ("3", 3 + 0j),
            ("-2e-1+1e1i", complex(-0.2, 10.0)),
        ],
    )
    def test_complex_forms(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("bad", ["i", "+2i", "1+i", "abc", "1 + 2i"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(bad)

    def test_atoms(self):
        assert parse_atoms("0:1") == ((0.0, 1.0),)
        assert parse_atoms("1:1,-1:1") == ((1.0, 1.0), (-1.0, 1.0))

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_shared_parser_leaks_no_defaults(self):
        # a call after one with --check formula1 reads the default nunu again
        argv = ("couple", "--kappa1", "0.5", "--kappa2", "0.5")
        alone = run_cold("-m", "livcalc.cli", *argv)
        assert run([*argv, "--check", "formula1"])[0] == 0
        assert run(argv) == (alone.returncode, alone.stdout, alone.stderr)
        assert json.loads(alone.stdout)["check"] == "nunu"

    def test_shared_parser_survives_a_usage_error(self):
        assert run(["model"])[0] == 2
        assert report("model --length 1 --eval 0+2i")["ell"] == "1"


class TestModelVerb:
    def test_grid_file(self, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({
            "points": [{"re": 0.0, "im": 1.0}, {"re": 0.0, "im": 2.0}],
            "description": "two points",
        }))
        out = check(f"model --length 1 --grid file:{grid_file} --format csv", 0)[1]
        assert len(out.strip().split("\n")) == 3

    def test_tiny_length_keeps_its_digits(self):
        # e^{-ell} rounds to 1 here; s(2i) -> 1/3 as ell -> 0
        s = report("model --length 1e-300 --eval 0+2i")["s"]
        assert abs(complex(float(s["re"]), float(s["im"])) - 1.0 / 3.0) < 1e-15

    def test_oracle_at_large_real_part(self):
        got = report("model --length 1 --eval 10000+1i --oracle")
        assert float(got["oracle_deviation"]) < 1e-8

    def test_oracle_at_length_400(self):
        # e^{2 ell} and e^{(Im z + 1) ell} overflow a double here; the oracle
        # forms neither
        got = report("model --length 400 --eval 0+2i --oracle")
        assert float(got["oracle_deviation"]) < 1e-8

    @pytest.mark.parametrize("argv", [
        "model --length 1000 --eval 0+1e-8i --oracle",
        "model --length 700 --eval 0+1i --oracle",
        # |z + i| * ell = 4.3e4, just inside the node budget
        "model --length 1 --eval 43000+1i --oracle",
    ], ids=["ell-1000", "ell-700", "budget-edge"])
    def test_cold_oracle_at_large_length(self, argv):
        done = run_cold("-m", "livcalc.cli", *argv.split())
        assert done.returncode == 0, done.stderr
        assert float(json.loads(done.stdout)["oracle_deviation"]) < 1e-8


class TestCoupleVerb:
    def test_unequal_kappas_pass(self):
        # s1 and s2 have lengths 1 and 2, so a swap of them would not pass
        got = report("couple --kappa1 0.3 --kappa2 0.7")
        assert got["pass"] is True
        assert float(got["max_deviation"]) < 1e-10

    def test_degenerate_kappa2(self):
        check("couple --kappa1 0.5 --kappa2 0", 0)


class TestDiskEdge:
    # |kappa| = 1 - 2^-53: the disk automorphism's determinant is -2.2e-16
    @pytest.mark.parametrize("argv", [
        "multiply --kappa1 0.9999999999999999 --kappa2 0.9999999999999999",
        "couple --kappa1 0.9999999999999999 --kappa2 0.9999999999999999 --check nunu",
        "couple --kappa1 0.9999999999999999 --kappa2 0.5 --check formula1",
    ], ids=["multiply", "couple-nunu", "couple-formula1"])
    def test_kappa_at_disk_edge_gets_a_value(self, argv):
        assert report(argv)["pass"] is True


class TestAddVerb:
    @pytest.mark.parametrize("alpha", ["0", "1.5707963267948966"])
    def test_normalization_preserved(self, alpha):
        got = report(f"add --alpha {alpha}")
        assert float(got["normalization_defect"]) < 1e-14
        assert float(got["min_imag_on_grid"]) > 0.0


class TestMeasureVerb:
    def test_unnormalized_atom_fails_check(self):
        got = report("measure --atoms 1:1 --check-normalization", 1)
        assert abs(float(got["defect"]) - 0.5) < 1e-15

    def test_measure_file(self, tmp_path):
        measure_file = tmp_path / "mu.json"
        measure_file.write_text(
            json.dumps({"atoms": [{"location": 0.0, "weight": 1.0}], "density": None})
        )
        check(f"measure --measure-file {measure_file} --check-normalization", 0)

    @pytest.mark.parametrize("flags, exit_code", [((), 0), (("--check-normalization",), 1)])
    def test_far_atom_warns_nothing(self, flags, exit_code):
        # lam^2 overflows beyond |lam| of about 1.3e154; 1/(1 + lam^2) is 0
        assert report(" ".join(["measure --atoms=1e200:1", *flags]), exit_code)["defect"] == "1"

    def test_window_far_beyond_atom_warns_nothing(self):
        # (x - location)^2 overflows at the window's ends; the kernel there is 0
        atoms = report("measure --atoms=0:1 --invert --window=-1e300:1e300")["recovered_atoms"]
        assert [(a["location"], a["weight"]) for a in atoms] == [("0", "1")]


#: Prints the sorted names of the loaded modules that livcalc's runtime must
#: not need: scipy, and the numpy subpackages numpy loads only on first use.
_PRINT_FOOTPRINT = (
    "print(sorted(m for m in sys.modules\n"
    "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] in\n"
    "             (['numpy', 'random'], ['numpy', 'ma'], ['numpy', 'polynomial'])))"
)


class TestColdStart:
    #: one argv per verb; no verb imports scipy, numpy.random, numpy.ma or
    #: numpy.polynomial
    @pytest.mark.parametrize("argv", [
        "model --length 1 --eval 0+2i --oracle",
        "multiply --kappa1 0.5 --kappa2 0.3",
        "couple --kappa1 0.5 --kappa2 0.5 --check nunu",
        "add --alpha 0",
        "measure --atoms=1:1,-1:1 --invert",
        "check-class --length 1",
        "verify-all",
    ], ids=lambda argv: argv.split()[0])
    def test_pointwise_verb_does_not_import_scipy(self, argv):
        script = (
            "import sys\n"
            "import livcalc.cli\n"
            f"code = livcalc.cli.main({argv.split()!r})\n"
            "print(code)\n"
            + _PRINT_FOOTPRINT
        )
        done = run_cold("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-2:] == ["0", "[]"]

    def test_footprint_probe_sees_each_subpackage(self):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "np.random.default_rng, np.ma.masked, np.polynomial.Polynomial\n"
            + _PRINT_FOOTPRINT
        )
        done = run_cold("-c", script)
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.strip()
        assert all(f"'numpy.{sub}'" in loaded for sub in ("random", "ma", "polynomial"))

    def test_cli_import_loads_neither_scipy_nor_numpy_polynomial(self):
        done = run_cold("-c", "import sys\nimport livcalc.cli\n" + _PRINT_FOOTPRINT)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_import_generates_no_dataclass(self):
        # numpy does not load dataclasses, so any load here is livcalc's
        script = (
            "import importlib, pkgutil, sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import livcalc.cli\n"
            "print('dataclasses' in set(sys.modules) - before)\n"
            "import dataclasses\n"
            "mods = [importlib.import_module(f'livcalc.{m.name}')\n"
            "        for m in pkgutil.iter_modules(livcalc.__path__)]\n"
            "print([f'{m.__name__}.{k}' for m in mods for k, v in vars(m).items()\n"
            "       if isinstance(v, type) and dataclasses.is_dataclass(v)])\n"
        )
        done = run_cold("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "[]"]

    def test_cold_inversion_recovers_both_atoms(self):
        done = run_cold("-m", "livcalc.cli", "measure", "--atoms=1:1,-1:1", "--invert")
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        atoms = report["recovered_atoms"]
        spacing = float(report["scan_spacing"])
        assert len(atoms) == 2
        for atom, loc in zip(atoms, (-1.0, 1.0)):
            assert abs(float(atom["location"]) - loc) <= spacing
            assert abs(float(atom["weight"]) - 1.0) < 0.02

    def test_cold_inversion_keeps_both_atoms_at_fine_eps(self):
        done = run_cold("-m", "livcalc.cli", "measure", "--atoms=0.123456:1,1.5:0.5",
                        "--invert", "--eps", "1e-8,1e-9")
        assert done.returncode == 0, done.stderr
        atoms = json.loads(done.stdout)["recovered_atoms"]
        assert len(atoms) == 2
        for atom, (loc, w) in zip(atoms, ((0.123456, 1.0), (1.5, 0.5))):
            assert abs(float(atom["location"]) - loc) < 1e-10
            assert abs(float(atom["weight"]) - w) < 0.02 * w


class TestEntryPoint:
    """``cli.run`` is the one process entry point; it freezes the import-time
    heap, and :func:`livcalc.cli.main` leaves the collector as it is."""

    @pytest.mark.parametrize("argv", [
        "multiply --kappa1 0.5 --kappa2 0.3",
        "check-class --length 0.01",
        "model --length 1 --eval 0-1i",
    ], ids=lambda argv: argv.split()[0])
    def test_cold_entry_keeps_the_golden_bytes(self, argv):
        golden = json.loads(path_of(argv.split()).read_text())
        done = run_cold("-m", "livcalc.cli", *argv.split())
        assert (done.returncode, done.stdout, done.stderr) == (
            golden["exit"], "".join(golden["stdout"]), "".join(golden["stderr"]))

    def test_run_freezes_before_the_verb_and_keeps_atexit(self):
        script = (
            "import atexit, gc, sys\n"
            "import livcalc.cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.argv = ['livcalc', 'model', '--length', '1', '--eval', '0-1i']\n"
            "livcalc.cli.run()\n"
        )
        done = run_cold("-c", script)
        assert done.returncode == 2
        frozen = done.stderr.splitlines()[-1].split()
        assert frozen[0] == "frozen" and int(frozen[1]) > 10_000, done.stderr

    def test_main_leaves_the_freeze_count(self):
        before = gc.get_freeze_count()
        assert run(["multiply", "--kappa1", "0.5", "--kappa2", "0.3"])[0] == 0
        assert gc.get_freeze_count() == before

    def test_console_script_enters_through_run(self):
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"livcalc": "livcalc.cli:run"}
