import json
import math
import os
import subprocess
import sys

import pytest

import livcalc
from livcalc.cli import build_parser, main, parse_atoms, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        with pytest.raises(Exception):
            parse_complex(bad)

    def test_atoms(self):
        assert parse_atoms("0:1") == ((0.0, 1.0),)
        assert parse_atoms("1:1,-1:1") == ((1.0, 1.0), (-1.0, 1.0))

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_shared_parser_leaks_no_defaults(self, capsys):
        # a call after one with --check formula1 reads the default nunu again
        argv = ("couple", "--kappa1", "0.5", "--kappa2", "0.5")
        alone = run_cold("-m", "livcalc.cli", *argv)
        assert run_cli(capsys, *argv, "--check", "formula1")[0] == 0
        assert run_cli(capsys, *argv) == (alone.returncode, alone.stdout, alone.stderr)
        assert json.loads(alone.stdout)["check"] == "nunu"

    def test_shared_parser_survives_a_usage_error(self, capsys):
        assert run_cli(capsys, "model")[0] == 2
        code, out, _ = run_cli(capsys, "model", "--length", "1", "--eval", "0+2i")
        assert code == 0 and json.loads(out)["ell"] == "1"


class TestModelVerb:
    def test_single_point_report(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--length", "1", "--eval", "0+2i")
        assert code == 0
        report = json.loads(out)
        assert abs(float(report["s"]["re"]) - 0.24472847105479767) < 1e-15
        assert abs(float(report["S"]["re"]) - math.exp(-2)) < 1e-15
        assert abs(float(report["kappa"]) - math.exp(-1)) < 1e-15

    def test_oracle_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "model", "--length", "1", "--eval", "0+2i", "--oracle"
        )
        assert code == 0
        report = json.loads(out)
        assert float(report["oracle_deviation"]) < 1e-8

    def test_grid_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "model", "--length", "1", "--grid", "default", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "re,im,f_re,f_im"
        assert len(lines) == 1 + 21 * 21 + 1

    def test_grid_file(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            json.dumps(
                {
                    "points": [{"re": 0.0, "im": 1.0}, {"re": 0.0, "im": 2.0}],
                    "description": "two points",
                }
            )
        )
        code, out, _ = run_cli(
            capsys, "model", "--length", "1", "--grid", f"file:{grid_file}",
            "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_eval_and_grid_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "model", "--length", "1", "--eval", "0+1i", "--grid", "default"
        )
        assert code == 2
        assert "error" in err

    def test_requires_point_or_grid(self, capsys):
        code, _, _ = run_cli(capsys, "model", "--length", "1")
        assert code == 2

    def test_rejects_lower_halfplane_eval(self, capsys):
        code, _, _ = run_cli(capsys, "model", "--length", "1", "--eval", "0-1i")
        assert code == 2

    def test_tiny_length_keeps_its_digits(self, capsys):
        # e^{-ell} rounds to 1 here; s(2i) -> 1/3 as ell -> 0
        code, out, _ = run_cli(capsys, "model", "--length", "1e-300", "--eval", "0+2i")
        assert code == 0
        s = json.loads(out)["s"]
        assert abs(complex(float(s["re"]), float(s["im"])) - 1.0 / 3.0) < 1e-15

    def test_oracle_at_large_real_part(self, capsys):
        code, out, _ = run_cli(
            capsys, "model", "--length", "1", "--eval", "10000+1i", "--oracle"
        )
        assert code == 0
        assert float(json.loads(out)["oracle_deviation"]) < 1e-8

    def test_oracle_at_length_400(self, capsys):
        # e^{2 ell} and e^{(Im z + 1) ell} overflow a double here; the oracle
        # forms neither
        code, out, _ = run_cli(
            capsys, "model", "--length", "400", "--eval", "0+2i", "--oracle"
        )
        assert code == 0
        assert float(json.loads(out)["oracle_deviation"]) < 1e-8

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

    def test_cold_oracle_just_past_node_budget_is_typed_error(self):
        # |z + i| * ell = 4.4e4 needs more than MAX_NODES on its first rule
        done = run_cold("-m", "livcalc.cli", "model", "--length", "1", "--eval",
                        "44000+1i", "--oracle")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: no convergence") and "node budget" in done.stderr

    def test_oracle_past_node_budget_is_typed_error(self, capsys):
        code, out, err = run_cli(
            capsys, "model", "--length", "2", "--eval", "10000000+0.1i", "--oracle"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: no convergence") and "node budget" in err

    @pytest.mark.parametrize("ell, z", [
        # |z + i| * ell overflows to inf
        ("1.7e308", "0+2i"), ("1.7e308", "0+1e300i"), ("1e300", "0+1e300i"),
        # J_+ underflows to 0
        ("5e-324", "1e300+1i"), ("5e-324", "0+1e300i"),
    ])
    def test_oracle_out_of_reach_names_ell_and_z(self, capsys, ell, z):
        code, out, err = run_cli(capsys, "model", "--length", ell, "--eval", z, "--oracle")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"z = {parse_complex(z)}" in err and f"ell = {float(ell)}" in err


class TestCoupleVerb:
    def test_nunu_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "couple", "--kappa1", "0.5", "--kappa2", "0.5",
            "--grid", "default", "--check", "nunu",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert float(report["max_deviation"]) < 1e-10

    def test_formula1_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "couple", "--kappa1", "0.25", "--kappa2", "0.75",
            "--check", "formula1",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_unequal_kappas_pass(self, capsys):
        # s1 and s2 have lengths 1 and 2, so a swap of them would not pass
        code, out, _ = run_cli(capsys, "couple", "--kappa1", "0.3", "--kappa2", "0.7")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert float(report["max_deviation"]) < 1e-10

    def test_degenerate_kappa2(self, capsys):
        code, out, _ = run_cli(capsys, "couple", "--kappa1", "0.5", "--kappa2", "0")
        assert code == 0

    def test_out_of_range_kappa_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "couple", "--kappa1", "1.5", "--kappa2", "0.5")
        assert code == 2
        assert "error" in err

    def test_overflowing_second_length_names_length(self, capsys):
        # the second model's length 2 * ell overflows; the user passed 1e308
        code, out, err = run_cli(
            capsys, "couple", "--kappa1", "0.5", "--kappa2", "0.5", "--length", "1e308"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --length 1e+308") and "2 * ell overflows" in err


class TestMultiplyVerb:
    def test_product_tag(self, capsys):
        code, out, _ = run_cli(capsys, "multiply", "--kappa1", "0.5", "--kappa2", "0.3")
        assert code == 0
        report = json.loads(out)
        assert abs(float(report["kappa"]["re"]) - 0.15) < 1e-15
        assert float(report["tag_defect"]) < 1e-12


class TestDiskEdge:
    # |kappa| = 1 - 2^-53: the disk automorphism's determinant is -2.2e-16
    @pytest.mark.parametrize("argv", [
        "multiply --kappa1 0.9999999999999999 --kappa2 0.9999999999999999",
        "couple --kappa1 0.9999999999999999 --kappa2 0.9999999999999999 --check nunu",
        "couple --kappa1 0.9999999999999999 --kappa2 0.5 --check formula1",
    ], ids=["multiply", "couple-nunu", "couple-formula1"])
    def test_kappa_at_disk_edge_gets_a_value(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err, json.loads(out)["pass"]) == (0, "", True)


class TestAddVerb:
    @pytest.mark.parametrize("alpha", ["0", "0.7853981633974483", "1.5707963267948966"])
    def test_normalization_preserved(self, capsys, alpha):
        code, out, _ = run_cli(capsys, "add", "--alpha", alpha)
        assert code == 0
        report = json.loads(out)
        assert float(report["normalization_defect"]) < 1e-14
        assert float(report["min_imag_on_grid"]) > 0.0


class TestMeasureVerb:
    def test_normalized_atom(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--atoms", "0:1", "--check-normalization"
        )
        assert code == 0
        report = json.loads(out)
        assert report["defect"] == "0"
        assert report["M_at_i"] == {"re": "0", "im": "1"}

    def test_unnormalized_atom_fails_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--atoms", "1:1", "--check-normalization"
        )
        assert code == 1
        assert abs(float(json.loads(out)["defect"]) - 0.5) < 1e-15

    def test_invert_round_trip(self, capsys):
        # leading-dash values need the --flag=value form
        code, out, _ = run_cli(
            capsys, "measure", "--atoms=1:1,-1:1", "--invert",
            "--window=-2:2", "--eps", "0.01,0.001,0.0001",
        )
        assert code == 0
        atoms = json.loads(out)["recovered_atoms"]
        assert len(atoms) == 2
        assert abs(float(atoms[0]["weight"]) - 1.0) < 0.02

    def test_measure_file(self, capsys, tmp_path):
        measure_file = tmp_path / "mu.json"
        measure_file.write_text(
            json.dumps({"atoms": [{"location": 0.0, "weight": 1.0}], "density": None})
        )
        code, out, _ = run_cli(
            capsys, "measure", "--measure-file", str(measure_file),
            "--check-normalization",
        )
        assert code == 0

    @pytest.mark.parametrize("window", ["-inf:2", "-2:inf", "-1e308:1e308"])
    def test_non_finite_window_is_usage_error(self, window):
        done = run_cold(
            "-m", "livcalc.cli", "measure", "--atoms=1:1,-1:1", "--invert", f"--window={window}"
        )
        assert (done.returncode, done.stdout) == (2, "")
        # one line naming the window: no traceback, no numpy warning
        assert done.stderr.startswith("error: window") and "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags, exit_code", [((), 0), (("--check-normalization",), 1)])
    def test_far_atom_warns_nothing(self, capsys, flags, exit_code):
        # lam^2 overflows beyond |lam| of about 1.3e154; 1/(1 + lam^2) is 0
        code, out, err = run_cli(capsys, "measure", "--atoms=1e200:1", *flags)
        assert (code, err) == (exit_code, "")
        assert json.loads(out)["defect"] == "1"

    @pytest.mark.filterwarnings("error")
    def test_window_far_beyond_atom_warns_nothing(self, capsys):
        # (x - location)^2 overflows at the window's ends; the kernel there is 0
        code, out, err = run_cli(capsys, "measure", "--atoms=0:1", "--invert",
                                 "--window=-1e300:1e300")
        assert (code, err) == (0, "")
        atoms = json.loads(out)["recovered_atoms"]
        assert [(a["location"], a["weight"]) for a in atoms] == [("0", "1")]

    def test_atoms_and_file_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "measure")
        assert code == 2


class TestCheckClassVerb:
    def test_model_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-class", "--length", "1")
        assert code == 0
        assert json.loads(out)["verdict"] == "ConsistentWithC"

    def test_cayley_probe_fails_growth(self, capsys):
        code, out, _ = run_cli(capsys, "check-class", "--probe", "cayley")
        assert code == 1
        assert json.loads(out)["verdict"] == "FailsGrowth"

    def test_constant_probe_fails_at_i(self, capsys):
        code, out, _ = run_cli(capsys, "check-class", "--probe", "const:0.5")
        assert code == 1
        assert json.loads(out)["verdict"] == "FailsAtI"

    def test_malformed_probe_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check-class", "--probe", "const:zz")
        assert code == 2
        assert "error" in err

    def test_unknown_probe_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "check-class", "--probe", "mystery")
        assert code == 2


class TestVerifyAll:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert set(report) >= {"core", "moebius", "measure", "extension",
                               "coupling", "model"}


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, first, _ = run_cli(capsys, "model", "--length", "1", "--eval", "0+2i")
        _, second, _ = run_cli(capsys, "model", "--length", "1", "--eval", "0+2i")
        assert first == second

    def test_byte_identical_csv(self, capsys):
        argv = ("model", "--length", "0.5", "--grid", "default", "--format", "csv")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "model", "--length", "1", "--bogus", "1")
        assert code == 2

    def test_unknown_verb(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "couple", "--kappa1", "0.5")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        "couple --kappa1 0.5 --kappa2 0.5", "multiply --kappa1 0.5 --kappa2 0.3", "add --alpha 0",
        "measure --atoms 0:1", "check-class --length 1", "verify-all",
    ])
    def test_format_is_a_model_flag(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv.split(), "--format", "csv")
        assert code == 2
        assert out == ""

    def test_csv_needs_a_grid(self, capsys):
        code, out, err = run_cli(
            capsys, "model", "--length", "1", "--eval", "0+2i", "--format", "csv"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        "add --alpha -1e-3", "model --length 1 --eval -1+2i",
        "measure --atoms -1:1,1:1 --window -2:2 --invert",
    ], ids=["exponent", "complex", "pair"])
    def test_value_with_leading_minus_is_a_value(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert json.loads(out)

    @pytest.mark.parametrize("argv,name", [
        ("model --length -1e-3 --eval 0+1i", "interval length"),
        ("couple --kappa1 -1e-3 --kappa2 0.5", "kappa1"),
    ], ids=["model", "couple"])
    def test_negative_exponent_value_reaches_range_check(self, capsys, argv, name):
        # not argparse's "expected one argument": the program's own range error
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name}") and "-0.001" in err

    @pytest.mark.parametrize("argv,content,entry", [
        ("model --length 1 --grid file:{}", {}, "'points'"),
        ("model --length 1 --grid file:{}", {"points": [{"re": 0, "im": 1}, 3]}, "point 1"),
        ("couple --kappa1 0.5 --kappa2 0.5 --grid file:{}", {}, "'points'"),
        ("measure --measure-file {}", {"atoms": [{"location": 0}]}, "'weight'"),
    ], ids=["grid-no-points", "grid-bad-point", "couple-grid-no-points", "atom-no-weight"])
    def test_malformed_input_file(self, capsys, tmp_path, argv, content, entry):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, *argv.format(path).split())
        assert (code, out) == (2, "")
        assert err.startswith("error:") and entry in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,name", [
        ("model --length inf --eval 0+1i", "interval length"),
        ("model --length inf --grid default", "interval length"),
        ("couple --kappa1 0.5 --kappa2 0.5 --length inf", "interval length"),
        ("check-class --length inf", "interval length"),
        ("add --alpha inf", "alpha"),
        ("add --alpha=-inf", "alpha"),
        ("add --alpha nan", "alpha"),
    ], ids=["model-eval", "model-grid", "couple", "check-class", "add-inf", "add-minus-inf",
            "add-nan"])
    def test_non_finite_parameter_is_usage_error(self, argv, name):
        done = run_cold("-m", "livcalc.cli", *argv.split())
        assert (done.returncode, done.stdout) == (2, "")
        # one line naming the parameter, not a pole or a math domain error
        assert done.stderr.startswith(f"error: {name} must be finite")
        assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr


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
