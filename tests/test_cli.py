import json
import math
import os
import subprocess
import sys

import pytest

import livcalc
from livcalc.cli import main, parse_atoms, parse_complex


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

    def test_oracle_overflow_is_typed_error(self, capsys):
        # (Im z + 1) * ell = 1200: the oracle's integrand leaves the double range
        code, out, err = run_cli(
            capsys, "model", "--length", "400", "--eval", "0+2i", "--oracle"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows" in err


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


class TestMultiplyVerb:
    def test_product_tag(self, capsys):
        code, out, _ = run_cli(capsys, "multiply", "--kappa1", "0.5", "--kappa2", "0.3")
        assert code == 0
        report = json.loads(out)
        assert abs(float(report["kappa"]["re"]) - 0.15) < 1e-15
        assert float(report["tag_defect"]) < 1e-12


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


class TestColdStart:
    def test_pointwise_verb_does_not_import_scipy(self):
        script = (
            "import sys\n"
            "import livcalc.cli\n"
            "code = livcalc.cli.main(['model', '--length', '1', '--eval', '0+2i', '--oracle'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), code)\n"
        )
        done = run_cold("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[] 0"

    def test_cli_import_loads_neither_scipy_nor_numpy_polynomial(self):
        script = (
            "import sys\n"
            "import livcalc.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
        )
        done = run_cold("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

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
