"""The CLI's error rule over a table of argvs, each run in process through
``livcalc.cli.main`` with warnings raised as errors.  No exception escapes
``main``, and every argv ends in one of three ways:
- exit 0: a report on stdout and nothing on stderr;
- exit 1: the same, with a report that states a failed verification;
- exit 2: nothing on stdout, and stderr ends in its one ``error:`` line.
The generated argvs put each verb's parameters at their extremes and check
the rule; the hand rows (:func:`check`, which test_cli.py calls too) also
pin the exit code and a pattern that names the rejected input.  The last
rows call the library directly, where no argv reaches a rejection.
"""

import contextlib
import io
import itertools
import json
import re
import warnings

import pytest

from livcalc import (
    BorelMeasureModel, CouplingAngles, EvaluationGrid, LivcalcError, SampledDensity,
    TaggedCharacteristic, cli, g_plus, model_closed_forms, realize_herglotz,
    split_interval_check, stieltjes_invert,
)
from livcalc.core import json_number
from livcalc.extension import ensure_rotation

#: stderr's last line on exit 2: argparse's error, or the program's own
ERROR_LINE = re.compile(r"(livcalc( [\w-]+)?: )?error: ")


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def states_failure(argv, out) -> bool:
    if "csv" in argv:
        return False
    report = json.loads(out)
    return (report.get("pass") is False or report.get("all_passed") is False
            or report.get("verdict", "ConsistentWithC") != "ConsistentWithC"
            or ("--check-normalization" in argv and float(report["defect"]) >= 1e-14))


def broken_rule(argv, code, out, err):
    """How an outcome breaks the rule, or None where it keeps it."""
    *head, last = err.splitlines() or [""]
    if code == 2:
        usage_only = all(line.startswith(("usage:", " ")) for line in head)
        if out or not ERROR_LINE.match(last) or not usage_only:
            return f"exit 2 with stdout {out[:60]!r} and stderr {err!r}"
    elif code not in (0, 1) or err or not out:
        return f"exit {code} with stdout {out[:60]!r} and stderr {err!r}"
    elif (code == 1) != states_failure(argv, out):
        return f"exit {code} with the report {out[:200]!r}"
    return None


def check(argv: str, code: int, pattern=None):
    """Run ``argv`` (split on spaces) and assert the rule, the exit code and,
    where given, a regex: searched in stderr's last line on exit 2, in stdout
    otherwise.  Returns (exit code, stdout, stderr)."""
    got = run(argv.split())
    assert broken_rule(argv.split(), *got) is None and got[0] == code, (argv, got)
    if pattern is not None:
        assert re.search(pattern, got[2].splitlines()[-1] if code == 2 else got[1]), got
    return got


LENGTHS = ("0", "5e-324", "1e-300", "1e-12", "0.01", "0.5", "1", "2", "50", "400", "1e3",
           "1e300", "1.7e308", "inf", "-inf", "nan", "-1", "-1e-3")
POINTS = ("0+2i", "0+1i", "-3+0.5i", "1e4+1e-8i", "1e300+1i", "0+1e300i", "0+5e-324i",
          "1+0i", "0-1i", "1e400+1i", "0+1e400i")
KAPPAS = ("0", "5e-324", "0.5", "0.9", "0.99999999999999", "0.9999999999999999", "1",
          "1.5", "-1e-3", "-1", "inf", "nan")
ALPHAS = ("0", "0.7853981633974483", "1.5707963267948966", "3.141592653589793", "-1e-3",
          "5e-324", "1e300", "-1e300", "inf", "-inf", "nan")
ATOMS = ("0:1", "1:1,-1:1", "0.123456:1,1.5:0.5", "1e200:1", "1e-300:1", "0:1e300",
         "0:5e-324", "0:0", "0:-1", "0:inf", "nan:1", "inf:1", "0:1,0:1")
WINDOWS = ("-2:2", "-1e-12:1e-12", "2:-2", "0:0", "-inf:2", "-2:nan", "-1e308:1e308",
           "-1e300:1e300")
EPS = ("0.01,0.001,0.0001", "1e-8,1e-9", "0.01", "0.001,0.01", "0.01,0.01", "0,-1", "inf,1",
       "nan,1", "1e300,1")
PROBES = ("cayley", "const:0", "const:0.5", "const:0+0.5i", "const:1", "const:1e400",
          "const:zz", "const:", "mystery")
INVERT = "measure --atoms=1:1,-1:1 --invert"
#: the rejection of a subnormal length, 5e-324, by name
SUBNORMAL = (r"^error: interval length must be finite and positive, at least "
             r"2\.2250738585072014e-308 \(the smallest normal double\), got 5e-324$")

AXES = {
    "model-point": [f"model --length={ell} --eval={z}{oracle}" for ell, z, oracle
                    in itertools.product(LENGTHS, POINTS, ("", " --oracle"))],
    "model-grid": [f"model --length={ell} --grid default{csv}"
                   for ell in LENGTHS for csv in ("", " --format csv")],
    "kappa-pair": [f"{verb} --kappa1={k1} --kappa2={k2}"
                   for k1, k2 in itertools.product(KAPPAS, KAPPAS)
                   for verb in ("multiply", "couple --check nunu", "couple --check formula1")],
    "length": [f"{verb} --length={ell}" for ell in LENGTHS for verb in (
        "multiply --kappa1 0.5 --kappa2 0.3", "couple --kappa1 0.5 --kappa2 0.5", "check-class")],
    "alpha": [f"add --alpha={alpha}" for alpha in ALPHAS],
    "atoms": [f"measure --atoms={atoms}{flag}" for atoms in ATOMS
              for flag in ("", " --check-normalization", " --invert")],
    "window-eps": [f"{INVERT} --window={w}" for w in WINDOWS]
    + [f"{INVERT} --eps={eps}" for eps in EPS],
    "probe": [f"check-class --probe={probe}" for probe in PROBES],
}


@pytest.mark.parametrize("axis", AXES)
def test_every_argv_keeps_the_rule(axis):
    broken = []
    for argv in AXES[axis]:
        try:
            why = broken_rule(argv.split(), *run(argv.split()))
        except Exception as exc:  # an exception that escapes main breaks the rule
            why = f"{type(exc).__name__} escapes main: {exc}"
        broken += [f"{argv}: {why}"] if why else []
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("argv, code, pattern", [
    # |z + i| * ell = 4.4e4 needs more than MAX_NODES on its first rule
    ("model --length 1 --eval 44000+1i --oracle", 2, r"^error: no convergence.*node budget"),
    ("model --length 1 --grid mystery", 2, r"^error: grid must be .* got 'mystery'"),
    ("check-class --length 1 --probe cayley", 2, "--probe: not allowed with argument --length"),
    ("check-class", 2, "one of the arguments --length --probe is required"),
    ("measure --atoms=0:1,0:1", 2, "^error: atom locations must be pairwise distinct"),
    # M(i) = i * the normalization integral, so a larger integral is a pole
    ("measure --atoms=0:1e300", 2, r"^error: normalization integral = 1e\+300 above 1e\+12"),
    ("measure --atoms=0:1e300 --check-normalization", 2,
     r"^error: normalization integral = 1e\+300 above 1e\+12"),
    ("measure --atoms=0:1e300 --invert", 2,
     r"^error: normalization integral = 1e\+300 above 1e\+12"),
    ("measure --atoms=0:1e12", 0, r'"im": "1000000000000"'),
    (f"{INVERT} --eps=0.01", 2, "^error: eps_schedule must be"),
    ("couple --kappa1 0.5 --kappa2 1", 2, r"^error: kappa2 = 1.0 outside \[0, 1\)"),
    ("multiply --kappa1 1 --kappa2 0.5", 2, r"^error: .*needs \|kappa\| < 1, got \|\(1\+0j\)\|"),
    # a pole inside a sweep is a row of NaN, not an error: 336 of 442 here
    ("model --length 1.7e308 --grid default --format csv", 0, "\n-5,5,nan,nan\n"),
    # a subnormal length has fewer than 53 significant bits
    ("model --length 5e-324 --eval 0+2i", 2, SUBNORMAL),
    ("multiply --kappa1 0.5 --kappa2 0.3 --length 5e-324", 2, SUBNORMAL),
    ("check-class --length 5e-324", 2, SUBNORMAL),
    ("model --length 5e-324 --eval 1e300+1i --oracle", 2, SUBNORMAL),
    ("model --length 5e-324 --eval 0+1e300i --oracle", 2, SUBNORMAL),
    # the oracle verifies one point; a sweep would silently drop it
    ("model --length 1 --grid default --oracle --format csv", 2,
     r"^error: --oracle applies to --eval"),
    ("check-class --probe const:1e400", 2, r"--probe: complex value '1e400' overflows"),
    # a nonzero literal that rounds to 0 is named as typed, not as the point 0
    ("model --length 1 --eval 0+1e-400i", 2,
     r"--eval: complex value '0\+1e-400i' underflows a double to 0"),
    ("model --length 1 --eval 1e-400+1i", 2,
     r"--eval: complex value '1e-400\+1i' underflows a double to 0"),
], ids=["oracle-just-past-node-budget", "grid-spec", "check-class-source-conflict",
        "check-class-needs-a-source", "duplicate-atoms",
        "normalization-above-guard", "normalization-above-guard-check",
        "normalization-above-guard-invert", "normalization-at-guard", "one-eps", "kappa-at-one",
        "kappa-on-circle", "pole-in-a-sweep", "subnormal-length-model",
        "subnormal-length-multiply", "subnormal-length-check-class",
        "subnormal-length-oracle-real", "subnormal-length-oracle-imag", "oracle-on-a-grid",
        "overflowing-literal", "underflowing-imaginary-part", "underflowing-real-part"])
def test_row(argv, code, pattern):
    check(argv, code, pattern)


@pytest.mark.parametrize("content, pattern", [
    (b"{not json", r"^error: {}: Expecting property name"),
    (b"\xff\xfe{}", r"^error: {}: 'utf-8' codec can't decode byte 0xff"),
    (b"[1, 2]", r"^error: {}: .*'(points|atoms)' is missing or not a list"),
    (None, r"^error: \[Errno 2\] No such file or directory: '{}'"),
], ids=["not-json", "not-utf8", "top-level-list", "missing"])
@pytest.mark.parametrize("argv", ["model --length 1 --grid file:{}", "measure --measure-file {}"],
                         ids=["grid", "measure"])
def test_file_row(tmp_path, argv, content, pattern):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    check(argv.format(path), 2, pattern.replace("{}", re.escape(str(path))))


def test_a_program_error_escapes_main(monkeypatch):
    # only a LivcalcError or an OSError exits 2; a bare ValueError is a bug
    def shape_mismatch(args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setitem(cli._DISPATCH, "model", shape_mismatch)
    with pytest.raises(ValueError, match="broadcast"):
        run(["model", "--length", "1", "--eval", "0+2i"])


@pytest.mark.parametrize("reject, args", [
    (EvaluationGrid, ((1j, 1j),)), (json_number, ({}, "re", "p")),
    (SampledDensity, (0.0, 1.0, (1.0, 1.0))), (CouplingAngles, (2.0, 0.0)),
    (ensure_rotation, (4.0,)), (g_plus(1.0), (2.0,)), (split_interval_check, (1.0, 1.5, None)),
    (stieltjes_invert, (realize_herglotz(BorelMeasureModel(((0.0, 1.0),))), (-2, 2), (1, 0.1), 4)),
    (TaggedCharacteristic, (model_closed_forms(1.0).characteristic, 0.5)),
    (BorelMeasureModel, ((), SampledDensity(0.0, 1.0, (1e13, 1e13, 1e13)))),
], ids=["grid", "json", "density", "angles", "rotation", "deficiency-element",
        "split-fraction", "scan-count", "tag", "density-normalization"])
def test_library_rejection_is_typed(reject, args):
    with pytest.raises(LivcalcError):
        reject(*args)
