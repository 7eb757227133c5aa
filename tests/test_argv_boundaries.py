"""The CLI's error rule over a table of argvs, each run in process through
``livcalc.cli.main`` with warnings raised as errors.  No exception escapes
``main``, and every argv ends in one of three ways:
- exit 0: a report on stdout and nothing on stderr;
- exit 1: the same, with a report that states a failed verification;
- exit 2: nothing on stdout, and stderr ends in its one ``error:`` line,
  which names the rejected input: never a bare "pole at".
The generated argvs put each verb's parameters at their extremes and check
the rule; the hand rows (:data:`ROWS` and :data:`FILE_ROWS`) also pin the
exit code and a pattern that names the rejected input.  An argv has one
home: its exact bytes in test_golden.py, or its row here.  The last rows
call the library directly, where no argv reaches a rejection.
"""

import contextlib
import io
import itertools
import json
import math
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
        if out or not ERROR_LINE.match(last) or not usage_only or ": pole at " in last:
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
ATOMS = ("0:1", "1:1,-1:1", "0.123456:1,1.5:0.5", "1e200:1", "1e-300:1", "0:1e11", "0:1e300",
         "0:5e-324", "0:0", "0:-1", "0:inf", "nan:1", "inf:1", "0:1,0:1")
WINDOWS = ("-2:2", "-1e-12:1e-12", "2:-2", "0:0", "-inf:2", "-2:nan", "-1e308:1e308",
           "-1e300:1e300")
EPS = ("0.01,0.001,0.0001", "1e-8,1e-9", "1e-12,1e-13", "0.01", "0.001,0.01", "0.01,0.01",
       "0,-1", "inf,1", "nan,1", "1e300,1")
PROBES = ("cayley", "const:0", "const:0.5", "const:0+0.5i", "const:1", "const:1e400",
          "const:zz", "const:", "mystery")
INVERT = "measure --atoms=1:1,-1:1 --invert"
#: the rejection of a subnormal length, 5e-324, by name
SUBNORMAL = (r"^error: interval length must be finite and positive, at least "
             r"2\.2250738585072014e-308 \(the smallest normal double\), got 5e-324$")
#: the rejection of an infinite length
INF_LENGTH = "^error: interval length must be finite"
#: M(i) = i * the normalization integral, so an integral above the pole guard is a pole
ABOVE_GUARD = r"^error: normalization integral = 1e\+300 above 1e\+12"
#: the closed form at a point where ell * z overflows, naming ell, z and |z|
OVERFLOW = r"^error: interval-model s\[ell={}\]: no finite value at z = {} \(\|z\| = {}\): " \
    r"ell \* z overflows a double$"

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


#: the hand rows, id: (argv, exit code, pattern); an argv of test_golden.ARGVS,
#: whose bytes are pinned there, has no row here
ROWS = {
    # |z + i| * ell = 4.4e4 needs more than MAX_NODES on its first rule
    "oracle-just-past-node-budget": ("model --length 1 --eval 44000+1i --oracle", 2,
                                     r"^error: no convergence.*node budget"),
    "grid-spec": ("model --length 1 --grid mystery", 2, r"^error: grid must be .* got 'mystery'"),
    "check-class-source-conflict": ("check-class --length 1 --probe cayley", 2,
                                    "--probe: not allowed with argument --length"),
    "check-class-needs-a-source": ("check-class", 2,
                                   "one of the arguments --length --probe is required"),
    "duplicate-atoms": ("measure --atoms=0:1,0:1", 2,
                        "^error: atom locations must be pairwise distinct"),
    "normalization-above-guard": ("measure --atoms=0:1e300", 2, ABOVE_GUARD),
    "normalization-above-guard-check": ("measure --atoms=0:1e300 --check-normalization", 2,
                                        ABOVE_GUARD),
    "normalization-above-guard-invert": ("measure --atoms=0:1e300 --invert", 2, ABOVE_GUARD),
    "normalization-at-guard": ("measure --atoms=0:1e12", 0, r'"im": "1000000000000"'),
    "one-eps": (f"{INVERT} --eps=0.01", 2, "^error: eps_schedule must be"),
    "kappa-at-one": ("couple --kappa1 0.5 --kappa2 1", 2, r"^error: kappa2 = 1.0 outside \[0, 1\)"),
    "kappa-on-circle": ("multiply --kappa1 1 --kappa2 0.5", 2,
                        r"^error: .*needs \|kappa\| < 1, got \|\(1\+0j\)\|"),
    # a pole inside a sweep is a row of NaN, not an error: 336 of 442 here
    "pole-in-a-sweep": ("model --length 1.7e308 --grid default --format csv", 0,
                        "\n-5,5,nan,nan\n"),
    # a subnormal length has fewer than 53 significant bits
    "subnormal-length-multiply": ("multiply --kappa1 0.5 --kappa2 0.3 --length 5e-324", 2,
                                  SUBNORMAL),
    "subnormal-length-check-class": ("check-class --length 5e-324", 2, SUBNORMAL),
    "subnormal-length-oracle-real": ("model --length 5e-324 --eval 1e300+1i --oracle", 2,
                                     SUBNORMAL),
    "subnormal-length-oracle-imag": ("model --length 5e-324 --eval 0+1e300i --oracle", 2,
                                     SUBNORMAL),
    # the oracle verifies one point; a sweep would silently drop it
    "oracle-on-a-grid": ("model --length 1 --grid default --oracle --format csv", 2,
                         r"^error: --oracle applies to --eval"),
    "overflowing-literal": ("check-class --probe const:1e400", 2,
                            r"--probe: complex value '1e400' overflows"),
    # a nonzero literal that rounds to 0 is named as typed, not as the point 0
    "underflowing-imaginary-part": ("model --length 1 --eval 0+1e-400i", 2,
                                    r"--eval: complex value '0\+1e-400i' underflows a double to 0"),
    "underflowing-real-part": ("model --length 1 --eval 1e-400+1i", 2,
                               r"--eval: complex value '1e-400\+1i' underflows a double to 0"),
    # ell * Re z overflows, so e^{i ell z} has no phase
    "overflow-at-a-point": ("model --length 1e300 --eval 1e300+1i", 2,
                            OVERFLOW.format(r"1e\+300", r"\(1e\+300\+1j\)", r"1e\+300")),
    "overflow-at-the-top-length": ("model --length 1.7e308 --eval -3+0.5i", 2, OVERFLOW.format(
        r"1\.7e\+308", r"\(-3\+0\.5j\)", r"3\.04138")),
    "overflow-before-the-oracle": ("model --length 1.7e308 --eval 1e4+1e-8i --oracle", 2,
                                   OVERFLOW.format(r"1\.7e\+308", r"\(10000\+1e-08j\)", "10000")),
    # |z + i| overflows a double: an infinite reach, past the node budget
    "oracle-reach-overflows": (
        "model --length 1 --eval 1.7e308+1.7e308i --oracle", 2,
        r"^error: no convergence.*\(\|z \+ i\| \* ell = inf, z = \(1\.7e\+308\+1\.7e\+308j\), "
        r"ell = 1\.0\)$"),
    # |z + i| * ell overflows to inf: the message names ell and z
    "oracle-out-of-reach": ("model --length 1.7e308 --eval 0+2i --oracle", 2,
                            r"^error: (?=.*z = 2j)(?=.*ell = 1\.7e\+308)"),
    "oracle-out-of-reach-high-point": ("model --length 1.7e308 --eval 0+1e300i --oracle", 2,
                                       r"^error: (?=.*z = 1e\+300j)(?=.*ell = 1\.7e\+308)"),
    "oracle-out-of-reach-1e300": ("model --length 1e300 --eval 0+1e300i --oracle", 2,
                                  r"^error: (?=.*z = 1e\+300j)(?=.*ell = 1e\+300)"),
    "model-needs-a-length": ("model", 2, "required: --length"),
    "eval-and-grid-conflict": ("model --length 1 --eval 0+1i --grid default", 2,
                               "argument --grid: not allowed with argument --eval"),
    "csv-needs-a-grid": ("model --length 1 --eval 0+2i --format csv", 2,
                         "^error: --format csv applies to"),
    "kappa-out-of-range": ("couple --kappa1 1.5 --kappa2 0.5", 2,
                           r"^error: kappa1 = 1.5 outside \[0, 1\)"),
    # the second model's length 2 * ell overflows; the user passed 1e308
    "second-length-overflows": ("couple --kappa1 0.5 --kappa2 0.5 --length 1e308", 2,
                                r"^error: --length 1e\+308 .*2 \* ell overflows"),
    # one line naming the window: no traceback, no numpy warning
    "window-minus-inf": (f"{INVERT} --window=-inf:2", 2, "^error: window"),
    "window-inf": (f"{INVERT} --window=-2:inf", 2, "^error: window"),
    "window-width-overflows": (f"{INVERT} --window=-1e308:1e308", 2, "^error: window"),
    "measure-needs-a-source": ("measure", 2,
                               "one of the arguments --atoms --measure-file is required"),
    "measure-source-conflict": ("measure --atoms 0:1 --measure-file mu.json", 2,
                                "argument --measure-file: not allowed with argument --atoms"),
    # a pole of M on the inversion's path names eps and x: the scan, the
    # scan of a measure that exits 0 without --invert, and the refinement
    "invert-pole-in-the-scan": ("measure --atoms=0:1 --invert --eps=1e-12,1e-13", 2,
                                r"^error: eps = 1e-13 at x = 0\.0: .* pole guard 1e\+12$"),
    "invert-heavy-atom": ("measure --atoms=0:1e11 --invert", 2,
                          r"^error: eps = 0\.01 at x = -0\.09799999999999986: .* 1e\+12$"),
    "invert-pole-in-the-refinement": ("measure --atoms=0.0001:1 --invert --eps=1e-12,1e-13", 2,
                                      r"^error: eps = 1e-13 at x = 9\.99.*e-05: .* 1e\+12$"),
    "malformed-probe": ("check-class --probe const:zz", 2,
                        "argument --probe: cannot parse complex value 'zz'"),
    "unknown-probe": ("check-class --probe mystery", 2,
                      "argument --probe: unknown probe 'mystery'"),
    "unknown-flag": ("model --length 1 --eval 0+2i --bogus 1", 2,
                     "unrecognized arguments: --bogus 1"),
    "unknown-verb": ("frobnicate", 2, "invalid choice: 'frobnicate'"),
    "missing-required": ("couple --kappa1 0.5", 2,
                         "the following arguments are required: --kappa2"),
    # --format is a model flag
    **{f"format-on-{argv.split()[0]}": (f"{argv} --format csv", 2,
                                        "unrecognized arguments: --format csv") for argv in (
        "couple --kappa1 0.5 --kappa2 0.5", "multiply --kappa1 0.5 --kappa2 0.3", "add --alpha 0",
        "measure --atoms 0:1", "check-class --length 1", "verify-all")},
    # a value with a leading minus is a value, not a flag
    "leading-minus-exponent": ("add --alpha -1e-3", 0, None),
    "leading-minus-complex": ("model --length 1 --eval -1+2i", 0, None),
    "leading-minus-pair": ("measure --atoms -1:1,1:1 --window -2:2 --invert", 0, None),
    # not argparse's "expected one argument": the program's own range error
    "negative-exponent-length": ("model --length -1e-3 --eval 0+1i", 2,
                                 r"^error: interval length.*-0\.001"),
    "negative-exponent-kappa": ("couple --kappa1 -1e-3 --kappa2 0.5", 2,
                                r"^error: kappa1.*-0\.001"),
    # one line naming the parameter, not a pole or a math domain error
    "non-finite-length-eval": ("model --length inf --eval 0+1i", 2, INF_LENGTH),
    "non-finite-length-grid": ("model --length inf --grid default", 2, INF_LENGTH),
    "non-finite-length-couple": ("couple --kappa1 0.5 --kappa2 0.5 --length inf", 2, INF_LENGTH),
    "non-finite-length-check-class": ("check-class --length inf", 2, INF_LENGTH),
    "non-finite-alpha": ("add --alpha inf", 2, "^error: alpha must be finite"),
    "non-finite-alpha-minus-inf": ("add --alpha=-inf", 2, "^error: alpha must be finite"),
    "non-finite-alpha-nan": ("add --alpha nan", 2, "^error: alpha must be finite"),
}


@pytest.mark.parametrize("argv, code, pattern", ROWS.values(), ids=list(ROWS))
def test_row(argv, code, pattern):
    check(argv, code, pattern)


_FILE_ERRORS = (
    ("not-json", b"{not json", r"^error: {}: Expecting property name"),
    ("not-utf8", b"\xff\xfe{}", r"^error: {}: 'utf-8' codec can't decode byte 0xff"),
    ("top-level-list", b"[1, 2]", r"^error: {}: .*'(points|atoms)' is missing or not a list"),
    ("missing", None, r"^error: \[Errno 2\] No such file or directory: '{}'"),
)
#: id: (argv, the file's bytes or None for no file, pattern with {} for its path)
FILE_ROWS = {
    **{f"{name}-{error}": (argv, content, pattern)
       for name, argv in (("grid", "model --length 1 --grid file:{}"),
                          ("measure", "measure --measure-file {}"))
       for error, content, pattern in _FILE_ERRORS},
    "grid-no-points": ("model --length 1 --grid file:{}", b"{}", r"^error: {}: .*'points'"),
    "grid-bad-point": ("model --length 1 --grid file:{}", b'{"points": [{"re": 0, "im": 1}, 3]}',
                       r"^error: {}: .*point 1"),
    "couple-grid-no-points": ("couple --kappa1 0.5 --kappa2 0.5 --grid file:{}", b"{}",
                              r"^error: {}: .*'points'"),
    "atom-no-weight": ("measure --measure-file {}", b'{"atoms": [{"location": 0}]}',
                       r"^error: {}: .*'weight'"),
}


@pytest.mark.parametrize("argv, content, pattern", FILE_ROWS.values(), ids=list(FILE_ROWS))
def test_file_row(tmp_path, argv, content, pattern):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    check(argv.format(path), 2, pattern.replace("{}", re.escape(str(path))))


@pytest.mark.parametrize("x_lo, x_hi, window", [
    ("-1e308", "1e308", r"-1e\+308:1e\+308"), ("-Infinity", "2", "-inf:2.0")],
    ids=["width-overflows", "infinite-end"])
def test_density_window_file_row(tmp_path, x_lo, x_hi, window):
    # the density's window is the inversion window's rule: one error line,
    # and no numpy warning from a lattice over an infinite width
    path = tmp_path / "measure.json"
    path.write_text(f'{{"atoms": [{{"location": 0, "weight": 1}}], "density": '
                    f'{{"x_lo": {x_lo}, "x_hi": {x_hi}, "values": [1, 1, 1]}}}}')
    _, _, err = check(f"measure --measure-file {path}", 2,
                      rf"^error: {re.escape(str(path))}: density window {window} must be "
                      r"finite with lo < hi and a finite width$")
    assert len(err.splitlines()) == 1, err


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
    (SampledDensity, (-math.inf, 2.0, (1.0, 1.0, 1.0))),
    (SampledDensity, (-1e308, 1e308, (1.0, 1.0, 1.0))),
], ids=["grid", "json", "density", "angles", "rotation", "deficiency-element",
        "split-fraction", "scan-count", "tag", "density-normalization",
        "density-infinite-end", "density-width-overflows"])
def test_library_rejection_is_typed(reject, args):
    with pytest.raises(LivcalcError):
        reject(*args)
