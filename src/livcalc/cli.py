"""Command-line surface: evaluation, identity verification, coupling,
measure realization/inversion, and the model oracle.

Exit codes: 0 success, 1 a requested verification exceeded its tolerance,
2 rejected input: an argparse usage error, or a LivcalcError or OSError
(an unreadable file) printed as one ``error:`` line.  Any other exception is
a program error and escapes :func:`main`.  Output is deterministic: fixed
evaluation order and all floating-point values rendered at 17 significant
digits, so identical argv yields byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import gc
import json
import math
import re
import sys
from typing import Optional

from . import verify as verify_mod
from .core import (
    IDENTITY_TOL,
    EvaluationGrid,
    constant_fn,
    default_grid,
    evaluate_on_grid,
    fmt_float,
    grid_from_json,
    to_json,
)
from .coupling import TaggedCharacteristic, add_weyl, convexity_defects, multiply_characteristic
from .errors import LivcalcError, OutOfRange, PoleEncountered, UsageError
from .extension import ClassVerdict, cayley_probe, characteristic_from_livsic, class_C_check
from .measure import (
    BorelMeasureModel,
    normalization_defect,
    realize_herglotz,
    stieltjes_invert,
)
from .model import model_closed_forms
from .oracle import model_livsic_quadrature

_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' with finite parts (real part mandatory, e.g. '0+2i').
    A part that overflows a double, or is nonzero but rounds to 0, is
    rejected."""
    match = _COMPLEX_RE.match(text.strip())
    if not match:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex value {text!r}; expected a+bi with mandatory real part"
        )
    value = complex(float(match.group(1)), float(match.group(2) or 0.0))
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"complex value {text!r} overflows a double")
    # a nonzero digit before the exponent marks a nonzero literal
    if any(float(part) == 0.0 and re.search("[1-9]", re.split("[eE]", part)[0])
           for part in match.groups("0")):
        raise argparse.ArgumentTypeError(f"complex value {text!r} underflows a double to 0")
    return value


def parse_floats(text: str, sep: str, count: Optional[int], what: str, expected: str):
    """The reals of ``text`` separated by ``sep``, exactly ``count`` of them
    where ``count`` is given: the one parser of --atoms, --window and --eps."""
    try:
        values = tuple(float(v) for v in text.split(sep))
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise argparse.ArgumentTypeError(f"cannot parse {what} {text!r}; expected {expected}")
    return values


def parse_atoms(text: str):
    """Parse 'loc:weight,loc:weight,...'."""
    atoms = tuple(parse_floats(chunk.strip(), ":", 2, "atom", "loc:weight")
                  for chunk in text.split(",") if chunk.strip())
    if not atoms:
        raise argparse.ArgumentTypeError("at least one atom required")
    return atoms


def parse_probe(text: str):
    """'cayley' or 'const:<a+bi>': the bounded Cayley probe or a constant."""
    if text == "cayley":
        return cayley_probe()
    if text.startswith("const:"):
        return constant_fn(parse_complex(text[len("const:"):]))
    raise argparse.ArgumentTypeError(f"unknown probe {text!r}")


def read_json(path: str, parse):
    """``parse`` of the JSON document in the file at ``path``.  OSError where
    the file cannot be read; UsageError, naming the path, where it is not
    UTF-8 JSON or ``parse`` rejects the document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(json.load(handle))
    except (UnicodeDecodeError, json.JSONDecodeError, LivcalcError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def load_grid(spec: str) -> EvaluationGrid:
    if spec == "default":
        return default_grid()
    if spec.startswith("file:"):
        return read_json(spec[len("file:"):], grid_from_json)
    raise UsageError(f"grid must be 'default' or 'file:<path>', got {spec!r}")


def emit_json(report) -> None:
    sys.stdout.write(json.dumps(to_json(report), indent=2, sort_keys=True) + "\n")


def emit_grid_csv(grid: EvaluationGrid, values) -> None:
    lines = ["re,im,f_re,f_im"]
    for z, value in zip(grid, values):
        if isinstance(value, PoleEncountered):
            f_re = f_im = "nan"
        else:
            f_re, f_im = fmt_float(value.real), fmt_float(value.imag)
        lines.append(f"{fmt_float(z.real)},{fmt_float(z.imag)},{f_re},{f_im}")
    sys.stdout.write("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every token starting with a minus sign and a
    digit (-1e-3, -1+2i, -2:2) as a value, not as a flag: the stock parser
    takes only plain negative decimals such as -1 or -0.5 for values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache  # argparse keeps no state between parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="livcalc",
        description="Calculus of contractive/half-plane analytic functions: "
        "interval model, couplings, measure realizations, identity checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_model = sub.add_parser("model", help="interval-model closed forms (and oracle)")
    p_model.add_argument("--length", type=float, required=True, help="interval length")
    target = p_model.add_mutually_exclusive_group(required=True)
    target.add_argument("--eval", type=parse_complex, help="single point a+bi in C+")
    target.add_argument("--grid", type=str, help="'default' or file:<path> for a sweep")
    p_model.add_argument("--oracle", action="store_true",
                         help="cross-check s against the quadrature oracle")
    p_model.add_argument("--format", choices=("json", "csv"), default="json",
                         help="output of a --grid sweep; --eval prints JSON")

    p_couple = sub.add_parser("couple", help="couple two interval models and verify")
    p_couple.add_argument("--kappa1", type=float, required=True)
    p_couple.add_argument("--kappa2", type=float, required=True)
    p_couple.add_argument("--length", type=float, default=1.0,
                          help="length ell of the first interval model; the "
                               "second has length 2 ell")
    p_couple.add_argument("--grid", type=str, default="default")
    p_couple.add_argument("--check", choices=("nunu", "formula1"), default="nunu")

    p_mult = sub.add_parser("multiply", help="multiply tagged characteristic functions")
    p_mult.add_argument("--kappa1", type=float, required=True)
    p_mult.add_argument("--kappa2", type=float, required=True)
    p_mult.add_argument("--length", type=float, default=1.0)

    p_add = sub.add_parser("add", help="convex combination of the two reference "
                                       "half-plane models")
    p_add.add_argument("--alpha", type=float, required=True)
    p_add.add_argument("--grid", type=str, default="default")

    p_meas = sub.add_parser("measure", help="realize a measure model; optionally "
                                            "check normalization or invert")
    source = p_meas.add_mutually_exclusive_group(required=True)
    source.add_argument("--atoms", type=parse_atoms, help='e.g. "0:1" or "1:1,-1:1"')
    source.add_argument("--measure-file", type=str, help="measure model JSON file")
    p_meas.add_argument("--check-normalization", action="store_true")
    p_meas.add_argument("--invert", action="store_true")
    p_meas.add_argument("--window", default=(-2.0, 2.0), type=functools.partial(
        parse_floats, sep=":", count=2, what="window", expected="lo:hi"))
    p_meas.add_argument("--eps", default=(1e-2, 1e-3, 1e-4), type=functools.partial(
        parse_floats, sep=",", count=None, what="eps schedule",
        expected="comma-separated reals"))

    p_class = sub.add_parser("check-class", help="membership heuristic for the "
                                                 "vanishing-at-i class")
    probe = p_class.add_mutually_exclusive_group(required=True)
    probe.add_argument("--length", type=float, help="probe the interval model s")
    probe.add_argument("--probe", type=parse_probe,
                       help="'cayley' or 'const:<a+bi>' counterexample probes")

    sub.add_parser("verify-all", help="run every module invariant suite")

    return parser


def cmd_model(args) -> int:
    forms = model_closed_forms(args.length)
    report = {"ell": args.length, "kappa": forms.kappa}
    if args.eval is not None:
        if args.format == "csv":
            raise UsageError("--format csv applies to --grid sweeps; --eval prints JSON")
        z = args.eval
        report["s"] = forms.livsic(z)
        report["S"] = forms.characteristic(z)
        if args.oracle:
            s_quad = model_livsic_quadrature(args.length, z)
            report["s_oracle"] = s_quad
            report["oracle_deviation"] = abs(s_quad - forms.livsic(z))
    else:
        if args.oracle:
            raise UsageError("--oracle applies to --eval")
        grid = load_grid(args.grid)
        values = evaluate_on_grid(forms.livsic, grid)
        if args.format == "csv":
            emit_grid_csv(grid, values)
            return 0
        report["values"] = [
            {"z": z, "s": None if isinstance(v, PoleEncountered) else v}
            for z, v in zip(grid, values)
        ]
    emit_json(report)
    return 0


_FORMULA1_KS = (0.0, 0.2, 0.37, 0.8)


def cmd_couple(args) -> int:
    grid = load_grid(args.grid)
    # two different lengths, so that swapping s1 and s2 breaks the law
    s1 = model_closed_forms(args.length).livsic
    if not math.isfinite(2.0 * args.length):
        raise OutOfRange(
            f"--length {args.length} is too large: the second model's length "
            f"2 * ell overflows a double"
        )
    s2 = model_closed_forms(2.0 * args.length).livsic
    pair = (args.kappa1, args.kappa2)
    if args.check == "nunu":
        deviation, _ = verify_mod.multiplication_chain_defects(s1, s2, [pair], grid)
    else:
        sweep = [pair + (k,) for k in _FORMULA1_KS]
        deviation = verify_mod.general_k_defect(s1, s2, sweep, grid)
    passed = deviation < IDENTITY_TOL
    emit_json({"check": args.check, "kappa1": args.kappa1, "kappa2": args.kappa2,
               "max_deviation": deviation, "tolerance": IDENTITY_TOL, "pass": passed})
    return 0 if passed else 1


def cmd_multiply(args) -> int:
    s = model_closed_forms(args.length).livsic
    t1 = TaggedCharacteristic(characteristic_from_livsic(s, args.kappa1), args.kappa1)
    t2 = TaggedCharacteristic(characteristic_from_livsic(s, args.kappa2), args.kappa2)
    product = multiply_characteristic(t1, t2)
    passed = product.tag_defect < 1e-12
    emit_json({"kappa": product.kappa, "tag_defect": product.tag_defect,
               "tolerance": 1e-12, "pass": passed})
    return 0 if passed else 1


def cmd_add(args) -> int:
    grid = load_grid(args.grid)
    M1, M2 = (realize_herglotz(mu) for mu in verify_mod.reference_measures())
    defect, below = convexity_defects(M1, M2, (args.alpha,), grid)
    passed = defect < 1e-14 and below < 0.0
    emit_json({"alpha": args.alpha, "M_at_i": add_weyl(M1, M2, args.alpha)(1j),
               "normalization_defect": defect, "min_imag_on_grid": -below, "pass": passed})
    return 0 if passed else 1


def cmd_measure(args) -> int:
    mu = (BorelMeasureModel(args.atoms) if args.atoms is not None
          else read_json(args.measure_file, BorelMeasureModel.from_json))
    M = realize_herglotz(mu)
    defect = normalization_defect(mu)
    report = {"defect": defect, "M_at_i": M(1j)}
    exit_code = 0
    if args.check_normalization and defect >= 1e-14:
        exit_code = 1
    if args.invert:
        result = stieltjes_invert(M, args.window, args.eps)
        report["recovered_atoms"] = result.atoms
        report["scan_spacing"] = result.scan_spacing
    emit_json(report)
    return exit_code


def cmd_check_class(args) -> int:
    fn = args.probe if args.length is None else model_closed_forms(args.length).livsic
    report = class_C_check(fn)
    emit_json(report)
    return 0 if report.verdict is ClassVerdict.CONSISTENT_WITH_C else 1


def cmd_verify_all(args) -> int:
    results = verify_mod.run_all()
    all_passed = all(c.passed for checks in results.values() for c in checks)
    emit_json({**results, "all_passed": all_passed})
    return 0 if all_passed else 1


_DISPATCH = {
    "model": cmd_model,
    "couple": cmd_couple,
    "multiply": cmd_multiply,
    "add": cmd_add,
    "measure": cmd_measure,
    "check-class": cmd_check_class,
    "verify-all": cmd_verify_all,
}


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.verb](args)
    except (LivcalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point of ``python -m livcalc.cli`` and of the
    ``livcalc`` console script: :func:`main` in a fresh interpreter."""
    # Freeze the import-time heap (about 21,000 objects from numpy and
    # livcalc) into the permanent generation, so the collections that the
    # interpreter runs at exit skip it: they took 13-16 ms of a 107 ms cold
    # verb on a 2-core VM, and the benchmark's cli_cold op_p50_s went from
    # 115 to 104 ms (medians of ten pairs).  atexit callbacks, the flush of
    # the std streams and the exit code are unchanged.  In-process callers of
    # main keep their collector.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
