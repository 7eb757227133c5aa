"""The four benchmark workloads: inputs generated from the seed, one op each,
and the correctness check every op must pass.

Each workload is a closed loop with one client: the next op starts only when
the previous one has returned.  An op fails when it raises, exits with an
unexpected code, has a check over its tolerance, or produces output that is
not identical to an earlier op on the same input in the same run.

Everything the checks compare against is computed here from the inputs with
``cmath``/``math``, not with livcalc, except where an op's own verdict (a
tolerance already pinned by the program) is the thing being checked.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

DENSE_POINTS = 10**6
#: The acceptance battery's extension-parameter sweep (tests/test_acceptance.py).
KAPPA_SWEEP = (0.0, 0.25, 0.5, 0.75)
#: verify-all's oracle sweep: ell in (0.5, 1, 2) times the default grid, a
#: 21 x 21 lattice plus the point i.
ORACLE_CALLS_PER_BATTERY = 3 * (21 * 21 + 1)
INVERT_WINDOW = (-2.0, 2.0)
INVERT_EPS = (1e-2, 1e-3, 1e-4)
INVERT_SCAN = 2001
INVERT_DENSITY_SAMPLES = 2001
INVERT_ATOMS = 3
INVERT_POOL = 4
CLI_TIMEOUT_S = 60.0


@dataclass
class OpOutcome:
    ok: bool
    reason: str = ""
    #: the input this op ran on; equal inputs must give equal outputs
    key: str = ""
    #: set when a failed op shows a recorded open defect's exact failure
    known_defect: Optional[str] = None


def _fail(key: str, reason: str) -> OpOutcome:
    return OpOutcome(False, reason, key)


# --- CLI argv checks (shared by verify_all and cli_cold) --------------------


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _model_s(ell: float, z: complex) -> complex:
    w = cmath.exp(1j * ell * z)
    decay = math.exp(-ell)
    return (w - decay) / (decay * w - 1.0)


def _complex(obj) -> complex:
    return complex(float(obj["re"]), float(obj["im"]))


def _check_model_oracle(ell: float, z: complex):
    def check(code, out, err):
        if code == 2:
            return "error:" in err, "exit 2 without an error message"
        if code != 0:
            return False, f"exit {code}"
        report = _json_or_none(out)
        if report is None:
            return False, "stdout is not JSON"
        ref = _model_s(ell, z)
        dev = abs(_complex(report["s"]) - ref)
        odev = abs(_complex(report["s_oracle"]) - ref)
        ok = dev <= 1e-12 and odev <= 1e-8 and float(report["oracle_deviation"]) < 1e-8
        return ok, f"|s - ref| = {dev:.3g}, |s_oracle - ref| = {odev:.3g}"
    return check


def _check_multiply(k1: float, k2: float):
    def check(code, out, err):
        report = _json_or_none(out)
        if code != 0 or report is None:
            return False, f"exit {code}"
        dev = abs(_complex(report["kappa"]) - k1 * k2)
        ok = report["pass"] is True and dev <= 1e-15 and float(report["tag_defect"]) < 1e-12
        return ok, f"|kappa - k1 k2| = {dev:.3g}"
    return check


def _check_couple(code, out, err):
    report = _json_or_none(out)
    if code != 0 or report is None:
        return False, f"exit {code}"
    dev = float(report["max_deviation"])
    return report["pass"] is True and dev < 1e-10, f"max_deviation {dev:.3g}"


def _check_invert_two_atoms(code, out, err):
    report = _json_or_none(out)
    if code != 0 or report is None:
        return False, f"exit {code}"
    atoms = report["recovered_atoms"]
    spacing = float(report["scan_spacing"])
    if len(atoms) != 2:
        return False, f"{len(atoms)} atoms recovered, 2 planted"
    ok = all(
        abs(float(a["location"]) - loc) <= spacing and abs(float(a["weight"]) - 1.0) <= 0.02
        for a, loc in zip(atoms, (-1.0, 1.0))
    )
    ok = ok and abs(_complex(report["M_at_i"]) - 1j) < 1e-14
    return ok, "atoms at -1, 1 with unit weights"


def _check_in_class(code, out, err):
    report = _json_or_none(out)
    if code != 0 or report is None:
        return False, f"exit {code}" + (f", verdict {report['verdict']}" if report else "")
    return report["verdict"] == "ConsistentWithC", f"verdict {report['verdict']}"


def _check_verify_all(code, out, err):
    report = _json_or_none(out)
    if code != 0 or report is None:
        return False, f"exit {code}"
    return report.get("all_passed") is True, "all_passed"


@dataclass(frozen=True)
class KnownDefect:
    """A recorded open defect: why it is one, and its failure at the seed."""

    why: str
    #: (exit code, stdout, stderr) -> True when a failure is this defect's;
    #: any other failure of the argv is a new one
    matches: Callable


def _fails_growth(code, out, err):
    report = _json_or_none(out)
    return (code == 1 and "Traceback" not in err and report is not None
            and report.get("verdict") == "FailsGrowth")


def _expm1_overflow(code, out, err):
    lines = err.strip().splitlines()
    return (code == 1 and "Traceback" in err and bool(lines)
            and lines[-1] == "OverflowError: math range error")


@dataclass(frozen=True)
class Argv:
    argv: tuple
    check: Callable
    #: the open defect this argv shows at the seed; None if it must pass
    defect: Optional[KnownDefect] = None
    oracle_calls: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


#: The cold-CLI mix: README verbs plus the two ROADMAP open-item argvs.
#: ``verify-all`` is left out; the verify_all workload covers it in process.
CLI_MIX = (
    Argv(("model", "--length", "1", "--eval", "0+2i", "--oracle"),
         _check_model_oracle(1.0, 2j), oracle_calls=1),
    Argv(("multiply", "--kappa1", "0.5", "--kappa2", "0.3"), _check_multiply(0.5, 0.3)),
    Argv(("couple", "--kappa1", "0.5", "--kappa2", "0.5", "--check", "nunu"), _check_couple),
    Argv(("measure", "--atoms=1:1,-1:1", "--invert", "--window=-2:2",
          "--eps", "0.01,0.001,0.0001"), _check_invert_two_atoms),
    Argv(("check-class", "--length", "1"), _check_in_class),
    Argv(("check-class", "--length", "0.01"), _check_in_class,
         defect=KnownDefect(
             "ROADMAP open item: the interval model is in the class for every "
             "ell > 0, but the fixed 1e3 growth threshold returns FailsGrowth, exit 1",
             _fails_growth)),
    Argv(("model", "--length", "400", "--eval", "0+2i", "--oracle"),
         _check_model_oracle(400.0, 2j), oracle_calls=1,
         defect=KnownDefect(
             "ROADMAP open item: math.expm1(2*ell) overflows in the oracle; "
             "OverflowError traceback and exit 1 instead of a value or a typed "
             "error with exit 2",
             _expm1_overflow)),
)


def judge_cli(spec: Argv, code: int, out: str, err: str, seen: Dict[str, str]) -> OpOutcome:
    """Apply the argv's check plus the traceback and byte-identity rules; a
    failure that matches the argv's recorded defect is marked as that defect."""
    outcome = _judge_cli(spec, code, out, err, seen)
    if not outcome.ok and spec.defect is not None and spec.defect.matches(code, out, err):
        outcome.known_defect = spec.defect.why
    return outcome


def _judge_cli(spec, code, out, err, seen):
    if "Traceback" in err:
        return _fail(spec.key, f"traceback: {err.strip().splitlines()[-1]}")
    ok, detail = spec.check(code, out, err)
    if not ok:
        return _fail(spec.key, detail)
    if seen.setdefault(spec.key, out) != out:
        return _fail(spec.key, "stdout differs from an earlier op with the same argv")
    return OpOutcome(True, detail, spec.key)


def run_cli_in_process(argv) -> tuple:
    """``livcalc.cli.main(argv)`` with stdout/stderr captured.

    An exception escaping ``main`` is what a cold run reports as a traceback
    with exit 1, so it is rendered the same way.
    """
    from livcalc import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # an uncaught error is a failed op, not a crash
        return 1, out.getvalue(), f"Traceback (in process)\n{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_cli_cold(argv, root: str) -> tuple:
    """One cold ``python -m livcalc.cli`` subprocess in the checkout."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "livcalc.cli", *argv],
            cwd=root, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return 124, "", f"timed out after {CLI_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    #: inputs repeat with this period; runs end on a whole cycle
    cycle = 1
    #: True when each op starts a fresh interpreter (no warm-up op is run)
    cold = False

    def op(self, i: int) -> OpOutcome:
        raise NotImplementedError

    def in_process_op(self, i: int) -> OpOutcome:
        """The op the traced run executes; the same as ``op`` unless cold."""
        return self.op(i)

    def count_failures(self, i: int, counts: Dict[str, float]) -> List[str]:
        """Traced counts of op ``i`` that differ from what its input implies."""
        return []


class VerifyAll(Workload):
    """``livcalc verify-all`` in process; fixed inputs, the seed is unused."""

    name = "verify_all"
    spec = Argv(("verify-all",), _check_verify_all, oracle_calls=ORACLE_CALLS_PER_BATTERY)

    def __init__(self, seed: int, root: str):
        self.seen: Dict[str, str] = {}

    def op(self, i):
        code, out, err = run_cli_in_process(self.spec.argv)
        return judge_cli(self.spec, code, out, err, self.seen)

    def count_failures(self, i, counts):
        return _mismatches(counts, {"oracle.quadrature.calls": self.spec.oracle_calls})


def planted_measure(rng: np.random.Generator):
    """Three atoms in [-1.5, 1.5], at least 0.4 apart, on top of a smooth
    (1 - t^2)^3 bump of half-width 0.8 sampled at 2001 points on the window.

    The bump's width is fixed so every seed yields about 390 inversion
    candidates; only its centre and height and the atoms vary.
    """
    while True:
        locs = np.sort(rng.uniform(-1.5, 1.5, INVERT_ATOMS))
        if np.min(np.diff(locs)) > 0.4:
            break
    weights = rng.uniform(0.5, 1.5, INVERT_ATOMS)
    centre, height = rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.3)
    x = np.linspace(*INVERT_WINDOW, INVERT_DENSITY_SAMPLES)
    t = (x - centre) / 0.8
    density = np.where(np.abs(t) < 1.0, height * (1.0 - t * t) ** 3, 0.0)
    return tuple(zip(locs.tolist(), weights.tolist())), tuple(density.tolist())


class InvertDensity(Workload):
    """realize_herglotz + stieltjes_invert on seeded atoms-plus-density measures."""

    name = "invert_density"
    cycle = INVERT_POOL

    def __init__(self, seed: int, root: str):
        from livcalc import BorelMeasureModel, SampledDensity, ToleranceConfig

        rng = np.random.default_rng(seed)
        self.planted = []
        self.measures = []
        for _ in range(INVERT_POOL):
            atoms, density = planted_measure(rng)
            self.planted.append(atoms)
            self.measures.append(
                BorelMeasureModel(atoms, SampledDensity(*INVERT_WINDOW, density))
            )
        self.rel_tol = ToleranceConfig().inversion_rel_tol
        self.seen: Dict[str, tuple] = {}

    def op(self, i):
        from livcalc import realize_herglotz, stieltjes_invert

        k = i % INVERT_POOL
        key = f"measure {k}"
        result = stieltjes_invert(
            realize_herglotz(self.measures[k]), INVERT_WINDOW, INVERT_EPS, n_scan=INVERT_SCAN
        )
        got = tuple((a.location, a.weight) for a in result.atoms)
        planted = self.planted[k]
        if len(got) != len(planted):
            return _fail(key, f"{len(got)} atoms recovered, {len(planted)} planted")
        for (loc, w), (ploc, pw) in zip(got, planted):
            if abs(loc - ploc) > result.scan_spacing or abs(w - pw) > self.rel_tol * pw:
                return _fail(key, f"atom ({loc}, {w}) misses planted ({ploc}, {pw})")
        if self.seen.setdefault(key, got) != got:
            return _fail(key, "atoms differ from an earlier op on the same measure")
        return OpOutcome(True, "", key)

    def count_failures(self, i, counts):
        # every evaluate_many call is one herglotz_eval call: three scans, one
        # per refinement evaluation, three mass probes per candidate
        refine = counts.get("measure.refine.calls", 0)
        nfev = counts.get("measure.refine.nfev", 0)
        calls = 3 + nfev + 3 * refine
        points = 3 * INVERT_SCAN + nfev + 3 * refine
        samples = INVERT_ATOMS + INVERT_DENSITY_SAMPLES
        expected = {
            "core.evaluate_many.calls": calls,
            "core.evaluate_many.points": points,
            "kernels.herglotz_eval.calls": calls,
            "kernels.herglotz_eval.pairs": points * samples,
            "measure.atoms": INVERT_ATOMS,
        }
        return _mismatches(counts, expected)


class DenseSweep(Workload):
    """The multiplication chain and the addition law over a seeded 10^6-point
    grid through ``evaluate_many``, one (kappa1, kappa2) pair per op."""

    name = "dense_sweep"
    cycle = len(KAPPA_SWEEP) ** 2

    def __init__(self, seed: int, root: str):
        from livcalc import BorelMeasureModel

        rng = np.random.default_rng(seed)
        n = DENSE_POINTS - 1
        zs = rng.uniform(-5.0, 5.0, n) + 1j * rng.uniform(0.1, 5.0, n)
        # the last point is i, where the addition law's normalization is pinned
        self.zs = np.append(zs, 1j)
        self.pairs = [(k1, k2) for k1 in KAPPA_SWEEP for k2 in KAPPA_SWEEP]
        self.measures = (
            BorelMeasureModel(((0.0, 1.0),)),
            BorelMeasureModel(((1.0, 1.0), (-1.0, 1.0))),
        )
        self.seen: Dict[str, tuple] = {}

    def op(self, i):
        from livcalc import (
            TaggedCharacteristic, add_weyl, characteristic_from_livsic, couple_livsic,
            coupling_angles, evaluate_many, model_closed_forms, multiply_characteristic,
            realize_herglotz,
        )

        k1, k2 = self.pairs[i % len(self.pairs)]
        key = f"kappa ({k1}, {k2})"
        s1 = model_closed_forms(0.5).livsic
        s2 = model_closed_forms(1.0).livsic
        angles = coupling_angles(k1, k2)
        left = characteristic_from_livsic(couple_livsic(s1, s2, angles), k1 * k2)
        right = multiply_characteristic(
            TaggedCharacteristic(characteristic_from_livsic(s1, k1), k1),
            TaggedCharacteristic(characteristic_from_livsic(s2, k2), k2),
        )
        chain = float(np.max(np.abs(evaluate_many(left, self.zs) - evaluate_many(right.fn, self.zs))))
        M1, M2 = (realize_herglotz(mu) for mu in self.measures)
        values = evaluate_many(add_weyl(M1, M2, angles.alpha), self.zs)
        norm = abs(values[-1] - 1j)
        min_im = float(values.imag.min())
        got = (chain, norm, min_im)
        if not (chain < 1e-10 and norm < 1e-14 and min_im > 0.0):
            return _fail(key, f"chain {chain:.3g} (1e-10), |M(i) - i| {norm:.3g} "
                              f"(1e-14), min Im M {min_im:.3g} (> 0)")
        if self.seen.setdefault(key, got) != got:
            return _fail(key, "deviations differ from an earlier op on the same pair")
        return OpOutcome(True, "", key)

    def count_failures(self, i, counts):
        # chain: left and right over the grid; addition: one call whose two
        # measures hold 1 + 2 atoms
        expected = {
            "core.evaluate_many.calls": 3,
            "core.evaluate_many.points": 3 * DENSE_POINTS,
            "kernels.herglotz_eval.calls": 2,
            "kernels.herglotz_eval.pairs": 3 * DENSE_POINTS,
        }
        return _mismatches(counts, expected)


class CliCold(Workload):
    """One cold ``python -m livcalc.cli`` per op over a fixed argv mix, in a
    seeded order within each cycle."""

    name = "cli_cold"
    cycle = len(CLI_MIX)
    cold = True

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(seed)
        self.order = [int(k) for k in rng.permutation(len(CLI_MIX))]
        self.root = root
        self.seen: Dict[str, str] = {}
        self.seen_in_process: Dict[str, str] = {}

    def spec(self, i: int) -> Argv:
        return CLI_MIX[self.order[i % len(CLI_MIX)]]

    def op(self, i):
        spec = self.spec(i)
        code, out, err = run_cli_cold(spec.argv, self.root)
        return judge_cli(spec, code, out, err, self.seen)

    def in_process_op(self, i):
        spec = self.spec(i)
        code, out, err = run_cli_in_process(spec.argv)
        return judge_cli(spec, code, out, err, self.seen_in_process)

    def count_failures(self, i, counts):
        return _mismatches(counts, {"oracle.quadrature.calls": self.spec(i).oracle_calls})


def _mismatches(counts: Dict[str, float], expected: Dict[str, float]) -> List[str]:
    return [
        f"{name} = {counts.get(name, 0)} != {value} implied by the inputs"
        for name, value in expected.items()
        if counts.get(name, 0) != value
    ]


WORKLOADS = {
    "verify_all": VerifyAll,
    "invert_density": InvertDensity,
    "dense_sweep": DenseSweep,
    "cli_cold": CliCold,
}


def make(name: str, seed: int, root: str) -> Workload:
    return WORKLOADS[name](seed, root)
