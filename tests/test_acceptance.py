"""Acceptance battery: one test per criterion, each printing one PASS/FAIL
line per check.  Every verdict comes from :func:`livcalc.verify.run_checks`,
the rule of ``livcalc verify-all``, so a NaN or an exception fails its check.
The criteria run the checks of :mod:`livcalc.verify` on larger sweeps;
criteria 5 and 8 read the results of ``verify-all``'s own sweeps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import functools
import itertools
import math
import sys
import time

import numpy as np
import pytest

from livcalc import (add_weyl, default_grid, extract_kappa, model_closed_forms,
                     normalization_defect, realize_herglotz, sup_deviation)
from livcalc import coupling, verify
from livcalc.core import INVERSION_REL_TOL, worst_of
from livcalc.coupling import convexity_defects
from livcalc.verify import atom_measure, reference_measures, run_checks

GRID = default_grid()
HERE = sys.modules[__name__]
S1 = model_closed_forms(0.5).livsic
S2 = model_closed_forms(1.0).livsic


def accept(number: int, results, elapsed: float = 0.0, budget: float = math.inf) -> None:
    """Print one line per CheckResult; all must pass, within the budget in seconds."""
    for r in results:
        print(f"ACCEPTANCE {number} {r.name}: {'PASS' if r.passed else 'FAIL'} "
              f"(worst {r.worst_deviation:.3g}, tolerance {r.tolerance:.3g})")
    assert all(r.passed for r in results) and elapsed < budget, f"runtime {elapsed:.2f} s"


def pick(results, *names):
    """The named results of a ``verify-all`` suite, in this order."""
    by_name = {r.name: r for r in results}
    return [by_name[name] for name in names]


@functools.lru_cache(maxsize=1)
def chain_sweep():
    """Criteria 1 and 2's couple/transform/product sweep: two results, runtime."""
    start = time.monotonic()
    pairs = list(itertools.product((0.0, 0.25, 0.5, 0.75), repeat=2))
    chain = functools.cache(lambda: verify.multiplication_chain_defects(S1, S2, pairs, GRID))
    results = run_checks([("multiplication-theorem-end-to-end", 1e-10, lambda: chain()[0]),
                          ("kappa-multiplicativity", 1e-12, lambda: chain()[1])])
    return results, time.monotonic() - start


def test_criterion_1_multiplication_theorem_end_to_end():
    (theorem, _), elapsed = chain_sweep()
    accept(1, [theorem], elapsed, budget=5.0)


def test_criterion_2_kappa_multiplicativity():
    (_, kappa), _ = chain_sweep()
    accept(2, [kappa])


def test_criterion_3_addition_theorem():
    M1, M2 = (realize_herglotz(mu) for mu in reference_measures())
    alphas = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
    defects = functools.cache(lambda: convexity_defects(M1, M2, alphas, GRID))
    accept(3, run_checks([
        ("addition-theorem", 1e-14, lambda: defects()[0]),
        # below 0: a strictly positive imaginary part on the grid
        ("min-imag-margin", 0.0, lambda: defects()[1]),
        ("endpoint-collapse", 1e-15, lambda: worst_of((
            sup_deviation(add_weyl(M1, M2, 0.0), M1, GRID),
            sup_deviation(add_weyl(M1, M2, math.pi / 2), M2, GRID)))),
    ]))


def test_criterion_4_general_k_identity():
    angle_pairs = ((0.25, 0.5), (0.5, 0.75), (0.75, 0.75), (0.5, 0.0))
    # mismatched and matched k
    sweep = [(k1, k2, k) for k1, k2 in angle_pairs for k in (0.0, 0.2, 0.37, 0.8, k1 * k2)]
    accept(4, run_checks([
        ("general-k-identity", 1e-10, lambda: verify.general_k_defect(S1, S2, sweep, GRID))]))


def test_criterion_5_model_oracle():
    start = time.monotonic()
    shared = pick(verify.model_checks(), "oracle-vs-closed-form", "boundary-relations")
    kappa = run_checks([("kappa-extraction", 1e-12, lambda: worst_of(
        abs(extract_kappa(model_closed_forms(ell).characteristic) - math.exp(-ell))
        for ell in (0.5, 1.0, 2.0)))])
    accept(5, shared + kappa, time.monotonic() - start, budget=10.0)


def test_criterion_6_interval_split():
    # s_ell against the coupling of its two parts
    splits = [(ell, gamma) for ell in (1.0, 2.0, 3.0) for gamma in (0.25, 0.5, 0.75)]
    accept(6, run_checks([
        ("interval-split", 1e-14, lambda: verify.interval_split_defect(splits, GRID))]))


def test_criterion_7_measure_round_trip():
    models = reference_measures() + (atom_measure((1.0, 2.0)),)
    round_trip = functools.cache(lambda: verify.measure_round_trip_defects(models))
    accept(7, run_checks([
        ("measure-round-trip", INVERSION_REL_TOL, lambda: round_trip()[0]),
        ("atom-location-in-scan-spacings", 1.0, lambda: round_trip()[1]),
        ("normalization-defect", 1e-14, lambda: worst_of(map(normalization_defect, models))),
    ]))


def test_criterion_8_class_properties():
    # the verdicts: the model is ConsistentWithC, the Cayley probe FailsGrowth
    accept(8, pick(verify.coupling_checks(), "class-properties(i-iv)")
           + pick(verify.extension_checks(), "class-membership-verdicts"))


def test_criterion_9_structural():
    rng = np.random.default_rng(20260811)
    n = 10**4
    radii = 0.99 * rng.uniform(0.0, 1.0, n)
    phases = rng.uniform(0.0, 2 * math.pi, n)
    kappas = 0.99 * rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
    ws = radii * np.exp(1j * phases)
    zs = rng.uniform(-20.0, 20.0, n) + 1j * rng.uniform(0.05, 20.0, n)
    s = model_closed_forms(1.0).livsic
    M = realize_herglotz(reference_measures()[1])
    alphas = rng.uniform(0.0, math.pi, 100)
    accept(9, run_checks([
        # each of the first 100 automorphisms at all n points: 10^6 pairs
        ("disk-involution", 1e-12, lambda: verify.disk_involution_defect(kappas[:100], ws)),
        ("cayley-round-trip", 1e-12, lambda: verify.cayley_round_trip_defect(zs)),
        ("reference-rotation", 1e-12,
         lambda: verify.reference_rotation_defect(s, M, alphas, zs[:100])),
    ]))


def nan_after_first(fn):
    """``fn``, planted to return NaN from its second call on."""
    calls = itertools.count()
    return lambda *args: fn(*args) if next(calls) == 0 else math.nan


@pytest.mark.parametrize("criterion, owner, name, plant", [
    (test_criterion_3_addition_theorem, HERE, "sup_deviation", nan_after_first),
    (test_criterion_5_model_oracle, HERE, "extract_kappa", nan_after_first),
    (test_criterion_7_measure_round_trip, HERE, "normalization_defect", nan_after_first),
    (test_criterion_8_class_properties, coupling, "_worst", lambda worst: lambda law, devs: (
        (law, math.nan) if law == "vanishing-ideal" else worst(law, devs))),
    (test_criterion_9_structural, verify, "cayley_round_trip_defect",
     lambda _: lambda zs: math.nan),
], ids=["3-second-endpoint", "5-later-ell", "7-later-measure", "8-law-iii", "9-cayley-term"])
def test_a_nan_fails_its_criterion(capsys, monkeypatch, criterion, owner, name, plant):
    # a NaN after the first item, which the builtin max drops
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    with pytest.raises(AssertionError):
        criterion()
    assert "FAIL (worst nan" in capsys.readouterr().out
