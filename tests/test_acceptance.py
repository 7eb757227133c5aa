"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line with its worst deviation and pinned tolerance.

The criteria call the identity checks of :mod:`livcalc.verify` and the
class laws of :mod:`livcalc.coupling`, the same functions that
``livcalc verify-all`` runs, with larger sweeps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import functools
import math
import time

import numpy as np

from livcalc import (
    ClassVerdict, add_weyl, class_C_check, default_grid, extract_kappa, model_closed_forms,
    normalization_defect, realize_herglotz, sup_deviation, verify_class_properties,
)
from livcalc import verify
from livcalc.core import IDENTITY_TOL, INVERSION_REL_TOL
from livcalc.coupling import convexity_defects
from livcalc.extension import cayley_probe
from livcalc.verify import atom_measure, bundled_corpus, reference_measures

GRID = default_grid()
KAPPA_SWEEP = (0.0, 0.25, 0.5, 0.75)
S1 = model_closed_forms(0.5).livsic
S2 = model_closed_forms(1.0).livsic


def report(number: int, name: str, worst: float, tol: float, extra: str = "") -> bool:
    ok = worst < tol
    trailer = f", {extra}" if extra else ""
    print(
        f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} "
        f"(worst {worst:.3g}, tolerance {tol:.3g}{trailer})"
    )
    return ok


@functools.lru_cache(maxsize=1)
def chain_sweep():
    """Couple/transform/product sweep shared by criteria 1 and 2."""
    start = time.monotonic()
    pairs = [(k1, k2) for k1 in KAPPA_SWEEP for k2 in KAPPA_SWEEP]
    worst_dev, worst_kappa = verify.multiplication_chain_defects(S1, S2, pairs, GRID)
    return worst_dev, worst_kappa, time.monotonic() - start


def test_criterion_1_multiplication_theorem_end_to_end():
    worst_dev, _, elapsed = chain_sweep()
    ok = report(1, "multiplication-theorem-end-to-end", worst_dev, 1e-10,
                extra=f"runtime {elapsed:.2f} s")
    assert ok
    assert elapsed < 5.0


def test_criterion_2_kappa_multiplicativity():
    _, worst_kappa, _ = chain_sweep()
    assert report(2, "kappa-multiplicativity", worst_kappa, 1e-12)


def test_criterion_3_addition_theorem():
    M1, M2 = (realize_herglotz(mu) for mu in reference_measures())
    alphas = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
    worst_norm, worst_herglotz = convexity_defects(M1, M2, alphas, GRID)
    endpoint = max(
        sup_deviation(add_weyl(M1, M2, 0.0), M1, GRID),
        sup_deviation(add_weyl(M1, M2, math.pi / 2), M2, GRID),
    )
    ok = report(3, "addition-theorem", worst_norm, 1e-14,
                extra=f"endpoint collapse {endpoint:.3g} < 1e-15, "
                f"min Im margin ok: {worst_herglotz < 0.0}")
    assert ok
    assert worst_herglotz < 0.0  # strictly positive imaginary part on the grid
    assert endpoint < 1e-15


def test_criterion_4_general_k_identity():
    angle_pairs = ((0.25, 0.5), (0.5, 0.75), (0.75, 0.75), (0.5, 0.0))
    # mismatched and matched k
    sweep = [(k1, k2, k) for k1, k2 in angle_pairs for k in (0.0, 0.2, 0.37, 0.8, k1 * k2)]
    worst = verify.general_k_defect(S1, S2, sweep, GRID)
    assert report(4, "general-k-identity", worst, 1e-10)


def test_criterion_5_model_oracle():
    start = time.monotonic()
    ells = (0.5, 1.0, 2.0)
    worst_quad = verify.oracle_deviation(ells, GRID)
    worst_boundary = verify.boundary_relation_defect(ells)
    worst_kappa = max(
        abs(extract_kappa(model_closed_forms(ell).characteristic) - math.exp(-ell))
        for ell in ells
    )
    elapsed = time.monotonic() - start
    ok = report(5, "interval-model-oracle", worst_quad, 1e-13,
                extra=f"boundary {worst_boundary:.3g} < 1e-12, "
                f"kappa {worst_kappa:.3g} < 1e-12, runtime {elapsed:.2f} s")
    assert ok
    assert worst_boundary < 1e-12
    assert worst_kappa < 1e-12
    assert elapsed < 10.0


def test_criterion_6_interval_split():
    splits = [(ell, gamma) for ell in (1.0, 2.0, 3.0) for gamma in (0.25, 0.5, 0.75)]
    worst = verify.interval_split_defect(splits, GRID)
    assert report(6, "interval-split", worst, 1e-14,
                  extra="s_ell against the coupling of its two parts")


def test_criterion_7_measure_round_trip():
    models = reference_measures() + (atom_measure((1.0, 2.0)),)
    worst_weight_rel, worst_loc = verify.measure_round_trip_defects(models)
    worst_defect = max(normalization_defect(mu) for mu in models)
    ok = report(7, "measure-round-trip", worst_weight_rel, INVERSION_REL_TOL,
                extra=f"location/spacing {worst_loc:.3g} < 1, defect {worst_defect:.3g} < 1e-14")
    assert ok
    assert worst_loc < 1.0
    assert worst_defect < 1e-14


def test_criterion_8_class_properties():
    laws = verify_class_properties(bundled_corpus(), GRID)
    model_verdict = class_C_check(model_closed_forms(1.0).livsic).verdict
    probe_verdict = class_C_check(cayley_probe()).verdict
    verdicts_ok = (model_verdict is ClassVerdict.CONSISTENT_WITH_C
                   and probe_verdict is ClassVerdict.FAILS_GROWTH)
    worst = max(deviation for _, deviation in laws)
    ok = report(8, "class-properties", worst, IDENTITY_TOL,
                extra=f"verdicts: model={model_verdict.value}, probe={probe_verdict.value}")
    assert ok
    assert verdicts_ok


def test_criterion_9_structural():
    rng = np.random.default_rng(20260811)
    n = 10**4

    radii = 0.99 * rng.uniform(0.0, 1.0, n)
    phases = rng.uniform(0.0, 2 * math.pi, n)
    kappas = 0.99 * rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
    ws = radii * np.exp(1j * phases)
    # each of the first 100 automorphisms at all n points: 10^6 pairs
    worst_involution = verify.disk_involution_defect(kappas[:100], ws)

    zs = rng.uniform(-20.0, 20.0, n) + 1j * rng.uniform(0.05, 20.0, n)
    worst_cayley = verify.cayley_round_trip_defect(zs)

    s = model_closed_forms(1.0).livsic
    M = realize_herglotz(reference_measures()[1])
    alphas = rng.uniform(0.0, math.pi, 100)
    worst_reference = verify.reference_rotation_defect(s, M, alphas, zs[:100])

    worst = max(worst_involution, worst_cayley, worst_reference)
    ok = report(9, "structural-invariants", worst, 1e-12,
                extra=f"involution {worst_involution:.3g}, cayley {worst_cayley:.3g}, "
                f"reference {worst_reference:.3g} on {n} points")
    assert ok
