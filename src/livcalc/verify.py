"""Invariant suites, one per module, runnable as a batch.

Each check reduces its deviations with :func:`livcalc.core.worst_of`,
which keeps a NaN, to one worst value against its pinned tolerance.  A
NaN fails, and so does any exception raised inside the check, with worst
inf.  A suite builds the inputs its checks share inside those checks, on
first use, so that an error there fails the checks instead of the battery.
The CLI exposes the whole battery as ``livcalc verify-all``; the acceptance
tests drive the same checks with their own sweeps on top.

An identity with more than one caller is written once, as a function of
its sweep that returns its worst deviation(s): below the battery helpers,
or, for the class laws, in :mod:`livcalc.coupling` next to the operation
it checks.  The suites call it with the battery's sweeps,
``tests/test_acceptance.py`` with larger ones, and the CLI verbs with the
input they are given.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from . import model as model_mod
from . import oracle as oracle_mod
from .core import (
    IDENTITY_TOL, INVERSION_REL_TOL, QUADRATURE_TOL, AnalyticFn, EvaluationGrid, FnKind, Record,
    constant_fn, default_grid, fmt_float, max_modulus, min_imag, sup_deviation, worst_of,
)
from .coupling import (
    CouplingAngles, TaggedCharacteristic, convexity_defects, couple_livsic, coupling_angles,
    general_k_identity_defect, multiply_characteristic, verify_class_properties,
)
from .extension import (
    ClassVerdict, cayley_probe, characteristic_from_livsic, class_C_check, extract_kappa,
    reference_change_livsic, reference_change_weyl,
)
from .measure import (
    BorelMeasureModel, livsic_from_weyl, normalization_defect, realize_herglotz,
    stieltjes_invert,
)
from .moebius import MoebiusMap


class CheckResult(Record):
    __slots__ = ("name", "worst", "tol")

    def __init__(self, name: str, worst: float, tol: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "worst", float(worst))
        object.__setattr__(self, "tol", float(tol))

    @property
    def passed(self) -> bool:
        return bool(self.worst < self.tol)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "worst_deviation": fmt_float(self.worst),
            "tolerance": fmt_float(self.tol),
            "passed": self.passed,
        }


def run_checks(checks: Iterable[Tuple[str, float, Callable[[], float]]]) -> List[CheckResult]:
    """Each (name, tolerance, worst-deviation function) check, in order.

    Any exception raised inside a check, a broken parameter tag as much as
    a program error, is that check's failure (worst deviation inf), not an
    error of the battery.  A NaN worst deviation fails its check too."""
    results = []
    for name, tol, compute in checks:
        try:
            worst = compute()
        except Exception:
            worst = math.inf
        results.append(CheckResult(name, worst, tol))
    return results


def atom_measure(*atoms) -> BorelMeasureModel:
    return BorelMeasureModel(tuple(atoms))


def reference_measures():
    """The two normalized atom models used throughout: a unit mass at the
    origin (M = -1/z) and unit masses at +-1 (M = 2z/(1 - z^2))."""
    return atom_measure((0.0, 1.0)), atom_measure((1.0, 1.0), (-1.0, 1.0))


def bundled_corpus() -> List[AnalyticFn]:
    """Sample functions of every kind for the class-property battery."""
    m_origin, m_pair = reference_measures()
    M1 = realize_herglotz(m_origin)
    M2 = realize_herglotz(m_pair)
    s_half = model_mod.model_closed_forms(0.5).livsic
    s_one = model_mod.model_closed_forms(1.0).livsic
    s_from_weyl = livsic_from_weyl(M2)
    forms1 = model_mod.model_closed_forms(1.0)
    forms2 = model_mod.model_closed_forms(2.0)
    # a vanishing-parameter characteristic: -s has value 0 at i
    minus_s = AnalyticFn(
        evaluator=lambda zs: -s_one.evaluator(zs),
        kind=FnKind.CHARACTERISTIC,
        label="minus interval-model s[ell=1]",
    )
    s_tagged = characteristic_from_livsic(s_half, 0.5)
    # a complex parameter: a product tag that drops a conjugate misses (S1 S2)(i)
    s_complex = characteristic_from_livsic(s_one, 0.3 + 0.4j)
    return [
        M1,
        M2,
        s_half,
        s_one,
        s_from_weyl,
        forms1.characteristic,
        forms2.characteristic,
        minus_s,
        s_tagged,
        s_complex,
    ]


# --- identities, each a function of its sweep ----------------------------------


def multiplication_chain_defects(
    s1: AnalyticFn, s2: AnalyticFn, kappa_pairs: Iterable[Tuple[float, float]],
    grid: EvaluationGrid,
) -> Tuple[float, float]:
    """The multiplication theorem over the (kappa1, kappa2) pairs: the worst
    sup deviation of the characteristic function of the coupling at
    kappa1 kappa2 from the product of those of s1 at kappa1 and s2 at
    kappa2, and the worst |product(i) - kappa1 kappa2|."""
    chain, kappa = [], []
    for k1, k2 in kappa_pairs:
        coupled = couple_livsic(s1, s2, coupling_angles(k1, k2))
        left = characteristic_from_livsic(coupled, k1 * k2)
        right = multiply_characteristic(
            TaggedCharacteristic(characteristic_from_livsic(s1, k1), k1),
            TaggedCharacteristic(characteristic_from_livsic(s2, k2), k2),
        )
        chain.append(sup_deviation(left, right.fn, grid))
        kappa.append(right.tag_defect)
    return worst_of(chain), worst_of(kappa)


def general_k_defect(
    s1: AnalyticFn, s2: AnalyticFn, sweep: Iterable[Tuple[float, float, float]],
    grid: EvaluationGrid,
) -> float:
    """Worst general-k coupling identity defect over the (kappa1, kappa2, k)
    triples."""
    return worst_of(
        general_k_identity_defect(k, s1, s2, coupling_angles(k1, k2), grid)
        for k1, k2, k in sweep
    )


def interval_split_defect(splits: Iterable[Tuple[float, float]], grid: EvaluationGrid) -> float:
    """Worst coupling-theorem defect of the model over the (ell, fraction) splits."""
    return worst_of(model_mod.split_interval_check(ell, gamma, grid) for ell, gamma in splits)


def oracle_deviation(ells: Iterable[float], grid: EvaluationGrid) -> float:
    """Worst |quadrature oracle - closed form s| over the lengths and grid."""
    deviations = []
    for ell in ells:
        closed = model_mod.model_closed_forms(ell).livsic(grid.points)
        # the oracle stays pointwise: it is the independent reference
        oracle = np.array([oracle_mod.model_livsic_quadrature(ell, z) for z in grid])
        deviations.append(np.abs(oracle - closed))
    return worst_of(deviations)


def norm_defect(elements: Iterable[model_mod.DeficiencyElement]) -> float:
    """Worst |norm - 1| of the elements in L^2(0, length), by the oracle's
    composite Gauss-Legendre rule at their sampled values.  |g_+-(x)|^2 is
    a multiple of e^{+-2x}, so panels of width at most PANEL_SPAN / 2 = 4
    keep |a| * (panel width) within the oracle's eight radians at |a| = 2."""
    def defect(elem):
        panels = max(1, math.ceil(2.0 * elem.length / oracle_mod.PANEL_SPAN))
        nodes, weights = oracle_mod.composite_rule(panels)
        values = np.array([abs(elem(x)) ** 2 for x in elem.length * nodes])
        return abs(math.sqrt(elem.length * (values @ weights)) - 1.0)

    return worst_of(map(defect, elements))


def boundary_relation_defect(ells: Iterable[float]) -> float:
    """Worst defect of g_+(0) = e^{-ell} g_-(0) and
    g_+(0) - g_-(0) = g_-(ell) - g_+(ell) over the lengths."""
    def defects(ell):
        gp, gm = model_mod.g_plus(ell), model_mod.g_minus(ell)
        return (abs(gp(0.0) - math.exp(-ell) * gm(0.0)),
                abs((gp(0.0) - gm(0.0)) + (gp(ell) - gm(ell))))

    return worst_of(d for ell in ells for d in defects(ell))


def disk_involution_defect(kappas: Iterable[complex], ws: np.ndarray) -> float:
    """Worst |T(T(w)) - w| of the disk automorphism T at each kappa over
    the disk points ``ws``."""
    return worst_of(np.abs(T.values(T.values(ws)) - ws)
                    for T in map(MoebiusMap.disk_automorphism, kappas))


def cayley_round_trip_defect(zs: np.ndarray) -> float:
    """Worst |K^{-1}(K(z)) - z| of the Cayley transform K over the points."""
    K, Kinv = MoebiusMap.cayley(), MoebiusMap.inverse_cayley()
    return worst_of([np.abs(Kinv.values(K.values(zs)) - zs)])


def reference_rotation_defect(s: AnalyticFn, M: AnalyticFn, alphas, zs: np.ndarray) -> float:
    """The reference-change laws over the rotation angles: |s| unchanged
    at the points ``zs``, the Herglotz value i at i kept, and the two
    routes from M to a rotated Livsic function agreeing at ``zs``:
    rotating M and then taking its Livsic function gives the Livsic
    function of M rotated."""
    modulus = np.abs(s(zs))
    s_of_M = livsic_from_weyl(M)

    def defects(alpha):
        rotated = np.abs(reference_change_livsic(s, alpha)(zs))
        M_rotated = reference_change_weyl(M, alpha)
        return (np.abs(rotated - modulus), abs(M_rotated(1j) - 1j),
                np.abs(livsic_from_weyl(M_rotated)(zs)
                       - reference_change_livsic(s_of_M, alpha)(zs)))

    return worst_of(d for alpha in alphas for d in defects(alpha))


def measure_round_trip_defects(measures: Iterable[BorelMeasureModel]) -> Tuple[float, float]:
    """Stieltjes inversion of each measure over [-2, 2] at eps 1e-2, 1e-3,
    1e-4: the worst relative weight error and location error (in scan
    spacings) of the atoms, both inf when an atom count is wrong."""
    weights, locations = [], []
    for mu in measures:
        result = stieltjes_invert(realize_herglotz(mu), (-2.0, 2.0), (1e-2, 1e-3, 1e-4))
        if len(result.atoms) != len(mu.atoms):
            return math.inf, math.inf
        for atom, (loc, weight) in zip(result.atoms, sorted(mu.atoms)):
            weights.append(abs(atom.weight - weight) / weight)
            locations.append(abs(atom.location - loc) / result.scan_spacing)
    return worst_of(weights), worst_of(locations)


# --- the suites ----------------------------------------------------------------


def core_checks() -> List[CheckResult]:
    grid = default_grid()
    f = functools.cache(lambda: model_mod.model_closed_forms(1.0).livsic)
    g = constant_fn(0.25 + 0.1j)
    h = constant_fn(-0.3 + 0.4j)

    def dev(u, v):
        return sup_deviation(u, v, grid)

    def contractive():
        forms = [model_mod.model_closed_forms(ell) for ell in (0.5, 1.0, 2.0)]
        return worst_of(max_modulus(fn, grid) - 1.0
                        for m in forms for fn in (m.livsic, m.characteristic))

    return run_checks([
        ("self-deviation-zero", 1e-15, lambda: dev(f(), f())),
        ("deviation-symmetry", 1e-15, lambda: abs(dev(f(), g) - dev(g, f()))),
        ("deviation-triangle", 1e-15, lambda: worst_of([dev(f(), h) - (dev(f(), g) + dev(g, h))])),
        ("livsic-kind-contractive", IDENTITY_TOL, contractive),
    ])


def moebius_checks() -> List[CheckResult]:
    zs = default_grid().points
    # the Cayley image of the grid reaches |w| = 0.992
    ws = functools.cache(lambda: MoebiusMap.cayley().values(zs))
    # real, negative and complex parameters
    kappas = [0.0] + [cmath.rect(r, math.pi * k / 3) for r in (0.5, 0.95) for k in range(6)]
    alphas = np.linspace(0.0, math.pi, 16, endpoint=False)
    return run_checks([
        ("cayley-contracts-halfplane", 1e-12, lambda: worst_of([np.abs(ws()) - 1.0])),
        ("cayley-round-trip", 1e-12, lambda: cayley_round_trip_defect(zs)),
        ("disk-automorphism-involution", 1e-12, lambda: disk_involution_defect(kappas, ws())),
        ("rotation-fixes-i", 1e-15,
         lambda: worst_of(abs(MoebiusMap.halfplane_rotation(a).values(1j) - 1j)
                          for a in alphas)),
    ])


def measure_checks() -> List[CheckResult]:
    grid = default_grid()
    m_origin, m_pair = reference_measures()

    def range_and_contraction():
        return worst_of(d for M in map(realize_herglotz, (m_origin, m_pair)) for d in (
            -min_imag(M, grid), max_modulus(livsic_from_weyl(M), grid) - 1.0))

    def round_trip():
        weight, location = measure_round_trip_defects([m_pair])
        return worst_of((location, weight / INVERSION_REL_TOL))

    return run_checks([
        ("normalization-equals-value-at-i", 1e-13,
         lambda: worst_of(abs(normalization_defect(mu) - abs(realize_herglotz(mu)(1j) - 1j))
                          for mu in (m_origin, m_pair, atom_measure((1.0, 2.0))))),
        ("herglotz-range-and-cayley-contraction", 1e-12, range_and_contraction),
        ("two-atom-round-trip(scaled)", 1.0, round_trip),
    ])


def extension_checks() -> List[CheckResult]:
    grid = default_grid()
    s = functools.cache(lambda: model_mod.model_closed_forms(1.0).livsic)
    S = functools.cache(lambda: characteristic_from_livsic(s(), 0.5))

    def involution():
        # the map without conj(kappa) is an involution too and sends 0 to
        # kappa; only the contraction |S| <= 1 tells it from the automorphism
        def defects(kappa):
            Sk = characteristic_from_livsic(s(), kappa)
            return (sup_deviation(characteristic_from_livsic(Sk, kappa), s(), grid),
                    abs(extract_kappa(Sk) - kappa), max_modulus(Sk, grid) - 1.0)

        return worst_of(d for kappa in (0.25, 0.5 + 0.3j, 0.9, -0.6j) for d in defects(kappa))

    def rotated(theta):
        return AnalyticFn(lambda zs: theta * S().evaluator(zs), FnKind.CHARACTERISTIC)

    def verdicts():
        # K(z) (z - 100i)/(z + 100i) vanishes at i, but along the phase 1
        # |z (s - 1)| tends to 202: only a growth threshold above that
        # rejects it
        K = cayley_probe().evaluator
        blaschke = AnalyticFn(lambda zs: K(zs) * (zs - 100j) / (zs + 100j), FnKind.GENERIC)
        ok = (
            class_C_check(s()).verdict is ClassVerdict.CONSISTENT_WITH_C
            and class_C_check(constant_fn(0.5)).verdict is ClassVerdict.FAILS_AT_I
            and class_C_check(cayley_probe()).verdict is ClassVerdict.FAILS_GROWTH
            and class_C_check(blaschke).verdict is ClassVerdict.FAILS_GROWTH
        )
        return 0.0 if ok else 1.0

    return run_checks([
        ("involution-and-kappa-extraction", 1e-12, involution),
        ("reference-change-laws", 1e-12,
         lambda: reference_rotation_defect(s(), realize_herglotz(reference_measures()[1]),
                                         (0.0, math.pi / 4, math.pi / 2, 2.5), grid.points)),
        ("unimodular-closure", 1e-12,
         lambda: worst_of(abs(extract_kappa(rotated(theta)) - theta * extract_kappa(S()))
                          for theta in (1.0, 1j, complex(math.cos(2.1), math.sin(2.1))))),
        ("class-membership-verdicts", 0.5, verdicts),
    ])


def coupling_checks() -> List[CheckResult]:
    grid = default_grid()
    s1 = functools.cache(lambda: model_mod.model_closed_forms(0.5).livsic)
    s2 = functools.cache(lambda: model_mod.model_closed_forms(1.0).livsic)
    pairs = ((0.3, 0.7), (0.5, 0.5), (0.25, 0.0))
    ks = np.arange(0.0, 0.95, 0.1)
    # one sweep feeds two checks; an error inside it fails both
    chain = functools.cache(lambda: multiplication_chain_defects(s1(), s2(), pairs, grid))

    def angle_defects(k1, k2):
        ang = coupling_angles(k1, k2)
        return (abs(math.sin(ang.beta) - k1 * math.sin(ang.alpha)),
                abs(math.cos(ang.beta) - math.cos(ang.alpha) / k2) if k2 > 0.0
                else abs(math.cos(ang.alpha)),
                abs(math.sin(ang.beta) ** 2 + math.cos(ang.beta) ** 2 - 1.0))

    def collapse(angle, s):
        return sup_deviation(couple_livsic(s1(), s2(), CouplingAngles(angle, angle)), s, grid)

    return run_checks([
        ("angle-consistency", 1e-14,
         lambda: worst_of(d for k1 in ks for k2 in ks for d in angle_defects(k1, k2))),
        ("degenerate-angle-collapse", 1e-14,
         lambda: worst_of((collapse(0.0, s1()), collapse(math.pi / 2, s2())))),
        ("multiplication-chain", 1e-10,
         lambda: worst_of((chain()[0],
                           general_k_defect(s1(), s2(), [p + (0.37,) for p in pairs], grid)))),
        ("kappa-multiplicativity", 1e-12, lambda: chain()[1]),
        ("addition-normalization", 1e-14,
         lambda: convexity_defects(*map(realize_herglotz, reference_measures()),
                                   (0.0, math.pi / 6, math.pi / 3, math.pi / 2), grid)[0]),
        ("class-preservation-at-i", 1e-14,
         lambda: abs(couple_livsic(s1(), s2(), coupling_angles(0.4, 0.6))(1j))),
        ("class-properties(i-iv)", IDENTITY_TOL,
         lambda: worst_of(worst for _, worst in verify_class_properties(bundled_corpus(), grid))),
    ])


def model_checks() -> List[CheckResult]:
    grid = default_grid()
    ells = (0.5, 1.0, 2.0)

    return run_checks([
        ("defect-element-norms", 1e-10,
         lambda: norm_defect(g(ell) for ell in (0.5, 1.0, 2.0, 5.0)
                             for g in (model_mod.g_plus, model_mod.g_minus))),
        ("oracle-vs-closed-form", QUADRATURE_TOL, lambda: oracle_deviation(ells, grid)),
        ("boundary-relations", 1e-12, lambda: boundary_relation_defect(ells)),
        ("interval-split", 1e-14,
         lambda: interval_split_defect(((2.0, 0.5), (1.0, 0.25), (3.0, 0.999)), grid)),
    ])


def run_all() -> Dict[str, List[CheckResult]]:
    return {
        "core": core_checks(),
        "moebius": moebius_checks(),
        "measure": measure_checks(),
        "extension": extension_checks(),
        "coupling": coupling_checks(),
        "model": model_checks(),
    }
