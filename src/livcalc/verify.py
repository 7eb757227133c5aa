"""Invariant suites, one per module, runnable as a batch.

Each check compares a worst-case deviation against its pinned tolerance.
The CLI exposes the whole battery as ``livcalc verify-all``; the acceptance
tests drive the same checks with their own sweeps on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import model as model_mod
from . import oracle as oracle_mod
from .core import (
    AnalyticFn,
    FnKind,
    ToleranceConfig,
    constant_fn,
    default_grid,
    fmt_float,
    max_modulus,
    min_imag,
    sup_deviation,
)
from .coupling import (
    CouplingAngles,
    TaggedCharacteristic,
    add_weyl,
    couple_livsic,
    coupling_angles,
    general_k_identity_defect,
    multiply_characteristic,
    verify_class_properties,
)
from .extension import (
    ClassVerdict,
    characteristic_from_livsic,
    class_C_check,
    extract_kappa,
    reference_change_livsic,
    reference_change_weyl,
)
from .measure import (
    BorelMeasureModel,
    livsic_from_weyl,
    normalization_defect,
    realize_herglotz,
    stieltjes_invert,
)
from .moebius import MoebiusMap


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "worst", float(self.worst))
        object.__setattr__(self, "tol", float(self.tol))

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
    ]


def core_checks(cfg: ToleranceConfig = ToleranceConfig()) -> List[CheckResult]:
    grid = default_grid()
    f = model_mod.model_closed_forms(1.0).livsic
    g = constant_fn(0.25 + 0.1j)
    h = constant_fn(-0.3 + 0.4j)
    out = [
        CheckResult("self-deviation-zero", sup_deviation(f, f, grid), 1e-15),
        CheckResult(
            "deviation-symmetry",
            abs(sup_deviation(f, g, grid) - sup_deviation(g, f, grid)),
            1e-15,
        ),
        CheckResult(
            "deviation-triangle",
            max(
                0.0,
                sup_deviation(f, h, grid)
                - (sup_deviation(f, g, grid) + sup_deviation(g, h, grid)),
            ),
            1e-15,
        ),
    ]
    worst = 0.0
    for ell in (0.5, 1.0, 2.0):
        forms = model_mod.model_closed_forms(ell)
        worst = max(worst, max_modulus(forms.livsic, grid) - 1.0)
        worst = max(worst, max_modulus(forms.characteristic, grid) - 1.0)
    out.append(CheckResult("livsic-kind-contractive", worst, cfg.identity_tol))
    return out


def moebius_checks(cfg: ToleranceConfig = ToleranceConfig()) -> List[CheckResult]:
    grid = default_grid()
    K = MoebiusMap.cayley()
    Kinv = MoebiusMap.inverse_cayley()
    out = [
        CheckResult(
            "cayley-contracts-halfplane", max(abs(K(z)) for z in grid) - 1.0, 1e-12
        ),
        CheckResult(
            "cayley-round-trip", max(abs(Kinv(K(z)) - z) for z in grid), 1e-12
        ),
    ]
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(200):
        kappa = 0.95 * rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform(0, 1))
        w = 0.95 * rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform(0, 1))
        T = MoebiusMap.disk_automorphism(kappa)
        worst = max(worst, abs(T(T(w)) - w))
    out.append(CheckResult("disk-automorphism-involution", worst, 1e-12))
    worst = 0.0
    for alpha in np.linspace(0.0, math.pi, 16, endpoint=False):
        worst = max(worst, abs(MoebiusMap.halfplane_rotation(alpha)(1j) - 1j))
    out.append(CheckResult("rotation-fixes-i", worst, 1e-15))
    return out


def measure_checks(cfg: ToleranceConfig = ToleranceConfig()) -> List[CheckResult]:
    grid = default_grid()
    m_origin, m_pair = reference_measures()
    out = []
    worst = 0.0
    for mu in (m_origin, m_pair, atom_measure((1.0, 2.0))):
        M = realize_herglotz(mu)
        worst = max(worst, abs(normalization_defect(mu) - abs(M(1j) - 1j)))
    out.append(CheckResult("normalization-equals-value-at-i", worst, 1e-13))
    worst = 0.0
    for mu in (m_origin, m_pair):
        M = realize_herglotz(mu)
        worst = max(worst, -min_imag(M, grid))
        worst = max(worst, max_modulus(livsic_from_weyl(M), grid) - 1.0)
    out.append(CheckResult("herglotz-range-and-cayley-contraction", worst, 1e-12))
    inversion = stieltjes_invert(
        realize_herglotz(m_pair), (-2.0, 2.0), (1e-2, 1e-3, 1e-4)
    )
    worst = 0.0
    for atom, expected_loc in zip(inversion.atoms, (-1.0, 1.0)):
        worst = max(
            worst,
            abs(atom.location - expected_loc) / inversion.scan_spacing,
            abs(atom.weight - 1.0) / cfg.inversion_rel_tol,
        )
    if len(inversion.atoms) != 2:
        worst = math.inf
    out.append(CheckResult("two-atom-round-trip(scaled)", worst, 1.0))
    return out


def extension_checks(cfg: ToleranceConfig = ToleranceConfig()) -> List[CheckResult]:
    grid = default_grid()
    s = model_mod.model_closed_forms(1.0).livsic
    out = []
    worst = 0.0
    for kappa in (0.25, 0.5 + 0.3j, 0.9, -0.6j):
        twice = characteristic_from_livsic(characteristic_from_livsic(s, kappa), kappa)
        worst = max(worst, sup_deviation(twice, s, grid))
        worst = max(worst, abs(extract_kappa(characteristic_from_livsic(s, kappa)) - kappa))
    out.append(CheckResult("involution-and-kappa-extraction", worst, 1e-12))
    worst = 0.0
    M = realize_herglotz(reference_measures()[1])
    zs = grid.as_array()
    for alpha in (0.0, math.pi / 4, math.pi / 2, 2.5):
        rotated_s = reference_change_livsic(s, alpha)
        worst = max(worst, float(np.max(np.abs(np.abs(rotated_s(zs)) - np.abs(s(zs))))))
        worst = max(worst, abs(reference_change_weyl(M, alpha)(1j) - 1j))
    out.append(CheckResult("reference-change-laws", worst, 1e-12))
    worst = 0.0
    S = characteristic_from_livsic(s, 0.5)
    for theta in (1.0, 1j, complex(math.cos(2.1), math.sin(2.1))):
        scaled = AnalyticFn(
            evaluator=lambda zs, th=theta: th * S.evaluator(zs), kind=FnKind.CHARACTERISTIC
        )
        worst = max(worst, abs(extract_kappa(scaled) - theta * extract_kappa(S)))
    out.append(CheckResult("unimodular-closure", worst, 1e-12))
    verdicts_ok = (
        class_C_check(s, cfg).verdict is ClassVerdict.CONSISTENT_WITH_C
        and class_C_check(constant_fn(0.5), cfg).verdict is ClassVerdict.FAILS_AT_I
        and class_C_check(
            AnalyticFn(lambda z: (z - 1j) / (z + 1j), FnKind.GENERIC, "cayley-probe"),
            cfg,
        ).verdict
        is ClassVerdict.FAILS_GROWTH
    )
    out.append(CheckResult("class-membership-verdicts", 0.0 if verdicts_ok else 1.0, 0.5))
    return out


def coupling_checks(cfg: ToleranceConfig = ToleranceConfig()) -> List[CheckResult]:
    grid = default_grid()
    s1 = model_mod.model_closed_forms(0.5).livsic
    s2 = model_mod.model_closed_forms(1.0).livsic
    out = []
    worst = 0.0
    for k1 in np.arange(0.0, 0.95, 0.1):
        for k2 in np.arange(0.0, 0.95, 0.1):
            ang = coupling_angles(k1, k2, cfg)
            worst = max(worst, abs(math.sin(ang.beta) - k1 * math.sin(ang.alpha)))
            if not ang.kappa2_is_zero:
                worst = max(worst, abs(math.cos(ang.beta) - math.cos(ang.alpha) / k2))
            worst = max(
                worst, abs(math.sin(ang.beta) ** 2 + math.cos(ang.beta) ** 2 - 1.0)
            )
    out.append(CheckResult("angle-consistency", worst, 1e-14))
    collapse1 = couple_livsic(s1, s2, CouplingAngles(0.0, 0.0))
    collapse2 = couple_livsic(s1, s2, CouplingAngles(math.pi / 2, math.pi / 2))
    out.append(
        CheckResult(
            "degenerate-angle-collapse",
            max(sup_deviation(collapse1, s1, grid), sup_deviation(collapse2, s2, grid)),
            1e-14,
        )
    )
    worst = 0.0
    kappa_defect = 0.0
    for k1, k2 in ((0.3, 0.7), (0.5, 0.5), (0.25, 0.0)):
        ang = coupling_angles(k1, k2, cfg)
        coupled = couple_livsic(s1, s2, ang)
        left = characteristic_from_livsic(coupled, k1 * k2)
        t1 = TaggedCharacteristic(characteristic_from_livsic(s1, k1), k1)
        t2 = TaggedCharacteristic(characteristic_from_livsic(s2, k2), k2)
        right = multiply_characteristic(t1, t2)
        worst = max(worst, sup_deviation(left, right.fn, grid))
        kappa_defect = max(kappa_defect, abs(right.fn(1j) - k1 * k2))
        worst_k = general_k_identity_defect(0.37, s1, s2, ang, grid)
        worst = max(worst, worst_k)
    out.append(CheckResult("multiplication-chain", worst, 1e-10))
    out.append(CheckResult("kappa-multiplicativity", kappa_defect, 1e-12))
    M1 = realize_herglotz(reference_measures()[0])
    M2 = realize_herglotz(reference_measures()[1])
    worst = 0.0
    for alpha in (0.0, math.pi / 6, math.pi / 3, math.pi / 2):
        worst = max(worst, abs(add_weyl(M1, M2, alpha)(1j) - 1j))
    out.append(CheckResult("addition-normalization", worst, 1e-14))
    vanish = couple_livsic(s1, s2, coupling_angles(0.4, 0.6, cfg))(1j)
    out.append(CheckResult("class-preservation-at-i", abs(vanish), 1e-14))
    report = verify_class_properties(bundled_corpus(), cfg, grid)
    out.append(
        CheckResult(
            "class-properties(i-iv)",
            max(r.worst_deviation for r in report.results),
            cfg.identity_tol,
        )
    )
    return out


def model_checks(cfg: ToleranceConfig = ToleranceConfig()) -> List[CheckResult]:
    from scipy.integrate import quad  # here, so that only verify-all pays for scipy

    grid = default_grid()
    out = []
    worst = 0.0
    for ell in (0.5, 1.0, 2.0, 5.0):
        for elem in (model_mod.g_plus(ell), model_mod.g_minus(ell)):
            norm_sq, _ = quad(lambda x: abs(elem(x)) ** 2, 0.0, ell)
            worst = max(worst, abs(math.sqrt(norm_sq) - 1.0))
    out.append(CheckResult("defect-element-norms", worst, 1e-10))
    worst = 0.0
    for ell in (0.5, 1.0, 2.0):
        closed = model_mod.model_closed_forms(ell).livsic(grid.as_array())
        # the oracle stays pointwise: it is the independent reference
        oracle = np.array([oracle_mod.model_livsic_quadrature(ell, z, cfg) for z in grid])
        worst = max(worst, float(np.max(np.abs(oracle - closed))))
    out.append(CheckResult("oracle-vs-closed-form", worst, cfg.quadrature_tol))
    worst = 0.0
    for ell in (0.5, 1.0, 2.0):
        gp, gm = model_mod.g_plus(ell), model_mod.g_minus(ell)
        worst = max(worst, abs(gp(0.0) - math.exp(-ell) * gm(0.0)))
        worst = max(
            worst, abs((gp(0.0) - gm(0.0)) + (gp(ell) - gm(ell)))
        )
    out.append(CheckResult("boundary-relations", worst, 1e-12))
    worst = 0.0
    for ell, gamma in ((2.0, 0.5), (1.0, 0.25), (3.0, 0.999)):
        worst = max(worst, model_mod.split_interval_check(ell, gamma, grid))
    out.append(CheckResult("interval-split", worst, 1e-14))
    return out


def run_all(cfg: ToleranceConfig = ToleranceConfig()) -> Dict[str, List[CheckResult]]:
    return {
        "core": core_checks(cfg),
        "moebius": moebius_checks(cfg),
        "measure": measure_checks(cfg),
        "extension": extension_checks(cfg),
        "coupling": coupling_checks(cfg),
        "model": model_checks(cfg),
    }
