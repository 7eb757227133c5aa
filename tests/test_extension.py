import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livcalc import (
    AnalyticFn,
    ClassVerdict,
    FnKind,
    NotContractive,
    OutOfRange,
    characteristic_from_livsic,
    class_C_check,
    constant_fn,
    default_grid,
    ensure_kappa,
    extract_kappa,
    model_closed_forms,
    reference_change_livsic,
    reference_change_weyl,
    realize_herglotz,
    sup_deviation,
)
from livcalc.core import to_json
from livcalc.measure import BorelMeasureModel

GRID = default_grid()
MODEL_ONE = model_closed_forms(1.0)
PAIR_M = realize_herglotz(BorelMeasureModel(((1.0, 1.0), (-1.0, 1.0))))

disk_kappas = st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi)).map(
    lambda rt: rt[0] * cmath.exp(1j * rt[1])
)


class TestEnsureKappa:
    def test_accepts_interior(self):
        assert ensure_kappa(0.3 - 0.4j) == 0.3 - 0.4j

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1j, 0.8 + 0.8j])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(OutOfRange, match=r"needs \|kappa\| < 1"):
            ensure_kappa(bad)


class TestCharacteristicFromLivsic:
    def test_zero_kappa_negates(self):
        S = characteristic_from_livsic(MODEL_ONE.livsic, 0.0)
        neg = AnalyticFn(lambda z: -MODEL_ONE.livsic(z), FnKind.CHARACTERISTIC)
        assert sup_deviation(S, neg, GRID) < 1e-15

    def test_constant_zero_probe_maps_to_kappa(self):
        s = constant_fn(0.0, kind=FnKind.LIVSIC)
        S = characteristic_from_livsic(s, 0.25 + 0.1j)
        assert S(2j) == 0.25 + 0.1j

    def test_interval_model_gives_pure_exponential(self):
        # with kappa = e^{-1} the model collapses to z -> e^{iz}
        S = characteristic_from_livsic(MODEL_ONE.livsic, math.exp(-1.0))
        target = AnalyticFn(lambda zs: np.exp(1j * zs), FnKind.CHARACTERISTIC)
        assert sup_deviation(S, target, GRID) < 1e-14

    def test_output_kind_flips(self):
        S = characteristic_from_livsic(MODEL_ONE.livsic, 0.5)
        assert S.kind is FnKind.CHARACTERISTIC
        back = characteristic_from_livsic(S, 0.5)
        assert back.kind is FnKind.LIVSIC

    @given(disk_kappas)
    @settings(max_examples=30, deadline=None)
    def test_involution(self, kappa):
        twice = characteristic_from_livsic(
            characteristic_from_livsic(MODEL_ONE.livsic, kappa), kappa
        )
        assert sup_deviation(twice, MODEL_ONE.livsic, GRID) < 1e-12


class TestExtractKappa:
    def test_exponential_model(self):
        S = AnalyticFn(lambda zs: np.exp(1j * zs), FnKind.CHARACTERISTIC)
        assert abs(extract_kappa(S) - 0.36787944117144233) < 1e-15

    def test_negated_livsic_has_zero_kappa(self):
        S = characteristic_from_livsic(MODEL_ONE.livsic, 0.0)
        assert abs(extract_kappa(S)) < 1e-15

    def test_constant_probe(self):
        assert extract_kappa(constant_fn(0.5, kind=FnKind.CHARACTERISTIC)) == 0.5

    def test_rejects_non_contractive(self):
        with pytest.raises(NotContractive):
            extract_kappa(constant_fn(1.5, kind=FnKind.CHARACTERISTIC))

    @given(disk_kappas)
    @settings(max_examples=30, deadline=None)
    def test_round_trip_through_characteristic(self, kappa):
        # s(i) = 0 forces S(i) = kappa
        S = characteristic_from_livsic(MODEL_ONE.livsic, kappa)
        assert abs(extract_kappa(S) - kappa) < 1e-14

    def test_unimodular_closure(self):
        S = characteristic_from_livsic(MODEL_ONE.livsic, 0.5)
        for theta in (1j, cmath.exp(0.7j), -1.0):
            scaled = AnalyticFn(
                lambda z, th=theta: th * S(z), FnKind.CHARACTERISTIC
            )
            assert abs(extract_kappa(scaled) - theta * 0.5) < 1e-14
            assert abs(abs(extract_kappa(scaled)) - 0.5) < 1e-14


class TestReferenceChangeLivsic:
    def test_alpha_zero_is_identity(self):
        rotated = reference_change_livsic(MODEL_ONE.livsic, 0.0)
        assert sup_deviation(rotated, MODEL_ONE.livsic, GRID) == 0.0

    def test_half_pi_negates(self):
        rotated = reference_change_livsic(MODEL_ONE.livsic, math.pi / 2)
        neg = AnalyticFn(lambda z: -MODEL_ONE.livsic(z), FnKind.LIVSIC)
        assert sup_deviation(rotated, neg, GRID) < 1e-15

    def test_quarter_pi_on_constant(self):
        c = 0.3 + 0.2j
        rotated = reference_change_livsic(constant_fn(c, kind=FnKind.LIVSIC), math.pi / 4)
        assert abs(rotated(1j) - (-1j * c)) < 1e-15

    def test_modulus_preserved_pointwise(self):
        for alpha in (0.3, 1.1, 2.9):
            rotated = reference_change_livsic(MODEL_ONE.livsic, alpha)
            worst = max(
                abs(abs(rotated(z)) - abs(MODEL_ONE.livsic(z))) for z in GRID
            )
            assert worst < 1e-15

    def test_rejects_angle_outside_range(self):
        with pytest.raises(ValueError):
            reference_change_livsic(MODEL_ONE.livsic, math.pi)


class TestReferenceChangeWeyl:
    def test_alpha_zero_is_identity(self):
        assert sup_deviation(reference_change_weyl(PAIR_M, 0.0), PAIR_M, GRID) == 0.0

    def test_half_pi_is_negative_reciprocal(self):
        # for M = -1/z the image is the function z itself
        M = realize_herglotz(BorelMeasureModel(((0.0, 1.0),)))
        rotated = reference_change_weyl(M, math.pi / 2)
        ident = AnalyticFn(lambda z: z, FnKind.HERGLOTZ)
        assert sup_deviation(rotated, ident, GRID) < 1e-13

    def test_normalization_preserved(self):
        for alpha in (0.1, math.pi / 4, math.pi / 2, 3.0):
            assert abs(reference_change_weyl(PAIR_M, alpha)(1j) - 1j) < 1e-12


class TestClassCCheck:
    def test_interval_model_consistent(self):
        for ell in (0.5, 1.0, 2.0):
            report = class_C_check(model_closed_forms(ell).livsic)
            assert report.verdict is ClassVerdict.CONSISTENT_WITH_C
            assert report.vanishes_at_i and report.ray_growth_passed

    def test_constant_fails_at_i(self):
        report = class_C_check(constant_fn(0.5))
        assert report.verdict is ClassVerdict.FAILS_AT_I
        assert not report.vanishes_at_i

    def test_cayley_blaschke_fails_growth(self):
        # z (s(z) - 1) tends to the bounded value -2i along every ray
        probe = AnalyticFn(lambda z: (z - 1j) / (z + 1j), FnKind.GENERIC, "cayley")
        report = class_C_check(probe)
        assert report.verdict is ClassVerdict.FAILS_GROWTH
        assert report.vanishes_at_i and not report.ray_growth_passed

    def test_finite_mass_cayley_image_fails_growth(self):
        # a finite total-mass measure model gives s -> -1 at infinity, so
        # z (s(z) + 1) stays bounded along the probe rays; the membership
        # class needs unbounded measures and the heuristic must reject this
        from livcalc import livsic_from_weyl

        report = class_C_check(livsic_from_weyl(PAIR_M))
        assert report.verdict is ClassVerdict.FAILS_GROWTH
        assert report.vanishes_at_i

    def test_report_serializes_all_rays(self):
        report = class_C_check(MODEL_ONE.livsic)
        payload = to_json(report)
        assert len(payload["ray_details"]) == 16 * 3
        assert payload["verdict"] == "ConsistentWithC"
        assert all(len(d["magnitudes"]) == 4 for d in payload["ray_details"])
