import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livcalc import (
    AnalyticFn,
    BorelMeasureModel,
    CouplingAngles,
    FnKind,
    PoleEncountered,
    TaggedCharacteristic,
    add_weyl,
    characteristic_from_livsic,
    constant_fn,
    couple_livsic,
    coupling_angles,
    default_grid,
    evaluate_many,
    extract_kappa,
    general_k_identity_defect,
    max_modulus,
    min_imag,
    model_closed_forms,
    multiply_characteristic,
    realize_herglotz,
    sup_deviation,
    verify_class_properties,
)
from livcalc.core import IDENTITY_TOL
from livcalc.coupling import _CONVEXITY_ANGLES, convex_sum, convexity_defects
from livcalc.verify import bundled_corpus, reference_measures

GRID = default_grid()
S_HALF = model_closed_forms(0.5).livsic
S_ONE = model_closed_forms(1.0).livsic
M_ORIGIN = realize_herglotz(BorelMeasureModel(((0.0, 1.0),)))
M_PAIR = realize_herglotz(BorelMeasureModel(((1.0, 1.0), (-1.0, 1.0))))

kappa_range = st.floats(0.0, 0.95, exclude_max=True)


class TestCouplingAngles:
    def test_both_zero(self):
        ang = coupling_angles(0.0, 0.0)
        assert ang.alpha == math.pi / 2
        assert ang.beta == 0.0

    def test_half_half(self):
        # sqrt((1-1/4)/(1-1/4)) = 1, so tan(alpha) = 2 and tan(beta) = 0.5
        ang = coupling_angles(0.5, 0.5)
        assert abs(ang.alpha - 1.1071487177940904) < 1e-15
        assert abs(ang.beta - 0.4636476090008061) < 1e-15
        assert abs(math.sin(ang.beta) - 0.5 * math.sin(ang.alpha)) < 1e-15

    def test_degenerate_branch(self):
        ang = coupling_angles(0.6, 0.0)
        assert ang.alpha == math.pi / 2
        assert abs(ang.beta - 0.6435011087932844) < 1e-15
        assert abs(math.sin(ang.beta) - 0.6) < 1e-15
        assert abs(math.cos(ang.beta) - 0.8) < 1e-15

    def test_angle_consistency_sweep(self):
        # defining relations hold to 1e-14 across the whole kappa lattice
        worst = 0.0
        for k1 in np.arange(0.0, 0.95, 0.1):
            for k2 in np.arange(0.0, 0.95, 0.1):
                ang = coupling_angles(k1, k2)
                worst = max(worst, abs(math.sin(ang.beta) - k1 * math.sin(ang.alpha)))
                if k2 == 0.0:
                    worst = max(worst, abs(math.cos(ang.beta) - math.sqrt(1 - k1 * k1)))
                else:
                    worst = max(worst, abs(math.cos(ang.beta) - math.cos(ang.alpha) / k2))
                worst = max(
                    worst,
                    abs(math.sin(ang.beta) ** 2 + math.cos(ang.beta) ** 2 - 1.0),
                )
            # near kappa2 = 0, where cos(alpha)/kappa2 magnifies the rounding
            # of alpha, the relation is checked as cos(alpha) = kappa2 cos(beta)
            for k2 in (1e-300, 1e-13, 1e-12, 1e-11):
                ang = coupling_angles(k1, k2)
                worst = max(worst, abs(math.sin(ang.beta) - k1 * math.sin(ang.alpha)),
                            abs(math.cos(ang.alpha) - k2 * math.cos(ang.beta)))
        assert worst < 1e-14

    @given(kappa_range, kappa_range)
    def test_angle_consistency_property(self, k1, k2):
        ang = coupling_angles(k1, k2)
        assert abs(math.sin(ang.beta) - k1 * math.sin(ang.alpha)) < 1e-14

    def test_threshold_branch_is_a_continuous_limit(self):
        # the parametrization is continuous as kappa2 -> 0+, so the coupling
        # at a tiny kappa2 agrees with the one at kappa2 = 0
        near = coupling_angles(0.5, 1e-11)
        degenerate = coupling_angles(0.5, 0.0)
        coupled_near = couple_livsic(S_HALF, S_ONE, near)
        coupled_zero = couple_livsic(S_HALF, S_ONE, degenerate)
        assert sup_deviation(coupled_near, coupled_zero, GRID) < 1e-8


class TestCoupleLivsic:
    def test_output_vanishes_at_i(self):
        for k1, k2 in ((0.3, 0.7), (0.0, 0.4), (0.5, 0.0)):
            coupled = couple_livsic(S_HALF, S_ONE, coupling_angles(k1, k2))
            assert abs(coupled(1j)) < 1e-14

    def test_output_contractive(self):
        coupled = couple_livsic(S_HALF, S_ONE, coupling_angles(0.25, 0.75))
        assert max_modulus(coupled, GRID) <= 1.0 + 1e-12

    def test_point_and_array_calls_agree_on_poles(self):
        # the denominator 1 - s2(i) = 5e-15 is below the 1e-14 pole threshold
        coupled = couple_livsic(
            constant_fn(0.5, FnKind.LIVSIC),
            constant_fn(1 - 5e-15, FnKind.LIVSIC),
            CouplingAngles(0.0, 0.0),
        )
        with pytest.raises(PoleEncountered):
            coupled(1j)
        with pytest.raises(PoleEncountered):
            evaluate_many(coupled, [1j])


class TestGeneralKIdentity:
    def test_k_zero_specializes_to_coupling_formula(self):
        ang = coupling_angles(0.5, 0.5)
        assert general_k_identity_defect(0.0, S_HALF, S_ONE, ang, GRID) < 1e-12

    def test_midrange_k(self):
        ang = coupling_angles(0.5, 0.5)
        assert general_k_identity_defect(0.37, S_HALF, S_ONE, ang, GRID) < 1e-10

    def test_matched_k_agrees_with_product(self):
        k1, k2 = 0.5, 0.5
        ang = coupling_angles(k1, k2)
        k = k1 * k2
        assert general_k_identity_defect(k, S_HALF, S_ONE, ang, GRID) < 1e-10
        coupled = couple_livsic(S_HALF, S_ONE, ang)
        lhs = AnalyticFn(
            lambda z: (coupled(z) - k) / (k * coupled(z) - 1.0), FnKind.GENERIC
        )
        t1 = TaggedCharacteristic(characteristic_from_livsic(S_HALF, k1), k1)
        t2 = TaggedCharacteristic(characteristic_from_livsic(S_ONE, k2), k2)
        product = multiply_characteristic(t1, t2)
        assert sup_deviation(lhs, product.fn, GRID) < 1e-10

    def test_vanishing_right_denominator_is_a_pole(self):
        # at k = 0 and cc = 1 the right side's denominator a1 s2 - 1 (and the
        # coupling's 1 - s2) is 5e-15 in modulus, below the 1e-14 floor: the
        # AnalyticFn guard raises, as in any other sweep
        with pytest.raises(PoleEncountered):
            general_k_identity_defect(
                0.0,
                constant_fn(0.5, FnKind.LIVSIC),
                constant_fn(1 - 5e-15, FnKind.LIVSIC),
                CouplingAngles(0.0, 0.0),
                GRID,
            )

    @given(st.floats(0.0, 0.95, exclude_max=True), kappa_range, kappa_range)
    @settings(max_examples=15, deadline=None)
    def test_identity_holds_for_any_angles(self, k, k1, k2):
        # the identity is algebraic in (s1, s2, alpha, beta, k); mismatched
        # angle sources must still satisfy it
        ang = coupling_angles(k1, k2)
        assert general_k_identity_defect(k, S_HALF, S_ONE, ang, GRID) < 1e-10


class TestAddWeyl:
    def test_alpha_zero_returns_first(self):
        combined = add_weyl(M_ORIGIN, M_PAIR, 0.0)
        assert sup_deviation(combined, M_ORIGIN, GRID) < 1e-15

    def test_alpha_half_pi_returns_second(self):
        combined = add_weyl(M_ORIGIN, M_PAIR, math.pi / 2)
        assert sup_deviation(combined, M_PAIR, GRID) < 1e-15

    def test_quarter_pi_average_normalized(self):
        combined = add_weyl(M_ORIGIN, M_PAIR, math.pi / 4)
        assert abs(combined(1j) - 1j) < 1e-15
        half_sum = AnalyticFn(
            lambda z: 0.5 * (M_ORIGIN(z) + M_PAIR(z)), FnKind.HERGLOTZ
        )
        assert sup_deviation(combined, half_sum, GRID) < 1e-14

    def test_preserves_herglotz_range(self):
        for alpha in (0.0, 0.3, 1.0, math.pi / 2):
            assert min_imag(add_weyl(M_ORIGIN, M_PAIR, alpha), GRID) > 0.0

    def test_lazy_sum_is_the_swept_sum(self):
        # add_weyl and convexity_defects apply the one convex_sum formula, so
        # the lazy sum and the sum of the two leaf sweeps agree bit for bit
        M1, M2 = (realize_herglotz(mu) for mu in reference_measures())
        zs = np.append(GRID.points, 1j)
        for alpha in _CONVEXITY_ANGLES:
            v = add_weyl(M1, M2, alpha)(zs)
            assert np.array_equal(v, convex_sum(alpha, M1(zs), M2(zs))), alpha
            assert convexity_defects(M1, M2, (alpha,), GRID) == (
                abs(v[-1] - 1j), -np.min(v[:-1].imag)), alpha


class TestTaggedCharacteristic:
    def test_consistent_tag_accepted(self):
        TaggedCharacteristic(characteristic_from_livsic(S_ONE, 0.5), 0.5)

    def test_tag_defect_is_the_distance_at_i(self):
        assert TaggedCharacteristic(characteristic_from_livsic(S_ONE, 0.5), 0.5).tag_defect == 0.0
        probe = constant_fn(0.5, kind=FnKind.CHARACTERISTIC)
        tagged = TaggedCharacteristic(probe, 0.5 + 1e-12)
        assert tagged.tag_defect == abs(probe(1j) - (0.5 + 1e-12)) > 0.0


class TestMultiplyCharacteristic:
    def test_exponential_tags_multiply(self):
        forms = model_closed_forms(1.0)
        t = TaggedCharacteristic(forms.characteristic, forms.kappa)
        product = multiply_characteristic(t, t)
        # exponent additivity: e^{iz} * e^{iz} = e^{2iz}
        double = model_closed_forms(2.0)
        assert sup_deviation(product.fn, double.characteristic, GRID) < 1e-15
        assert abs(product.kappa - 0.1353352832366127) < 1e-16

    def test_vanishing_factor_produces_vanishing_product(self):
        t1 = TaggedCharacteristic(characteristic_from_livsic(S_ONE, 0.0), 0.0)
        t2 = TaggedCharacteristic(characteristic_from_livsic(S_HALF, 0.5), 0.5)
        product = multiply_characteristic(t1, t2)
        assert product.kappa == 0.0
        assert abs(product.fn(1j)) < 1e-15

    def test_probe_tags(self):
        t1 = TaggedCharacteristic(constant_fn(0.5, kind=FnKind.CHARACTERISTIC), 0.5)
        t2 = TaggedCharacteristic(constant_fn(0.3, kind=FnKind.CHARACTERISTIC), 0.3)
        product = multiply_characteristic(t1, t2)
        assert abs(product.kappa - 0.15) < 1e-16
        assert abs(product.fn(1j) - 0.15) < 1e-12


class TestMultiplicationChain:
    def test_kappa_modulus_multiplicative(self):
        t1 = TaggedCharacteristic(characteristic_from_livsic(S_ONE, 0.5j), 0.5j)
        t2 = TaggedCharacteristic(characteristic_from_livsic(S_HALF, -0.3), -0.3)
        product = multiply_characteristic(t1, t2)
        assert abs(abs(extract_kappa(product.fn)) - 0.15) < 1e-12

    @pytest.mark.parametrize("k1,k2", [(0.999, 0.999), (0.999, 0.0), (0.0, 0.999)])
    def test_chain_stable_near_unit_parameters(self, k1, k2):
        ang = coupling_angles(k1, k2)
        coupled = couple_livsic(S_HALF, S_ONE, ang)
        left = characteristic_from_livsic(coupled, k1 * k2)
        t1 = TaggedCharacteristic(characteristic_from_livsic(S_HALF, k1), k1)
        t2 = TaggedCharacteristic(characteristic_from_livsic(S_ONE, k2), k2)
        right = multiply_characteristic(t1, t2)
        assert sup_deviation(left, right.fn, GRID) < 1e-12

    def test_unit_interval_pair_with_native_kappas(self):
        # both factors are the unit-length model, coupled at its own
        # parameter e^{-1}; the chained characteristic must equal e^{2iz}
        k = math.exp(-1.0)
        ang = coupling_angles(k, k)
        coupled = couple_livsic(S_ONE, S_ONE, ang)
        left = characteristic_from_livsic(coupled, k * k)
        t = TaggedCharacteristic(characteristic_from_livsic(S_ONE, k), k)
        right = multiply_characteristic(t, t)
        assert sup_deviation(left, right.fn, GRID) < 1e-10
        double = model_closed_forms(2.0).characteristic
        assert sup_deviation(right.fn, double, GRID) < 1e-14
        assert sup_deviation(left, double, GRID) < 1e-10


class TestVerifyClassProperties:
    def test_bundled_corpus_passes_all(self):
        laws = verify_class_properties(bundled_corpus(), GRID)
        assert [name for name, _ in laws] == [
            "herglotz-convexity", "characteristic-multiplication", "vanishing-ideal",
            "livsic-multiplication",
        ]
        assert all(worst < IDENTITY_TOL for _, worst in laws)
