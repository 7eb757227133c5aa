import cmath
import math
import os
import subprocess
import sys

import pytest
from scipy.integrate import quad

from livcalc import (
    FnKind,
    Interval,
    QuadratureFailed,
    ToleranceConfig,
    default_grid,
    g_minus,
    g_plus,
    g_z,
    model_closed_forms,
    model_livsic_quadrature,
    split_interval_check,
    sup_deviation,
)
from livcalc import oracle

GRID = default_grid()
CFG = ToleranceConfig()


class TestInterval:
    def test_length(self):
        assert Interval(-1.0, 2.5).length == 3.5

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)

    def test_translation_invariance_via_length(self):
        # the closed forms see only |b - a|
        delta = Interval(3.0, 4.0)
        forms = model_closed_forms(delta.length)
        assert forms.kappa == math.exp(-1.0)


class TestClosedForms:
    def test_vanishes_at_i(self):
        for ell in (0.5, 1.0, 2.0):
            assert model_closed_forms(ell).livsic(1j) == 0.0

    def test_kappa_and_characteristic_at_i(self):
        forms = model_closed_forms(1.0)
        assert abs(forms.kappa - 0.36787944117144233) < 1e-16
        assert abs(forms.characteristic(1j) - 0.36787944117144233) < 1e-16

    def test_value_at_2i(self):
        # direct substitution: (e^{-2} - e^{-1}) / (e^{-3} - 1)
        expected = (math.exp(-2) - math.exp(-1)) / (math.exp(-3) - 1.0)
        assert abs(expected - 0.24472847105479767) < 1e-16
        assert abs(model_closed_forms(1.0).livsic(2j) - expected) < 1e-16

    def test_disk_automorphism_relation(self):
        # S = (s - kappa)/(kappa s - 1) pointwise, kappa real here
        for ell in (0.5, 1.0, 2.0):
            forms = model_closed_forms(ell)
            worst = 0.0
            for z in GRID:
                s = forms.livsic(z)
                worst = max(
                    worst,
                    abs((s - forms.kappa) / (forms.kappa * s - 1.0) - forms.characteristic(z)),
                )
            assert worst < 1e-14

    def test_kinds(self):
        forms = model_closed_forms(1.0)
        assert forms.livsic.kind is FnKind.LIVSIC
        assert forms.characteristic.kind is FnKind.CHARACTERISTIC

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            model_closed_forms(0.0)


class TestDeficiencyElements:
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0, 5.0])
    def test_unit_norms(self, ell):
        for elem in (g_plus(ell), g_minus(ell)):
            norm_sq, err = quad(lambda x: abs(elem(x)) ** 2, 0.0, ell)
            assert err < 1e-12
            assert abs(math.sqrt(norm_sq) - 1.0) < 1e-10

    def test_g_z_values(self):
        elem = g_z(1.0, 2 + 1j)
        assert abs(elem(0.0) - 1.0) < 1e-16
        assert abs(elem(0.5) - cmath.exp(-1j * (2 + 1j) * 0.5)) < 1e-16

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            g_plus(1.0)(1.5)

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_dissipative_boundary_relation(self, ell):
        gp, gm = g_plus(ell), g_minus(ell)
        assert abs(gp(0.0) - math.exp(-ell) * gm(0.0)) < 1e-12

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_antiperiodic_difference(self, ell):
        gp, gm = g_plus(ell), g_minus(ell)
        assert abs((gp(0.0) - gm(0.0)) + (gp(ell) - gm(ell))) < 1e-12


class TestQuadratureOracle:
    def test_value_at_i(self):
        assert abs(model_livsic_quadrature(1.0, 1j)) < 1e-10

    def test_value_at_2i(self):
        assert abs(model_livsic_quadrature(1.0, 2j) - 0.24472847105479767) < 1e-8

    def test_off_axis_point(self):
        closed = model_closed_forms(2.0).livsic
        assert abs(model_livsic_quadrature(2.0, 1 + 1j) - closed(1 + 1j)) < 1e-8

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_agreement_on_grid(self, ell):
        closed = model_closed_forms(ell).livsic
        worst = max(
            abs(model_livsic_quadrature(ell, z, CFG) - closed(z)) for z in GRID
        )
        assert worst < CFG.quadrature_tol

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_agreement_on_grid_to_roundoff(self, ell):
        closed = model_closed_forms(ell).livsic
        worst = max(
            abs(model_livsic_quadrature(ell, z, CFG) - closed(z)) for z in GRID
        )
        assert worst < 1e-12

    def test_large_real_part(self):
        # the integrands turn through 1e4 radians on [0, 1]: about 5000 panels
        z = 1e4 + 1j
        closed = model_closed_forms(1.0).livsic
        assert abs(model_livsic_quadrature(1.0, z, CFG) - closed(z)) < CFG.quadrature_tol

    def test_bit_identical_across_calls_and_processes(self):
        points = (2j, 3.0 + 1.5j, -4.5 + 0.1j, 1e4 + 1j)

        def bits(values):
            return [(v.real.hex(), v.imag.hex()) for v in values]

        oracle._panel_rule.cache_clear()
        first = bits(model_livsic_quadrature(1.0, z) for z in points)
        repeat = bits(model_livsic_quadrature(1.0, z) for z in points)
        assert oracle._panel_rule.cache_info().hits >= len(points)
        script = (
            "from livcalc import model_livsic_quadrature as q\n"
            f"print([(v.real.hex(), v.imag.hex()) for v in (q(1.0, z) for z in {points!r})])\n"
        )
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        fresh = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert first == repeat
        assert fresh.stdout.strip() == repr(first)

    def test_budget_exhaustion(self):
        # an enormous frequency needs far more panels than the 2^16 budget
        with pytest.raises(QuadratureFailed):
            model_livsic_quadrature(2.0, 1e7 + 0.1j)

    def test_rejects_lower_halfplane(self):
        with pytest.raises(ValueError):
            model_livsic_quadrature(1.0, -1j)

    def test_normalizer_past_expm1_overflow(self):
        # e^{2 ell} - 1 overflows a double from ell ~ 355 on
        closed = model_closed_forms(400.0).livsic
        assert abs(model_livsic_quadrature(400.0, 0.5j) - closed(0.5j)) < CFG.quadrature_tol


class TestSplitInterval:
    def test_half_split(self):
        assert split_interval_check(2.0, 0.5, GRID) < 1e-15

    def test_quarter_split(self):
        assert split_interval_check(1.0, 0.25, GRID) < 1e-14

    def test_degenerate_split(self):
        assert split_interval_check(3.0, 0.999, GRID) < 1e-14

    def test_product_tag(self):
        # the split confirms kappa = e^{-l1} e^{-l2} = e^{-l} internally;
        # recompute the product here as an explicit check
        for ell, gamma in ((2.0, 0.5), (1.0, 0.25)):
            ell1 = gamma * ell
            assert abs(
                math.exp(-ell1) * math.exp(-(ell - ell1)) - math.exp(-ell)
            ) < 1e-14

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            split_interval_check(1.0, 1.0, GRID)
