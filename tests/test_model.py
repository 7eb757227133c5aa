import math
import os
import random
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from livcalc import (
    FnKind,
    OutOfRange,
    default_grid,
    g_minus,
    g_plus,
    model_closed_forms,
    model_livsic_quadrature,
    split_interval_check,
)
from livcalc import oracle, verify
from livcalc.core import QUADRATURE_TOL

GRID = default_grid()


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
        assert abs(model_closed_forms(1.0).characteristic(2j) - math.exp(-2)) < 1e-16

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

    @pytest.mark.parametrize(
        "ell", [1e-300, 1e-8, 1e-3, 0.01, 0.5, 1.0, 5.0, 50.0, 700.0, 1e3]
    )
    def test_livsic_against_mpmath(self, ell):
        # the phase of e^{i ell z} is only as accurate as ell |z| units of
        # roundoff, so the bound scales with it (and is absolute, not
        # relative to |s|)
        rng = random.Random(f"closed-form-{ell}")
        points = [
            complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 4.0),
                    10.0 ** rng.uniform(-8.0, 2.0))
            for _ in range(200)
        ]
        values = model_closed_forms(ell).livsic(np.array(points))
        with mpmath.workdps(40):
            ell_mp = mpmath.mpf(ell)
            for z, s in zip(points, values):
                iz = 1j * ell_mp * mpmath.mpc(z)
                exact = (mpmath.expm1(iz) - mpmath.expm1(-ell_mp)) / mpmath.expm1(iz - ell_mp)
                assert abs(s - complex(exact)) <= 32 * 2.0**-53 * (1.0 + ell * abs(z)), z

    def test_kinds(self):
        forms = model_closed_forms(1.0)
        assert forms.livsic.kind is FnKind.LIVSIC
        assert forms.characteristic.kind is FnKind.CHARACTERISTIC

class TestDeficiencyElements:
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0, 5.0])
    def test_unit_norms(self, ell):
        for elem in (g_plus(ell), g_minus(ell)):
            norm_sq, err = quad(lambda x: abs(elem(x)) ** 2, 0.0, ell)
            assert err < 1e-12
            assert abs(math.sqrt(norm_sq) - 1.0) < 1e-10

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0, 400.0, 1000.0])
    def test_dissipative_boundary_relation(self, ell):
        gp, gm = g_plus(ell), g_minus(ell)
        assert abs(gp(0.0) - math.exp(-ell) * gm(0.0)) < 1e-12

    @pytest.mark.parametrize("ell", [400.0, 1000.0])
    def test_past_expm1_overflow(self, ell):
        # e^{2 ell} - 1 overflows a double from ell ~ 355 on, e^ell from ~ 709
        gp = g_plus(ell)
        assert gp(ell) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert verify.norm_defect([gp, g_minus(ell)]) < 1e-10

    def test_point_call_is_the_array_call(self):
        # bit for bit, over the norm check's nodes and at both ends
        for ell in (0.5, 1.0, 2.0, 5.0, 400.0, 1000.0):
            panels = max(1, math.ceil(2.0 * ell / oracle.PANEL_SPAN))
            xs = np.append(ell * oracle.composite_rule(panels)[0], (0.0, ell))
            for elem in (g_plus(ell), g_minus(ell)):
                assert np.array([elem(x) for x in xs]).tobytes() == elem(xs).tobytes(), ell


class TestQuadratureOracle:
    def test_value_at_i(self):
        assert abs(model_livsic_quadrature(1.0, 1j)) < 1e-10

    def test_value_at_2i(self):
        assert abs(model_livsic_quadrature(1.0, 2j) - 0.24472847105479767) < 1e-12

    def test_off_axis_point(self):
        closed = model_closed_forms(2.0).livsic
        assert abs(model_livsic_quadrature(2.0, 1 + 1j) - closed(1 + 1j)) < 1e-8

    def test_large_real_part(self):
        # the integrands turn through 1e4 radians on [0, 1]: about 1250 panels
        z = 1e4 + 1j
        closed = model_closed_forms(1.0).livsic
        assert abs(model_livsic_quadrature(1.0, z) - closed(z)) < QUADRATURE_TOL

    @pytest.mark.parametrize("ell", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_length(self, ell):
        with pytest.raises(OutOfRange, match="^interval length must be finite and positive"):
            model_livsic_quadrature(ell, 1j)

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

    def test_legendre_table_is_leggauss(self):
        from numpy.polynomial.legendre import leggauss

        t, w = oracle._legendre()
        expected_t, expected_w = leggauss(oracle.GAUSS_POINTS)
        assert t.tobytes() == expected_t.tobytes()
        assert w.tobytes() == expected_w.tobytes()

    @pytest.mark.parametrize("ell", [100.0, 355.0, 700.0, 1000.0])
    def test_large_length_against_mpmath(self, ell):
        # e^{ell} and e^{2 ell} leave the double range from ell ~ 355 and
        # ~ 709 on; the oracle never forms either
        points = [complex(x, y) for x in (0.0, 0.5, -3.0) for y in (1e-8, 1e-3, 0.1, 1.0, 10.0)]
        points = [z for z in points if abs(z + 1j) * ell < 1e4]  # inside the node budget
        with mpmath.workdps(40):
            ell_mp = mpmath.mpf(ell)

            def reference(z):
                iz = 1j * ell_mp * mpmath.mpc(z)
                return complex((mpmath.expm1(iz) - mpmath.expm1(-ell_mp)) / mpmath.expm1(iz - ell_mp))

            worst = max(abs(model_livsic_quadrature(ell, z) - reference(z)) for z in points)
        oracle._panel_rule.cache_clear()  # the rules at ell = 1e3 take megabytes each
        assert worst < QUADRATURE_TOL

    def test_normalizer_past_expm1_overflow(self):
        # e^{2 ell} - 1 overflows a double from ell ~ 355 on
        closed = model_closed_forms(400.0).livsic
        assert abs(model_livsic_quadrature(400.0, 0.5j) - closed(0.5j)) < QUADRATURE_TOL


class TestSplitInterval:
    def test_half_split(self):
        assert split_interval_check(2.0, 0.5, GRID) < 1e-15
