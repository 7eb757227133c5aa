import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from livcalc import (
    AnalyticFn,
    BorelMeasureModel,
    FnKind,
    MoebiusMap,
    PoleEncountered,
    characteristic_from_livsic,
    default_grid,
    livsic_from_weyl,
    model_closed_forms,
    realize_herglotz,
    reference_change_weyl,
)
from livcalc.extension import cayley_probe

GRID = default_grid()

upper_points = st.tuples(
    st.floats(-20.0, 20.0), st.floats(0.05, 20.0)
).map(lambda p: complex(p[0], p[1]))
disk_points = st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi)).map(
    lambda rt: rt[0] * cmath.exp(1j * rt[1])
)
angles = st.floats(-math.pi, math.pi)
IDENTITY = MoebiusMap(1, 0, 0, 1)


def gap(m1, m2):
    """Equality as maps: the largest |m1(z) - m2(z)| over the default grid,
    relative once |m2(z)| exceeds 1."""
    return max(abs(m1(z) - m2(z)) / max(1.0, abs(m2(z))) for z in GRID)


class TestConstructors:
    def test_cayley_coefficients(self):
        K = MoebiusMap.cayley()
        assert (K.a, K.b, K.c, K.d) == (1, -1j, 1, 1j)

    def test_disk_automorphism_at_zero_kappa(self):
        T = MoebiusMap.disk_automorphism(0.0)
        assert (T.a, T.b, T.c, T.d) == (1, 0, 0, -1)

    def test_rotation_at_zero_is_identity(self):
        R = MoebiusMap.halfplane_rotation(0.0)
        assert (R.a, R.b, R.c, R.d) == (1, 0, 0, 1)

class TestApply:
    def test_cayley_at_i(self):
        assert MoebiusMap.cayley()(1j) == 0

    def test_cayley_at_one(self):
        # (1 - i)/(1 + i) expands to -i
        assert abs(MoebiusMap.cayley()(1.0) - (-1j)) < 1e-16

    def test_disk_automorphism_at_zero(self):
        kappa = 0.3 + 0.4j
        assert MoebiusMap.disk_automorphism(kappa)(0.0) == kappa

    def test_pole_guard(self):
        K = MoebiusMap.cayley()
        with pytest.raises(PoleEncountered):
            K(-1j)

    def test_disk_edge_is_no_pole(self):
        # determinant -2.2e-16 and |den| = 1.1e-15, yet the value is 0.818
        kappa = 1 - 2**-53
        w = kappa * (1 - 1e-15)
        T = MoebiusMap.disk_automorphism(kappa)
        with mpmath.workdps(40):
            exact = float((w - mpmath.mpf(kappa)) / (kappa * mpmath.mpf(w) - 1))
        composed = T.after(AnalyticFn(lambda zs: np.full_like(zs, w)), FnKind.GENERIC, "T(w)")
        for value in (T(w), composed(1j)):
            assert abs(value - exact) <= 2e-16 * exact


class TestCompose:
    # compositions as maps, point by point on the default grid; the disk
    # side is the Cayley image of the grid
    def test_cayley_inverse_pair(self):
        K, Kinv = MoebiusMap.cayley(), MoebiusMap.inverse_cayley()
        assert gap(lambda z: Kinv(K(z)), IDENTITY) < 1e-12
        assert gap(lambda z: K(Kinv(K(z))), K) < 1e-12

    def test_compose_convention(self):
        # after(f) is self(f(z)), not f(self(z))
        K, R = MoebiusMap.cayley(), MoebiusMap.halfplane_rotation(0.7)
        KR = K.after(AnalyticFn(R.values, FnKind.GENERIC), FnKind.GENERIC, "K o R")
        assert gap(KR, lambda z: K(R(z))) < 1e-15

    @given(disk_points)
    def test_disk_automorphism_involution_on_grid(self, kappa):
        K, T = MoebiusMap.cayley(), MoebiusMap.disk_automorphism(kappa)
        assert gap(lambda z: T(T(K(z))), K) < 1e-12

    @given(angles, angles)
    def test_rotation_angle_addition(self, a, b):
        Ra, Rb = MoebiusMap.halfplane_rotation(a), MoebiusMap.halfplane_rotation(b)
        assert gap(lambda z: Ra(Rb(z)), MoebiusMap.halfplane_rotation(a + b)) < 1e-12


class TestGeometricInvariants:
    def test_cayley_contracts_upper_halfplane(self):
        K = MoebiusMap.cayley()
        assert all(abs(K(z)) < 1.0 for z in GRID)

    @given(disk_points, disk_points)
    def test_disk_automorphism_involution_pointwise(self, kappa, w):
        T = MoebiusMap.disk_automorphism(kappa)
        assert abs(T(T(w)) - w) < 1e-12

    @given(angles, upper_points)
    def test_rotation_preserves_upper_halfplane(self, alpha, z):
        image = MoebiusMap.halfplane_rotation(alpha)(z)
        assert image.imag > 0.0

    @given(angles)
    def test_rotation_fixes_i(self, alpha):
        assert abs(MoebiusMap.halfplane_rotation(alpha)(1j) - 1j) < 1e-15


class TestEquality:
    def test_proportional_maps_equal(self):
        K = MoebiusMap.cayley()
        scaled = MoebiusMap(3j * K.a, 3j * K.b, 3j * K.c, 3j * K.d)
        assert gap(K, scaled) < 1e-15

    def test_different_maps_not_equal(self):
        assert gap(MoebiusMap.cayley(), IDENTITY) > 0.1


def _bridges():
    """The library's Cayley, disk-automorphism and rotation routes, each as
    (function-level bridge, its map, the inner function or None for z)."""
    s = model_closed_forms(1.0).livsic
    M = realize_herglotz(BorelMeasureModel(((1.0, 1.0), (-1.0, 1.0))))
    cases = [
        pytest.param(characteristic_from_livsic(s, kappa), MoebiusMap.disk_automorphism(kappa),
                     s, id=f"characteristic_from_livsic[{kappa}]")
        for kappa in (0.5 + 0.3j, -0.6j, 0.9)
    ]
    cases.append(pytest.param(livsic_from_weyl(M), MoebiusMap.cayley(), M, id="livsic_from_weyl"))
    cases += [
        pytest.param(reference_change_weyl(M, alpha), MoebiusMap.halfplane_rotation(alpha), M,
                     id=f"reference_change_weyl[{alpha}]")
        for alpha in (0.0, 0.4, 2.5)
    ]
    cases.append(pytest.param(cayley_probe(), MoebiusMap.cayley(), None, id="cayley_probe"))
    return cases


@pytest.mark.parametrize("bridge,moebius,inner", _bridges())
def test_bridge_matches_scalar_reference(bridge, moebius, inner):
    # the array route of each bridge against the scalar MoebiusMap.__call__
    values = bridge(GRID.points)
    for k, z in enumerate(GRID):
        ref = moebius(z if inner is None else inner(z))
        assert abs(values[k] - ref) <= 1e-15 * max(1.0, abs(ref)), z


def _seeded_points(moebius, upper):
    """300 seeded points: in the upper half-plane with |Re z| up to 1e4 and
    Im z from 1e-8 to 1e2, or in the disk |w| < 0.999 with the distance to
    its edge log-uniform."""
    rng = random.Random(repr(moebius))
    if upper:
        return [complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 4.0),
                        10.0 ** rng.uniform(-8.0, 2.0)) for _ in range(300)]
    return [cmath.rect(0.999 * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0)),
                       rng.uniform(0.0, 2.0 * math.pi)) for _ in range(300)]


def _array_maps():
    """(map, whether it acts on the half-plane) for each map family."""
    cases = [pytest.param(MoebiusMap.cayley(), True, id="cayley"),
             pytest.param(MoebiusMap.inverse_cayley(), False, id="inverse_cayley")]
    cases += [pytest.param(MoebiusMap.disk_automorphism(kappa), False,
                           id=f"disk_automorphism[{kappa}]")
              for kappa in (0.0, 0.5, cmath.rect(0.95, 1.0), -0.6j, 0.999,
                            1 - 2**-53, cmath.rect(1 - 2**-53, math.pi / 3))]
    cases += [pytest.param(MoebiusMap.halfplane_rotation(alpha), True,
                           id=f"halfplane_rotation[{alpha}]")
              for alpha in (0.3, 1.0, 2.5)]
    return cases


@pytest.mark.parametrize("moebius,upper", _array_maps())
def test_array_map_against_mpmath(moebius, upper):
    # the rounding of the numerator and the denominator, each relative to
    # the sizes of its terms, carried through the quotient
    points = _seeded_points(moebius, upper)
    values = moebius.values(np.array(points))
    a, b, c, d = (abs(coef) for coef in (moebius.a, moebius.b, moebius.c, moebius.d))
    with mpmath.workdps(40):
        A, B, C, D = (mpmath.mpc(coef) for coef in (moebius.a, moebius.b, moebius.c, moebius.d))
        for z, w in zip(points, values):
            den = C * z + D
            exact = complex((A * z + B) / den)
            bound = 8 * 2.0**-53 * (a * abs(z) + b + abs(exact) * (c * abs(z) + d)) / abs(den)
            assert abs(w - exact) <= bound, z
