import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livcalc import (
    AnalyticFn,
    BorelMeasureModel,
    FnKind,
    OutOfRange,
    PoleEncountered,
    SampledDensity,
    constant_fn,
    default_grid,
    livsic_from_weyl,
    max_modulus,
    min_imag,
    normalization_defect,
    realize_herglotz,
    reference_change_weyl,
    stieltjes_invert,
)
from livcalc import measure
from livcalc.core import INVERSION_REL_TOL
from livcalc.measure import BoundedMinimum, minimize_scalar
from livcalc.verify import reference_measures

GRID = default_grid()

ORIGIN_ATOM = BorelMeasureModel(((0.0, 1.0),))
PAIR_ATOMS = BorelMeasureModel(((1.0, 1.0), (-1.0, 1.0)))
HEAVY_ATOM = BorelMeasureModel(((1.0, 2.0),))
#: neither location lies on the 2001-point scan lattice of [-2, 2]
OFF_LATTICE_PAIR = BorelMeasureModel(((0.7003, 1.0), (-1.2345, 0.8)))
ATOM_SCHEDULE = (1e-2, 1e-3, 1e-4)
#: the reference pair, the unit atom, the off-lattice pair, a light atom
#: next to a heavy one, three mixed atoms and the heavy atom of criterion 7
PROBE_MEASURES = {
    "pair": PAIR_ATOMS,
    "unit": ORIGIN_ATOM,
    "off-lattice": OFF_LATTICE_PAIR,
    "light": BorelMeasureModel(((0.0, 1.0), (0.19, 0.05))),
    "mixed": BorelMeasureModel(((-1.37, 0.4), (0.0123, 1.5), (1.618, 0.7))),
    "heavy": HEAVY_ATOM,
}


def cauchy_density(x_lo=-20.0, x_hi=20.0, n=2001):
    xs = np.linspace(x_lo, x_hi, n)
    return SampledDensity(x_lo, x_hi, tuple((1.0 / math.pi) / (1.0 + xs**2)))


class TestModelValidation:
    def test_json_round_trip(self):
        obj = {
            "atoms": [{"location": "0.5", "weight": "1.25"}],
            "density": {"x_lo": "-20", "x_hi": "20", "h": "10",
                        "values": ["0.00079379023985982715", "0.0031515830315226802",
                                   "0.31830988618379069", "0.0031515830315226802",
                                   "0.00079379023985982715"]},
        }
        mu = BorelMeasureModel.from_json(obj)
        assert mu.atoms == ((0.5, 1.25),)
        assert mu.density.values == cauchy_density(n=5).values


class TestRealizeHerglotz:
    def test_single_atom_is_minus_reciprocal(self):
        M = realize_herglotz(ORIGIN_ATOM)
        for z in (1j, 2j, 1 + 1j, -3 + 0.5j):
            assert abs(M(z) - (-1.0 / z)) < 1e-14
        assert abs(M(1j) - 1j) < 1e-15

    def test_two_atoms_collapse(self):
        # kernel sum telescopes to 2z/(1 - z^2)
        M = realize_herglotz(PAIR_ATOMS)
        for z in (1j, 2j, 0.5 + 0.5j):
            assert abs(M(z) - 2 * z / (1 - z * z)) < 1e-14
        assert abs(M(1j) - 1j) < 1e-15

    def test_heavy_atom(self):
        # 2 * [1/(1 - z) - 1/2] = 2/(1 - z) - 1, equal to i at z = i
        M = realize_herglotz(HEAVY_ATOM)
        for z in (1j, 3j, -1 + 2j):
            assert abs(M(z) - (2.0 / (1.0 - z) - 1.0)) < 1e-14
        assert abs(M(1j) - 1j) < 1e-15

    def test_positive_imaginary_part_on_grid(self):
        for mu in (ORIGIN_ATOM, PAIR_ATOMS, HEAVY_ATOM):
            assert min_imag(realize_herglotz(mu), GRID) > 0.0

    def test_density_contribution_resolution(self):
        # at z = i the kernel 1/(x - z) - x/(1 + x^2) is i/(1 + x^2): the
        # stored Simpson lattice against adaptive quadrature of that integral
        from scipy.integrate import quad

        density = cauchy_density()
        integral, _ = quad(
            lambda x: 1.0 / (math.pi * (1.0 + x * x) ** 2), density.x_lo, density.x_hi,
            epsabs=1e-14,
        )
        M = realize_herglotz(BorelMeasureModel((), density))
        assert abs(M(1j) - 1j * integral) < 1e-12


class TestNormalizationDefect:
    def test_origin_atom(self):
        assert normalization_defect(ORIGIN_ATOM) == 0.0

    def test_pair_atoms(self):
        assert normalization_defect(PAIR_ATOMS) == 0.0

    def test_unnormalized_atom(self):
        assert abs(normalization_defect(BorelMeasureModel(((1.0, 1.0),))) - 0.5) < 1e-15

    def test_heavy_atom_is_normalized(self):
        assert normalization_defect(HEAVY_ATOM) < 1e-15


class TestLivsicFromWeyl:
    def test_single_atom_closed_form(self):
        # K(-1/z) simplifies to (1 + iz)/(1 - iz); brute-check five points
        s = livsic_from_weyl(realize_herglotz(ORIGIN_ATOM))
        for z in (1j, 2j, 1 + 1j, -2 + 0.3j, 4 + 4j):
            assert abs(s(z) - (1 + 1j * z) / (1 - 1j * z)) < 1e-14
        assert abs(s(1j)) < 1e-15

    def test_constant_probe(self):
        M = constant_fn(1j, kind=FnKind.HERGLOTZ)
        s = livsic_from_weyl(M)
        assert s(2j) == 0

    def test_two_atom_vanishes_at_i(self):
        s = livsic_from_weyl(realize_herglotz(PAIR_ATOMS))
        assert abs(s(1j)) < 1e-15

    def test_contractive_on_grid(self):
        for mu in (ORIGIN_ATOM, PAIR_ATOMS, HEAVY_ATOM):
            s = livsic_from_weyl(realize_herglotz(mu))
            assert max_modulus(s, GRID) < 1.0

    def test_bad_input_pole(self):
        fake = constant_fn(-1j, kind=FnKind.HERGLOTZ)
        with pytest.raises(PoleEncountered):
            livsic_from_weyl(fake)(1j)


class TestStieltjesInversion:
    def test_origin_atom_round_trip(self):
        result = stieltjes_invert(
            realize_herglotz(ORIGIN_ATOM), (-2.0, 2.0), (1e-2, 1e-3, 1e-4)
        )
        assert len(result.atoms) == 1
        atom = result.atoms[0]
        assert abs(atom.location) < result.scan_spacing
        assert abs(atom.weight - 1.0) < 0.02
        assert atom.residual < 1e-6

    def test_pair_leaves_no_density_and_small_residuals(self):
        # the atoms' Poisson kernels are subtracted before the density is
        # extrapolated: what is left is below 1e-7 everywhere (2.45e-9)
        mu = reference_measures()[1]
        result = stieltjes_invert(realize_herglotz(mu), (-2.0, 2.0), (1e-2, 1e-3, 1e-4))
        assert len(result.atoms) == 2
        assert max(result.density.values) < 1e-7
        # the extrapolation moves each weight by 2.5e-9 from its finest value
        for atom in result.atoms:
            assert 1e-12 <= atom.residual <= 1e-7

    @pytest.mark.parametrize("schedule", [ATOM_SCHEDULE, (1e-6, 1e-7, 1e-8),
                                          (1e-7, 1e-8, 1e-9)], ids=lambda s: f"eps{s[-1]:g}")
    @pytest.mark.parametrize("name", PROBE_MEASURES)
    def test_recovers_probe_measures(self, name, schedule):
        mu = PROBE_MEASURES[name]
        result = stieltjes_invert(realize_herglotz(mu), (-2.0, 2.0), schedule)
        assert_recovers(result, sorted(mu.atoms), INVERSION_REL_TOL)

    def test_density_round_trip(self):
        dens = cauchy_density()
        mu = BorelMeasureModel((), dens)
        result = stieltjes_invert(
            realize_herglotz(mu), (-20.0, 20.0), (0.4, 0.2, 0.1),
            n_scan=len(dens.values),
        )
        assert len(result.atoms) == 0
        xs = dens.lattice()
        truth = np.asarray(dens.values)
        recovered = np.asarray(result.density.values)
        inner = np.abs(xs) <= 15.0  # away from the window edges
        rel = np.abs(recovered[inner] - truth[inner]) / truth[inner]
        assert rel.max() < INVERSION_REL_TOL

    def test_atom_plus_density(self):
        mu = BorelMeasureModel(((0.0, 1.0),), cauchy_density())
        result = stieltjes_invert(
            realize_herglotz(mu), (-20.0, 20.0), (0.4, 0.2, 0.1), n_scan=2001
        )
        assert len(result.atoms) == 1
        assert abs(result.atoms[0].weight - 1.0) < 0.02

    def test_off_lattice_pair_round_trip(self):
        # the scan alone places each atom within half a lattice spacing
        # (1e-3); only the peak refinement brings it within 1e-6
        assert_recovers_off_lattice_pair(invert_off_lattice_pair())

    def test_off_lattice_round_trip_needs_the_refinement(self, monkeypatch):
        # planted: a "refinement" that returns the bracket midpoint, the
        # scan lattice point, without iterating
        monkeypatch.setattr(
            measure, "minimize_scalar",
            lambda func, bounds: BoundedMinimum(0.5 * (bounds[0] + bounds[1]), 1),
        )
        result = invert_off_lattice_pair()
        assert len(result.atoms) == 0
        with pytest.raises(AssertionError):
            assert_recovers_off_lattice_pair(result)

    @pytest.mark.parametrize("window", [(-math.inf, 2.0), (-2.0, math.inf), (math.nan, 2.0)])
    def test_rejects_non_finite_window(self, window):
        with pytest.raises(OutOfRange, match="^window .* must be finite"):
            stieltjes_invert(realize_herglotz(ORIGIN_ATOM), window, ATOM_SCHEDULE)


def invert_off_lattice_pair():
    return stieltjes_invert(realize_herglotz(OFF_LATTICE_PAIR), (-2.0, 2.0), ATOM_SCHEDULE)


def assert_recovers_off_lattice_pair(result):
    assert len(result.atoms) == 2
    for got, (loc, w) in zip(result.atoms, sorted(OFF_LATTICE_PAIR.atoms)):
        assert abs(got.location - loc) < 1e-6
        assert abs(got.weight - w) < INVERSION_REL_TOL * w


def assert_recovers(result, atoms, weight_rel_tol):
    assert len(result.atoms) == len(atoms)
    for got, (loc, w) in zip(result.atoms, atoms):
        assert abs(got.location - loc) < 1e-10
        assert abs(got.weight - w) < weight_rel_tol * w


def interval_weyl(ell):
    """The interval model's Weyl function coth(ell/2)*tan(ell*z/2): atoms of
    weight 2/(ell*tanh(ell/2)) at (2k + 1)*pi/ell, infinitely many."""
    scale = 1.0 / math.tanh(0.5 * ell)
    return AnalyticFn(lambda zs: scale * np.tan(0.5 * ell * zs), kind=FnKind.HERGLOTZ,
                      label=f"weyl[ell={ell}]")


class TestModelWeylMeasure:
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_recovers_six_atoms(self, ell):
        result = stieltjes_invert(
            interval_weyl(ell), (-6.0 * math.pi / ell, 6.0 * math.pi / ell), ATOM_SCHEDULE
        )
        weight = 2.0 / (ell * math.tanh(0.5 * ell))
        assert_recovers(result, [((2 * k + 1) * math.pi / ell, weight) for k in range(-3, 3)],
                        1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_recovers_rotated_atoms(self, alpha):
        # reference rotation by alpha moves the atoms to
        # (2/ell)(k*pi - arctan(cot(alpha) tanh(ell/2))) and rescales them
        ell, t = 1.0, math.tanh(0.5)
        result = stieltjes_invert(
            reference_change_weyl(interval_weyl(ell), alpha), (-6.0 * math.pi, 6.0 * math.pi),
            ATOM_SCHEDULE,
        )
        shift = math.atan(t / math.tan(alpha))
        weight = 2.0 * t / (ell * (math.sin(alpha) ** 2 + (math.cos(alpha) * t) ** 2))
        locs = [(2.0 / ell) * (k * math.pi - shift) for k in range(-2, 4)]
        assert_recovers(result, [(loc, weight) for loc in locs], 1e-10)


class TestBoundedMinimizer:
    def test_lorentzian_vertex_with_off_centre_bracket(self):
        lam, eps, w = 0.3141592653589793, 1e-4, 0.7
        refined = minimize_scalar(
            lambda x: -w * eps / ((x - lam) ** 2 + eps * eps), (lam - 3e-4, lam + 1.7e-3)
        )
        assert abs(refined.x - lam) < 1e-12
        assert refined.nfev == 6

    @pytest.mark.parametrize("func", [
        lambda x: -1.0,  # plateau: no curvature
        lambda x: 0.0,  # -1/func undefined
        lambda x: -abs(x - 0.2),  # -1/func peaks at 0.2
    ], ids=["plateau", "zero", "cusp"])
    def test_non_convex_stays_in_bounds_and_counts_calls(self, func):
        calls = []

        def counted(x):
            calls.append(x)
            return func(x)

        refined = minimize_scalar(counted, (-0.5, 1.0))
        assert -0.5 <= refined.x <= 1.0
        assert refined.nfev == len(calls) <= 6

    @pytest.mark.parametrize("bounds", [
        (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (1.0, 0.0),
    ])
    def test_rejects_non_finite_or_reversed_bounds(self, bounds):
        with pytest.raises(OutOfRange, match="^bounds .* must be finite with lo < hi"):
            minimize_scalar(lambda x: x * x, bounds)

atom_lattices = st.lists(
    st.sampled_from([round(-1.25 + 0.25 * k, 2) for k in range(11)]),
    min_size=1,
    max_size=4,
    unique=True,
)
atom_weights = st.floats(0.25, 2.5)


class TestMeasureProperties:
    @given(atom_lattices, st.data())
    @settings(max_examples=20, deadline=None)
    def test_round_trip_recovers_random_atom_models(self, locs, data):
        atoms = tuple(
            (loc, data.draw(atom_weights, label=f"w@{loc}")) for loc in locs
        )
        mu = BorelMeasureModel(atoms)
        result = stieltjes_invert(
            realize_herglotz(mu), (-2.0, 2.0), (1e-2, 1e-3, 1e-4)
        )
        assert len(result.atoms) == len(atoms)
        for got, (loc, w) in zip(result.atoms, sorted(atoms)):
            assert abs(got.location - loc) < result.scan_spacing
            assert abs(got.weight - w) < 0.02 * w

    @given(atom_lattices, st.data())
    @settings(max_examples=25, deadline=None)
    def test_normalization_defect_equals_value_gap_at_i(self, locs, data):
        atoms = tuple((loc, data.draw(atom_weights)) for loc in locs)
        mu = BorelMeasureModel(atoms)
        M = realize_herglotz(mu)
        assert abs(normalization_defect(mu) - abs(M(1j) - 1j)) < 1e-12

    @given(atom_lattices, st.data())
    @settings(max_examples=15, deadline=None)
    def test_herglotz_range_and_contractive_cayley(self, locs, data):
        atoms = tuple((loc, data.draw(atom_weights)) for loc in locs)
        M = realize_herglotz(BorelMeasureModel(atoms))
        assert min_imag(M, GRID) > 0.0
        assert max_modulus(livsic_from_weyl(M), GRID) < 1.0
