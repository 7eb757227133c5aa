import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from livcalc import (
    AnalyticFn,
    BorelMeasureModel,
    EvaluationGrid,
    FnKind,
    MoebiusMap,
    PoleEncountered,
    SampledDensity,
    TaggedCharacteristic,
    ToleranceConfig,
    add_weyl,
    characteristic_from_livsic,
    constant_fn,
    couple_livsic,
    coupling_angles,
    default_grid,
    evaluate_many,
    evaluate_on_grid,
    g_plus,
    livsic_from_weyl,
    model_closed_forms,
    multiply_characteristic,
    realize_herglotz,
    reference_change_livsic,
    reference_change_weyl,
    require_upper,
    sup_deviation,
)
from livcalc.core import (
    OVERFLOW_GUARD, complex_from_json, complex_to_json, grid_from_json, worst_of,
)
from livcalc.coupling import CouplingAngles
from livcalc.extension import cayley_probe
from livcalc.verify import CheckResult

GRID = default_grid()


def exp_fn(scale: complex) -> AnalyticFn:
    return AnalyticFn(lambda zs: np.exp(scale * zs), FnKind.GENERIC, f"exp({scale}z)")


def constructed_functions():
    """One function from each public constructor, keyed by constructor."""
    s_half = model_closed_forms(0.5).livsic
    forms = model_closed_forms(1.0)
    pair = realize_herglotz(BorelMeasureModel(((1.0, 1.0), (-1.0, 1.0))))
    xs = np.linspace(-2.0, 2.0, 401)
    with_density = realize_herglotz(
        BorelMeasureModel(((0.5, 1.0),), SampledDensity(-2.0, 2.0, tuple(np.exp(-xs * xs))))
    )
    S1 = TaggedCharacteristic(characteristic_from_livsic(s_half, 0.5), 0.5)
    S2 = TaggedCharacteristic(forms.characteristic, forms.kappa)
    return {
        "constant_fn": constant_fn(0.3 - 0.2j),
        "model_closed_forms.livsic": forms.livsic,
        "model_closed_forms.characteristic": forms.characteristic,
        "realize_herglotz.atoms": pair,
        "realize_herglotz.density": with_density,
        "livsic_from_weyl": livsic_from_weyl(with_density),
        "couple_livsic": couple_livsic(s_half, forms.livsic, coupling_angles(0.3, 0.7)),
        "add_weyl": add_weyl(pair, with_density, 0.7),
        "characteristic_from_livsic": S1.fn,
        "multiply_characteristic": multiply_characteristic(S1, S2).fn,
        "reference_change_livsic": reference_change_livsic(s_half, 0.4),
        "reference_change_weyl": reference_change_weyl(with_density, 0.4),
        "cayley_probe": cayley_probe(),
    }


CONSTRUCTED = constructed_functions()


class TestHalfPlaneValidation:
    def test_rejects_real_axis(self):
        with pytest.raises(ValueError):
            require_upper(1.0 + 0j)

    def test_rejects_lower_halfplane(self):
        with pytest.raises(ValueError):
            require_upper(1 - 2j)

    def test_accepts_upper(self):
        assert require_upper(3 + 0.5j) == 3 + 0.5j

    def test_analytic_fn_rejects_bad_point(self):
        with pytest.raises(ValueError):
            constant_fn(0.0)(-1j)


class TestEvaluationGrid:
    def test_default_grid_size_and_contains_i(self):
        assert len(GRID) == 21 * 21 + 1
        assert 1j in GRID.points

    def test_points_are_one_read_only_array(self):
        assert GRID.points.dtype == np.complex128
        with pytest.raises(ValueError):
            GRID.points[0] = 2j
        assert [type(z) for z in GRID] == [complex] * len(GRID)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EvaluationGrid(())

    def test_rejects_duplicates(self):
        # next to each other, apart, and 0.0 against -0.0 (equal values)
        for points in [
            (1j, 1j),
            (2 + 1j, 1j, 3 + 1j, 2 + 1j),
            (complex(0.0, 1.0), 2j, complex(-0.0, 1.0)),
            (complex(-0.0, 1.0), 1 + 2j, complex(0.0, 1.0), complex(-0.0, 3.0)),
        ]:
            with pytest.raises(ValueError, match="pairwise distinct"):
                EvaluationGrid(points)

    def test_accepts_points_equal_in_one_part(self):
        points = (1j, 2j, 1 + 1j, -1 + 1j, complex(-0.0, 2.5))
        assert len(EvaluationGrid(points)) == 5

    def test_rejects_lower_halfplane_point(self):
        with pytest.raises(ValueError):
            EvaluationGrid((1j, 1 - 1j))

    def test_json_round_trip(self):
        obj = {
            "points": [{"re": "0", "im": "1"}, {"re": "2", "im": "0.10000000000000001"}],
            "description": "probe",
        }
        again = grid_from_json(obj)
        assert again.points.tolist() == [1j, 2 + 0.1j]
        assert [complex_to_json(z) for z in again] == obj["points"]
        assert again.description == "probe"


#: one instance of each immutable value class, built afresh per call
RECORDS = {
    "AnalyticFn": lambda: constant_fn(0.5),
    "EvaluationGrid": lambda: EvaluationGrid((1j, 2j), "two points"),
    "CouplingAngles": lambda: CouplingAngles(0.5, 0.25),
    "TaggedCharacteristic": lambda: TaggedCharacteristic(
        constant_fn(0.5, FnKind.CHARACTERISTIC), 0.5),
    "SampledDensity": lambda: SampledDensity(-1.0, 1.0, (0.0, 1.0, 0.5)),
    "BorelMeasureModel": lambda: BorelMeasureModel(
        ((0.5, 1.0),), SampledDensity(-1.0, 1.0, (0.0, 1.0, 0.5))),
    "DeficiencyElement": lambda: g_plus(1.0),
    "MoebiusMap": MoebiusMap.cayley,
    "CheckResult": lambda: CheckResult("check", 1e-12, 1e-10),
}
COPYABLE = ["CouplingAngles", "BorelMeasureModel", "MoebiusMap", "CheckResult"]


class TestValueClasses:
    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = RECORDS[name]()
        for field in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)

    @pytest.mark.parametrize("name", ["CouplingAngles", "BorelMeasureModel", "MoebiusMap"])
    def test_equal_fields_give_equal_values_and_hashes(self, name):
        a, b = RECORDS[name](), RECORDS[name]()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != tuple(getattr(a, f) for f in type(a).__slots__)

    def test_unequal_fields_give_unequal_values(self):
        assert CouplingAngles(0.5, 0.25) != CouplingAngles(0.5, 0.125)
        assert MoebiusMap.cayley() != MoebiusMap.inverse_cayley()

    def test_grids_compare_by_identity(self):
        a, b = RECORDS["EvaluationGrid"](), RECORDS["EvaluationGrid"]()
        assert a == a and a != b and len({a, b}) == 2

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)),
    ], ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("name", COPYABLE)
    def test_copies_are_equal(self, name, round_trip):
        value = RECORDS[name]()
        again = round_trip(value)
        assert type(again) is type(value) and again == value

    def test_repr_names_the_fields(self):
        # tests/test_moebius.py seeds its mpmath test points from this repr
        assert repr(MoebiusMap.cayley()) == "MoebiusMap(a=(1+0j), b=(-0-1j), c=(1+0j), d=1j)"
        assert repr(CouplingAngles(0.5, 0.25)) == "CouplingAngles(alpha=0.5, beta=0.25)"


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.identity_tol == 1e-10
        assert cfg.quadrature_tol == 1e-8
        assert cfg.inversion_rel_tol == 0.02

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0])
    def test_rejects_out_of_range(self, bad):
        # the tolerances are pinned: no value can be passed in or set
        with pytest.raises(TypeError):
            ToleranceConfig(identity_tol=bad)
        with pytest.raises(AttributeError):
            ToleranceConfig().identity_tol = bad
        assert ToleranceConfig().identity_tol == 1e-10


class TestEvaluateOnGrid:
    def test_constant_zero(self):
        grid = EvaluationGrid((1j, 2j, 1 + 1j))
        assert evaluate_on_grid(constant_fn(0.0), grid) == [0, 0, 0]

    def test_cayley_vanishes_at_i(self):
        f = AnalyticFn(lambda z: (z - 1j) / (z + 1j), FnKind.GENERIC)
        assert evaluate_on_grid(f, EvaluationGrid((1j,))) == [0]

    def test_exponential_values(self):
        # direct evaluation: e^{i*i} = e^{-1}, e^{i*2i} = e^{-2}
        values = evaluate_on_grid(exp_fn(1j), EvaluationGrid((1j, 2j)))
        assert abs(values[0] - 0.36787944117144233) < 1e-15
        assert abs(values[1] - 0.1353352832366127) < 1e-15

    def test_pole_recorded_without_aborting(self):
        f = AnalyticFn(lambda z: 1.0 / (z - 2j), FnKind.GENERIC, "pole at 2i")
        grid = EvaluationGrid((1j, 2j, 3j))
        values = evaluate_on_grid(f, grid)
        assert isinstance(values[1], PoleEncountered)
        assert values[0] == 1j and values[2] == -1j

    def test_overflow_guard_defines_pole(self):
        f = AnalyticFn(lambda z: 1e13, FnKind.GENERIC)
        with pytest.raises(PoleEncountered):
            f(1j)


class TestPoleGuard:
    @pytest.mark.parametrize("value, pole", [
        (complex(math.nan, 0.0), True),
        (complex(0.0, math.nan), True),
        (complex(math.inf, 0.0), True),
        (complex(-math.inf, 0.0), True),
        (complex(0.0, math.inf), True),
        (complex(0.0, -math.inf), True),
        (OVERFLOW_GUARD, False),
        (-1j * OVERFLOW_GUARD, False),
        (1.000001 * OVERFLOW_GUARD, True),
        (1.000001j * OVERFLOW_GUARD, True),
    ])
    def test_value_table(self, value, pole):
        f = constant_fn(value)
        for z in (1j, np.array([1j, 2j])):
            if pole:
                with pytest.raises(PoleEncountered):
                    f(z)
            else:
                assert np.all(f(z) == value)

    def test_empty_array_gives_empty_array(self):
        values = exp_fn(1j)(np.empty(0, dtype=np.complex128))
        assert values.shape == (0,)

    def test_message_names_first_bad_point(self):
        f = AnalyticFn(lambda zs: np.where(zs.imag > 1.5, math.nan, 0.0), label="probe")
        with pytest.raises(PoleEncountered, match=r"^probe: pole at 2j$"):
            f(np.array([1j, 2j, 3j]))


class TestEvaluateMany:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTED))
    def test_point_call_is_bit_identical_to_array_call(self, name):
        f = CONSTRUCTED[name]
        zs = GRID.points
        values = evaluate_many(f, zs)
        for k, z in enumerate(GRID):
            assert f(z) == values[k], (name, z)

    def test_rejects_lower_points(self):
        with pytest.raises(ValueError):
            evaluate_many(constant_fn(0.0), np.array([1j, -1j]))


class TestSupDeviation:
    def test_identical_functions(self):
        f = exp_fn(1j)
        assert sup_deviation(f, f, GRID) == 0.0

    def test_constant_gap(self):
        assert sup_deviation(constant_fn(0.0), constant_fn(1.0), GRID) == 1.0

    def test_exponent_additivity(self):
        f = exp_fn(2j)
        g = AnalyticFn(lambda zs: np.exp(1j * zs) * np.exp(1j * zs), FnKind.GENERIC)
        assert sup_deviation(f, g, GRID) < 1e-15

    def test_pole_aborts(self):
        # the distinguished point i belongs to the default grid
        f = AnalyticFn(lambda z: 1.0 / (z - 1j), FnKind.GENERIC)
        with pytest.raises(PoleEncountered):
            sup_deviation(f, constant_fn(0.0), GRID)


disk_values = st.tuples(
    st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi)
).map(lambda rt: rt[0] * cmath.exp(1j * rt[1]))


class TestSupDeviationProperties:
    @given(disk_values, disk_values)
    def test_symmetry(self, a, b):
        f, g = constant_fn(a), constant_fn(b)
        assert sup_deviation(f, g, GRID) == sup_deviation(g, f, GRID)

    @given(disk_values, disk_values, disk_values)
    def test_triangle_inequality(self, a, b, c):
        f, g, h = constant_fn(a), constant_fn(b), constant_fn(c)
        lhs = sup_deviation(f, h, GRID)
        rhs = sup_deviation(f, g, GRID) + sup_deviation(g, h, GRID)
        assert lhs <= rhs + 1e-15


class TestWorstOf:
    def test_any_nan_gives_nan(self):
        nan = math.nan
        for deviations in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, nan],
                           [1.0, np.array([0.5, nan]), 2.0]):
            assert math.isnan(worst_of(deviations)), deviations

    def test_negative_values_clip_to_zero(self):
        assert worst_of([-1.0, np.array([-0.5, -2.0])]) == 0.0

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            worst_of(iter([]))

    def test_mix_of_floats_and_arrays_gives_the_largest_entry(self):
        assert worst_of([0.5, np.array([0.25, 3.0]), np.float64(1.0), np.array(2.0)]) == 3.0


class TestComplexJson:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_bit_stable_round_trip(self, re, im):
        z = complex(re, im)
        assert complex_from_json(complex_to_json(z)) == z
