"""Planted defects: each row patches one defect into the program, runs
``livcalc verify-all`` and names exactly the checks that must fail, each with
bounds on its worst deviation (a NaN or an exception fails a check too)."""

import json
import math

import numpy as np
import pytest

from livcalc import MoebiusMap, _kernels, cli, coupling, extension, measure, oracle, verify
from livcalc import model as model_mod
from livcalc.core import FnKind
from livcalc.coupling import CouplingAngles, TaggedCharacteristic

# the unpatched functions, taken before any row patches them
closed_forms, normalizer = model_mod.model_closed_forms, model_mod._normalizer
angles, trig = coupling.coupling_angles, CouplingAngles.trig
moebius_values, panel_rule = MoebiusMap.values, oracle._panel_rule
automorphism = MoebiusMap.disk_automorphism
herglotz_eval, rotate = _kernels.herglotz_eval, verify.reference_change_livsic
multiply, corpus = coupling.multiply_characteristic, verify.bundled_corpus
minimize, extrapolate = measure.minimize_scalar, measure._extrapolate_to_zero

INF, NAN = (math.inf, math.inf), (math.nan, math.nan)


def fails(bounds, *checks):
    """{suite/check: (lo, hi)}: lo <= worst <= hi, or worst nan for NAN."""
    return dict.fromkeys(checks, bounds)


def plus_columns_times(factor):
    # the weights of J_+, the integral against e^{ell (t - 1)}, times factor
    def rule(ell, m):
        nodes, weights = panel_rule(ell, m)
        return nodes, weights * [1.0, 1.0, factor, factor]
    return rule


def nan_at_first_point(self, w):
    # every disk automorphism with kappa != 0, over any array of points
    values = moebius_values(self, w)
    if np.ndim(values) and self.b != 0 and (self.a, self.d) == (1, -1):
        values.flat[0] = math.nan
    return values


def conjugated_values(self, w):
    # the quotient of MoebiusMap.values with conj(b) for b
    with np.errstate(divide="ignore", invalid="ignore"):
        return (self.a * w + np.conj(self.b)) / (self.c * w + self.d)


def mistagged_forms(ell):
    # the closed forms with the parameter tag off by 1e-6
    forms = closed_forms(ell)
    return model_mod.ModelFunctions(
        forms.livsic, forms.characteristic, math.exp(-ell) * (1 + 1e-6))


def refined_to_bracket_edge(func, bounds):
    # the refinement's evaluations, but its point left at the bracket's lower end
    return measure.BoundedMinimum(bounds[0], minimize(func, bounds).nfev)


def g_plus_without_decay(ell):
    # e^x for e^{x - ell}: g_+ grows by e^ell and loses its unit norm
    c = normalizer(ell)
    return model_mod.DeficiencyElement(ell, lambda xs: c * np.exp(xs), f"g_plus[ell={ell}]")


def nudged_automorphism(cls, kappa):
    # d = -(1 + 1e-11): the map is no longer an involution of the disk
    m = automorphism(kappa)
    return cls(m.a, m.b, m.c, m.d * (1 + 1e-11))


def nudged_rotation(cls, alpha):
    # d off by 1e-7: the rotation no longer fixes i
    ca, sa = math.cos(alpha), math.sin(alpha)
    return cls(ca, -sa, sa, ca * 1.0000001)


def flipped_shift(locs, weights, dens_x, dens_w, zs):
    # sum_j w_j [1/(l_j - z) + l_j/(1 + l_j^2)]: M(i) = i no longer follows
    x, w = np.append(locs, dens_x), np.append(weights, dens_w)
    return herglotz_eval(locs, weights, dens_x, dens_w, zs) + 2.0 * np.sum(w * x / (1.0 + x * x))


#: (id, [(owner, attribute, planted value)], the failing checks with bounds)
ROWS = [
    # a parameter tag off by 1e-6: the split couples its parts at the wrong angles
    ("broken-tag", [(model_mod, "model_closed_forms", mistagged_forms)],
     fails((1e-14, 1e-3), "model/interval-split")),
    # the coupling theorem holds for (e^{-ell1}, e^{-ell2}) in this order
    ("swapped-coupling-parameters", [(model_mod, "coupling_angles", lambda k, q: angles(q, k))],
     fails((1.0, 2.0), "model/interval-split")),
    # a negated length, which the closed forms reject, fails every check that uses them
    ("error-in-shared-input", [(model_mod, "model_closed_forms", lambda ell: closed_forms(-ell))],
     fails(INF, "core/self-deviation-zero", "core/deviation-symmetry", "core/deviation-triangle",
           "core/livsic-kind-contractive", "extension/involution-and-kappa-extraction",
           "extension/reference-change-laws", "extension/unimodular-closure",
           "extension/class-membership-verdicts", "coupling/degenerate-angle-collapse",
           "coupling/multiplication-chain", "coupling/kappa-multiplicativity",
           "coupling/class-preservation-at-i", "coupling/class-properties(i-iv)",
           "model/oracle-vs-closed-form", "model/interval-split")),
    # the norm and the boundary values of g_+ both grow by e^ell
    ("g-plus-without-decay", [(model_mod, "g_plus", g_plus_without_decay)],
     fails((1.0, 1e3), "model/defect-element-norms", "model/boundary-relations")),
    # g_+ and g_- share the normalizer, so the boundary relations still hold
    ("wrong-normalizer", [(model_mod, "_normalizer", lambda ell: 1.001 * normalizer(ell))],
     fails((1e-10, 1.0), "model/defect-element-norms")),
    # e^{-i alpha} for e^{-2 i alpha} keeps |s|: only the cross-route law sees it
    ("wrong-rotation-phase", [(verify, "reference_change_livsic", lambda s, a: rotate(s, a / 2))],
     fails((1e-12, 2.0), "extension/reference-change-laws")),
    # the plus columns' weights 0.1% high: s_oracle is 0.1% low everywhere
    ("wrong-oracle-weight", [(oracle, "_panel_rule", plus_columns_times(1.001))],
     fails((1e-8, 1.0), "model/oracle-vs-closed-form")),
    # J_+ off by 5e-9 relative: inside QUADRATURE_TOL, far outside the battery's 1e-13
    ("oracle-off-by-5e-9", [(oracle, "_panel_rule", plus_columns_times(1 / (1 + 5e-9)))],
     fails((1e-10, 1e-8), "model/oracle-vs-closed-form")),
    # (w - kappa)/(kappa w - 1) sends 0 to kappa, but leaves the disk for complex kappa
    ("automorphism-without-conjugate", [(MoebiusMap, "disk_automorphism", classmethod(
        lambda cls, kappa: cls(1.0, -kappa, kappa, -1.0)))],
     fails((1e-12, 1e3), "coupling/class-properties(i-iv)",
           "extension/involution-and-kappa-extraction")),
    # kappa1 conj(kappa2) agrees with (S1 S2)(i) only for real kappa2
    ("conjugated-product-tag", [(coupling, "multiply_characteristic", lambda t1, t2:
        TaggedCharacteristic(multiply(t1, t2).fn, t1.kappa * np.conj(t2.kappa)))],
     fails(INF, "coupling/class-properties(i-iv)")),
    # conj(b): the Cayley transform becomes 1, the pole of its inverse
    ("conjugated-array-map", [(MoebiusMap, "values", conjugated_values)],
     fails(NAN, "moebius/cayley-round-trip")
     | fails((1.0, 4.0), "extension/involution-and-kappa-extraction",
             "extension/reference-change-laws", "extension/class-membership-verdicts",
             "coupling/class-properties(i-iv)")),
    # the two-factor Blaschke probe, whose |z (s - 1)| tends to 202, passes 1e1
    ("low-growth-threshold", [(extension, "RAY_PASS_THRESHOLD", 1e1)],
     fails((1.0, 1.0), "extension/class-membership-verdicts")),
    # a sweep over no pair would read a vacuous 0
    ("class-law-without-samples", [(verify, "bundled_corpus", lambda: [
        f for f in corpus() if f.kind is not FnKind.HERGLOTZ])],
     fails(INF, "coupling/class-properties(i-iv)")),
    # the builtin max drops a NaN behind the kappa = 0 map of the sweep
    ("nan-at-first-point", [(MoebiusMap, "values", nan_at_first_point)],
     fails(NAN, "moebius/disk-automorphism-involution")
     | fails(INF, "coupling/multiplication-chain", "coupling/kappa-multiplicativity",
             "coupling/class-properties(i-iv)", "extension/involution-and-kappa-extraction",
             "extension/unimodular-closure")),
    # a program error, not a LivcalcError, inside one check
    ("program-error", [(model_mod, "split_interval_check", lambda *args: 1 / 0)],
     fails(INF, "model/interval-split")),
    ("beta-from-kappa2",
     [(mod, "coupling_angles", lambda k1, k2: CouplingAngles(
         angles(k1, k2).alpha, math.atan(k2 * math.sqrt((1 - k2 * k2) / (1 - k1 * k1)))))
      for mod in (coupling, model_mod, verify)],
     fails((0.5, 1.0), "coupling/angle-consistency", "coupling/multiplication-chain",
           "model/interval-split")),
    ("cc-ss-swapped", [(CouplingAngles, "trig", lambda self: trig(self)[::-1])],
     fails((1.0, 2.0), "coupling/degenerate-angle-collapse",
           "coupling/multiplication-chain", "model/interval-split")),
    ("add-weyl-without-squares", [(coupling, "convex_sum", lambda alpha, v1, v2:
        math.cos(alpha) * v1 + math.sin(alpha) * v2)],
     fails((0.3, 0.5), "coupling/addition-normalization", "coupling/class-properties(i-iv)")),
    # a finite defect: each check reads a number, not a NaN or an exception
    ("disk-automorphism-d-nudged",
     [(MoebiusMap, "disk_automorphism", classmethod(nudged_automorphism))],
     fails((1e-10, 1e-9), "moebius/disk-automorphism-involution",
           "extension/involution-and-kappa-extraction")
     | fails((1e-12, 1e-11), "coupling/kappa-multiplicativity")),
    ("rotation-d-nudged", [(MoebiusMap, "halfplane_rotation", classmethod(nudged_rotation))],
     fails((5e-8, 5e-7), "moebius/rotation-fixes-i", "extension/reference-change-laws")),
    # K(z) = (z - i)/(z + i/2) still vanishes at i, but |K| nears 2 at the
    # real axis and the inverse Cayley map no longer undoes it
    ("cayley-d-halved",
     [(MoebiusMap, "cayley", classmethod(lambda cls: cls(1.0, -1j, 1.0, 0.5j)))],
     fails((0.3, 3.0), "moebius/cayley-contracts-halfplane", "moebius/cayley-round-trip",
           "measure/herglotz-range-and-cayley-contraction", "extension/reference-change-laws",
           "coupling/class-properties(i-iv)")),
    ("herglotz-shift-sign", [(_kernels, "herglotz_eval", flipped_shift)],
     fails((1.0, 3.0), "measure/normalization-equals-value-at-i")),
    # a peak left at its bracket's lower end, one scan spacing off: the mass
    # eps * Im M there decays with eps, so the atom is lost
    ("refinement-at-bracket-edge", [(measure, "minimize_scalar", refined_to_bracket_edge)],
     fails(INF, "measure/two-atom-round-trip(scaled)")),
    # every extrapolated weight and density value 3% high: the same check,
    # through a finite value
    ("extrapolation-3pc-high",
     [(measure, "_extrapolate_to_zero", lambda eps, values: 1.03 * extrapolate(eps, values))],
     fails((1.2, 2.0), "measure/two-atom-round-trip(scaled)")),
]


@pytest.mark.parametrize("patches, expected", [pytest.param(p, e, id=i) for i, p, e in ROWS])
def test_planted_defect_fails_its_checks(capsys, monkeypatch, patches, expected):
    for owner, name, value in patches:
        monkeypatch.setattr(owner, name, value)
    # 1: a check over its tolerance; not 2, a usage error, nor a traceback
    assert cli.main(["verify-all"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report.pop("all_passed") is False
    checks = {f"{suite}/{c['name']}": c for suite, cs in report.items() for c in cs}
    assert len(checks) == 26  # every check reports, failed or not
    worst = {name: float(c["worst_deviation"]) for name, c in checks.items() if not c["passed"]}
    assert worst.keys() == expected.keys()
    for name, (lo, hi) in expected.items():
        assert math.isnan(worst[name]) if math.isnan(lo) else lo <= worst[name] <= hi, name
