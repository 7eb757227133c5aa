"""The verify-all battery: its pinned checks, a broken invariant reported as
a failed check, and the bindings the benchmark tracer wraps."""

import importlib.util
import json
import os

import numpy as np

from livcalc import FnKind, MoebiusMap, cli, coupling, extension, oracle, verify
from livcalc.core import default_grid, divide_off_pole
from livcalc.coupling import TaggedCharacteristic
from livcalc import model as model_mod
from livcalc.model import ModelFunctions

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (suite, check, largest tolerance allowed), in output order
PINNED = (
    ("core", "self-deviation-zero", 1e-15),
    ("core", "deviation-symmetry", 1e-15),
    ("core", "deviation-triangle", 1e-15),
    ("core", "livsic-kind-contractive", 1e-10),
    ("moebius", "cayley-contracts-halfplane", 1e-12),
    ("moebius", "cayley-round-trip", 1e-12),
    ("moebius", "disk-automorphism-involution", 1e-12),
    ("moebius", "rotation-fixes-i", 1e-15),
    ("measure", "normalization-equals-value-at-i", 1e-13),
    ("measure", "herglotz-range-and-cayley-contraction", 1e-12),
    ("measure", "two-atom-round-trip(scaled)", 1.0),
    ("extension", "involution-and-kappa-extraction", 1e-12),
    ("extension", "reference-change-laws", 1e-12),
    ("extension", "unimodular-closure", 1e-12),
    ("extension", "class-membership-verdicts", 0.5),
    ("coupling", "angle-consistency", 1e-14),
    ("coupling", "degenerate-angle-collapse", 1e-14),
    ("coupling", "multiplication-chain", 1e-10),
    ("coupling", "kappa-multiplicativity", 1e-12),
    ("coupling", "addition-normalization", 1e-14),
    ("coupling", "class-preservation-at-i", 1e-14),
    ("coupling", "class-properties(i-iv)", 1e-10),
    ("model", "defect-element-norms", 1e-10),
    ("model", "oracle-vs-closed-form", 1e-8),
    ("model", "boundary-relations", 1e-12),
    ("model", "interval-split", 1e-14),
)


def failed_checks(capsys):
    """(suite, check, worst deviation) of each failed check that verify-all
    printed."""
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False
    return [
        (suite, check["name"], check["worst_deviation"])
        for suite, checks in report.items() if suite != "all_passed"
        for check in checks if not check["passed"]
    ]


def test_checks_and_tolerances_are_pinned():
    results = verify.run_all()
    got = [(suite, check.name) for suite, checks in results.items() for check in checks]
    assert got == [(suite, name) for suite, name, _ in PINNED]
    tols = [check.tol for checks in results.values() for check in checks]
    for (suite, name, pinned), tol in zip(PINNED, tols):
        assert tol <= pinned, (suite, name)


def test_worst_deviations_are_nonnegative(capsys):
    # a worst deviation is a distance or a clipped excess: a negative value
    # reports a margin, not a deviation
    assert cli.main(["verify-all"]) == 0
    report = json.loads(capsys.readouterr().out)
    worst = [
        (suite, check["name"], float(check["worst_deviation"]))
        for suite, checks in report.items() if suite != "all_passed"
        for check in checks
    ]
    assert [w for w in worst if not w[2] >= 0.0] == []


def test_broken_tag_is_a_failed_check(capsys, monkeypatch):
    # a parameter tag off by 1e-6: the split couples its parts at the wrong
    # angles, so the coupled function misses s_ell
    closed_forms = model_mod.model_closed_forms

    def off_tag(ell):
        forms = closed_forms(ell)
        return ModelFunctions(forms.livsic, forms.characteristic, forms.kappa * (1 + 1e-6))

    monkeypatch.setattr(model_mod, "model_closed_forms", off_tag)
    assert cli.main(["verify-all"]) == 1
    [(suite, name, worst)] = failed_checks(capsys)
    assert (suite, name) == ("model", "interval-split")
    assert 1e-14 < float(worst) < 1e-3


def test_swapped_coupling_parameters_fail_only_the_split_check(capsys, monkeypatch):
    # the coupling theorem holds for (e^{-ell1}, e^{-ell2}) in this order:
    # with the angles of the swapped pair the coupled function misses s_ell
    angles = model_mod.coupling_angles
    monkeypatch.setattr(model_mod, "coupling_angles", lambda k1, k2: angles(k2, k1))
    assert cli.main(["verify-all"]) == 1
    [(suite, name, worst)] = failed_checks(capsys)
    assert (suite, name) == ("model", "interval-split")
    assert 1.0 < float(worst) < 2.0


def test_error_in_shared_input_fails_its_checks(capsys, monkeypatch):
    # the closed forms feed several suites' shared inputs: a failure there
    # fails the checks that use them, and the battery still reports all 26
    def broken(ell):
        raise ValueError("planted")

    monkeypatch.setattr(model_mod, "model_closed_forms", broken)
    assert cli.main(["verify-all"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False
    suites = dict.fromkeys(suite for suite, _, _ in PINNED)  # the JSON keys are sorted
    checks = [(suite, check) for suite in suites for check in report[suite]]
    assert [(suite, check["name"]) for suite, check in checks] == [
        (suite, name) for suite, name, _ in PINNED
    ]
    failed = [check for _, check in checks if not check["passed"]]
    assert failed
    assert all(check["worst_deviation"] == "inf" for check in failed)


def test_wrong_normalizer_fails_only_the_norm_check(capsys, monkeypatch):
    # g_+ and g_- share the normalizer, so the boundary relations still hold
    normalizer = model_mod._normalizer
    monkeypatch.setattr(model_mod, "_normalizer", lambda ell: 1.001 * normalizer(ell))
    assert cli.main(["verify-all"]) == 1
    [(suite, name, worst)] = failed_checks(capsys)
    assert (suite, name) == ("model", "defect-element-norms")
    assert 1e-10 < float(worst) < 1.0


def test_wrong_rotation_phase_fails_only_the_reference_change_check(capsys, monkeypatch):
    # the phase e^{-i alpha} in place of e^{-2 i alpha} keeps |s|, so only
    # the cross-route law (rotate M, then take its Livsic function) sees it
    rotate = verify.reference_change_livsic
    monkeypatch.setattr(verify, "reference_change_livsic", lambda s, alpha: rotate(s, alpha / 2))
    assert cli.main(["verify-all"]) == 1
    [(suite, name, worst)] = failed_checks(capsys)
    assert (suite, name) == ("extension", "reference-change-laws")
    assert 1e-12 < float(worst) < 2.0


def test_wrong_oracle_weight_fails_only_the_oracle_check(capsys, monkeypatch):
    # the plus columns' weights 0.1% high: s_oracle is 0.1% low everywhere
    rule = oracle._panel_rule

    def scaled(ell, m):
        nodes, weights = rule(ell, m)
        return nodes, weights * [1.0, 1.0, 1.001, 1.001]

    monkeypatch.setattr(oracle, "_panel_rule", scaled)
    assert cli.main(["verify-all"]) == 1
    [(suite, name, worst)] = failed_checks(capsys)
    assert (suite, name) == ("model", "oracle-vs-closed-form")
    assert 1e-8 < float(worst) < 1.0


def test_automorphism_without_conjugate_fails_only_the_involution_check(capsys, monkeypatch):
    # w -> (w - kappa)/(kappa w - 1) is an involution that sends 0 to kappa
    # too, but for complex kappa it does not keep the disk: |S| exceeds 1,
    # in the involution check and at the corpus's complex-parameter sample
    monkeypatch.setattr(MoebiusMap, "disk_automorphism",
                        classmethod(lambda cls, kappa: cls(1.0, -kappa, kappa, -1.0)))
    assert cli.main(["verify-all"]) == 1
    failed = failed_checks(capsys)
    assert [(suite, name) for suite, name, _ in failed] == [
        ("coupling", "class-properties(i-iv)"),
        ("extension", "involution-and-kappa-extraction"),
    ]
    assert all(1e-12 < float(worst) < 1e3 for _, _, worst in failed)


def test_conjugated_product_tag_fails_the_class_laws(capsys, monkeypatch):
    # tagging S1 S2 with kappa1 conj(kappa2) agrees with (S1 S2)(i) only for
    # real kappa2: the corpus's complex-parameter sample rejects the tag
    multiply = coupling.multiply_characteristic

    def conjugated(t1, t2):
        product = multiply(t1, t2)
        return TaggedCharacteristic(product.fn, t1.kappa * complex(t2.kappa).conjugate())

    monkeypatch.setattr(coupling, "multiply_characteristic", conjugated)
    assert cli.main(["verify-all"]) == 1
    assert failed_checks(capsys) == [("coupling", "class-properties(i-iv)", "inf")]


def test_conjugated_array_map_fails_the_moebius_suite(capsys, monkeypatch):
    # conj(b) in the numerator of MoebiusMap.values, the path every bridge
    # runs: the Cayley transform becomes the constant 1, where its inverse
    # has its pole
    def conjugated(self, w):
        return divide_off_pole(self.a * w + np.conj(self.b), self.c * w + self.d,
                               self.pole_floor)

    monkeypatch.setattr(MoebiusMap, "values", conjugated)
    assert cli.main(["verify-all"]) == 1
    assert ("moebius", "cayley-round-trip") in [
        (suite, name) for suite, name, _ in failed_checks(capsys)
    ]


def test_low_growth_threshold_fails_only_the_verdict_check(capsys, monkeypatch):
    # at a threshold of 1e1 the two-factor Blaschke probe, whose
    # |z (s - 1)| tends to 202, reads ConsistentWithC
    monkeypatch.setattr(extension, "RAY_PASS_THRESHOLD", 1e1)
    assert cli.main(["verify-all"]) == 1
    assert failed_checks(capsys) == [("extension", "class-membership-verdicts", "1")]


def test_warm_oracle_sweep_misses_no_cached_rule():
    # the sweep's (ell, m) keys must fit the rule cache, or a warm battery
    # rebuilds its rules on every run
    grid = default_grid()
    verify.oracle_deviation((0.5, 1.0, 2.0), grid)
    misses = oracle._panel_rule.cache_info().misses
    verify.oracle_deviation((0.5, 1.0, 2.0), grid)
    assert oracle._panel_rule.cache_info().misses == misses


def test_class_law_without_samples_fails_its_check(capsys, monkeypatch):
    # a corpus without Herglotz samples leaves the convexity law unverified
    corpus = [f for f in verify.bundled_corpus() if f.kind is not FnKind.HERGLOTZ]
    monkeypatch.setattr(verify, "bundled_corpus", lambda: corpus)
    assert cli.main(["verify-all"]) == 1
    assert failed_checks(capsys) == [("coupling", "class-properties(i-iv)", "inf")]


def test_benchmark_tracer_sees_every_suite(capsys):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify-all"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.counts["oracle.quadrature.calls"] == 1326
    # the battery, like every bridge, evaluates MoebiusMap.values, not the
    # counted scalar __call__, which only the tests call as a reference
    assert tracer.counts["moebius.calls"] == 0
    # every AnalyticFn call, point or array: a change that adds calls shows here
    # (the reference-change cross-route law makes 2 calls per angle, 8 in all;
    # the involution check's contraction probe 1 per kappa, 4 in all; the
    # two-factor Blaschke probe of the class verdicts 2; the two peak
    # refinements 6 each; the general-k identity 2 per triple, one per side;
    # the interval split 2 per split, s_ell and the coupling of its parts;
    # the corpus's complex-parameter sample 12: 2 for its tag, and 2 for
    # each of its 5 products, the tag at i and the contraction sweep)
    assert tracer.counts["core.scalar_calls"] == 212
    # the inversion check's peak refinements: a tracer that loses the
    # binding of measure.minimize_scalar, or its nfev, reads 0 here
    assert tracer.counts["measure.refine.calls"] == 2
    assert tracer.counts["measure.refine.nfev"] == 12
    for suite in ("core", "moebius", "measure", "extension", "coupling", "model"):
        assert tracer.counts[f"verify.{suite}.calls"] == 1, suite
