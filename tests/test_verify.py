"""The verify-all battery: its pinned checks and the bindings the benchmark
tracer wraps.  The planted defects are in ``tests/test_planted_defects.py``."""

import importlib.util
import json
import os

from test_argv_boundaries import run

from livcalc import cli, oracle, verify
from livcalc.core import COUNTS, default_grid

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
    ("model", "oracle-vs-closed-form", 1e-13),
    ("model", "boundary-relations", 1e-12),
    ("model", "interval-split", 1e-14),
)


def test_checks_and_tolerances_are_pinned():
    results = verify.run_all()
    got = [(suite, check.name) for suite, checks in results.items() for check in checks]
    assert got == [(suite, name) for suite, name, _ in PINNED]
    tols = [check.tolerance for checks in results.values() for check in checks]
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


def test_warm_oracle_sweep_misses_no_cached_rule():
    # the sweep's (ell, m) keys must fit the rule cache, or a warm battery
    # rebuilds its rules on every run
    grid = default_grid()
    verify.oracle_deviation((0.5, 1.0, 2.0), grid)
    misses = oracle._panel_rule.cache_info().misses
    verify.oracle_deviation((0.5, 1.0, 2.0), grid)
    assert oracle._panel_rule.cache_info().misses == misses


def added_counts(work) -> dict:
    """What ``work()`` adds to the program's own counts, ``core.COUNTS``."""
    before = dict(COUNTS)
    work()
    added = {key: count - before.get(key, 0) for key, count in COUNTS.items()}
    return {key: count for key, count in added.items() if count}


def test_the_program_counts_its_own_work():
    added = added_counts(verify.run_all)
    # 3 lengths x 442 grid points, and 3m panels per convergence attempt
    assert (added["oracle.points"], added["oracle.panels"]) == (1326, 4875)
    # every AnalyticFn call, point or array: the tracer's core.scalar_calls
    assert added["core.point_calls"] + added["core.array_calls"] == 164
    assert "core.poles" not in added
    assert (added["measure.candidates"], added["measure.refinements"],
            added["measure.refine_evals"]) == (2, 2, 12)
    assert added_counts(lambda: run("model --length 1 --eval 0+2i --oracle".split())
                        )["oracle.points"] == 1
    # the sweep prints a null for each of its pole points
    assert added_counts(lambda: run("model --length 1.7e308 --grid default".split())
                        )["core.poles"] == 336


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
    # the corpus's complex-parameter sample 3: 2 for its tag and 1 for its
    # grid sweep, and 1 for each of its 5 products, the tag at i.  The class
    # laws sweep each sample once over the grid with i appended and read its
    # value at i off that sweep: -5 extract_kappa point calls and -3 Livsic
    # point calls at i.  A product's values are its factors' products, 5
    # sample sweeps for the 15 product sweeps of law (ii).  Law (i) and the
    # addition normalization sweep each Herglotz leaf once and form every
    # convex sum from the two sweeps: law (i) -15 sum sweeps and +6 leaf
    # sweeps, the addition normalization -4 sum sweeps and +2 leaf sweeps:
    # 164 = 183 - 5 - 3 - 15 + 6 - 4 + 2)
    assert tracer.counts["core.scalar_calls"] == 164
    # the inversion check's peak refinements: a tracer that loses the
    # binding of measure.minimize_scalar, or its nfev, reads 0 here
    assert tracer.counts["measure.refine.calls"] == 2
    assert tracer.counts["measure.refine.nfev"] == 12
    for suite in ("core", "moebius", "measure", "extension", "coupling", "model"):
        assert tracer.counts[f"verify.{suite}.calls"] == 1, suite
