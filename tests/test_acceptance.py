"""Acceptance suite: every criterion is a registered check suite, run at its
default sizes with exact tolerances.

Each test prints one PASS/FAIL line per criterion (run with -s or look at
captured output).  All assertions are exact: set equality of polyhedral
regions, exact rational arithmetic, zero-failure property batches.
"""

from tropreal.checks import run_suites

SEED = 20260810


def _criterion(number: int, suite: str, label: str):
    report = run_suites([suite], SEED)
    details = report.details[suite]
    status = "PASS" if report.passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {label}")
    for line in details:
        print(f"    {line}")
    assert report.passed, f"criterion {number} failed: {details}"
    return report


def test_criterion_01_circle_single_point_and_segments():
    _criterion(1, "circle-exact", "disk: single tropical point, exact two-segment region")


def test_criterion_02_halfplane_region_and_witnesses():
    _criterion(2, "halfplane-density", "halfplane: exact region, members inside, witnesses found")


def test_criterion_03_cubic_isolated_point_and_segment():
    _criterion(3, "cubic-facts", "cubic: isolated point witnessed, spurious segment barren")


def test_criterion_04_hyperfield_axioms():
    _criterion(4, "hyperfield-axioms", "hyperfield axiom batches, zero failures")


def test_criterion_05_morphism():
    _criterion(5, "morphism", "signed-value morphism on random series pairs")


def test_criterion_06_complement():
    _criterion(6, "complement", "complement of closed unions, membership XOR")


def test_criterion_07_fp_lemma():
    _criterion(7, "fp-lemma", "open polyhedron == positive region, pointwise")


def test_criterion_08_lift():
    _criterion(8, "lift", "lifted inequalities: exact tropicalization, fresh samples")


def test_criterion_09_finite_basis():
    _criterion(9, "basis", "finite basis cuts the target set exactly")


def test_criterion_10_orthant_remark():
    _criterion(10, "orthant-remark", "negative regions confined to the open positive orthant")


def test_criterion_11_intersection_recession():
    report = _criterion(
        11, "intersection-recession", "intersection family: bounded vs infinite rays"
    )
    took = report.elapsed["intersection-recession"]
    assert took < 10.0, f"both runs together took {took:.2f}s"


def test_criterion_12_connectivity():
    _criterion(12, "connectivity", "adjacency graphs of outer regions connected")
