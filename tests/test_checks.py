"""Every registered suite passes at reduced size; reports are stable."""

import pytest

from tropreal.checks import SUITE_NAMES, run_suites
from tropreal.errors import UnknownSuite

SMALL = {
    "basis": None,
    "circle-exact": 2000,
    "complement": 6,
    "connectivity": None,
    "cubic-facts": 2000,
    "fp-lemma": 6,
    "halfplane-density": 200,
    "hyperfield-axioms": 400,
    "intersection-recession": None,
    "lift": 3,
    "morphism": 400,
    "orthant-remark": 40,
    "rectangles": None,
    "region-coherence": 120,
    "sandwich": 1200,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(name):
    rep = run_suites([name], seed=11, size=SMALL[name])
    assert rep.passed, rep.details[name]


def test_run_suites_report_shape():
    rep = run_suites(["orthant-remark", "connectivity"], seed=3, size=30)
    assert rep.passed
    assert set(rep.outcomes) == {"orthant-remark", "connectivity"}
    blob = rep.to_json()
    assert blob == run_suites(["orthant-remark", "connectivity"], seed=3, size=30).to_json()
    assert "elapsed" not in blob


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        run_suites(["nope"], seed=0)
