"""Every registered suite passes at reduced size; reports are stable."""

import pytest

from tropreal.checks import SUITE_NAMES, SUITES, run_suites
from tropreal.errors import UnknownSuite

SMALL = {
    "hyperfield-axioms": 400,
    "morphism": 400,
    "region-coherence": 120,
    "complement": 6,
    "fp-lemma": 6,
    "lift": 3,
    "basis": None,
    "orthant-remark": 40,
    "figures": None,
    "sandwich": 1200,
    "connectivity": None,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(name):
    outcome = SUITES[name](11, size=SMALL[name])
    assert outcome.passed, outcome.details


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
