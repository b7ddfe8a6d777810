"""Acceptance suite: one test per registered criterion, in criterion order.

The criteria, their tolerances and their budgets live in
`aulmpm.verify.CHECKS`; the test ids are the registry names, so
`pytest -k rigid_silence` selects the same check as
`aulmpm verify --only rigid_silence`.  Each test records the runner's
verdict line, so the run log ends with the same scorecard
`aulmpm verify` prints.
"""

import pytest

from conftest import record_verdict
from aulmpm.verify import CHECKS, run_property_checks


@pytest.mark.parametrize("name", list(CHECKS))
def test_criterion(name):
    result = run_property_checks([name])[name]
    record_verdict(result["line"])
    assert result["passed"], result["line"]
