"""Every named verification suite passes at its default parameters."""

import pytest

from planarloops.verify import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name)
    assert report.checks and report.ok, report.render()
