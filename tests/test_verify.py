"""Every named verification suite passes at its default parameters."""

import pytest

from planarloops.verify import SUITES, run_suite


def test_suites_refuse_fewer_than_one_sample():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            run_suite("leibniz", samples=samples)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name)
    assert report.checks and report.ok, report.render()
