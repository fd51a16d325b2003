"""Every named verification suite passes at its default parameters."""

import pytest

from planarloops.verify import MIN_DEGREE, SUITES, run_suite


def test_suites_refuse_fewer_than_one_sample():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            run_suite("leibniz", samples=samples)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = run_suite(name)
    assert report.checks and report.ok, report.render()


@pytest.mark.parametrize("name", sorted(MIN_DEGREE))
def test_suites_pass_at_their_least_max_degree(name):
    report = run_suite(name, max_degree=MIN_DEGREE[name])
    assert report.checks and report.ok, report.render()
    with pytest.raises(ValueError, match=f"needs max_degree at least {MIN_DEGREE[name]}"):
        run_suite(name, max_degree=MIN_DEGREE[name] - 1)


@pytest.mark.parametrize("name", sorted(set(SUITES) - set(MIN_DEGREE)))
def test_suites_without_a_degree_refuse_max_degree(name):
    with pytest.raises(ValueError, match="takes no max_degree"):
        run_suite(name, max_degree=5)
