"""Every named verification suite passes at its default parameters."""

import time

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


def test_letters_counts_high_degrees_without_listing():
    """Past degree 4 the letters suite counts the basis without listing it,
    so degree 40 (4 * 13^39 systems) checks in well under a second."""
    t0 = time.perf_counter()
    report = run_suite("letters", max_degree=40)
    assert report.ok, report.render()
    assert time.perf_counter() - t0 < 10


def test_main_technical_names_the_degrees_it_checked():
    """The w = 3, 4 check reduces degrees 1 to max_degree - 1 and says so:
    1..4 at the default max_degree 5, 1..5 at 6."""
    for top in (5, 6):
        report = run_suite("main-technical", max_degree=top)
        assert report.ok, report.render()
        details = {c.name: c.detail for c in report.checks}
        for code in ("z", "f2"):
            assert details[f"main-w34-{code}"] == (
                f"rows with three and four loops are acyclic in degrees 1..{top - 1}")
