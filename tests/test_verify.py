"""Every named verification suite passes at its default parameters."""

import time

import pytest

from planarloops import ComplexSpec, DomainError, build_complex, parse_ring, phi
from planarloops.loops import CLOSED
from planarloops.verify import MIN_DEGREE, SUITES, _generated_by, run_suite


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


def test_rings_are_refused_before_any_check_runs():
    """An unknown ring, rings for a suite that takes none, and Z[a] for a
    suite that computes homology are refused before any check runs: a
    bogus ring after z raises, where it was a failed check."""
    with pytest.raises(DomainError, match="unknown ring 'bogus'"):
        run_suite("psi-chain-map", rings=("z", "bogus"))
    with pytest.raises(ValueError, match="suite slicing takes no rings"):
        run_suite("slicing", rings=("z",))
    for name in ("main-technical", "model-vs-complex"):
        with pytest.raises(DomainError, match="over Z or a field, not over za"):
            run_suite(name, rings=("za",))


def test_main_technical_certifies_generators_over_every_field():
    """Over F3 and Q the suite computes the field representatives too, and
    passes; over Z twice the one-bar class does not generate H_1, over a
    field it does, and the zero chain generates nothing."""
    report = run_suite("main-technical", rings=("z", "f2", "f3", "q"))
    assert report.ok and len(report.checks) == 12, report.render()
    for code in ("z", "f3", "q"):
        ring = parse_ring(code)
        cx = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=4, weight=1,
                                       dividers=0, subquotient=True))
        x = phi(ring).images["x"]
        assert _generated_by(cx, x, 1)
        assert _generated_by(cx, x.scale(ring.domain.from_int(2)), 1) == (code != "z")
        assert not _generated_by(cx, x.scale(ring.domain.from_int(0)), 1)
