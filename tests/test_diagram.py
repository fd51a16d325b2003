import random
from itertools import combinations

import pytest

from planarloops import (DiagramError, Letter, LinkState, cell_basis,
                         close_up, compose, enumerate_diagrams,
                         enumerate_letters, identity_diagram, new_diagram,
                         parse_diagram, parse_letter, slice_diagram, unslice)
from planarloops.diagram import (LEFT_CELL, RIGHT_CELL, TLDiagram, catalan,
                                 glue)

from conftest import P, Q, W, Pc, Qc
from tl_oracle import (reference_compose, reference_reflect_lr,
                       reference_reflect_tb)


# -- independent oracle: enumerate all perfect matchings, filter noncrossing --

def perfect_matchings(pts):
    if not pts:
        yield []
        return
    first, rest = pts[0], pts[1:]
    for i, other in enumerate(rest):
        for sub in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + sub


def brute_noncrossing_count(n, m):
    points = list(range(n + m))  # circular order: left side then right reversed
    count = 0
    for m_ in perfect_matchings(points):
        ok = True
        for (a1, b1), (a2, b2) in combinations(m_, 2):
            lo, hi = min(a1, b1), max(a1, b1)
            if (lo < a2 < hi) != (lo < b2 < hi):
                ok = False
                break
        count += ok
    return count


def small_shapes(total):
    return [(n, t - n) for t in range(0, total + 1, 2) for n in range(t + 1)]


def test_partner_arrays_accepted_are_exactly_the_noncrossing_ones():
    for n, m in small_shapes(8):
        planar = {d.partners for d in enumerate_diagrams(n, m)}
        accepted = set()
        for matching in perfect_matchings(list(range(n + m))):
            p = [0] * (n + m)
            for i, j in matching:
                p[i], p[j] = j, i
            try:
                accepted.add(TLDiagram(n, m, tuple(p)).partners)
            except DiagramError as e:
                assert "not planar" in str(e), (n, m, p)
        assert accepted == planar, (n, m)


def test_bad_partner_arrays_are_refused():
    shape, matching = "must be a tuple of", "not a perfect matching"
    for n, m, p, why in ((2, 2, (2, 3, 0), shape),
                         (2, 2, (2, 3, 0, 1, 0), shape),
                         (2, 2, [2, 3, 0, 1], shape),
                         (1, 0, (0,), "must be even"),
                         (2, 0, (1, 2), matching),  # partner out of range
                         (2, 0, (-1, 0), matching),
                         (2, 2, (0, 3, 2, 1), matching),  # fixed points
                         (1, 1, (1, 1), matching),
                         (2, 2, (2, 3, 1, 0), matching)):  # not an involution
        with pytest.raises(DiagramError, match=why):
            TLDiagram(n, m, p)
    with pytest.raises(DiagramError, match="not planar"):
        TLDiagram(2, 2, (3, 2, 1, 0))


def test_new_diagram_examples():
    d = new_diagram(2, 2, [(("L", 1), ("R", 1)), (("L", 2), ("R", 2))])
    assert d == identity_diagram(2)
    with pytest.raises(DiagramError):
        new_diagram(2, 2, [(("L", 1), ("R", 2)), (("L", 2), ("R", 1))])
    with pytest.raises(DiagramError):
        new_diagram(1, 2, [(("L", 1), ("R", 1)), (("R", 2), ("R", 2))])
    with pytest.raises(DiagramError, match="reuses a matched endpoint"):
        new_diagram(2, 2, [(("L", 1), ("R", 1)), (("L", 1), ("R", 2))])
    for bad in (("L", 3), ("R", 0), ("X", 1)):
        with pytest.raises(DiagramError, match="out of range"):
            new_diagram(2, 2, [(("L", 1), bad)])
    with pytest.raises(DiagramError, match="not a perfect matching"):
        new_diagram(2, 2, [(("L", 1), ("R", 1))])


def test_compose_examples():
    d1 = parse_diagram("TL(4,2){L1-R1,L2-L3,L4-R2}")
    d2 = parse_diagram("TL(2,0){L1-L2}")
    res, loops = compose(d1, d2)
    assert res == parse_diagram("TL(4,0){L1-L4,L2-L3}") and loops == 0
    e = parse_diagram("TL(2,2){L1-L2,R1-R2}")
    assert compose(e, e) == (e, 1)
    for d in enumerate_diagrams(4, 2):
        assert compose(identity_diagram(4), d) == (d, 0)
    with pytest.raises(DiagramError):
        compose(identity_diagram(4), identity_diagram(2))


def test_enumeration_counts_against_brute_force():
    for n, m in [(4, 4), (4, 0), (0, 0), (2, 4), (3, 3), (6, 0), (5, 3)]:
        if (n + m) % 2:
            continue
        assert len(enumerate_diagrams(n, m)) == brute_noncrossing_count(n, m)
    assert len(enumerate_diagrams(4, 4)) == 14
    assert len(enumerate_diagrams(4, 0)) == 2
    assert len(enumerate_diagrams(0, 0)) == 1


def test_enumeration_refuses_negative_endpoint_counts():
    for n, m in ((-1, 1), (1, -1), (-2, 2), (0, -2)):
        with pytest.raises(DiagramError, match="negative"):
            enumerate_diagrams(n, m)


def test_catalan_counts():
    for total in range(0, 13, 2):
        k = total // 2
        for n in range(total + 1):
            assert len(enumerate_diagrams(n, total - n)) == catalan(k)
    for k in (-1, -2):
        with pytest.raises(DiagramError, match="Catalan"):
            catalan(k)


def test_enumeration_is_canonically_sorted():
    encs = [d.encode() for d in enumerate_diagrams(4, 4)]
    assert encs == sorted(encs)


def test_through_count():
    assert identity_diagram(4).through_count() == 4
    assert parse_diagram("TL(4,4){L1-R3,L2-L3,L4-R4,R1-R2}").through_count() == 2
    assert parse_diagram("TL(4,4){L1-L4,L2-L3,R1-R2,R3-R4}").through_count() == 0


def assert_matches_reference(a, b):
    want, loops = reference_compose(a, b)
    assert glue(a.partners, b.partners, a.m) == (want.partners, loops)
    assert compose(a, b) == (want, loops)


def test_glue_matches_reference_on_every_small_shape():
    """Every pair of an (n,m) and an (m,l) diagram with n+m, m+l <= 8."""
    pairs = 0
    for n in range(9):
        for m in range(n % 2, 9 - n, 2):
            for l in range(m % 2, 9 - m, 2):
                for a in enumerate_diagrams(n, m):
                    for b in enumerate_diagrams(m, l):
                        assert_matches_reference(a, b)
                        pairs += 1
    assert pairs == 3493


def test_glue_matches_reference_on_sampled_six_point_pairs():
    rng = random.Random(24)
    pool = enumerate_diagrams(6, 6)
    for _ in range(2000):
        assert_matches_reference(rng.choice(pool), rng.choice(pool))


def test_partner_array_labels_left_then_right_ends():
    d = parse_diagram("TL(4,2){L1-R1,L2-L3,L4-R2}")
    assert d.partners == (4, 2, 1, 5, 0, 3)
    assert new_diagram(0, 0, ()).partners == () and identity_diagram(3).partners == (3, 4, 5, 0, 1, 2)


def test_compose_associative_with_loops():
    rng = random.Random(4)
    pool = enumerate_diagrams(4, 4)
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        ab, l_ab = compose(a, b)
        abc1, l1 = compose(ab, c)
        bc, l_bc = compose(b, c)
        abc2, l2 = compose(a, bc)
        assert abc1 == abc2 and l_ab + l1 == l_bc + l2


def test_through_count_ideal_property():
    rng = random.Random(5)
    pool = enumerate_diagrams(4, 4)
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        res, _ = compose(a, b)
        assert res.through_count() <= min(a.through_count(), b.through_count())


def test_reflections():
    assert identity_diagram(4).reflect_lr() == identity_diagram(4)
    d = parse_diagram("TL(4,0){L1-L2,L3-L4}")
    assert d.reflect_tb() == d
    assert parse_diagram("TL(4,2){L1-R1,L2-L3,L4-R2}").reflect_lr() == \
        parse_diagram("TL(2,4){L1-R1,L2-R4,R2-R3}")
    rng = random.Random(6)
    pool = enumerate_diagrams(4, 4) + enumerate_diagrams(2, 4)
    for d in pool:
        assert d.reflect_lr().reflect_lr() == d
        assert d.reflect_tb().reflect_tb() == d
    for _ in range(100):
        a, b = rng.choice(enumerate_diagrams(4, 4)), rng.choice(enumerate_diagrams(4, 4))
        ab, l1 = compose(a, b)
        ba_r, l2 = compose(b.reflect_lr(), a.reflect_lr())
        assert ab.reflect_lr() == ba_r and l1 == l2


def test_reflections_and_statistics_match_the_pair_forms():
    for n, m in small_shapes(10):
        for d in enumerate_diagrams(n, m):
            assert d.reflect_lr() == reference_reflect_lr(d)
            assert d.reflect_tb() == reference_reflect_tb(d)
            sides = [a[0] + b[0] for a, b in d.pairs]
            assert d.through_count() == sides.count("LR")
            assert d.has_ll_pair() == ("LL" in sides)
            assert d.has_rr_pair() == ("RR" in sides)
            assert d.is_identity() == (n == m and d.pairs == tuple(
                (("L", i), ("R", i)) for i in range(1, n + 1)))


def test_slice_roundtrip_and_bijection():
    for d in enumerate_diagrams(4, 4):
        left, right = slice_diagram(d)
        assert unslice(left, right) == d
        assert left.defects == right.defects == d.through_count()
    for k in (0, 2, 4):
        stratum = [d for d in enumerate_diagrams(4, 4) if d.through_count() == k]
        assert len(stratum) == (len(cell_basis(4, k, LEFT_CELL))
                                * len(cell_basis(4, k, RIGHT_CELL)))


def test_slice_worked_example():
    d = parse_diagram("TL(4,4){L1-R3,L2-L3,L4-R4,R1-R2}")
    left, right = slice_diagram(d)
    assert left.diagram == parse_diagram("TL(4,2){L1-R1,L2-L3,L4-R2}")
    assert right.diagram == parse_diagram("TL(2,4){L1-R3,L2-R4,R1-R2}")


def test_slice_of_through_free_diagram():
    d = parse_diagram("TL(4,4){L1-L4,L2-L3,R1-R2,R3-R4}")
    left, right = slice_diagram(d)
    assert left.defects == right.defects == 0
    assert left.diagram == parse_diagram("TL(4,0){L1-L4,L2-L3}")
    assert right.diagram == parse_diagram("TL(0,4){R1-R2,R3-R4}")


def test_compose_associative_mixed_shapes():
    rng = random.Random(13)
    for _ in range(100):
        a = rng.choice(enumerate_diagrams(4, 4))
        b = rng.choice(enumerate_diagrams(4, 2))
        c = rng.choice(enumerate_diagrams(2, 0))
        ab, l_ab = compose(a, b)
        abc1, l1 = compose(ab, c)
        bc, l_bc = compose(b, c)
        abc2, l2 = compose(a, bc)
        assert abc1 == abc2 and l_ab + l1 == l_bc + l2


def test_unslice_stub_mismatch():
    l = cell_basis(4, 2, LEFT_CELL)[0]
    r = cell_basis(4, 0, RIGHT_CELL)[0]
    with pytest.raises(DiagramError):
        unslice(l, r)


def test_cell_basis_counts():
    assert len(cell_basis(4, 2, RIGHT_CELL)) == 3
    assert len(cell_basis(4, 0, LEFT_CELL)) == 2
    assert len(cell_basis(4, 4, LEFT_CELL)) == 1
    assert cell_basis(4, 4, LEFT_CELL)[0].diagram == identity_diagram(4)
    with pytest.raises(DiagramError):
        cell_basis(4, 3, LEFT_CELL)


def test_close_up_examples():
    assert close_up(LinkState(P, RIGHT_CELL)).diagram == Pc
    assert close_up(LinkState(Q, RIGHT_CELL)).diagram == Pc
    assert close_up(LinkState(W, RIGHT_CELL)).diagram == Qc
    images = {close_up(s).diagram for s in cell_basis(4, 2, RIGHT_CELL)}
    assert images == {s.diagram for s in cell_basis(4, 0, RIGHT_CELL)}
    with pytest.raises(DiagramError):
        close_up(LinkState(Pc, RIGHT_CELL))


def test_letter_counts_and_codec():
    assert [len(enumerate_letters(a, b))
            for a, b in [(2, 2), (0, 2), (2, 0), (0, 0)]] == [9, 6, 6, 4]
    total = 0
    for kl in (0, 2):
        for kr in (0, 2):
            for l in enumerate_letters(kl, kr):
                assert parse_letter(l.encode()) == l
                total += 1
    assert total == 25
    with pytest.raises(DiagramError):
        enumerate_letters(1, 2)


def test_cell_side_validation():
    with pytest.raises(DiagramError):
        LinkState(parse_diagram("TL(2,4){L1-L2,R1-R2,R3-R4}"), RIGHT_CELL)
    with pytest.raises(DiagramError):
        Letter(P, parse_diagram("TL(4,2){L1-L2,L3-L4,R1-R2}"))


def test_diagram_text_roundtrip():
    for n, m in small_shapes(10):
        for d in enumerate_diagrams(n, m):
            assert new_diagram(n, m, d.pairs) == d
            assert parse_diagram(d.encode()) == d
    assert parse_diagram(" TL(2,2){ L1-R1 , L2-R2 } ") == identity_diagram(2)
    with pytest.raises(DiagramError):
        parse_diagram("TL(2,2){L1-R1}")
