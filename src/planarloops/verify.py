"""Named verification suites: each re-derives one batch of claims from
scratch and reports per-check results.

Suites are deterministic given (parameters, seed).  Randomized suites draw
their samples from a seeded generator; every expected value asserted here is
either recomputed on the spot by an independent route (brute force,
enumeration, a second pipeline) or is a structural identity.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass

from .coeff import INT_POLY_A, ZA, ZZ, DomainError, PointedRing, parse_ring
from .diagram import (Letter, catalan, cell_basis, enumerate_diagrams,
                      enumerate_letters, slice_diagram, unslice)
from .freedga import (alpha_boundary_check, build_word_complex,
                      check_chain_map, check_involution_relations, four_model,
                      minimal_model, model_involutions, phi, psi,
                      sample_words, truncated_complex)
from .homology import (homology, homology_table, is_boundary, is_cycle,
                       validate_d_squared)
from .loops import (CLOSED, Chain, ComplexSpec, EndSpec, build_complex,
                    chain_involution_lr, chain_involution_tb, chain_to_vector,
                    count_graffiti, differential, divider_count,
                    enumerate_graffiti, face, loop_count, nondivider_count,
                    pivot_letters, pivot_sequence, product, to_word, weight_blocks)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {"suite": self.suite, "ok": self.ok,
                "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail,
                            "seconds": round(c.seconds, 3)} for c in self.checks]}

    def render(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name} ({c.seconds:.2f}s): {c.detail}")
        mark = "PASS" if self.ok else "FAIL"
        lines.append(f"[{mark}] suite {self.suite}")
        return "\n".join(lines)


class _Collector:
    def __init__(self):
        self.checks: list[CheckResult] = []

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure with the message attached
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.checks.append(CheckResult(name, ok, detail, time.perf_counter() - t0))


def _random_graffiti(rng, degrees, count, **filters):
    pools = {p: enumerate_graffiti(p, **filters) for p in degrees}
    pools = {p: g for p, g in pools.items() if g}
    out = []
    for _ in range(count):
        p = rng.choice(sorted(pools))
        out.append(rng.choice(pools[p]))
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_d_squared(max_degree=5, **_):
    col = _Collector()
    za = PointedRing.make(ZA)

    def reduced():
        cx = build_complex(ComplexSpec(4, za, CLOSED, max_degree=max_degree))
        rep = validate_d_squared(cx)
        return rep.ok, f"reduced loop complex through degree {max_degree}: {rep}"
    col.run("d2-reduced-universal", reduced)

    def augmented():
        cx = build_complex(ComplexSpec(4, za, EndSpec(augmented=True),
                                       max_degree=min(max_degree, 4)))
        rep = validate_d_squared(cx)
        return rep.ok, f"augmented complex through degree {min(max_degree, 4)}: {rep}"
    col.run("d2-augmented-universal", augmented)

    def opens():
        for code in ("oo", "oc", "co"):
            cx = build_complex(ComplexSpec(
                4, za, EndSpec.from_code(code), max_degree=min(max_degree, 4)))
            rep = validate_d_squared(cx)
            if not rep.ok:
                return False, f"open complex {code}: {rep}"
        return True, "open complexes oo/oc/co pass"
    col.run("d2-open-ends", opens)
    return SuiteReport("d-squared", col.checks)


def suite_model_d_squared(max_degree=6, **_):
    col = _Collector()
    za = PointedRing.make(ZA)
    for n in (2, 4, 6, 8, 10, 12):
        def chk(n=n):
            model = minimal_model(n, za)  # generator-level d^2 checked here
            cx = truncated_complex(model, max_degree)
            rep = validate_d_squared(cx)
            return rep.ok, (f"small model 2n={n} through degree {max_degree}, "
                            f"dims {[cx.dim(p) for p in range(max_degree + 1)]}")
        col.run(f"model-d2-2n{n:02d}", chk)

    def fourm():
        cx = truncated_complex(four_model(za), max_degree)
        return validate_d_squared(cx).ok, "reflection model truncation passes"
    col.run("model-d2-reflection", fourm)
    return SuiteReport("model-d-squared", col.checks)


def suite_leibniz(samples=200, seed=0, **_):
    col = _Collector()
    rng = random.Random(seed)
    z0 = PointedRing.make(ZZ, 0)

    def leibniz():
        xs = _random_graffiti(rng, range(2, 4), samples)
        ys = _random_graffiti(rng, range(2, 4), samples)
        for x, y in zip(xs, ys):
            cx, cy = Chain.of(z0, x), Chain.of(z0, y)
            sign = z0.domain.from_int((-1) ** x.degree)
            lhs = differential(cx * cy)
            rhs = differential(cx) * cy + (cx * differential(cy)).scale(sign)
            if lhs != rhs:
                return False, f"fails on {x.encode()} * {y.encode()}"
        return True, f"graded product rule holds on {samples} sampled pairs"
    col.run("leibniz-sign", leibniz)
    return SuiteReport("leibniz", col.checks)


def suite_involutions(samples=200, seed=0, **_):
    col = _Collector()
    rng = random.Random(seed)
    za = PointedRing.make(ZA)

    def generators():
        imgs = phi(za).images
        x, xh, r, y = (imgs[k] for k in ("x", "xh", "r", "y"))
        ok = (chain_involution_tb(x) == x and chain_involution_tb(xh) == xh
              and chain_involution_tb(r) == r and chain_involution_tb(y) == y
              and chain_involution_lr(x) == xh and chain_involution_lr(xh) == x
              and chain_involution_lr(r) == r and chain_involution_lr(y) == y)
        return ok, "vertical reflection fixes all images; horizontal swaps the two degree-1 ones"
    col.run("involutions-generator-images", generators)

    def relations():
        per_degree = max(1, samples // 4)
        chains = []
        for p in range(1, 5):
            for g in _random_graffiti(rng, [p], per_degree):
                chains.append((Chain.of(za, g), p))
        rep = check_involution_relations(chains, differential,
                                         chain_involution_tb,
                                         chain_involution_lr)
        return rep.ok, (f"differential relations on {len(chains)} sampled systems "
                        f"of degree <= 4")
    col.run("involutions-differential-relations", relations)

    def model_side():
        model = four_model(za)
        rep = check_involution_relations(sample_words(model, samples, seed),
                                         model.differential,
                                         *model_involutions(model))
        return rep.ok, "model-side relations on generators and random words"
    col.run("involutions-model", model_side)

    def anti():
        for _ in range(samples):
            x, y = _random_graffiti(rng, [1, 2], 2)
            if involutions_product_defect(za, x, y):
                return False, f"antihomomorphism fails on {x.encode()}, {y.encode()}"
        return True, "horizontal reflection reverses products"
    col.run("involutions-antihomomorphism", anti)
    return SuiteReport("involutions", col.checks)


def involutions_product_defect(ring, x, y):
    lhs = chain_involution_lr(Chain.of(ring, product(x, y)))
    rhs = Chain.of(ring, product(
        next(iter(chain_involution_lr(Chain.of(ring, y)).terms)),
        next(iter(chain_involution_lr(Chain.of(ring, x)).terms))))
    return lhs != rhs


def suite_slicing(**_):
    col = _Collector()

    def roundtrip():
        for d in enumerate_diagrams(4, 4):
            l, r = slice_diagram(d)
            if unslice(l, r) != d:
                return False, f"round trip fails on {d.encode()}"
        return True, "cut and rejoin is the identity on all 14 square diagrams"
    col.run("slicing-roundtrip", roundtrip)

    def counts():
        for k in (0, 2, 4):
            n_k = sum(1 for d in enumerate_diagrams(4, 4) if d.through_count() == k)
            prod = (len(cell_basis(4, k, "left-cell"))
                    * len(cell_basis(4, k, "right-cell")))
            if n_k != prod:
                return False, f"k={k}: {n_k} diagrams vs {prod} state pairs"
        return True, "through-strand strata match state-pair counts (4+9+1)"
    col.run("slicing-stratum-counts", counts)

    def catalan_counts():
        for total in range(0, 13, 2):
            for n in range(total + 1):
                m = total - n
                if len(enumerate_diagrams(n, m)) != catalan(total // 2):
                    return False, f"count off at ({n},{m})"
        return True, "diagram counts are Catalan numbers through 12 points"
    col.run("slicing-catalan", catalan_counts)
    return SuiteReport("slicing", col.checks)


def suite_letters(max_degree=4, **_):
    col = _Collector()

    def counts():
        got = [len(enumerate_letters(2, 2)), len(enumerate_letters(0, 2)),
               len(enumerate_letters(2, 0)), len(enumerate_letters(0, 0))]
        return got == [9, 6, 6, 4], f"letter counts by stub type: {got}"
    col.run("letters-counts", counts)

    def uniqueness():
        from .loops import from_word
        for p in range(1, min(max_degree, 3) + 1):
            seen = set()
            for g in enumerate_graffiti(p):
                w = to_word(g)
                if from_word(w) != g or w in seen:
                    return False, f"word decomposition fails at {g.encode()}"
                seen.add(w)
        return True, "every system is a unique word in the 25 letters"
    col.run("letters-unique-words", uniqueness)

    def transfer():
        # listing grows as 13^p, so past degree 4 the basis is counted only
        for p in range(1, max_degree + 1):
            n = len(enumerate_graffiti(p)) if p <= 4 else count_graffiti(p)
            if n != 4 * 13 ** (p - 1):
                return False, f"degree {p} basis size is wrong"
        return True, f"basis sizes 4*13^(p-1) through degree {max_degree}"
    col.run("letters-basis-sizes", transfer)
    return SuiteReport("letters", col.checks)


def suite_word_complex(max_degree=5, **_):
    col = _Collector()
    for s in (1, 2, 3, 4):
        def chk(s=s):
            cx = build_word_complex(s, max_degree)
            hs = homology(cx, range(1, max_degree))
            want = [(1, ()) if h.degree == 1 else (0, ()) for h in hs]
            got = [(h.free_rank, h.torsion) for h in hs]
            return got == want, f"alphabet {s}: ranks {[h.free_rank for h in hs]}"
        col.run(f"word-complex-{s}", chk)
    return SuiteReport("word-complex", col.checks)


def suite_psi_chain_map(rings=("za", "z", "f2"), **_):
    col = _Collector()
    for code in rings:
        def chk(code=code):
            rep = check_chain_map(psi(parse_ring(code)))
            return rep.ok, f"over {code}: {rep}"
        col.run(f"psi-chain-map-{code}", chk)
    return SuiteReport("psi-chain-map", col.checks)


def suite_phi_chain_map(rings=("za", "z", "f2"), **_):
    col = _Collector()
    for code in rings:
        def chk(code=code):
            rep = check_chain_map(phi(parse_ring(code)))
            return rep.ok, f"over {code}: {rep}"
        col.run(f"phi-chain-map-{code}", chk)

    def composite():
        za = PointedRing.make(ZA)
        comp = psi(za).compose_with(phi(za))
        rep = check_chain_map(comp)
        return rep.ok, "composite model map is a chain map"
    col.run("phi-psi-composite", composite)
    return SuiteReport("phi-chain-map", col.checks)


def suite_alpha_boundary(**_):
    col = _Collector()
    for code in ("z", "f2", "f3", "q"):
        def chk(code=code):
            rep = alpha_boundary_check(parse_ring(code))
            return rep.ok, f"boundary identity over {code} at a=0"
        col.run(f"alpha-boundary-{code}", chk)
    return SuiteReport("alpha-boundary", col.checks)


def _generated_by(cx, chain, degree):
    """The class of the chain generates the homology, free of rank 1 with
    one checked representative: over a field any nonzero class spans it,
    over Z the class must be the representative's up to sign."""
    v = chain_to_vector(chain, cx, degree)
    if not is_cycle(cx, v, degree) or is_boundary(cx, v, degree):
        return False
    hs = homology(cx, [degree], representatives=True)
    reps = hs[0].representatives
    if hs[0].free_rank != 1 or hs[0].torsion or len(reps) != 1:
        return False
    if cx.ring.domain.is_field():
        return True
    rep = reps[0]
    for sgn in (1, -1):
        diff = {k: rep.get(k, 0) - sgn * v.get(k, 0) for k in set(rep) | set(v)}
        diff = {k: x for k, x in diff.items() if x}
        if is_boundary(cx, diff, degree):
            return True
    return False


def suite_main_technical(max_degree=5, rings=("z", "f2"), **_):
    col = _Collector()
    for code in rings:
        ring = parse_ring(code)

        def one_loop(ring=ring, code=code):
            cx = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=max_degree,
                                           weight=1, dividers=0, subquotient=True))
            hs = homology(cx, range(1, max_degree))
            got = [(h.free_rank, h.torsion) for h in hs]
            if got != [(1, ())] + [(0, ())] * (max_degree - 2):
                return False, f"one-loop row homology over {code}: {got}"
            if not _generated_by(cx, phi(ring).images["x"], 1):
                return False, "distinguished one-bar class does not generate"
            return True, f"one copy of R in degree 1, generated by the one-bar class"
        col.run(f"main-w1-{code}", one_loop)

        def two_loop(ring=ring, code=code):
            cx = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=max_degree,
                                           weight=2, dividers=0, subquotient=True))
            hs = homology(cx, range(1, max_degree))
            got = [(h.free_rank, h.torsion) for h in hs]
            want = [(0, ()), (0, ()), (1, ())] + [(0, ())] * (max_degree - 5 + 1)
            if got != want[:max_degree - 1]:
                return False, f"two-loop row homology over {code}: {got}"
            if not _generated_by(cx, phi(ring).images["y"], 3):
                return False, "four-term cycle does not generate"
            return True, "one copy of R in degree 3, the four-term cycle generates"
        col.run(f"main-w2-{code}", two_loop)

        def higher(ring=ring, code=code):
            for w in (3, 4):
                cx = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=max_degree,
                                               weight=w, dividers=0, subquotient=True))
                hs = homology(cx, range(1, max_degree))
                if any(h.free_rank or h.torsion for h in hs):
                    return False, f"w={w} row not acyclic over {code}"
            return True, (f"rows with three and four loops are acyclic in degrees "
                          f"1..{max_degree - 1}")
        col.run(f"main-w34-{code}", higher)
    return SuiteReport("main-technical", col.checks)


def suite_open_contractibility(max_degree=5, **_):
    col = _Collector()
    z0 = PointedRing.make(ZZ, 0)
    for code, name in (("oo", "open-both"), ("oc", "open-left"), ("co", "open-right")):
        def chk(code=code):
            cx = build_complex(ComplexSpec(4, z0, EndSpec.from_code(code),
                                           max_degree=max_degree,
                                           weight=1, dividers=0, subquotient=True))
            hs = homology(cx, range(1, max_degree))
            got = [(h.free_rank, h.torsion) for h in hs]
            want = [(1, ())] + [(0, ())] * (max_degree - 2)
            return got == want, f"{code}: dims {[cx.dim(p) for p in range(max_degree + 1)]}, homology R in degree 1 only"
        col.run(f"open-{name}", chk)

    def vs_words():
        cx = build_complex(ComplexSpec(4, z0, EndSpec.from_code("oo"),
                                       max_degree=max_degree,
                                       weight=1, dividers=0, subquotient=True))
        wc = build_word_complex(4, max_degree)
        dims_ok = all(cx.dim(p) == wc.dim(p) for p in range(max_degree + 1))
        ha = [(h.free_rank, h.torsion) for h in homology(cx, range(1, max_degree))]
        hb = [(h.free_rank, h.torsion) for h in homology(wc, range(1, max_degree))]
        return dims_ok and ha == hb, "two-side-open row matches the four-letter word complex"
    col.run("open-vs-word-complex", vs_words)
    return SuiteReport("open-contractibility", col.checks)


def suite_pivot_properties(samples=200, seed=0, max_degree=4, **_):
    col = _Collector()
    rng = random.Random(seed)

    def thirteen():
        return len(pivot_letters(max_degree)) == 13, \
            f"{len(pivot_letters(max_degree))} distinct letters meet two loops"
    col.run("pivot-letter-count", thirteen)

    def uniqueness():
        pset = set(pivot_letters(max_degree))
        for p in range(1, max_degree + 1):
            for g in enumerate_graffiti(p, weight=2, dividers=0):
                w = to_word(g)
                hits = [l for l in w if l in pset]
                seq = pivot_sequence(g)
                if len(seq) != 1 or len(hits) != 1 or hits[0] != seq[0]:
                    return False, f"pivot not unique in {g.encode()}"
        return True, "two-loop divider-free systems have exactly one pivot"
    col.run("pivot-uniqueness", uniqueness)

    def seq_lengths():
        for w in (2, 3):
            for p in range(w, max_degree + 1):
                for g in enumerate_graffiti(p, weight=w, dividers=0):
                    if len(pivot_sequence(g)) != w - 1:
                        return False, f"sequence length off for {g.encode()}"
        return True, "pivot sequences have one fewer entries than loops"
    col.run("pivot-sequence-length", seq_lengths)

    def stability():
        z0 = PointedRing.make(ZZ, 0)
        pool = []
        for p in range(3, max_degree + 2):
            pool.extend(enumerate_graffiti(p, weight=3, dividers=0))
        rng.shuffle(pool)
        pset = sorted(set(pivot_letters(max_degree)), key=Letter.encode)
        left_end = {l for l in pset if l.kl == 0 and l.kr == 2}
        right_end = {l for l in pset if l.kl == 2 and l.kr == 0}
        tested = 0
        for g in pool[:samples]:
            seq = pivot_sequence(g)
            for i in range(g.degree):
                f = face(g, i, z0)
                if f.is_zero():
                    continue
                (tgt, _), = f.terms.items()
                if divider_count(tgt) != 0:
                    continue
                seq2 = pivot_sequence(tgt)
                if len(seq2) != len(seq) or seq2[1:-1] != seq[1:-1]:
                    return False, f"middle pivots moved under deletion of bar {i}"
                if seq2[0] != seq[0] and not (seq2[0] in left_end and seq[0] not in left_end):
                    return False, "first pivot changed illegally"
                if seq2[-1] != seq[-1] and not (seq2[-1] in right_end and seq[-1] not in right_end):
                    return False, "last pivot changed illegally"
                tested += 1
        return True, f"pivot sequences stable under {tested} nonzero deletions"
    col.run("pivot-stability", stability)
    return SuiteReport("pivot-properties", col.checks)


def suite_filtration_properties(samples=200, seed=0, max_degree=4, **_):
    col = _Collector()
    rng = random.Random(seed)
    z0 = PointedRing.make(ZZ, 0)
    za = PointedRing.make(ZA)

    def monotone():
        xs = _random_graffiti(rng, range(2, max_degree + 1), samples)
        for x in xs:
            for i in range(x.degree):
                f = face(x, i, z0)
                if f.is_zero() or x.degree < 2:
                    continue
                (t, _), = f.terms.items()
                if divider_count(t) not in (divider_count(x), divider_count(x) + 1):
                    return False, f"divider count drops at {x.encode()} bar {i}"
        return True, "nonzero deletions keep or raise the divider count by one"
    col.run("filtration-divider-monotone", monotone)

    def products():
        xs = _random_graffiti(rng, range(1, max_degree), samples)
        ys = _random_graffiti(rng, range(1, max_degree), samples)
        for x, y in zip(xs, ys):
            xy = product(x, y)
            if divider_count(xy) != divider_count(x) + divider_count(y) + 1:
                return False, "divider count of a product is off"
            if nondivider_count(xy) != nondivider_count(x) + nondivider_count(y):
                return False, "non-divider count of a product is off"
            if loop_count(xy) != loop_count(x) + loop_count(y):
                return False, "loop count of a product is off"
        return True, f"product statistics additive on {samples} pairs"
    col.run("filtration-product-stats", products)

    def weights():
        xs = _random_graffiti(rng, range(2, max_degree + 1), samples)
        for x in xs:
            for i in range(x.degree):
                f = face(x, i, za)
                (t, c), = f.terms.items()
                lost = loop_count(x) - loop_count(t)
                if c != za.a_power(lost) or lost < 0:
                    return False, f"coefficient is not a^(lost loops) at {x.encode()}"
        return True, "every deletion pays one marked factor per unpinned loop"
    col.run("filtration-weight-bookkeeping", weights)

    def dims():
        def dims_of(w, j):  # the subquotient row's basis sizes, counted unbuilt
            return [count_graffiti(p, 4, CLOSED, w, j) for p in range(max_degree + 1)]

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(1, total - parts + 2):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest
        base = {w: dims_of(w, 0) for w in range(1, 4)}
        for w in range(1, 4):
            for j in range(0, 3):
                got = dims_of(w, j)
                for p in range(1, max_degree + 1):
                    expect = 0
                    for ws in compositions(w, j + 1):
                        for ps in compositions(p, j + 1):
                            term = 1
                            for wt, pt in zip(ws, ps):
                                term *= base[wt][pt] if pt <= max_degree else 0
                            expect += term
                    if got[p] != expect:
                        return False, f"dimension identity fails at w={w}, j={j}, p={p}"
        return True, "divider rows factor as sums of products of divider-free rows"
    col.run("filtration-dimension-identity", dims)
    return SuiteReport("filtration-properties", col.checks)


def suite_model_vs_complex(rings=("z", "q", "f2", "f3"), max_degree=5, **_):
    col = _Collector()
    degrees = range(1, max_degree)
    rings = {code: parse_ring(code) for code in rings}
    blocks = weight_blocks(ComplexSpec(4, PointedRing.make(ZZ, 0), CLOSED,
                                       max_degree=max_degree))
    table = homology_table(blocks, degrees, [r.domain for r in rings.values()])
    for code, ring in rings.items():
        def chk(code=code, ring=ring):
            got = {h.degree: (h.free_rank, sorted(h.torsion))
                   for h in table[ring.domain]}
            model = truncated_complex(minimal_model(4, ring), max_degree)
            want = {h.degree: (h.free_rank, sorted(h.torsion))
                    for h in homology(model, degrees)}
            return got == want, f"{code}: loops {got} == model {want}"
        col.run(f"model-vs-complex-{code}", chk)
    return SuiteReport("model-vs-complex", col.checks)


SUITES = {
    "d-squared": suite_d_squared,
    "leibniz": suite_leibniz,
    "involutions": suite_involutions,
    "slicing": suite_slicing,
    "letters": suite_letters,
    "word-complex": suite_word_complex,
    "model-d-squared": suite_model_d_squared,
    "psi-chain-map": suite_psi_chain_map,
    "phi-chain-map": suite_phi_chain_map,
    "alpha-boundary": suite_alpha_boundary,
    "main-technical": suite_main_technical,
    "open-contractibility": suite_open_contractibility,
    "pivot-properties": suite_pivot_properties,
    "filtration-properties": suite_filtration_properties,
    "model-vs-complex": suite_model_vs_complex,
}


# The least max_degree at which each suite that takes one checks what it
# names: below it a suite checks nothing or leaves its trusted range.
MIN_DEGREE = {
    "d-squared": 2,
    "model-d-squared": 2,
    "letters": 1,
    "word-complex": 2,
    "main-technical": 4,
    "open-contractibility": 2,
    "pivot-properties": 3,
    "filtration-properties": 2,
    "model-vs-complex": 2,
}


# The suites that take rings and compute homology, which is reduced over Z
# or a field only.
HOMOLOGY_SUITES = {"main-technical", "model-vs-complex"}


def run_suite(name: str, **params) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(name)
    if params.get("samples", 1) < 1:
        raise ValueError(f"samples must be at least 1, got {params['samples']}")
    if "max_degree" in params:
        if name not in MIN_DEGREE:
            raise ValueError(f"suite {name} takes no max_degree")
        if params["max_degree"] < MIN_DEGREE[name]:
            raise ValueError(f"suite {name} needs max_degree at least "
                             f"{MIN_DEGREE[name]}, got {params['max_degree']}")
    if "rings" in params:
        if "rings" not in inspect.signature(SUITES[name]).parameters:
            raise ValueError(f"suite {name} takes no rings")
        for code in params["rings"]:
            ring = parse_ring(code)  # DomainError on an unknown ring
            if name in HOMOLOGY_SUITES and ring.domain.kind == INT_POLY_A:
                raise DomainError(f"suite {name} computes homology over Z or "
                                  f"a field, not over {code}")
    report = SUITES[name](**params)
    report.checks.sort(key=lambda c: c.name)
    return report
