import hashlib
import importlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings, strategies as st

from planarloops import (Chain, ChainComplexData, CoefficientDomain,
                         ComplexSpec, DomainError, EndSpec, NCPoly,
                         PointedRing, QQ, SmithForm, SparseMatrix, ZA, ZZ,
                         build_complex, build_word_complex, chain_to_vector,
                         four_model,
                         homology, homology_table, integer_kernel_basis,
                         is_boundary, is_cycle, minimal_model, phi, prime_field,
                         rank_over_field, smith_normal_form, solve_integer,
                         truncated_complex, validate_d_squared,
                         weight_blocks, weight_decompose)
from planarloops.homology import (_DENSE_CELLS, LinearAlgebraError, _dense_snf,
                                  _identity, _SparseSNF, graded_matrix,
                                  over_field, zero_matrix)
from planarloops.loops import CLOSED
from planarloops.verify import _generated_by

from conftest import PHI_X

Z0 = PointedRing.make(ZZ, 0)
# the package attribute planarloops.homology is the function, not the module
homology_module = importlib.import_module("planarloops.homology")


def M(rows, cols, data):
    return SparseMatrix.from_dict(rows, cols, data, ZZ)


def test_complexes_refuse_a_negative_max_degree():
    # every builder hands its complex to ChainComplexData, which refuses it
    for build in (lambda top: ChainComplexData(Z0, top, {}, {}),
                  lambda top: build_word_complex(2, top),
                  lambda top: truncated_complex(minimal_model(4, Z0), top)):
        with pytest.raises(LinearAlgebraError, match="max_degree"):
            build(-1)
        cx = build(0)
        assert cx.max_degree == 0 and cx.dim(0) == 0


# -- independent dense oracles ------------------------------------------------

def dense_rank_q(rows, cols, entries):
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for r, c, v in entries:
        m[r][c] = Fraction(v)
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col]:
                q = m[i][col]
                m[i] = [x - q * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_rank_mod_p(rows, cols, entries, p):
    m = [[0] * cols for _ in range(rows)]
    for r, c, v in entries:
        m[r][c] = v % p
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col]:
                q = m[i][col]
                m[i] = [(x - q * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def matmul_dense(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def to_dense(A):
    m = [[0] * A.cols for _ in range(A.rows)]
    for r, c, v in A.entries:
        m[r][c] = v
    return m


def textbook_snf(m, cols):
    """Dense Smith form with transforms: (invariants, U, V), U m V = diag."""
    m = [row[:] for row in m]
    nr, nc = len(m), cols
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(nc):
            m[i][t] -= q * m[j][t]
        for t in range(nr):
            U[i][t] -= q * U[j][t]

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(nr):
            m[t][i] -= q * m[t][j]
        for t in range(nc):
            V[t][i] -= q * V[t][j]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for t in range(nr):
            m[t][i], m[t][j] = m[t][j], m[t][i]
        for t in range(nc):
            V[t][i], V[t][j] = V[t][j], V[t][i]

    # every pass pivots on a least nonzero entry of the trailing block, so
    # any remainder it leaves is smaller still; swapping each remainder into
    # the pivot position in place of that lets entries grow to 10^5 bits on
    # a 26 x 28 matrix of entries +-1, +-2 and 3
    invs = []
    k = 0
    while k < nr and k < nc:
        while True:
            nonzero = [(abs(m[i][j]), i, j) for i in range(k, nr)
                       for j in range(k, nc) if m[i][j]]
            if not nonzero:
                return invs, U, V
            _, pr, pc = min(nonzero)
            row_swap(k, pr)
            col_swap(k, pc)
            for i in range(k + 1, nr):
                if m[i][k]:
                    row_op(i, k, m[i][k] // m[k][k])
            for j in range(k + 1, nc):
                if m[k][j]:
                    col_op(j, k, m[k][j] // m[k][k])
            if any(m[i][k] for i in range(k + 1, nr)) or \
                    any(m[k][j] for j in range(k + 1, nc)):
                continue
            bad = next((i for i in range(k + 1, nr)
                        if any(m[i][j] % m[k][k] for j in range(k + 1, nc))), None)
            if bad is None:
                break
            row_op(k, bad, -1)
        if m[k][k] < 0:
            for t in range(nc):
                m[k][t] = -m[k][t]
            U[k] = [-x for x in U[k]]
        invs.append(m[k][k])
        k += 1
    return invs, U, V


def oracle_solve(m, cols, b):
    """An integral solution of m x = b (b a dense list), or None."""
    invs, U, V = textbook_snf(m, cols)
    y = [sum(u * w for u, w in zip(row, b)) for row in U]
    rank = len(invs)
    if any(y[i] % invs[i] for i in range(rank)) or any(y[rank:]):
        return None
    t = [y[i] // invs[i] for i in range(rank)]
    return [sum(V[i][j] * t[j] for j in range(rank)) for i in range(cols)]


def oracle_kernel(m, cols):
    invs, _, V = textbook_snf(m, cols)
    return [[V[i][j] for i in range(cols)] for j in range(len(invs), cols)]


def spans(basis, vectors, n):
    """Every vector is an integral combination of the basis (dense, length n)."""
    B = [[vec[i] for vec in basis] for i in range(n)]
    return all(oracle_solve(B, len(basis), v) is not None for v in vectors)


# entries other than units leave the sweep a residual core to reduce
ENTRY = st.one_of(st.just(0), st.sampled_from((1, -1)), st.integers(-6, 6))


# about half zeros; most nonzero entries are non-units, which force non-unit
# pivots over a field
SPARSE_ENTRY = st.one_of(st.just(0), st.integers(-6, 6))


@st.composite
def int_matrices(draw, max_dim=6, entry=ENTRY):
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    return M(rows, cols, {(r, c): draw(entry)
                          for r in range(rows) for c in range(cols)})


# -- Smith normal form ---------------------------------------------------------

def test_snf_examples():
    assert smith_normal_form(M(1, 1, {(0, 0): 2})).invariants == (2,)
    assert smith_normal_form(
        M(2, 2, {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8})).invariants == (2, 4)
    sf = smith_normal_form(zero_matrix(3, 4))
    assert sf.invariants == () and sf.rank == 0


def test_smith_form_rejects_inconsistent_values():
    assert SmithForm((1, 2, 6)).rank == 3
    for bad in ((0,), (-2,), (2, 2, -4)):
        with pytest.raises(LinearAlgebraError, match="positive"):
            SmithForm(bad)
    with pytest.raises(LinearAlgebraError, match="divisibility"):
        SmithForm((2, 3))
    # the rank is the number of invariants, not a value of its own, and the
    # transforms are passed by keyword
    with pytest.raises(TypeError):
        SmithForm((2,), 5)


def test_snf_transforms_certify():
    rng = random.Random(10)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = {(r, c): rng.randint(-9, 9) for r in range(rows) for c in range(cols)
                if rng.random() < 0.6}
        A = SparseMatrix.from_dict(rows, cols, data, ZZ)
        sf = _dense_snf(rows, cols, A.entries, transforms=True)
        dense = [[0] * cols for _ in range(rows)]
        for r, c, v in A.entries:
            dense[r][c] = v
        S = matmul_dense(matmul_dense(sf.U, dense), sf.V)
        for i in range(rows):
            for j in range(cols):
                want = sf.invariants[i] if i == j and i < len(sf.invariants) else 0
                assert S[i][j] == want
        # inverses really invert
        for P, Pi, n in ((sf.U, sf.uinv, rows), (sf.V, sf.vinv, cols)):
            I = matmul_dense(P, Pi)
            assert all(I[i][j] == (i == j) for i in range(n) for j in range(n))
        # invariants agree with the sparse (transform-free) path
        assert smith_normal_form(A).invariants == sf.invariants


def test_snf_invariant_under_unimodular_ops():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        data = {(r, c): rng.randint(-6, 6) for r in range(rows) for c in range(cols)
                if rng.random() < 0.7}
        A = SparseMatrix.from_dict(rows, cols, data, ZZ)
        base = smith_normal_form(A).invariants
        dense = [[0] * cols for _ in range(rows)]
        for r, c, v in A.entries:
            dense[r][c] = v
        for _ in range(10):
            if rng.random() < 0.5 and rows > 1:
                i, j = rng.sample(range(rows), 2)
                q = rng.randint(-3, 3)
                for t in range(cols):
                    dense[i][t] += q * dense[j][t]
            elif cols > 1:
                i, j = rng.sample(range(cols), 2)
                q = rng.randint(-3, 3)
                for t in range(rows):
                    dense[t][i] += q * dense[t][j]
        B = SparseMatrix.from_dict(
            rows, cols,
            {(r, c): dense[r][c] for r in range(rows) for c in range(cols)}, ZZ)
        assert smith_normal_form(B).invariants == base


def test_rank_over_field_examples():
    two = M(1, 1, {(0, 0): 2})
    assert rank_over_field(two, prime_field(2)) == 0
    assert rank_over_field(two, QQ) == 1
    eye = M(5, 5, {(i, i): 1 for i in range(5)})
    assert rank_over_field(eye, QQ) == 5
    with pytest.raises(DomainError):
        rank_over_field(eye, ZZ)


def test_over_field_drops_the_multiples_of_p():
    A = M(2, 3, {(0, 0): 2, (0, 2): -1, (1, 1): 3})
    f2, f3 = prime_field(2), prime_field(3)
    assert over_field(A, f2) == SparseMatrix(2, 3, [(0, 2, 1), (1, 1, 1)], f2)
    assert over_field(A, f3) == SparseMatrix(2, 3, [(0, 0, 2), (0, 2, 2)], f3)
    # no entry of A vanishes over Q, so every row keeps its columns
    over_q = over_field(A, QQ)
    assert over_q == SparseMatrix.from_dict(
        2, 3, {(r, c): Fraction(v) for r, c, v in A.entries}, QQ)
    assert all(a[1] is b[1] for a, b in zip(A.row_data, over_q.row_data))
    assert over_field(M(1, 1, {(0, 0): 4}), f2).row_data == ()


def test_rank_matches_snf_mod_p():
    rng = random.Random(12)
    for _ in range(50):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = {(r, c): rng.randint(-12, 12) for r in range(rows)
                for c in range(cols) if rng.random() < 0.6}
        A = SparseMatrix.from_dict(rows, cols, data, ZZ)
        invs = smith_normal_form(A).invariants
        for p in (2, 3, 5):
            expected = sum(1 for d in invs if d % p)
            assert rank_over_field(A, prime_field(p)) == expected
        assert rank_over_field(A, QQ) == len(invs)
        assert rank_over_field(A, QQ) == dense_rank_q(rows, cols, A.entries)


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_dim=8, entry=SPARSE_ENTRY))
def test_field_rank_matches_dense_oracles(A):
    """The sweep pivots on non-units over a field; its pivot count is the
    rank over F2, F3, F5 and Q, and stays exact on a QQ matrix holding
    plain int entries."""
    for p in (2, 3, 5):
        assert rank_over_field(A, prime_field(p)) == \
            dense_rank_mod_p(A.rows, A.cols, A.entries, p)
    rank_q = dense_rank_q(A.rows, A.cols, A.entries)
    assert rank_over_field(A, QQ) == rank_q
    assert rank_over_field(SparseMatrix(A.rows, A.cols, A.entries, QQ), QQ) == rank_q


def test_solve_integer_and_kernel():
    A = M(2, 3, {(0, 0): 2, (0, 1): 4, (1, 2): 3})
    sol = solve_integer(A, {0: 6, 1: 3})
    assert sol is not None
    assert A.apply(sol) == {0: 6, 1: 3}
    assert solve_integer(A, {0: 1}) is None
    for k in integer_kernel_basis(A):
        assert A.apply(k) == {}


@settings(max_examples=150, deadline=None)
@given(int_matrices(), st.data())
def test_solve_integer_finds_preimages(A, data):
    x0 = {c: data.draw(st.integers(-4, 4)) for c in range(A.cols)}
    b = A.apply({c: v for c, v in x0.items() if v})
    x = solve_integer(A, b)
    assert x is not None and A.apply(x) == b


@settings(max_examples=150, deadline=None)
@given(int_matrices(), st.data())
def test_solvability_matches_dense_oracle(A, data):
    b = [data.draw(st.integers(-6, 6)) for _ in range(A.rows)]
    x = solve_integer(A, {r: v for r, v in enumerate(b) if v})
    assert (x is None) == (oracle_solve(to_dense(A), A.cols, b) is None)
    assert smith_normal_form(A).invariants == \
        tuple(textbook_snf(to_dense(A), A.cols)[0])


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_kernel_basis_matches_dense_oracle(A):
    basis = integer_kernel_basis(A)
    assert len(basis) == A.cols - dense_rank_q(A.rows, A.cols, A.entries)
    assert all(A.apply(k) == {} for k in basis)
    mine = [[k.get(i, 0) for i in range(A.cols)] for k in basis]
    theirs = oracle_kernel(to_dense(A), A.cols)
    assert spans(mine, theirs, A.cols) and spans(theirs, mine, A.cols)


# mostly units, so the sweep runs long and re-keys its queue; some 2s and 3s
# leave a residual core over Z and vanish over F2 or F3
BOUNDARY_LIKE = st.sampled_from((1, -1, 1, -1, 1, -1, 2, -2, 3))


@st.composite
def sparse_matrices_and_permutations(draw):
    """A sparse integer matrix up to 30 x 40, and a row and a column
    permutation of it."""
    rows, cols = draw(st.integers(0, 30)), draw(st.integers(0, 40))
    data = {}
    if rows and cols:
        n = draw(st.integers(0, 3 * (rows + cols)))
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        data = dict(draw(st.lists(st.tuples(cell, BOUNDARY_LIKE),
                                  min_size=n, max_size=n)))
    A = M(rows, cols, data)
    pr, pc = draw(st.permutations(range(rows))), draw(st.permutations(range(cols)))
    B = M(rows, cols, {(pr[r], pc[c]): v for (r, c), v in data.items()})
    return A, B


@settings(max_examples=100, deadline=None)
@given(sparse_matrices_and_permutations(), st.data())
def test_answers_do_not_depend_on_pivot_order(AB, data):
    """Permuting rows and columns changes the sweep's tie-breaks and so its
    pivot order; invariants and ranks must not change, and the permuted
    matrix's solves and kernels must pass their own checks."""
    A, B = AB
    invariants = tuple(textbook_snf(to_dense(A), A.cols)[0])
    assert smith_normal_form(A).invariants == invariants
    assert smith_normal_form(B).invariants == invariants
    for p in (2, 3):
        rank = dense_rank_mod_p(A.rows, A.cols, A.entries, p)
        assert rank_over_field(A, prime_field(p)) == rank
        assert rank_over_field(B, prime_field(p)) == rank
    rank = dense_rank_q(A.rows, A.cols, A.entries)
    assert rank_over_field(A, QQ) == rank_over_field(B, QQ) == rank
    x0 = {c: data.draw(st.integers(-3, 3)) for c in range(B.cols)}
    b = B.apply({c: v for c, v in x0.items() if v})
    x = solve_integer(B, b)
    assert x is not None and B.apply(x) == b
    assert len(integer_kernel_basis(B)) == B.cols - rank


@settings(max_examples=300, deadline=None)
@given(int_matrices(max_dim=5), st.data())
def test_representatives_generate_free_homology(A, data):
    """On C_2 -> C_1 -> C_0 with d_1 = A and d_2 = K R (K a kernel basis,
    R random), the representatives of H_1 together with the boundaries
    span a lattice whose index in ker A is exactly the torsion of H_1, which
    holds precisely when their classes generate H_1 modulo torsion."""
    K = oracle_kernel(to_dense(A), A.cols)
    k = data.draw(st.integers(0, 5))
    R = [[data.draw(ENTRY) for _ in range(k)] for _ in K]
    d2 = {(i, j): sum(K[t][i] * R[t][j] for t in range(len(K)))
          for i in range(A.cols) for j in range(k)}
    cx = ChainComplexData(
        Z0, 2, {p: tuple(map(str, range(n))) for p, n in
                enumerate((A.rows, A.cols, k))},
        {1: A, 2: M(A.cols, k, d2)})
    (h,) = homology(cx, [1], representatives=True)
    assert len(h.representatives) == h.free_rank

    Kcols = [[vec[i] for vec in K] for i in range(A.cols)]

    def coords(vec):
        x = oracle_solve(Kcols, len(K), [vec.get(i, 0) for i in range(A.cols)])
        assert x is not None
        return x

    W = [coords({i: d2[i, j] for i in range(A.cols)}) for j in range(k)]
    W += [coords(rep) for rep in h.representatives]
    invs = textbook_snf([[w[t] for w in W] for t in range(len(K))], len(W))[0]
    assert len(invs) == len(K)
    assert math.prod(invs) == math.prod(h.torsion)


def test_dense_transform_budget_fails_fast():
    n = math.isqrt(_DENSE_CELLS) + 1
    with pytest.raises(LinearAlgebraError, match=f"1x{n} matrix"):
        _dense_snf(1, n, (), transforms=True)
    # no unit pivot at all, so the whole matrix is the residual core
    twice = M(n, n, {(i, i): 2 for i in range(n)})
    with pytest.raises(LinearAlgebraError, match=f"{n}x{n} matrix"):
        solve_integer(twice, {0: 2})


def test_dense_core_budget_without_transforms():
    n = math.isqrt(_DENSE_CELLS) + 1
    twice = M(n, n, {(i, i): 2 for i in range(n)})
    with pytest.raises(LinearAlgebraError, match=f"{n}x{n} matrix"):
        smith_normal_form(twice)
    # the residual core of d_6 on the five-loop block has this shape
    row = M(1, 3000, {(0, c): 2 for c in range(3000)})
    assert smith_normal_form(row).invariants == (2,)


def test_integral_certificates_at_degree_6():
    """The generator checks of criterion 6 at max_degree 6 over Z, and
    boundary decisions against the two-loop row's d_6, whose dense
    transforms would be far past the budget."""
    def row(w):
        return build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=6, weight=w,
                                         dividers=0, subquotient=True))
    assert _generated_by(row(1), Chain.of(Z0, PHI_X), 1)
    cx = row(2)
    assert _generated_by(cx, phi(Z0).images["y"], 3)
    d6 = cx.boundary(6)
    assert max(d6.rows, d6.cols) ** 2 > _DENSE_CELLS
    assert is_boundary(cx, d6.apply({0: 1, 5: -2, 100: 3}), 5)
    non_cycle = cx.boundary(5).entries[0][1]
    assert not is_boundary(cx, {non_cycle: 1}, 5)


@pytest.mark.parametrize("dom", [ZZ, prime_field(2)], ids=["z", "f2"])
def test_sweep_pops_few_stale_queue_entries(dom):
    """The queue holds one entry per row, so few popped entries are stale:
    on d_5 of the closed two-loop block (873 x 4536) the sweep pops about
    five entries per pivot, where queueing every entry of every touched row
    pops over a hundred."""
    cx = build_complex(ComplexSpec(4, PointedRing.make(dom, 0), CLOSED,
                                   max_degree=5, weight=2))
    d5 = cx.boundary(5)
    assert (d5.rows, d5.cols) == (873, 4536)
    work = _SparseSNF(d5)
    assert work.npivots == 740
    assert work.npops <= 10 * work.npivots


def _two_loop_boundaries(dom):
    """d_5 (873 x 4536) and d_6 (4536 x 22320) of the closed two-loop block."""
    cx = build_complex(ComplexSpec(4, PointedRing.make(dom, 0), CLOSED,
                                   max_degree=6, weight=2))
    return cx.boundary(5), cx.boundary(6)


def _sweep_record(work) -> str:
    """sha256 of the pivots (r0, c0, sorted row), of the operations sorted
    within each pivot, and of the residual rows and columns.  The order of
    one pivot's operations is immaterial: each writes a different row and
    reads only the pivot row."""
    pivots = [(r0, c0, sorted(row.items())) for r0, c0, row in work.pivots]
    ops = [sorted(group) for _, group in groupby(work.ops, itemgetter(1))]
    blob = repr((pivots, ops, work.res_rows, work.res_cols)).encode()
    return hashlib.sha256(blob).hexdigest()


def test_sweep_record_is_pinned():
    """The transform record of d_5 of the closed two-loop block over Z, as
    the lone-column peel and the sweep after it make it."""
    d5, _ = _two_loop_boundaries(ZZ)
    work = _SparseSNF(d5, transforms=True)
    assert (work.npeeled, work.npops, work.npivots, work.nfill, len(work.ops)) == \
        (16, 3421, 740, 13205, 1660)
    assert (work.res_rows, work.res_cols) == ([], [])
    assert (work.core.invariants, work.core.rank) == ((), 0)
    assert _sweep_record(work) == \
        "f5b20c6dac4e7413efcdc8b708a0ad7e0e5288844e9771551fe411586c10bef3"


@pytest.mark.parametrize("dom", [ZZ, prime_field(2)], ids=["z", "f2"])
def test_sweep_counts_are_pinned(dom):
    """Peeled pivots, queue pops, pivots and fill-in of d_5 and of d_6
    cleared at d_5's pivot columns, on the closed two-loop block."""
    d5, d6 = _two_loop_boundaries(dom)
    low = _SparseSNF(d5)
    high = _SparseSNF(d6, cleared=low.pivot_cols)
    assert (low.npeeled, low.npops, low.npivots, low.nfill) == (16, 3421, 740, 13205)
    assert (high.npeeled, high.npops, high.npivots, high.nfill) == (3796, 0, 3796, 0)


@pytest.mark.parametrize("dom", [ZZ, prime_field(2)], ids=["z", "f2"])
def test_chained_sweep_counts_are_pinned(dom):
    """Peeled pivots, queue pops, pivots and fill-in of d_5 and d_6 of the
    closed two-loop block as homology() reduces them: in the chain from d_1
    up, each cleared at the pivot columns of the one below.  d_4's 133
    pivots drop the rows of d_5 that fill in when it is reduced on its own,
    and every pivot left lies in a column one row holds, so the peel takes
    them all: no queue pop, no fill-in and no column index."""
    cx = build_complex(ComplexSpec(4, PointedRing.make(dom, 0), CLOSED,
                                   max_degree=6, weight=2))
    counts, cleared = [], frozenset()
    for q in range(1, 7):
        work = _SparseSNF(cx.boundary(q), cleared=cleared)
        counts.append((work.npeeled, work.npops, work.npivots, work.nfill))
        cleared = work.pivot_cols
    assert counts[4:] == [(740, 0, 740, 0), (3796, 0, 3796, 0)]


def test_peel_takes_the_lowest_lone_column():
    """The peel pivots each row on its lowest column of count 1.  On d_4 to
    d_6 of the closed four-loop block over Z, reduced in the chain, that
    keeps the fill-in and the residual cores small; pivoting on the highest
    lone column fills d_5 with 7,407 entries and leaves it a 1 x 465 core."""
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=6, weight=4))
    counts, cleared = [], frozenset()
    for q in range(1, 7):
        work = _SparseSNF(cx.boundary(q), cleared=cleared)
        counts.append((work.npops, work.npivots, work.nfill,
                       (len(work.res_rows), len(work.res_cols))))
        cleared = work.pivot_cols
    assert counts[3:] == [(0, 173, 0, (0, 0)), (683, 2542, 5840, (1, 438)),
                          (1620, 25202, 13170, (2, 153))]


def _sweep_peak(A, cleared) -> int:
    """Peak bytes traced while the sweep reduces A with the cleared rows."""
    tracemalloc.start()
    try:
        _SparseSNF(A, cleared=cleared)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_per_stored_entry():
    """The sweep keeps A's stored rows, copying one only when a pivot first
    writes to it.  On the cleared F2 d_6 of the closed two-loop block
    (80,288 entries) the lone-column peel takes every pivot, so no row is
    copied and no column index is made: the peak is about 8 bytes per entry
    of d_6.  The index is bounded by the next test."""
    d5, d6 = _two_loop_boundaries(prime_field(2))
    cleared = _SparseSNF(d5).pivot_cols
    assert _sweep_peak(d6, cleared) < 64 * d6.nnz()


def test_sweep_index_memory_per_stored_entry():
    """The sweep finds a column's rows through an index transposed from the
    stored rows the peel leaves, a flat list of row ids.  On d_6 of the
    closed four-loop block over Z (712,846 entries), cleared in the chain
    from d_1 up, the sweep pops 1,620 queue entries, fills in 13,170 and
    builds the index: the peak is about 22 bytes per entry of d_6, under a
    bound of 32 that leaves about 45 % headroom.  Making a dict per stored
    row up front takes about 41."""
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=6, weight=4))
    cleared = frozenset()
    for q in range(1, 6):
        cleared = _SparseSNF(cx.boundary(q), cleared=cleared).pivot_cols
    d6 = cx.boundary(6)
    assert d6.nnz() == 712_846
    assert _sweep_peak(d6, cleared) < 32 * d6.nnz()


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.sampled_from((ZZ, prime_field(2), prime_field(3))),
       st.data())
def test_sweep_never_writes_to_its_input(A, dom, data):
    """Every reduction reads the stored rows of its matrices and writes to
    none: on 0 <- C_0 <-A- C_1 <-K- C_2, with K a kernel basis of A, over Z
    and F_p, homology with and without representatives, boundary tests,
    solves and kernel bases leave the rows of A and K as they were."""
    kernel = integer_kernel_basis(A)
    K = M(A.cols, len(kernel), {(i, t): v for t, vec in enumerate(kernel)
                                for i, v in vec.items()})
    dims = (A.rows, A.cols, K.cols, 0)
    cx = ChainComplexData(Z0, 3, {p: tuple(f"e{p}.{i}" for i in range(n))
                                  for p, n in enumerate(dims)}, {1: A, 2: K})
    if dom is not ZZ:
        cx = _over(cx, dom)
    mats = (cx.boundary(1), cx.boundary(2))

    def rows():
        return [[(r, list(cs), list(vs)) for r, cs, vs in X.row_data] for X in mats]

    before = rows()
    homology(cx, [0, 1, 2])
    homology(cx, [0, 1, 2], representatives=True)
    for p, X in enumerate(mats):
        b = {r: data.draw(st.integers(-3, 3)) for r in range(X.rows)}
        is_boundary(cx, b, p)
        solve_integer(X, b)
        integer_kernel_basis(X)
    assert rows() == before


def test_validate_d_squared_catches_corruption():
    cx = build_word_complex(2, 3)
    assert validate_d_squared(cx).ok
    bad = dict(cx.matrices)
    m2 = bad[2]
    r0, c0, v0 = m2.entries[0]
    flipped = {(r, c): v for r, c, v in m2.entries}
    flipped[(r0, c0)] = -v0
    bad[2] = SparseMatrix.from_dict(m2.rows, m2.cols, flipped, ZZ)
    broken = ChainComplexData(cx.ring, cx.max_degree, cx.basis, bad)
    rep = validate_d_squared(broken)
    assert not rep.ok and rep.failures
    assert rep.failures[0][0] == 3  # located in the composite leaving degree 3


def _with_first_entry(mat, change):
    """mat with its first stored value v replaced by change(v)."""
    data = {(r, c): v for r, c, v in mat.entries}
    r0, c0, v0 = mat.entries[0]
    data[(r0, c0)] = change(v0)
    return SparseMatrix.from_dict(mat.rows, mat.cols, data, mat.domain)


def test_integer_d_squared_locates_failures_like_the_generic_product():
    za = PointedRing.make(ZA)
    cx = build_complex(ComplexSpec(4, za, CLOSED, max_degree=3))
    bad = dict(cx.matrices)
    bad[2] = _with_first_entry(bad[2], lambda n: -n)
    weighted = ChainComplexData(za, 3, cx.basis, bad, weights=cx.weights)
    # the same boundaries rendered over Z[a], multiplied there
    generic = ChainComplexData(za, 3, cx.basis,
                               {p: weighted.boundary(p) for p in bad})
    rep = validate_d_squared(weighted)
    assert not rep.ok
    assert rep.failures == validate_d_squared(generic).failures


D_SQUARED_ENDS = (CLOSED, EndSpec(augmented=True),
                  *(EndSpec.from_code(code) for code in ("oo", "oc", "co")))


@pytest.mark.parametrize("ends", D_SQUARED_ENDS,
                         ids=lambda e: e.code + ("+aug" if e.augmented else ""))
def test_corrupted_d3_fails_like_the_generic_product(ends):
    # one wrong entry of d_3 breaks d_2 d_3 and d_3 d_4; the integer product
    # reports the same entries as the Z[a] product of the rendered matrices
    za = PointedRing.make(ZA)
    cx = build_complex(ComplexSpec(4, za, ends, max_degree=4))
    bad = dict(cx.matrices)
    bad[3] = _with_first_entry(bad[3], lambda n: -n)
    weighted = ChainComplexData(za, 4, cx.basis, bad, weights=cx.weights)
    generic = ChainComplexData(za, 4, cx.basis,
                               {p: weighted.boundary(p) for p in bad})
    rep = validate_d_squared(weighted)
    assert not rep.ok and {p for p, _, _ in rep.failures} <= {3, 4}
    assert rep.failures == validate_d_squared(generic).failures


@pytest.mark.parametrize("dom, scalar", (
    (ZZ, lambda v: v),
    (QQ, lambda v: Fraction(v, 3)),
    (prime_field(5), lambda v: v % 5),
    (ZA, lambda v: ZA.mul(ZA.from_int(v), ZA.parse("a")))),
    ids=("Z", "Q", "F5", "Za"))
def test_product_row_that_cancels_between_nonzero_rows(dom, scalar):
    # row 1 of the product cancels in both columns that rows 0 and 2 fill,
    # so the accumulator must be clean before row 1 and again after it
    a = {(0, 0): 2, (1, 0): 1, (1, 1): 1, (2, 1): 3}
    b = {(0, 0): 1, (0, 1): 2, (1, 0): -1, (1, 1): -2}
    A, B = ({key: scalar(v) for key, v in x.items()} for x in (a, b))
    want = {}
    for (i, t), x in A.items():
        for (t2, j), y in B.items():
            if t == t2:
                want[i, j] = dom.add(want.get((i, j), dom.zero()), dom.mul(x, y))
    got = SparseMatrix.from_dict(3, 2, A, dom).mul(SparseMatrix.from_dict(2, 2, B, dom))
    assert [r for r, _, _ in got.row_data] == [0, 2]
    assert got.entries == SparseMatrix.from_dict(3, 2, want, dom).entries


def test_integer_d_squared_rejects_misgraded_entries():
    za = PointedRing.make(ZA)
    cx = build_complex(ComplexSpec(4, za, CLOSED, max_degree=3))
    # the complex stores integers only, so an entry whose power of a
    # disagrees with the weight gap cannot even be written: a Z[a] matrix is
    # refused when the complex is built, and no d^2 check ever sees one
    with pytest.raises(LinearAlgebraError, match="stores the integers n"):
        ChainComplexData(za, 3, cx.basis,
                         {p: cx.boundary(p) for p in cx.matrices},
                         weights=cx.weights)
    with pytest.raises(LinearAlgebraError, match="negative power"):
        graded_matrix(1, 1, [(0, (0,), (1,))], (1,), (0,), za)


def test_unweighted_za_complex_keeps_generic_d_squared():
    # the loop boundaries rendered over Z[a], with no weight labels, are
    # stored as they are and multiplied over Z[a]
    za = PointedRing.make(ZA)
    cx = build_complex(ComplexSpec(4, za, CLOSED, max_degree=3))
    generic = ChainComplexData(za, 3, cx.basis,
                               {p: cx.boundary(p) for p in cx.matrices})
    assert generic.weights is None and generic.stored(2).domain == ZA
    assert validate_d_squared(generic).ok


# few distinct values, so that sums in a product often cancel exactly
PRODUCT_ENTRY = st.sampled_from((0, 0, 1, -1, 2, -2))


@st.composite
def product_pairs(draw, max_dim=5):
    n, k, m = (draw(st.integers(0, max_dim)) for _ in range(3))
    A = M(n, k, {(r, c): draw(PRODUCT_ENTRY) for r in range(n) for c in range(k)})
    B = M(k, m, {(r, c): draw(PRODUCT_ENTRY) for r in range(k) for c in range(m)})
    return A, B


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_matrix_product_matches_dense_product(AB):
    A, B = AB
    # over Z[a] the entry at (r, c) is v * a^((r + c) % 2), so products mix
    # powers of a
    for dom, scalar in ((ZZ, lambda v, r, c: v),
                        (QQ, lambda v, r, c: Fraction(v, 3)),
                        (prime_field(5), lambda v, r, c: v % 5),
                        (ZA, lambda v, r, c: ZA.mul(ZA.from_int(v),
                                                    ZA.parse(f"a^{(r + c) % 2}")))):
        def over(X):
            return {(r, c): scalar(v, r, c) for r, c, v in X.entries}
        a, b = over(A), over(B)
        want = {}
        for (i, t), x in a.items():
            for (t2, j), y in b.items():
                if t == t2:
                    want[i, j] = dom.add(want.get((i, j), dom.zero()), dom.mul(x, y))
        got = SparseMatrix.from_dict(A.rows, A.cols, a, dom).mul(
            SparseMatrix.from_dict(B.rows, B.cols, b, dom))
        assert (got.rows, got.cols, got.domain) == (A.rows, B.cols, dom)
        # row-major, with the cancelled sums dropped
        assert got.entries == SparseMatrix.from_dict(A.rows, B.cols, want, dom).entries
        assert not any(dom.is_zero(v) for _, _, v in got.entries)
        # apply is the product with B's first column
        column = {t: y for (t, j), y in b.items() if j == 0}
        assert SparseMatrix.from_dict(A.rows, A.cols, a, dom).apply(column) == {
            i: v for (i, j), v in want.items() if j == 0 and not dom.is_zero(v)}
    with pytest.raises(LinearAlgebraError, match="shape mismatch"):
        A.mul(M(A.cols + 1, 1, {}))
    # both factors over one domain: a Z matrix times an F2 matrix would give
    # values never reduced mod 2
    with pytest.raises(LinearAlgebraError, match="domain mismatch"):
        A.mul(SparseMatrix.from_dict(B.rows, B.cols, {}, prime_field(2)))


# a weight-labelled Z[a] complex of every kind the package builds
ZA_COMPLEXES = {
    **{f"loops-{e.code}{'+aug' if e.augmented else ''}":
       (lambda e=e: build_complex(ComplexSpec(4, PointedRing.make(ZA), e,
                                              max_degree=3)))
       for e in (CLOSED, EndSpec(augmented=True),
                 *(EndSpec.from_code(code) for code in ("oo", "oc", "co")))},
    "minimal-model": lambda: truncated_complex(
        minimal_model(4, PointedRing.make(ZA)), 5),
    "four-model": lambda: truncated_complex(
        four_model(PointedRing.make(ZA)), 4),
}


@pytest.mark.parametrize("name", sorted(ZA_COMPLEXES))
def test_za_complexes_store_integer_matrices(name):
    cx = ZA_COMPLEXES[name]()
    assert cx.graded and cx.matrices
    for p in range(1, cx.max_degree + 1):
        stored, full = cx.stored(p), cx.boundary(p)
        assert stored.domain == ZZ and full.domain == ZA
        # each entry n * a^(w_col - w_row), rendered from its n
        rw, cw = cx.weights[p - 1], cx.weights[p]
        assert full.entries == tuple(
            (r, c, ZA.mul(ZA.from_int(n), ZA.parse(f"a^{cw[c] - rw[r]}")))
            for r, c, n in stored.entries)


def test_model_boundaries_match_the_algebra_differential():
    # the boundary rendered from the stored integers equals the Z[a] matrix
    # read off the algebra's differential word by word
    za = PointedRing.make(ZA)
    for algebra in (minimal_model(4, za), four_model(za)):
        cx = truncated_complex(algebra, 4)
        for p in range(2, 5):
            index = cx.index_map(p - 1)
            data = {}
            for col, b in enumerate(cx.basis[p]):
                img = algebra.differential(NCPoly(za, {tuple(b.split(".")): ZA.one()}))
                for w, v in img.terms.items():
                    data[index[".".join(w)], col] = v
            assert cx.boundary(p).entries == SparseMatrix.from_dict(
                cx.dim(p - 1), cx.dim(p), data, ZA).entries


def test_za_d_squared_makes_no_za_coefficient(monkeypatch):
    """Building a Z[a] loop complex or model truncation and checking its d^2
    runs on integers alone: every Z[a] coefficient operation raises while
    they run."""
    za = PointedRing.make(ZA)
    algebra = minimal_model(6, za)
    for name in ("zero", "one", "from_int", "add", "neg", "sub", "mul"):
        real = getattr(CoefficientDomain, name)

        def guarded(self, *args, real=real, name=name):
            if self.kind == ZA.kind:
                raise AssertionError(f"Z[a] {name} during the d^2 check")
            return real(self, *args)
        monkeypatch.setattr(CoefficientDomain, name, guarded)
    for ends in (CLOSED, EndSpec(augmented=True), EndSpec.from_code("oo")):
        cx = build_complex(ComplexSpec(4, za, ends, max_degree=4))
        rep = validate_d_squared(cx)
        assert rep.ok, rep
    assert validate_d_squared(truncated_complex(algebra, 5)).ok
    # the guard bites: rendering the Z[a] boundary makes coefficients
    with pytest.raises(AssertionError, match="Z\\[a\\]"):
        cx.boundary(2)


def test_za_d_squared_reports_failures_row_major():
    za = PointedRing.make(ZA)
    cx = build_complex(ComplexSpec(4, za, CLOSED, max_degree=4))
    bad = dict(cx.matrices)
    for p in (2, 3):
        bad[p] = _with_first_entry(bad[p], lambda n: -n)
    rep = validate_d_squared(ChainComplexData(za, 4, cx.basis, bad,
                                              weights=cx.weights))
    assert not rep.ok and {p for p, _, _ in rep.failures} == {3, 4}
    assert list(rep.failures) == sorted(rep.failures)


def test_homology_examples():
    wc = build_word_complex(2, 4)
    hs = homology(wc, range(1, 4))
    assert [(h.free_rank, h.torsion) for h in hs] == [(1, ()), (0, ()), (0, ())]
    mz = truncated_complex(minimal_model(4, PointedRing.make(QQ, 0)), 5)
    assert [h.free_rank for h in homology(mz, range(1, 5))] == [1, 0, 0, 1]


def test_homology_truncation_edge_is_refused():
    wc = build_word_complex(2, 4)
    with pytest.raises(LinearAlgebraError):
        homology(wc, [4])


# pieces of a complex with known homology: (p, k) is Z --k--> Z from degree
# p to p - 1 when k > 0, and a free Z in degree p when k == 0; the k > 1
# divide each other, so they are the invariant factors of their sum
PIECE = st.tuples(st.integers(0, 5), st.sampled_from([0, 1, 1, 2, 6, 12]))


@st.composite
def complexes_with_known_homology(draw, top=5):
    """A direct sum of Z --k--> Z and free Z in degrees 0..top, each degree
    conjugated by a random unimodular matrix, with its pieces and, per
    degree p, the cycles (dense vectors) that generate them there: the free
    Z of a piece (p, 0), and the lower end of a piece (p + 1, k), which
    spans Z/k in H_p (a boundary when k = 1)."""
    pieces = [(max(p, 1) if k else p, k)
              for p, k in draw(st.lists(PIECE, max_size=20))]
    dims = [0] * (top + 1)
    entries = {p: {} for p in range(1, top + 1)}
    ends = {p: [] for p in range(top + 1)}  # indices before conjugation
    for p, k in pieces:
        if k:
            entries[p][dims[p - 1], dims[p]] = k
            ends[p - 1].append(dims[p - 1])
            dims[p - 1] += 1
        else:
            ends[p].append(dims[p])
        dims[p] += 1
    # d_p -> U_{p-1} d_p U_p^{-1}, so d^2 = 0 still holds
    conj = []
    for n in dims:
        U, Uinv = _identity(n), _identity(n)
        if n > 1:
            ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                            st.sampled_from([-2, -1, 1, 1, 2]))
            for i, j, m in draw(st.lists(ops, max_size=3 * n)):
                if i == j:  # a swap; on the inverse, of columns
                    j = (i + 1) % n
                    U[i], U[j] = U[j], U[i]
                    for row in Uinv:
                        row[i], row[j] = row[j], row[i]
                else:  # row_i += m row_j; on the inverse, col_j -= m col_i
                    U[i] = [a + m * b for a, b in zip(U[i], U[j])]
                    for row in Uinv:
                        row[j] -= m * row[i]
        conj.append((U, Uinv))
    mats = {}
    for p in range(1, top + 1):
        d = [[entries[p].get((r, c), 0) for c in range(dims[p])]
             for r in range(dims[p - 1])]
        if dims[p - 1] and dims[p]:
            d = matmul_dense(matmul_dense(conj[p - 1][0], d), conj[p][1])
        mats[p] = M(dims[p - 1], dims[p], {(r, c): v for r, row in enumerate(d)
                                           for c, v in enumerate(row)})
    for p in range(2, top + 1):
        assert not mats[p - 1].mul(mats[p]).entries
    basis = {p: tuple(f"e{p}.{i}" for i in range(n)) for p, n in enumerate(dims)}
    # a chain v becomes U_p v, so the generator e_i becomes column i of U_p
    gens = {p: [[row[i] for row in conj[p][0]] for i in ends[p]] for p in ends}
    return ChainComplexData(Z0, top, basis, mats), pieces, gens


def _over(cx, dom):
    """The integer complex cx with its entries mapped into dom."""
    mats = {p: SparseMatrix.from_dict(A.rows, A.cols, {
        (r, c): dom.from_int(v) for r, c, v in A.entries}, dom)
        for p, A in cx.matrices.items()}
    return ChainComplexData(PointedRing.make(dom, 0), cx.max_degree, cx.basis, mats)


@settings(max_examples=150, deadline=None)
@given(complexes_with_known_homology(), st.data())
def test_homology_with_clearing_matches_known_groups(cx_pieces, data):
    """homology() reduces d_1 up to d_{max+1} in one chain, each boundary
    without the rows at the sweep pivot columns of the one below; on
    complexes of known homology its groups over Z, Q, F2 and F3 must equal
    the known ones and a reduction of each boundary on its own, which
    clears nothing."""
    cx, pieces, _ = cx_pieces
    # requested degrees with gaps, as [1, 4] and [0, 3], are still drawn:
    # the chain reduces the boundaries between them too
    degrees = data.draw(st.one_of(
        st.sampled_from([[1, 3], [1, 4], [0, 3]]),
        st.lists(st.integers(0, 4), min_size=1, unique=True)))
    for dom in (ZZ, QQ, prime_field(2), prime_field(3)):
        def known(p):
            free = sum(1 for q, k in pieces if k == 0 and q == p)
            if dom is ZZ:
                return free, tuple(sorted(k for q, k in pieces if k > 1 and q == p + 1))
            # over F_p, Z --k--> Z with p | k leaves one class at each end
            return free + sum(1 for q, k in pieces if k and dom.p and k % dom.p == 0
                              and q in (p, p + 1)), ()

        def unclear(p):
            n_p = cx.dim(p)
            if dom is ZZ:
                snf = smith_normal_form(cx.boundary(p + 1))
                low = smith_normal_form(cx.boundary(p)).rank if p else 0
                return n_p - low - snf.rank, tuple(d for d in snf.invariants if d > 1)
            rank = lambda q: rank_over_field(cx.boundary(q), dom) if q else 0
            return n_p - rank(p) - rank(p + 1), ()

        groups = homology(cx if dom is ZZ else _over(cx, dom), degrees)
        assert [h.degree for h in groups] == degrees
        got = [(h.free_rank, h.torsion) for h in groups]
        assert got == [known(p) for p in degrees], dom
        assert got == [unclear(p) for p in degrees], dom


def _dense_is_boundary(cx, dom, vec, p) -> bool:
    """Whether vec is d_{p+1} of a chain over dom, by the dense oracles on
    the whole integer d_{p+1} of cx: an integral solve over Z, and over a
    field the rank with vec appended as a column against the rank without."""
    A = cx.boundary(p + 1)
    b = [vec.get(r, 0) for r in range(A.rows)]
    if dom is ZZ:
        return oracle_solve(to_dense(A), A.cols, b) is not None
    if dom is QQ:
        rank = dense_rank_q
    else:
        def rank(rows, cols, entries):
            return dense_rank_mod_p(rows, cols, entries, dom.p)
    augmented = A.entries + tuple((r, A.cols, v) for r, v in enumerate(b) if v)
    return rank(A.rows, A.cols + 1, augmented) == rank(A.rows, A.cols, A.entries)


@settings(max_examples=150, deadline=None)
@given(complexes_with_known_homology(), st.data())
def test_is_boundary_matches_dense_oracle(cx_pieces, data):
    """is_boundary tests d_p vec = 0, then solves d_{p+1} x = vec on the
    rows of d_{p+1} that the chain keeps.  Over Z, Q, F2 and F3 it must
    agree with the dense oracles on the whole d_{p+1}: for a boundary
    d_{p+1} y, which is one, with an x checked against all of d_{p+1}; for
    such a boundary plus a generator of a free or torsion piece; and for
    random vectors, mostly no cycles."""
    cx, _, gens = cx_pieces
    p = data.draw(st.integers(0, cx.max_degree - 1))
    d = cx.boundary(p + 1)
    y = {c: data.draw(st.integers(-3, 3)) for c in range(d.cols)}
    bd = d.apply({c: v for c, v in y.items() if v})
    vecs = [bd]
    if gens[p]:
        for g in data.draw(st.lists(st.sampled_from(gens[p]), min_size=1,
                                    max_size=3)):
            vecs.append({r: v for r in range(d.rows) if (v := bd.get(r, 0) + g[r])})
    vecs.append({r: data.draw(st.integers(-2, 2)) for r in range(d.rows)})

    solved = []
    checked_solve = homology_module._checked_solve

    def spy(A, b, work):
        x = checked_solve(A, b, work)
        solved.append(x)
        return x

    homology_module._checked_solve = spy
    try:
        for dom in (ZZ, QQ, prime_field(2), prime_field(3)):
            fx = cx if dom is ZZ else _over(cx, dom)
            for vec in vecs:
                before = len(solved)
                got = is_boundary(fx, vec, p)
                assert got == _dense_is_boundary(cx, dom, vec, p), dom
                in_dom = {r: dom.from_int(v) for r, v in vec.items() if dom.from_int(v)}
                if got and in_dom:
                    x = solved[before]
                    assert fx.boundary(p + 1).apply(x) == in_dom
            assert is_boundary(fx, bd, p)
    finally:
        homology_module._checked_solve = checked_solve


@settings(max_examples=100, deadline=None)
@given(complexes_with_known_homology())
def test_representatives_with_a_residual_core(cx_pieces):
    """Torsion pieces 2, 6 and 12 in d_p leave its sweep in the chain a
    residual core over Z, so the representatives of H_p read kernel
    vectors of the core.  There are as many as the free rank, each is a
    cycle and no boundary, and with the boundaries they span ker d_p over
    Q."""
    cx, pieces, _ = cx_pieces
    cores = [q for q, _, work in homology_module._chain(cx, cx.max_degree - 1)
             if work.res_rows]
    assume(cores)
    for h in homology(cx, cores, representatives=True):
        p, reps = h.degree, h.representatives
        assert len(reps) == h.free_rank == sum(1 for q, k in pieces if q == p and not k)
        for rep in reps:
            assert is_cycle(cx, rep, p) and not is_boundary(cx, rep, p)
        low, high = cx.boundary(p), cx.boundary(p + 1)
        kernel = cx.dim(p) - dense_rank_q(low.rows, low.cols, low.entries)
        spanned = high.entries + tuple((r, high.cols + t, v)
                                       for t, rep in enumerate(reps)
                                       for r, v in rep.items())
        assert dense_rank_q(cx.dim(p), high.cols + len(reps), spanned) == kernel


def _field_rank(dom, rows, cols, entries):
    """The rank over Q or F_p, by the dense oracles."""
    if dom is QQ:
        return dense_rank_q(rows, cols, entries)
    return dense_rank_mod_p(rows, cols, entries, dom.p)


@settings(max_examples=150, deadline=None)
@given(complexes_with_known_homology(),
       st.sampled_from((QQ, prime_field(2), prime_field(3))))
def test_field_kernels_and_representatives(cx_pieces, dom):
    """Kernels and representatives over a field replay the sweep's record
    as they do over Z.  Over Q, F2 and F3: the kernel basis of each d_p
    has cols - rank vectors and A K = 0; homology(..., representatives=True)
    gives dim H_p representatives in every degree, each a cycle and no
    boundary, which with im d_{p+1} span ker d_p.  Every vector holds
    nonzero values in their canonical form (over F_p reduced mod p).  Ranks
    come from the dense oracles."""

    def canonical(vec):
        for v in vec.values():
            dom.validate(v)
        return all(vec.values())

    cx = _over(cx_pieces[0], dom)
    rank = {0: 0}  # d_0 = 0
    for p in range(1, cx.max_degree + 1):
        A = cx.boundary(p)
        rank[p] = _field_rank(dom, A.rows, A.cols, A.entries)
        kernel = integer_kernel_basis(A)
        assert len(kernel) == A.cols - rank[p] and all(map(canonical, kernel))
        K = SparseMatrix.from_dict(A.cols, len(kernel), {
            (i, t): v for t, vec in enumerate(kernel) for i, v in vec.items()}, dom)
        assert not A.mul(K).row_data
    for h in homology(cx, range(cx.max_degree), representatives=True):
        p, reps = h.degree, h.representatives
        cycles = cx.dim(p) - rank[p]
        assert len(reps) == h.free_rank == cycles - rank[p + 1]
        for rep in reps:
            assert canonical(rep)
            assert is_cycle(cx, rep, p) and not is_boundary(cx, rep, p)
        high = cx.boundary(p + 1)
        spanned = high.entries + tuple((r, high.cols + t, v)
                                       for t, rep in enumerate(reps)
                                       for r, v in rep.items())
        assert _field_rank(dom, cx.dim(p), high.cols + len(reps), spanned) == cycles


@pytest.mark.parametrize("dom", [ZZ, prime_field(2)], ids=["z", "f2"])
def test_is_boundary_sweeps_only_the_rows_the_chain_keeps(dom, monkeypatch):
    """On the closed two-loop subquotient row through degree 5, d_4 is
    117 x 648 and d_3 has rank 16, all of it unit pivots: is_boundary in
    degree 3 solves on the 101 rows of d_4 off d_3's pivot columns, not on
    all 117, for the four-term cycle y (no boundary) and for a boundary."""
    ring = PointedRing.make(dom, 0)
    cx = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=5, weight=2,
                                   dividers=0, subquotient=True))
    d3, d4 = cx.boundary(3), cx.boundary(4)
    rank3 = (smith_normal_form(d3).rank if dom is ZZ
             else rank_over_field(d3, dom))
    assert (d4.rows, d4.cols, rank3) == (117, 648, 16)
    seen = []

    class Recorded(_SparseSNF):
        def __init__(self, A, transforms=False, cleared=frozenset()):
            super().__init__(A, transforms, cleared)
            if transforms:
                seen.append((A.rows, A.cols,
                             sum(r not in cleared for r, _, _ in A.row_data)))

    monkeypatch.setattr(homology_module, "_SparseSNF", Recorded)
    y = chain_to_vector(phi(ring).images["y"], cx, 3)
    assert not is_boundary(cx, y, 3)
    assert is_boundary(cx, d4.apply({0: 1, 7: 1, 300: 1}), 3)
    assert seen == [(117, 648, 117 - rank3)] * 2


@pytest.mark.parametrize("dom", [ZZ, prime_field(2)], ids=["z", "f2"])
def test_homology_clears_rows_pivoted_one_degree_down(dom, monkeypatch):
    """On the closed two-loop block through degree 6, homology() reduces
    d_1 up to d_6 in one chain, each without the rows at the sweep pivot
    columns of the one below: d_5 drops d_4's 133 rows, d_6 drops d_5's 740.
    Over Z only d_3 leaves a residual core; over F2 every row left
    pivots."""
    cx = build_complex(ComplexSpec(4, PointedRing.make(dom, 0), CLOSED,
                                   max_degree=6, weight=2))
    seen = []

    class Recorded(_SparseSNF):
        def __init__(self, A, *args, **kwargs):
            super().__init__(A, *args, **kwargs)
            seen.append(((A.rows, A.cols), len(kwargs.get("cleared", ())),
                         self.npivots, (len(self.res_rows), len(self.res_cols))))

    monkeypatch.setattr(homology_module, "_SparseSNF", Recorded)
    (h,) = homology(cx, [5])
    assert (h.free_rank, h.torsion) == (0, ())
    core3 = (1, 9) if dom is ZZ else (0, 0)
    assert seen == [((0, 2), 0, 0, (0, 0)),
                    ((2, 22), 0, 2, (0, 0)),
                    ((22, 153), 2, 19, core3),
                    ((153, 873), 19, 133, (0, 0)),
                    ((873, 4536), 133, 740, (0, 0)),
                    ((4536, 22320), 740, 4536 - 740, (0, 0))]


def test_cycle_and_boundary_examples():
    mz = truncated_complex(minimal_model(4, Z0), 5)
    i3 = {e: i for i, e in enumerate(mz.basis[3])}
    v = {i3["x1.x1.x1"]: 2}
    assert is_cycle(mz, v, 3) and is_boundary(mz, v, 3)
    assert not is_boundary(mz, {i3["x1.x1.x1"]: 1}, 3)
    assert is_cycle(mz, {}, 3) and is_boundary(mz, {}, 3)
    mq = truncated_complex(minimal_model(4, PointedRing.make(QQ, 0)), 5)
    assert is_boundary(mq, {i3["x1.x1.x1"]: Fraction(1)}, 3)


@pytest.mark.parametrize("dom", (ZZ, QQ, prime_field(2)), ids=repr)
def test_cycle_and_boundary_refuse_values_outside_the_ring(dom):
    # e_0 of degree 2 in the closed w = 1 block is a boundary over every ring
    cx = build_complex(ComplexSpec(4, PointedRing.make(dom, 0), CLOSED,
                                   max_degree=4, weight=1))
    for check in (is_cycle, is_boundary):
        assert check(cx, {0: 1}, 2) and check(cx, {0: 3}, 2)  # ints read in dom
        for bad in (0.5, 2.0, True, "x", *([] if dom is QQ else [Fraction(1, 2)])):
            with pytest.raises(DomainError):
                check(cx, {0: bad}, 2)
    if dom is QQ:
        assert is_boundary(cx, {0: Fraction(1, 2)}, 2)
    # solves and kernels run over every ring alike, checked against d_3 (9 x
    # 36 of rank 8 over each of them), and refuse values outside the ring;
    # over Z a half-integral b has no certified integral solution
    d3 = cx.boundary(3)
    for b in ({0: 1}, {0: 3}, *([{0: Fraction(1, 2)}] if dom is QQ else [])):
        x = solve_integer(d3, b)
        assert d3.apply(x) == {r: dom.from_int(v) if type(v) is int else v
                               for r, v in b.items()}
    kernel = integer_kernel_basis(d3)
    assert len(kernel) == 36 - 8 and not any(map(d3.apply, kernel))
    for bad in (0.5, "x", *([] if dom is QQ else [Fraction(1, 2)])):
        with pytest.raises(DomainError):
            solve_integer(d3, {0: bad})


def test_cycle_refuses_values_outside_za():
    cx = build_complex(ComplexSpec(4, PointedRing.make(ZA), CLOSED, max_degree=4))
    assert is_cycle(cx, {0: 1}, 2) and is_cycle(cx, {0: ((1, -2),)}, 2)
    for bad in (0.5, "x", ((0, Fraction(1, 2)),), ((0, 0.5),), ((0.5, 1),),
                ((0, True),), ((True, 1),), ((-1, 1),), ((1, 1), (0, 1))):
        with pytest.raises(DomainError):
            is_cycle(cx, {0: bad}, 2)


def test_vectors_with_indices_out_of_range_are_refused():
    wc = build_word_complex(2, 3)
    for j in (-1, wc.dim(2)):
        with pytest.raises(LinearAlgebraError, match="vector index out of range"):
            is_cycle(wc, {j: 1}, 2)
    # degree 0 has no boundary to apply, and still checks its indices
    aug = build_complex(ComplexSpec(4, Z0, EndSpec(augmented=True), max_degree=2))
    for cx, j in ((wc, 999), (aug, aug.dim(0)), (aug, -1)):
        for check in (is_cycle, is_boundary):
            with pytest.raises(LinearAlgebraError, match="vector index out of range"):
                check(cx, {j: 1}, 0)
    assert is_cycle(aug, {0: 1}, 0)


def test_representatives_are_nonbounding_cycles():
    for cx in (truncated_complex(minimal_model(4, Z0), 5),
               build_word_complex(3, 4)):
        for h in homology(cx, range(1, cx.max_degree), representatives=True):
            assert len(h.representatives) == h.free_rank
            for rep in h.representatives:
                assert is_cycle(cx, rep, h.degree)
                assert not is_boundary(cx, rep, h.degree)


def test_weight_decompose():
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=3))
    parts = weight_decompose(cx)
    assert [w for w, _ in parts] == [1, 2, 3, 4, 5, 6]
    for p in range(4):
        assert sum(sub.dim(p) for _, sub in parts) == cx.dim(p)
    assert [sub.dim(1) for _, sub in parts[:2]] == [2, 2]
    assert all(sub.dim(1) == 0 for _, sub in parts[2:])
    # homology of the sum is the sum of homologies
    total = [0] * 3
    for _, sub in parts:
        for h in homology(sub, range(1, 3)):
            total[h.degree] += h.free_rank
    direct = {h.degree: h.free_rank for h in homology(cx, range(1, 3))}
    for p in (1, 2):
        assert total[p] == direct[p]
    unlabelled = ChainComplexData(Z0, 1, {0: ("a",), 1: ("c",)},
                                  {1: SparseMatrix(1, 1, ((0, 0, 1),))})
    with pytest.raises(LinearAlgebraError, match="no loop-count labels"):
        weight_decompose(unlabelled)
    # a complex of one weight is its one block
    one = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=3, weight=2))
    ((w, block),) = weight_decompose(one)
    assert w == 2 and block.basis == one.basis and block.matrices == one.matrices


def test_weight_decompose_rejects_crossing_entries():
    # two weights; d_1 sends the weight-1 element c to a (weight 1) and to
    # b (weight 2), so the second entry crosses the blocks
    basis = {0: ("a", "b"), 1: ("c",)}
    weights = {0: (1, 2), 1: (1,)}
    ok = ChainComplexData(Z0, 1, basis, {1: SparseMatrix(2, 1, ((0, 0, 1),))},
                          weights=weights)
    (w1, one), (w2, two) = weight_decompose(ok)
    assert (w1, w2) == (1, 2)
    assert one.basis == {0: ("a",), 1: ("c",)} and two.basis == {0: ("b",), 1: ()}
    assert one.boundary(1).entries == ((0, 0, 1),) and two.boundary(1).nnz() == 0
    bad = ChainComplexData(Z0, 1, basis,
                           {1: SparseMatrix(2, 1, ((0, 0, 1), (1, 0, 1)))},
                           weights=weights)
    with pytest.raises(LinearAlgebraError, match="crosses weights"):
        weight_decompose(bad)


def test_complex_refuses_boundaries_and_labels_that_disagree_with_its_bases():
    """A 3 x 2 d_1 on bases of sizes 1, 3, 1 read H_0 = 0, H_1 = Z, H_2 = Z,
    and on bases of sizes 1, 2, 1 passed d^2 = 0; two weight labels for
    three elements made weight_decompose drop the third and read H_1 = Z^2,
    not Z^3.  Each is refused at construction, naming the degree and both
    sizes."""
    basis = {0: ("a",), 1: ("b", "c", "d"), 2: ("e",), 3: ()}
    d1 = SparseMatrix(3, 2, ((0, 0, 1), (1, 1, 1)))
    for n in (3, 2):
        with pytest.raises(LinearAlgebraError, match=(
                f"d_1 is 3 x 2, but C_0 has 1 elements and C_1 has {n}")):
            ChainComplexData(Z0, 3, {**basis, 1: basis[1][:n]}, {1: d1})
    with pytest.raises(LinearAlgebraError,
                       match="degree 1 has 2 weight labels for 3 basis elements"):
        ChainComplexData(Z0, 3, basis, {}, weights={0: (1,), 1: (1, 2), 2: (1,)})
    # the same bases with a d_1 and labels that fit
    cx = ChainComplexData(Z0, 3, basis, {1: zero_matrix(1, 3)},
                          weights={0: (1,), 1: (1, 2, 2), 2: (1,)})
    assert [h.free_rank for h in homology_table([cx], [1], [ZZ])[ZZ]] == [3]


def test_word_complex_structure():
    wc = build_word_complex(3, 4)
    assert [wc.dim(p) for p in range(5)] == [0, 3, 9, 27, 81]
    assert validate_d_squared(wc).ok
    # the Leibniz signs of d(letter) = 1 are the alternating deletions
    rows, col = wc.index_map(2), wc.index_map(3)["1.2.3"]
    assert {r: v for r, c, v in wc.boundary(3).entries if c == col} == {
        rows["2.3"]: 1, rows["1.3"]: -1, rows["1.2"]: 1}
    lr = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=1))
    assert wc.to_json()["basis"]["1"] == ["1", "2", "3"]


def test_homology_json_schema():
    wc = build_word_complex(2, 3)
    h = homology(wc, [1])[0]
    js = h.to_json()
    assert set(js) == {"degree", "rank", "torsion", "basis_size"}


def test_universal_coefficients_on_model():
    # field dimensions against integral free rank + adjacent p-torsion
    z = truncated_complex(minimal_model(4, Z0), 5)
    integral = {h.degree: h for h in homology(z, range(1, 5))}
    for p in (2, 3, 5):
        ring = PointedRing.make(prime_field(p), 0)
        fp = truncated_complex(minimal_model(4, ring), 5)
        for h in homology(fp, range(1, 5)):
            here = integral[h.degree]
            below = integral.get(h.degree - 1)
            expect = here.free_rank \
                + sum(1 for t in here.torsion if t % p == 0) \
                + (sum(1 for t in below.torsion if t % p == 0) if below else 0)
            assert h.free_rank == expect
    q = truncated_complex(minimal_model(4, PointedRing.make(QQ, 0)), 5)
    for h in homology(q, range(1, 5)):
        assert h.free_rank == integral[h.degree].free_rank


TABLE_RINGS = (Z0, PointedRing.make(QQ, 0),
               *(PointedRing.make(prime_field(p), 0) for p in (2, 3, 5)))


def _table_against_per_ring_builds(spec_of, degrees):
    """homology_table of the weight blocks over (Z, 0) against homology() of
    a whole build over each ring."""
    table = homology_table(weight_blocks(spec_of(Z0)), degrees,
                           [ring.domain for ring in TABLE_RINGS])
    for ring in TABLE_RINGS:
        direct = homology(build_complex(spec_of(ring)), degrees)
        assert [h.to_json() for h in table[ring.domain]] == \
            [h.to_json() for h in direct], ring


def test_homology_table_matches_per_ring_builds():
    _table_against_per_ring_builds(
        lambda ring: ComplexSpec(4, ring, CLOSED, max_degree=4), range(4))


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("j", [0, 1])
def test_homology_table_of_one_block_rows(w, j):
    _table_against_per_ring_builds(
        lambda ring: ComplexSpec(4, ring, CLOSED, max_degree=4, weight=w,
                                 dividers=j, subquotient=True), range(1, 4))


def test_homology_table_universal_coefficients():
    # Z --6--> Z in degrees 2 -> 1: H_1 = Z/6, so a field of characteristic
    # p | 6 sees the class in H_1 and its Tor term in H_2
    cx = ChainComplexData(Z0, 3, {0: (), 1: ("e",), 2: ("f",), 3: ()},
                          {2: M(1, 1, {(0, 0): 6})},
                          weights={0: (), 1: (0,), 2: (0,), 3: ()})
    fields = {p: prime_field(p) for p in (2, 3, 5)}
    table = homology_table([cx], [1, 2], [ZZ, QQ, *fields.values()])
    rows = {dom: [(h.free_rank, h.torsion) for h in groups]
            for dom, groups in table.items()}
    assert rows[ZZ] == [(0, (6,)), (0, ())]
    assert rows[QQ] == [(0, ()), (0, ())]
    assert rows[fields[2]] == rows[fields[3]] == [(1, ()), (1, ())]
    assert rows[fields[5]] == [(0, ()), (0, ())]
    for p, dom in fields.items():
        over = ChainComplexData(PointedRing.make(dom, 0), 3, cx.basis,
                                {2: SparseMatrix.from_dict(1, 1, {(0, 0): 6 % p}, dom)})
        assert [(h.free_rank, h.torsion) for h in homology(over, [1, 2])] == rows[dom]
    assert all(h.basis_size == 1 for groups in table.values() for h in groups)


# builds over Q store ints, as over Z: every entry here is an integer, and a
# Fraction appears only where a division makes a non-integer.  Each case is
# (build, pinned (free rank, torsion) of H_1, ..., H_{max_degree - 1}).
def _q(a):
    return PointedRing.make(QQ, a)


Q_BUILDS = {
    **{f"closed a={a}": (
        lambda a=a: build_complex(ComplexSpec(4, _q(a), CLOSED, max_degree=4)),
        [(1, ()), (0, ()), (0, ())]) for a in (0, 1, -2)},
    "w=2": (lambda: build_complex(ComplexSpec(4, _q(0), CLOSED, max_degree=5,
                                              weight=2)),
            [(0, ())] * 4),
    "w=2 j=0": (lambda: build_complex(ComplexSpec(
        4, _q(0), CLOSED, max_degree=5, weight=2, dividers=0, subquotient=True)),
                [(0, ()), (0, ()), (1, ()), (0, ())]),
    "model": (lambda: truncated_complex(minimal_model(4, _q(0)), 5),
              [(1, ()), (0, ()), (0, ()), (1, ())]),
}


@pytest.mark.parametrize("name", sorted(Q_BUILDS))
def test_rational_builds_store_ints(name):
    build, groups = Q_BUILDS[name]
    cx = build()
    assert {type(v) for mat in cx.matrices.values()
            for _, _, vs in mat.row_data for v in vs} == {int}
    assert [(h.free_rank, h.torsion)
            for h in homology(cx, range(1, cx.max_degree))] == groups


def test_homology_table_needs_integer_complex():
    za = build_complex(ComplexSpec(4, PointedRing.make(ZA), CLOSED, max_degree=2))
    with pytest.raises(DomainError):
        homology_table([za], [1], [ZZ])
    z = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=2))
    with pytest.raises(DomainError):
        homology_table([z], [1], [ZA])


@pytest.mark.parametrize("two_n, top", [(2, 5), (4, 5), (6, 3)])
def test_weight_blocks_table_matches_the_split_build(two_n, top):
    """The table of the blocks built one at a time is the table of the
    whole build split by weight, row for row, over Z, Q, F2 and F3."""
    spec = ComplexSpec(two_n, Z0, CLOSED, max_degree=top)
    doms = [ZZ, QQ, prime_field(2), prime_field(3)]
    one_at_a_time = homology_table(weight_blocks(spec), range(1, top), doms)
    split = homology_table((b for _, b in weight_decompose(build_complex(spec))),
                           range(1, top), doms)
    for dom in doms:
        assert ([h.to_json() for h in one_at_a_time[dom]]
                == [h.to_json() for h in split[dom]]), dom


@pytest.mark.parametrize("entries, message", [
    (((0, 2, 1),), "out of range"),
    (((0, 0, 1), (0, 0, 2)), "duplicate entry"),
    (((0, 1, 0),), "stored zero"),
    (((1, 0, 1), (0, 1, 1)), "row-major order"),
])
def test_sparse_matrix_rejects_malformed_entries(entries, message):
    with pytest.raises(LinearAlgebraError, match=message):
        SparseMatrix(2, 2, entries, ZZ)


def test_matrix_domain_errors():
    with pytest.raises(DomainError):
        smith_normal_form(SparseMatrix.from_dict(1, 1, {(0, 0): Fraction(1, 2)}, QQ))
    with pytest.raises(LinearAlgebraError):
        SparseMatrix(1, 1, ((0, 0, 0),), ZZ)
    with pytest.raises(LinearAlgebraError):
        SparseMatrix(1, 1, ((0, 2, 1),), ZZ)


# -- row storage ----------------------------------------------------------------
# one nonzero scalar per int of 1..4 (with sign) in each domain, and its zero
STORAGE_DOMAINS = (
    (ZZ, lambda n: n),
    (QQ, lambda n: Fraction(n, 3)),
    (prime_field(5), lambda n: n % 5),
    (ZA, lambda n: ZA.mul(ZA.from_int(n), ZA.parse(f"a^{abs(n) % 2}"))),
)


def _rows_of(triples):
    """Consecutive triples of one row grouped as a stored row."""
    rows = []
    for r, c, v in triples:
        if rows and rows[-1][0] == r:
            rows[-1][1].append(c)
            rows[-1][2].append(v)
        else:
            rows.append((r, [c], [v]))
    return [(r, tuple(cs), tuple(vs)) for r, cs, vs in rows]


@st.composite
def sparse_cases(draw, max_dim=6):
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, max(rows - 1, 0)),
                                          st.integers(0, max(cols - 1, 0))))))
    if not (rows and cols):
        cells = []
    ns = [draw(st.sampled_from((1, -1, 2, -2, 3, -3, 4, -4))) for _ in cells]
    return rows, cols, cells, ns


@settings(max_examples=100, deadline=None)
@given(sparse_cases())
def test_rows_and_triples_store_the_same_matrix(case):
    rows, cols, cells, ns = case
    for dom, scalar in STORAGE_DOMAINS:
        triples = tuple((r, c, scalar(n)) for (r, c), n in zip(cells, ns))
        by_triples = SparseMatrix(rows, cols, triples, dom)
        by_rows = SparseMatrix.from_rows(rows, cols, _rows_of(triples), dom)
        by_dict = SparseMatrix.from_dict(rows, cols, {
            **{(r, c): v for r, c, v in reversed(triples)},
            # a zero given to from_dict is dropped
            **({(rows - 1, cols - 1): dom.zero()}
               if rows and cols and (rows - 1, cols - 1) not in cells else {})},
            dom)
        want_rows: dict = {}
        for r, c, v in triples:
            want_rows.setdefault(r, {})[c] = v
        for mat in (by_triples, by_rows, by_dict):
            assert mat == by_triples
            assert mat.entries == triples
            assert mat.nnz() == len(triples)
            assert mat.row_dicts() == want_rows


@pytest.mark.parametrize("dom, triples, message", [
    (ZZ, ((0, 2, 1),), "out of range"),
    (ZZ, ((2, 0, 1),), "out of range"),
    (ZZ, ((0, 0, 1), (0, 0, 2)), "duplicate entry"),
    (ZZ, ((1, 0, 1), (0, 1, 1)), "row-major order"),
    (ZZ, ((0, 1, 1), (0, 0, 1)), "row-major order"),
    (ZZ, ((0, 0, 1), (1, 1, 0)), "stored zero at \\(1,1\\)"),
    (QQ, ((0, 1, Fraction(0)),), "stored zero at \\(0,1\\)"),
    (ZA, ((1, 0, ()),), "stored zero at \\(1,0\\)"),
], ids=("column", "row", "duplicate", "rows", "columns", "zero", "fraction",
        "za"))
def test_row_storage_rejects_malformed_rows(dom, triples, message):
    # both constructors run one check and name the same fault
    with pytest.raises(LinearAlgebraError, match=message):
        SparseMatrix(2, 2, triples, dom)
    with pytest.raises(LinearAlgebraError, match=message):
        SparseMatrix.from_rows(2, 2, _rows_of(triples), dom)
    # a stored row is never empty, and has one value per column
    with pytest.raises(LinearAlgebraError, match="row 0"):
        SparseMatrix.from_rows(2, 2, [(0, (), ())], dom)
    with pytest.raises(LinearAlgebraError, match="row 1"):
        SparseMatrix.from_rows(2, 2, [(1, (0, 1), (dom.one(),))], dom)
