"""Ring-agnostic chain-complex linear algebra over exact domains.

Boundary data is held as sparse matrices whose entries live in one of the
coeff domains.  One sparse elimination with Markowitz pivoting serves every
ring.  Over Z it pivots on units only (boundary matrices are overwhelmingly
unimodular), so only a small residual core ever sees the gcd-based Smith
reduction.  Over a field it pivots on any nonzero and its pivot count is
the rank.  Over Z and every field alike, solves, kernels and homology
representatives replay the sweep's record, and each answer is checked
against the matrix it solves.  Everything is exact.
"""

from __future__ import annotations

import functools
import heapq
from array import array
from collections.abc import Sequence
from dataclasses import KW_ONLY, dataclass
from itertools import accumulate, chain, compress, groupby, starmap
from operator import eq, itemgetter, lt, mul

from .coeff import (INT_POLY_A, INTEGERS, CoefficientDomain, DomainError,
                     PointedRing, ZZ)


class LinearAlgebraError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class SparseMatrix:
    """Immutable sparse matrix, stored by rows.

    row_data holds each nonempty row once, in ascending row order, as
    (r, cols, vals): cols a strictly increasing tuple of column indices and
    vals the tuple of their values, none of them zero.  Every domain's zero
    (0, the empty Z[a] tuple) is falsy, so all(vals) is the zero test.  The
    constructor takes (r, c, v) triples in row-major order and groups them;
    from_rows takes rows as they are stored.  Both run the same check, once
    per row, and a row that fails it is scanned entry by entry to name the
    fault.  over_field and the weight split derive rows from a checked matrix
    that stay in order and nonzero, and store them without a second check.
    entries spells the triples afresh on each read.
    """

    rows: int
    cols: int
    row_data: tuple[tuple[int, tuple[int, ...], tuple], ...]
    domain: CoefficientDomain = ZZ

    def __init__(self, rows: int, cols: int, entries=(), domain=ZZ):
        grouped = []
        for r, group in groupby(entries, itemgetter(0)):
            group = tuple(group)
            grouped.append((r, tuple(map(itemgetter(1), group)),
                            tuple(map(itemgetter(2), group))))
        self._store(rows, cols, tuple(grouped), domain)

    @classmethod
    def from_rows(cls, rows: int, cols: int, row_data, domain=ZZ) -> "SparseMatrix":
        self = cls.__new__(cls)
        self._store(rows, cols, tuple(row_data), domain)
        return self

    @classmethod
    def from_dict(cls, rows, cols, data: dict, domain=ZZ) -> "SparseMatrix":
        """The matrix with data[(r, c)] at (r, c); zero values are dropped."""
        return cls(rows, cols, [(r, c, v) for (r, c), v in sorted(data.items()) if v],
                   domain)

    def _store(self, rows, cols, row_data, domain) -> None:
        self._assign(rows, cols, row_data, domain)
        pr = -1
        for r, cs, vs in row_data:
            if not (pr < r < rows and cs and len(cs) == len(vs)
                    and 0 <= cs[0] and cs[-1] < cols
                    and all(map(lt, cs, cs[1:])) and all(vs)):
                self._fault(r)
            pr = r

    def _assign(self, rows, cols, row_data, domain) -> None:
        for name, value in zip(("rows", "cols", "row_data", "domain"),
                               (rows, cols, row_data, domain)):
            object.__setattr__(self, name, value)

    def _fault(self, bad: int) -> None:
        """Raise the error of the first faulty entry, which lies in row bad
        (every row before it passed the check)."""
        pr, pc = -1, -1
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise LinearAlgebraError(f"entry ({r},{c}) out of range")
            if r < pr or (r == pr and c <= pc):
                if (r, c) == (pr, pc):
                    raise LinearAlgebraError(f"duplicate entry at ({r},{c})")
                raise LinearAlgebraError("entries not in row-major order")
            if not v:
                raise LinearAlgebraError(f"stored zero at ({r},{c})")
            pr, pc = r, c
        raise LinearAlgebraError(f"row {bad} is empty or its columns and "
                                 f"values differ in length")

    @property
    def entries(self) -> tuple[tuple[int, int, object], ...]:
        return tuple((r, c, v) for r, cs, vs in self.row_data
                     for c, v in zip(cs, vs))

    def nnz(self) -> int:
        return sum(len(cs) for _, cs, _ in self.row_data)

    def row_dicts(self) -> dict[int, dict[int, object]]:
        return {r: dict(zip(cs, vs)) for r, cs, vs in self.row_data}

    def apply(self, vec: dict[int, object]) -> dict[int, object]:
        """Matrix times a sparse column vector {index: value}, row by row."""
        if any(not 0 <= j < self.cols for j in vec):
            raise LinearAlgebraError("vector index out of range")
        dom = self.domain
        integers = dom.kind == INTEGERS  # plain int arithmetic
        held = vec.keys()
        out: dict[int, object] = {}
        for r, cs, vs in self.row_data:
            if held.isdisjoint(cs):
                continue
            terms = [(v, vec[c]) for c, v in zip(cs, vs) if c in held]
            s = (sum(starmap(mul, terms)) if integers
                 else functools.reduce(dom.add, starmap(dom.mul, terms), dom.zero()))
            if not dom.is_zero(s):
                out[r] = s
        return out

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        """The product by a sparse accumulator (Gustavson 1978), row by row,
        so the rows come out in order: a row of self adds the rows of other
        it picks into one list of other.cols zeros (plain ints over Z), the
        touched columns are tested at C speed, and only a row that left
        something nonzero emits it and sets those columns back to zero."""
        if self.cols != other.rows:
            raise LinearAlgebraError("shape mismatch in matrix product")
        dom = self.domain
        if other.domain != dom:
            raise LinearAlgebraError(
                f"domain mismatch in matrix product: {dom!r} and {other.domain!r}")
        integers = dom.kind == INTEGERS  # plain int arithmetic
        add, scale, zero = dom.add, dom.mul, dom.zero()
        right_cols, right_vals = [()] * other.rows, [()] * other.rows
        for k, cs, vs in other.row_data:
            right_cols[k], right_vals[k] = cs, vs
        acc = [zero] * other.cols
        out = []
        for r, cs, vs in self.row_data:
            for k, v in zip(cs, vs):
                if integers:
                    for c, w in zip(right_cols[k], right_vals[k]):
                        acc[c] += v * w
                else:
                    for c, w in zip(right_cols[k], right_vals[k]):
                        acc[c] = add(acc[c], scale(v, w))
            touched = chain.from_iterable(map(right_cols.__getitem__, cs))
            if any(map(acc.__getitem__, touched)):
                touched = sorted(set(chain.from_iterable(
                    map(right_cols.__getitem__, cs))))
                row = nonzero_row(touched, map(acc.__getitem__, touched))
                out.append((r, *row))
                for c in row[0]:
                    acc[c] = zero
        return SparseMatrix.from_rows(self.rows, other.cols, out, dom)

    def to_triples(self) -> list[list]:
        return [[r, c, self.domain.format(v)] for r, c, v in self.entries]


def nonzero_row(cols, vals) -> tuple[tuple, tuple]:
    """The columns and the values of a row, as tuples, without its zeros."""
    vals = tuple(vals)
    if all(vals):
        return tuple(cols), vals
    return tuple(compress(cols, vals)), tuple(filter(None, vals))


def zero_matrix(rows: int, cols: int, domain=ZZ) -> SparseMatrix:
    return SparseMatrix(rows, cols, (), domain)


class Basis(Sequence):
    """One degree's ordered basis, read as a sequence of strings.

    keys holds the elements as they are stored: an array is kept as it is
    given, anything else becomes a tuple.  spell, when given, maps a
    sequence of keys to their strings, and without it the keys are the
    strings.  A loop complex keeps its packed words in an array('Q') (8
    bytes a word, no int object) with the spelling of its machine, so a
    string is made only when the basis is read.  Length, equality,
    iteration, indexing and slicing are those of the tuple of strings,
    whichever storage holds the keys.
    """

    __slots__ = ("keys", "spell")

    def __init__(self, keys=(), spell=None):
        self.keys = keys if isinstance(keys, array) else tuple(keys)
        self.spell = spell

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys if self.spell is None else self.spell(self.keys))

    def __getitem__(self, i: int | slice):
        if self.spell is None:
            return self.keys[i]
        if isinstance(i, slice):
            return tuple(self.spell(self.keys[i]))
        return self.spell((self.keys[i],))[0]

    def pick(self, positions) -> "Basis":
        """The elements at these positions, still unspelled, in the storage
        of these keys."""
        keys = map(self.keys.__getitem__, positions)
        if isinstance(self.keys, array):
            keys = array(self.keys.typecode, keys)
        return Basis(keys, self.spell)

    def __eq__(self, other):
        if isinstance(other, Basis) and other.spell == self.spell:
            # an array never equals a tuple: compare the keys one by one
            return (len(self.keys) == len(other.keys)
                    and all(map(eq, self.keys, other.keys)))
        if isinstance(other, (Basis, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Basis({tuple(self)!r})"


@dataclass
class ChainComplexData:
    """Per-degree ordered bases plus boundary matrices d_p : C_p -> C_{p-1}.

    Storage rule.  basis[p] is the Basis of degree p for 0 <= p <=
    max_degree (a sequence of strings given here is wrapped in one; a loop
    complex's Basis keeps its packed words in one array('Q')), and weights[p]
    (optional) one loop-count label per basis element.  matrices[p] is the
    stored form of the boundary leaving degree p, a SparseMatrix stored by
    rows, dim(p - 1) x dim(p); rows may share their tuples, as the rows of
    one length share one value tuple in a loop complex over F2.  A matrix
    of another shape, or weights[p] of another length than basis[p], raises
    LinearAlgebraError.  Over Z[a] with weight labels (graded)
    every entry of d_p is n * a^(w_col - w_row), so matrices[p] is the
    integer matrix of the n, with domain ZZ, and a matrix over any other
    domain raises LinearAlgebraError; boundary(p) renders the Z[a] matrix
    through graded_matrix on each call and keeps no copy.  Every other
    complex stores its boundaries as they are, in the ring's domain.
    """

    ring: PointedRing
    max_degree: int
    basis: dict[int, Basis]
    matrices: dict[int, SparseMatrix]
    weights: dict[int, tuple[int, ...]] | None = None
    description: str = ""

    def __post_init__(self):
        if self.max_degree < 0:
            raise LinearAlgebraError("max_degree must not be negative")
        self.basis = {p: b if isinstance(b, Basis) else Basis(b)
                      for p, b in self.basis.items()}
        for p, mat in self.matrices.items():
            if (mat.rows, mat.cols) != (self.dim(p - 1), self.dim(p)):
                raise LinearAlgebraError(
                    f"d_{p} is {mat.rows} x {mat.cols}, but C_{p - 1} has "
                    f"{self.dim(p - 1)} elements and C_{p} has {self.dim(p)}")
        for p, labels in (self.weights or {}).items():
            if len(labels) != self.dim(p):
                raise LinearAlgebraError(
                    f"degree {p} has {len(labels)} weight labels for "
                    f"{self.dim(p)} basis elements")
        if self.graded:
            for p, mat in self.matrices.items():
                if mat.domain != ZZ:
                    raise LinearAlgebraError(
                        f"a weight-labelled Z[a] complex stores the integers n "
                        f"of its entries n*a^(w_col - w_row); d_{p} is over "
                        f"{mat.domain!r}, not Z")

    @property
    def graded(self) -> bool:
        """Whether matrices hold the integers n of a Z[a] boundary."""
        return self.weights is not None and self.ring.domain.kind == INT_POLY_A

    def dim(self, p: int) -> int:
        return len(self.basis.get(p, ()))

    def stored(self, p: int) -> SparseMatrix:
        """matrices[p], or the zero matrix in the stored domain."""
        if p in self.matrices:
            return self.matrices[p]
        return zero_matrix(self.dim(p - 1), self.dim(p),
                           ZZ if self.graded else self.ring.domain)

    def boundary(self, p: int) -> SparseMatrix:
        """d_p over the complex's ring."""
        mat = self.stored(p)
        if not self.graded:
            return mat
        return graded_matrix(mat.rows, mat.cols, mat.row_data,
                             self.weights.get(p - 1, ()),
                             self.weights.get(p, ()), self.ring)

    def index_map(self, p: int) -> dict[str, int]:
        return {enc: i for i, enc in enumerate(self.basis.get(p, ()))}

    def to_json(self) -> dict:
        return {
            "degrees": list(range(self.max_degree + 1)),
            "basis": {str(p): list(self.basis.get(p, ()))
                      for p in range(self.max_degree + 1)},
            "boundary": {str(p): self.boundary(p).to_triples()
                         for p in range(1, self.max_degree + 1)},
        }


# ---------------------------------------------------------------------------
# Graded entries: n * a^(w_col - w_row)
# ---------------------------------------------------------------------------
# Over a pointed ring (R, a), every boundary entry of a loop-count-labelled
# complex is an integer n times a^(w_col - w_row): each term pays one factor
# of a per loop it closes.  The integer matrix of the n and the labels
# determine the boundary over every ring; graded_matrix renders it there.

def graded_matrix(rows: int, cols: int, row_data, row_weights, col_weights,
                  ring: PointedRing) -> SparseMatrix:
    """The matrix with entry n * a^(w_col - w_row) at each (r, c) of the
    rows (r, cols, ns) of row_data, which come in row order.

    Each distinct (n, w_col - w_row) is converted into the ring once; entries
    that vanish there (n = 0, p | n, a = 0) are dropped.
    """
    dom = ring.domain
    scalars: dict[tuple[int, int], object] = {}
    out = []
    for r, cs, ns in row_data:
        rw = row_weights[r]
        kept_c, kept_v = [], []
        for c, n in zip(cs, ns):
            key = (n, col_weights[c] - rw)
            if key not in scalars:
                if key[1] < 0:
                    raise LinearAlgebraError(
                        f"entry ({r},{c}) would need a negative power of a")
                scalars[key] = dom.mul(dom.from_int(n), ring.a_power(key[1]))
            if v := scalars[key]:
                kept_c.append(c)
                kept_v.append(v)
        if kept_c:
            out.append((r, tuple(kept_c), tuple(kept_v)))
    return SparseMatrix.from_rows(rows, cols, out, dom)


@dataclass(frozen=True)
class DSquaredReport:
    ok: bool
    failures: tuple[tuple[int, int, int], ...] = ()

    def __str__(self):
        if self.ok:
            return "d^2 = 0"
        p, r, c = self.failures[0]
        return f"d^2 != 0 first at degree {p}, entry ({r},{c})"


def validate_d_squared(c: ChainComplexData) -> DSquaredReport:
    """Check d_{p-1} d_p = 0 for every composable pair of boundaries.

    The products are taken on the stored matrices.  A weight-labelled Z[a]
    complex stores its integers n (see ChainComplexData): every term of
    (d_{p-1} d_p)_{rc} carries the same factor a^(w_c - w_r), so that entry
    vanishes over Z[a] exactly when its integer sum does.
    """
    mats = {p: c.stored(p) for p in range(1, c.max_degree + 1)}
    failures = []
    for p in range(2, c.max_degree + 1):
        # the shapes fit: ChainComplexData checks them at construction
        for r, col, _ in mats[p - 1].mul(mats[p]).entries:
            failures.append((p, r, col))
    return DSquaredReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass
class SmithForm:
    """Invariant factors d_1 | d_2 | ... of an integer matrix, all positive;
    the rank is their number.

    When transforms are requested, U (rows x rows) and V (cols x cols) are
    unimodular with U A V = diag(invariants), and uinv/vinv their inverses;
    they are passed by keyword.
    """

    invariants: tuple[int, ...]
    _: KW_ONLY
    U: list[list[int]] | None = None
    V: list[list[int]] | None = None
    uinv: list[list[int]] | None = None
    vinv: list[list[int]] | None = None

    def __post_init__(self):
        if any(d <= 0 for d in self.invariants):
            raise LinearAlgebraError("invariants must be positive")
        for a, b in zip(self.invariants, self.invariants[1:]):
            if b % a != 0:
                raise LinearAlgebraError("invariants violate the divisibility chain")

    @property
    def rank(self) -> int:
        return len(self.invariants)


def _entries(row) -> tuple:
    """(cols, vals) of a sweep row: A's stored tuples, or a dict once written."""
    return (row.keys(), row.values()) if type(row) is dict else row


class _SparseSNF:
    """Lone-column peel and Markowitz sweep with a replayable record, then the
    dense residual core.

    Both pivot on a unit over Z and on any nonzero over a field.  The peel
    comes first and needs no row operation: with count[c] the number of
    live rows holding column c, a row holding a column of count 1 leaves R
    on its lowest such column (over Z the lowest holding a unit), since no
    other row has an entry there to clear.  It runs in rounds, each visiting
    the stored rows in ascending order with live counts, until a round
    peels nothing; npeeled counts its pivots.  The lowest column matters:
    pivoting on the highest lone column leaves the rows left to the sweep
    more fill-in and a larger core.  The sweep then pivots on a candidate of
    least cost (len(row) - 1) * (count[col] - 1).  Its queue holds one
    entry (cost, row, col) per row, the row's cheapest candidate with ties
    broken by the lower column, and rows of equal cost by the lower row;
    each row touched by a pivot is queued afresh, and an entry whose cost
    has risen since is re-queued when popped (npops counts the pops).  Row
    operations row_r -= q * row_r0 clear the pivot column outside the pivot
    row, which is then dropped; nfill counts the entries they create where a
    row held none.  Over a field that empties the matrix: the pivot count
    is the rank and the core is 0 x 0.  Over Z the rows left over form the
    residual core, reduced densely.  pivot_cols holds the pivot columns of
    both.

    A is never written to: a row of R stays A's (cols, vals) until a row
    operation first writes to it and copies it into a dict.  A pivot whose
    column no other row holds, peeled or popped, needs no row operation: its
    row just leaves R, and with transforms joins pivots.  At the first row
    operation, when every row of R is still stored, the rows holding column
    c are listed in an index transposed from them (a flat list of row ids
    with per-column offsets), and from then on in extra[c] once they gain c
    by fill-in; a listed row that has pivoted or lost c is skipped.  The
    index covers only the rows the peel left, and a sweep that needs no row
    operation makes none.

    Rows in cleared are dropped before the sweep.  _chain reduces d_1,
    d_2, ... in one ascending chain and clears the rows of d_{p+1} at the
    pivot columns of d_p, itself reduced with its own rows cleared.  Those
    pivots are units and L d_p is unit-triangular on the pivot rows and
    columns, so its pivot rows span a direct summand of the chains,
    complementary to the coordinates off the pivot columns, on which
    d_{p+1}^T vanishes: over Z the dropped rows of d_{p+1} are integer
    combinations of the kept ones, so d_{p+1} without them has the same row
    lattice, hence the same rank, invariants and kernel.  This needs only
    d_p d_{p+1} = 0, which any subset of d_p's rows keeps, so each link of
    the chain holds.  The core's pivots are not units and are never
    cleared.  Clearing serves the transforms as well: the kernel of the
    cleared d_{p+1} is its whole kernel, and a cycle of d_p is fixed by its
    entries off d_p's pivot columns, so it lies in the image of d_{p+1}
    exactly when its entries on the kept rows lie in the image of the
    cleared d_{p+1}.  A cleared row is in no system the sweep solves: solve
    ignores b there, and the caller checks the solution against all of A.

    With transforms the sweep records its operations in ops as (r, r0, q),
    q reduced mod p over F_p, and its pivot rows in pivots as (r0, c0,
    entries).  With L the recorded operations, L A has pivot rows, residual
    rows whose entries lie in the residual columns and form the core, zero
    rows, and the cleared rows.  Like a popped pivot row, a peeled one holds
    no earlier pivot column.  No operation reads a non-pivot row, so L and
    its inverse are the identity on vectors supported there.  The core is
    reduced with transforms too; over a field it is 0 x 0.  Non-pivot
    columns outside the core are free.
    """

    def __init__(self, A: SparseMatrix, transforms: bool = False,
                 cleared: frozenset[int] | set[int] = frozenset()):
        dom = A.domain
        if dom.kind != INTEGERS and not dom.is_field():
            raise DomainError("the sweep needs integer or field entries")
        self.dom = dom
        self.nrows, self.ncols, self.cleared = A.rows, A.cols, cleared
        self.R: dict[int, tuple | dict[int, object]] = {
            r: (cs, vs) for r, cs, vs in A.row_data if r not in cleared}
        self.count = [0] * A.cols
        self.ops: list[tuple[int, int, int]] = []
        self.pivots: list[tuple[int, int, dict[int, int]]] = []
        self.pivot_cols: set[int] = set()
        self.npeeled, self.npops, self.nfill = self._sweep(dom, transforms)
        self.npivots = len(self.pivot_cols)
        self.res_rows = sorted(r for r, row in self.R.items() if row)
        self.res_cols = sorted({c for r in self.res_rows
                                for c in _entries(self.R[r])[0]})
        cmap = {c: j for j, c in enumerate(self.res_cols)}
        self.core = _dense_snf(
            len(self.res_rows), len(self.res_cols),
            ((i, cmap[c], v) for i, r in enumerate(self.res_rows)
             for c, v in zip(*_entries(self.R[r]))),
            transforms)

    @functools.cached_property
    def free_cols(self) -> list[int]:
        bound = self.pivot_cols.union(self.res_cols)
        return [c for c in range(self.ncols) if c not in bound]

    @functools.cached_property
    def zero_rows(self) -> list[int]:
        bound = {r0 for r0, _, _ in self.pivots}.union(self.res_rows, self.cleared)
        return [r for r in range(self.nrows) if r not in bound]

    def _best(self, r: int, units: bool) -> tuple[int, int, int] | None:
        """Queue entry (cost, r, c) of row r's cheapest admissible pivot,
        ties broken by the lower column; None when r has none left.  The
        cost grows with count[c], so the scan compares live column counts."""
        cs, vs = _entries(self.R.get(r, {}))
        count = self.count
        # no column is held by more rows than there are
        blen, bcol = self.nrows + 1, None
        if units:
            for c, v in zip(cs, vs):
                if v == 1 or v == -1:
                    n = count[c]
                    if n < blen or (n == blen and c < bcol):
                        blen, bcol = n, c
        else:
            for c in cs:
                n = count[c]
                if n < blen or (n == blen and c < bcol):
                    blen, bcol = n, c
        if bcol is None:
            return None
        return (len(cs) - 1) * (blen - 1), r, bcol

    def _leave(self, r0: int, c0: int, transforms: bool) -> None:
        """Row r0 leaves R on column c0, which no other row holds, so no row
        operation is due."""
        cs, vs = _entries(self.R.pop(r0))
        count = self.count
        for c in cs:
            count[c] -= 1
        self.pivot_cols.add(c0)
        if transforms:
            self.pivots.append((r0, c0, dict(zip(cs, vs))))

    def _peel(self, units: bool, transforms: bool) -> int:
        """The peel of the class docstring; returns the number of rows it
        pivots.  A stored row's columns ascend, so its lowest lone column is
        its first of count 1."""
        R, count = self.R, self.count
        npeeled = 0
        while True:
            before = npeeled
            for r in list(R):
                cs, vs = R[r]
                counts = list(map(count.__getitem__, cs))
                if 1 not in counts:
                    continue
                k = counts.index(1)
                if units:
                    try:
                        while vs[k] != 1 and vs[k] != -1:
                            k = counts.index(1, k + 1)
                    except ValueError:  # its lone columns hold no unit
                        continue
                self._leave(r, cs[k], transforms)
                npeeled += 1
            if npeeled == before:
                return npeeled

    def _sweep(self, dom: CoefficientDomain, transforms: bool) -> tuple[int, int, int]:
        """Peel the rows on lone columns, then eliminate pivots until none is
        left; returns the numbers of rows peeled, of queue entries popped
        and of entries filled in."""
        units = dom.kind == INTEGERS
        p = dom.p  # entries are reduced mod p over F_p
        R, count = self.R, self.count
        for c in chain.from_iterable(cs for cs, _ in R.values()):
            count[c] += 1
        npeeled = self._peel(units, transforms)
        index, extra = None, {}  # listed at the first row operation
        heap = [e for r in R if (e := self._best(r, units))]
        heapq.heapify(heap)
        npops = nfill = 0
        while heap:
            cost, r0, _ = heapq.heappop(heap)
            npops += 1
            # the popped key may be stale: skip a row that is gone or has no
            # pivot left, and re-key one whose best pivot now costs more
            if not (best := self._best(r0, units)):
                continue
            if best[0] > cost:
                heapq.heappush(heap, best)
                continue
            c0 = best[2]
            if count[c0] == 1:
                self._leave(r0, c0, transforms)
                continue
            if index is None:
                # no row has been written yet, so R holds stored rows, and
                # the count[c] of them that hold c are index[start[c]:start[c + 1]]
                start = list(accumulate(count, initial=0))
                index, pos = [0] * start[-1], start[:-1]
                for r, (cs, _) in R.items():
                    for c in cs:
                        index[pos[c]] = r
                        pos[c] += 1
                del pos
            # the pivot row leaves R now, so the visit below skips it
            row0 = dict(zip(*_entries(R.pop(r0))))
            v = row0[c0]
            # a unit is its own inverse; over Q any other pivot's inverse is
            # a Fraction, and the rows it reaches hold Fractions from then on
            inv = v if v in (1, -1) else dom.inv(v)
            touched = []
            for r in chain(index[start[c0]:start[c0 + 1]], extra.pop(c0, ())):
                row = R.get(r)
                if type(row) is tuple:  # the first write copies the row
                    row = R[r] = dict(zip(*row))
                elif row is None or c0 not in row:
                    continue
                q = row[c0] * inv
                if p:
                    q %= p
                for c, w in row0.items():
                    old = row.get(c)
                    nv = -q * w if old is None else old - q * w
                    if p:
                        nv %= p
                    if nv:
                        if old is None:
                            count[c] += 1
                            extra.setdefault(c, []).append(r)
                            nfill += 1
                        row[c] = nv
                    elif old is not None:
                        del row[c]
                        count[c] -= 1
                if transforms:
                    self.ops.append((r, r0, q))
                touched.append(r)
            # column c0 is now held by r0 only; dropping the pivot row and
            # column performs the clearing column operations
            for c in row0:
                count[c] -= 1
            self.pivot_cols.add(c0)
            if transforms:
                self.pivots.append((r0, c0, row0))
            for r in touched:
                if e := self._best(r, units):
                    heapq.heappush(heap, e)
        return npeeled, npops, nfill

    @functools.cached_property
    def _readers(self) -> tuple[dict[int, int], dict[int, list[int]]]:
        """Each pivot's index by its row, and per column the pivots whose
        row holds it outside their own pivot column."""
        by_row: dict[int, int] = {}
        by_col: dict[int, list[int]] = {}
        for k, (r0, c0, row) in enumerate(self.pivots):
            by_row[r0] = k
            for c in row:
                if c != c0:
                    by_col.setdefault(c, []).append(k)
        return by_row, by_col

    def _lift(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """Complete x, given on the non-pivot columns, by back-substitution
        so that every pivot row of L A x equals y there.

        Pivot k's row holds no pivot column of an earlier pivot, so its
        entry of x depends on later pivots only: pivots are solved in
        descending order, and only those reached from the support of x and y.
        """
        p = self.dom.p  # values are reduced mod p over F_p
        by_row, by_col = self._readers
        queued = {by_row[r] for r, v in y.items() if v and r in by_row}
        for c in x:
            queued.update(by_col.get(c, ()))
        heap = [-k for k in queued]
        heapq.heapify(heap)
        while heap:
            r0, c0, row = self.pivots[-heapq.heappop(heap)]
            s = y.get(r0, 0)
            for c, w in row.items():
                if c != c0:
                    s -= w * x.get(c, 0)
            if p:
                s %= p
            if s:
                v = row[c0]
                # a unit is its own inverse
                x[c0] = s * v if v == 1 or v == -1 else s * self.dom.inv(v)
                if p:
                    x[c0] %= p
                for k in by_col.get(c0, ()):
                    if k not in queued:
                        queued.add(k)
                        heapq.heappush(heap, -k)
        return x

    def solve(self, b: dict[int, int]) -> dict[int, int] | None:
        """One x over A's domain with A x = b on every row that was not
        cleared, or None when there is none; b's entries on cleared rows are
        not read."""
        p = self.dom.p
        y = dict(b)
        for r, r0, q in self.ops:
            v = y.get(r0)
            if v:
                y[r] = y.get(r, 0) - q * v
                if p:
                    y[r] %= p
        if any(y.get(r) for r in self.zero_rows):
            return None
        core = self.core
        t = []
        for i, Ui in enumerate(core.U):
            s = sum(u * y.get(r, 0) for u, r in zip(Ui, self.res_rows))
            if i < core.rank:
                if s % core.invariants[i]:
                    return None
                t.append(s // core.invariants[i])
            elif s:
                return None
        x = {}
        for c, Vc in zip(self.res_cols, core.V):
            s = sum(v * w for v, w in zip(Vc, t))
            if s:
                x[c] = s
        return self._lift(x, y)

    @property
    def kernel_rank(self) -> int:
        return len(self.free_cols) + len(self.res_cols) - self.core.rank

    def kernel_vector(self, coords: dict[int, int]) -> dict[int, int]:
        """The kernel vector with these coordinates in the kernel basis.

        Coordinate t < len(free_cols) is the entry on free column t; the
        rest are coefficients of the core's kernel columns of V.  A kernel
        vector is fixed by its non-pivot entries, and its residual entries
        must lie in the kernel of the core, so this basis spans the whole
        kernel lattice.
        """
        nf = len(self.free_cols)
        x = {self.free_cols[t]: v for t, v in coords.items() if t < nf}
        core = [(self.core.rank + t - nf, v) for t, v in coords.items() if t >= nf]
        if core:
            for c, Vc in zip(self.res_cols, self.core.V):
                s = sum(Vc[j] * v for j, v in core)
                if s:
                    x[c] = s
        return self._lift(x, {})

    def cokernel_free_generators(self) -> list[dict[int, int]]:
        """Vectors whose classes generate the free part of coker A.

        e_i for each zero row of L A, and the core's columns of uinv past
        its rank on the residual rows; both are supported on non-pivot rows,
        where L^-1 is the identity.
        """
        gens = [{i: 1} for i in self.zero_rows]
        for i in range(self.core.rank, len(self.res_rows)):
            gens.append({r: row[i] for r, row in zip(self.res_rows, self.core.uinv)
                         if row[i]})
        return gens


# Cells allowed in each dense matrix of a Smith reduction, the core and each
# transform; past it the reduction raises instead of exhausting memory.  Only
# the residual core of the unit-pivot sweep is ever densified.
_DENSE_CELLS = 1_000_000


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _dense_snf(nr: int, nc: int, entries, transforms: bool = False) -> SmithForm:
    """Textbook Smith reduction of the nr x nc matrix with these (r, c, v)
    entries, carrying U, V and their inverses along when transforms is set."""
    if (max(nr, nc) ** 2 if transforms else nr * nc) > _DENSE_CELLS:
        raise LinearAlgebraError(
            f"dense Smith reduction of a {nr}x{nc} matrix exceeds the budget "
            f"of {_DENSE_CELLS} cells per dense matrix")
    m = [[0] * nc for _ in range(nr)]
    for r, c, v in entries:
        m[r][c] = v
    U = uinv = V = vinv = None
    if transforms:
        U, uinv, V, vinv = _identity(nr), _identity(nr), _identity(nc), _identity(nc)

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(nc):
            m[i][t] -= q * m[j][t]
        if transforms:
            for t in range(nr):
                U[i][t] -= q * U[j][t]
                uinv[t][j] += q * uinv[t][i]

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(nr):
            m[t][i] -= q * m[t][j]
        if transforms:
            for t in range(nc):
                V[t][i] -= q * V[t][j]
                vinv[j][t] += q * vinv[i][t]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        if transforms:
            U[i], U[j] = U[j], U[i]
            for t in range(nr):
                uinv[t][i], uinv[t][j] = uinv[t][j], uinv[t][i]

    def col_swap(i, j):
        for t in range(nr):
            m[t][i], m[t][j] = m[t][j], m[t][i]
        if transforms:
            for t in range(nc):
                V[t][i], V[t][j] = V[t][j], V[t][i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_negate(i):
        m[i] = [-x for x in m[i]]
        if transforms:
            U[i] = [-x for x in U[i]]
            for t in range(nr):
                uinv[t][i] = -uinv[t][i]

    invs = []
    k = 0
    while k < nr and k < nc:
        pr = pc = None
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pr, pc = v, i, j
        if pr is None:
            break
        row_swap(k, pr)
        col_swap(k, pc)
        while True:
            progress = False
            for i in range(k + 1, nr):
                if m[i][k]:
                    row_op(i, k, m[i][k] // m[k][k])
                    if m[i][k]:  # remainder left: swap to shrink the pivot
                        row_swap(k, i)
                        progress = True
            if progress:
                continue
            for j in range(k + 1, nc):
                if m[k][j]:
                    col_op(j, k, m[k][j] // m[k][k])
                    if m[k][j]:
                        col_swap(k, j)
                        progress = True
            if progress:
                continue
            bad = next((i for i in range(k + 1, nr)
                        if any(m[i][j] % m[k][k] for j in range(k + 1, nc))), None)
            if bad is None:
                break
            row_op(k, bad, -1)  # add the offending row to the pivot row
        if m[k][k] < 0:
            row_negate(k)
        invs.append(m[k][k])
        k += 1
    return SmithForm(tuple(invs), U=U, V=V, uinv=uinv, vinv=vinv)


def smith_normal_form(A: SparseMatrix) -> SmithForm:
    """Invariant factors of an integer matrix.

    The unit-pivot sweep takes the bulk of a combinatorial boundary matrix
    and only its residual core is reduced densely.
    """
    if A.domain.kind != INTEGERS:
        raise DomainError("Smith normal form needs integer entries")
    work = _SparseSNF(A)
    invariants = (1,) * work.npivots + work.core.invariants
    return SmithForm(invariants)


def rank_over_field(A: SparseMatrix, fld: CoefficientDomain) -> int:
    """Exact rank: the number of pivots of the sparse Markowitz sweep."""
    if not fld.is_field():
        raise DomainError(f"{fld!r} is not a field")
    return _SparseSNF(over_field(A, fld)).npivots


def over_field(A: SparseMatrix, fld: CoefficientDomain) -> SparseMatrix:
    """A with its entries in the field fld; an integer matrix is mapped,
    each distinct value once, and its entries that vanish there (the
    multiples of p) are dropped.  A row keeps its tuple of columns unless
    one of its entries vanishes."""
    if A.domain.kind == INTEGERS:
        image = {n: fld.from_int(n) for n in
                 set(chain.from_iterable(vs for _, _, vs in A.row_data))}
        vanish = {n for n, v in image.items() if not v}
        out = []
        for r, cs, vs in A.row_data:
            if vanish.isdisjoint(vs):
                out.append((r, cs, tuple(map(image.__getitem__, vs))))
                continue
            cs, vs = nonzero_row(cs, map(image.__getitem__, vs))
            if cs:
                out.append((r, cs, vs))
        # what is left of A's checked rows is still in order and nonzero
        mapped = SparseMatrix.__new__(SparseMatrix)
        mapped._assign(A.rows, A.cols, tuple(out), fld)
        return mapped
    if A.domain != fld:
        raise DomainError("matrix domain disagrees with requested field")
    return A


# ---------------------------------------------------------------------------
# Homology groups
# ---------------------------------------------------------------------------

@dataclass
class HomologyGroup:
    """Free rank, torsion invariants, and optional representative cycles."""

    degree: int
    free_rank: int
    torsion: tuple[int, ...]
    basis_size: int
    representatives: tuple[dict[int, int], ...] | None = None

    def to_json(self) -> dict:
        return {"degree": self.degree, "rank": self.free_rank,
                "torsion": list(self.torsion), "basis_size": self.basis_size}

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return f"H_{self.degree} = " + (" + ".join(parts) if parts else "0")


def _chain(c: ChainComplexData, top: int, transforms=()):
    """Reduce d_1, d_2, ..., d_top of c in one ascending chain over Z or the
    field of c, each without the rows at the sweep pivot columns of the one
    below (clearing; see _SparseSNF), and yield (q, d_q, its sweep) in
    turn, the sweep of each degree in transforms with its record.  The
    low boundaries are small, and their pivots remove the rows that would
    fill in above."""
    dom = c.ring.domain
    cleared: frozenset[int] | set[int] = frozenset()
    for q in range(1, top + 1):
        A = c.boundary(q)
        if dom.kind != INTEGERS:
            A = over_field(A, dom)
        work = _SparseSNF(A, transforms=q in transforms, cleared=cleared)
        yield q, A, work
        cleared = work.pivot_cols


def homology(c: ChainComplexData, degrees, representatives: bool = False
             ) -> list[HomologyGroup]:
    """Homology groups at the requested degrees.

    Every requested degree p must satisfy p < max_degree so that both
    adjacent boundaries are trusted; the truncation edge is never reported.
    d_1, d_2, ..., d_{max(degrees)+1} are reduced once each by _chain; each
    drops the rows at the previous one's sweep pivot columns, which leaves
    its rank and invariants unchanged.  With representatives, those of
    each requested degree p, over Z or the field of c, come from d_p's
    sweep in the chain, recorded with its transforms, and from d_{p+1}:
    the cleared d_p has the whole kernel, so nothing is reduced twice.
    Without them no sweep records its transforms.
    """
    degrees = list(degrees)
    for p in degrees:
        if p >= c.max_degree:
            raise LinearAlgebraError(
                f"degree {p} is at or beyond the truncation edge {c.max_degree}")
        if p < 0:
            raise LinearAlgebraError("negative degree")
    dom = c.ring.domain
    if dom.kind != INTEGERS and not dom.is_field():
        raise DomainError(
            "homology is computed over Z or a field; specialize first")
    certify = set(degrees) if representatives else set()
    reduced = [(0, ())]  # q -> (rank, torsion invariants) of d_q; d_0 = 0
    low = {}  # p in certify -> (d_p, its transform sweep), until d_{p+1} comes
    if 0 in certify:
        d0 = c.boundary(0)
        low[0] = d0, _SparseSNF(d0, transforms=True)
    reps = {}
    for q, A, work in _chain(c, max(degrees, default=-1) + 1, certify):
        reduced.append((work.npivots + work.core.rank,
                        tuple(d for d in work.core.invariants if d > 1)))
        if q - 1 in low:
            reps[q - 1] = _representatives(q - 1, *low.pop(q - 1), A)
        if q in certify:
            low[q] = A, work

    out = []
    for p in degrees:
        n_p = c.dim(p)
        r_low = reduced[p][0]
        rank, tors = reduced[p + 1]
        out.append(HomologyGroup(p, n_p - r_low - rank, tors, n_p, reps.get(p)))
    return out


def integer_kernel_basis(A: SparseMatrix) -> list[dict[int, int]]:
    """Basis of the kernel of A over Z or a field (over Z, of the kernel
    lattice), every vector checked against A.

    One back-substitution through the sweep's pivots per free column, and
    one per kernel column of the residual core (over Z only).
    """
    work = _SparseSNF(A, transforms=True)
    basis = [work.kernel_vector({t: 1}) for t in range(work.kernel_rank)]
    # one product A K checks every vector, a column of K, against one
    # column map of A
    K = SparseMatrix.from_dict(A.cols, len(basis), {
        (i, t): v for t, vec in enumerate(basis) for i, v in vec.items()},
        A.domain)
    if A.mul(K).row_data:
        raise LinearAlgebraError("kernel basis vector failed its check A k = 0")
    return basis


def _checked_solve(A: SparseMatrix, b: dict, work: _SparseSNF) -> dict | None:
    """work.solve(b), where work is A's sweep with transforms, and a
    solution is checked against the whole of A, cleared rows included."""
    x = work.solve(b)
    if x is not None and A.apply(x) != b:
        raise LinearAlgebraError("solution failed its check A x = b")
    return x


def solve_integer(A: SparseMatrix, b: dict[int, int]) -> dict[int, int] | None:
    """One solution of A x = b over Z or a field, or None when none exists.

    Replays the sweep on b, solves the residual core densely (over Z only)
    and back-substitutes the pivots; a solution is checked against A.
    """
    if any(not 0 <= r < A.rows for r in b):
        raise LinearAlgebraError("vector index out of range")
    b = _in_domain(A.domain, b)
    return _checked_solve(A, b, _SparseSNF(A, transforms=True))


def _in_domain(dom: CoefficientDomain, vec: dict[int, object]) -> dict[int, object]:
    """vec without its zeros, in dom: a plain int is read through from_int,
    any other value must pass validate (DomainError)."""
    out = {}
    for i, v in vec.items():
        if type(v) is int:  # not a bool
            v = dom.from_int(v)
        else:
            dom.validate(v)
        if not dom.is_zero(v):
            out[i] = v
    return out


def is_cycle(c: ChainComplexData, vec: dict[int, object], p: int) -> bool:
    """d_p vec = 0; d_0 is the zero map with no rows, which still checks the
    indices of vec."""
    return not c.boundary(p).apply(_in_domain(c.ring.domain, vec))


def is_boundary(c: ChainComplexData, vec: dict[int, object], p: int) -> bool:
    """Exact solvability of d_{p+1} w = vec over Z or the field of c.

    A non-cycle is no boundary.  For a cycle, _chain reduces d_1, ...,
    d_{p+1}, and d_{p+1} x = vec is solved on the rows of d_{p+1} that the
    chain keeps: a cycle is fixed by its entries off d_p's pivot columns,
    the cleared rows (see _SparseSNF), so vec is a boundary exactly when
    that projected system has a solution.  A True is backed by an x with
    d_{p+1} x = vec, checked against the whole of d_{p+1}.
    """
    if p + 1 > c.max_degree:
        raise LinearAlgebraError("degree out of trusted range for is_boundary")
    dom = c.ring.domain
    vec = _in_domain(dom, vec)
    if dom.kind != INTEGERS and not dom.is_field():
        raise DomainError("is_boundary needs Z or field coefficients")
    if c.boundary(p).apply(vec):
        return False
    if not vec:
        return True
    for _, A, work in _chain(c, p + 1, transforms=(p + 1,)):
        pass  # the chain's last link is d_{p+1}, swept with its record
    return _checked_solve(A, vec, work) is not None


def _representatives(p: int, low_A: SparseMatrix, low: _SparseSNF,
                     high: SparseMatrix):
    """Representative cycles for the free part of H_p over Z or a field,
    from d_p = low_A, its sweep low with transforms, and d_{p+1} = high;
    torsion is reported by the invariants alone.

    X is d_{p+1} in the kernel coordinates of d_p (exact over Z too: that
    basis spans the whole kernel lattice), made from the stored rows
    of d_{p+1}: its row t < len(free_cols) is the row of d_{p+1} at free
    column t, and each later row the combination of the rows at the
    residual columns that one kernel vector of the core takes, read off
    its vinv (over a field the core is 0 x 0 and adds no row).  The free
    cokernel generators of X, mapped back through the kernel basis, are the
    representatives; each is checked to be a cycle.
    """
    free = {c: t for t, c in enumerate(low.free_cols)}
    res = {c: i for i, c in enumerate(low.res_cols)}
    rows, core_rows = [], {}
    for r, cs, vs in high.row_data:
        if r in free:  # free columns ascend, so these rows stay in order
            rows.append((free[r], cs, vs))
        elif r in res:
            core_rows[res[r]] = cs, vs
    nf = len(free)
    for j, coeffs in enumerate(low.core.vinv[low.core.rank:]):
        acc: dict[int, int] = {}
        for i, w in enumerate(coeffs):
            if w and i in core_rows:
                for col, v in zip(*core_rows[i]):
                    acc[col] = acc.get(col, 0) + w * v
        cols = sorted(acc)
        cs, vs = nonzero_row(cols, map(acc.__getitem__, cols))
        if cs:
            rows.append((nf + j, cs, vs))
    X = SparseMatrix.from_rows(low.kernel_rank, high.cols, rows, high.domain)
    reps = tuple(low.kernel_vector(g)
                 for g in _SparseSNF(X, transforms=True).cokernel_free_generators())
    for rep in reps:
        if low_A.apply(rep):
            raise LinearAlgebraError(f"representative in degree {p} is not a cycle")
    return reps


# ---------------------------------------------------------------------------
# Weight decomposition
# ---------------------------------------------------------------------------

def weight_decompose(c: ChainComplexData) -> list[tuple[int, ChainComplexData]]:
    """Split a loop-count-labelled complex into its weight summands.

    Requires a = 0 (the differential preserves the number of loops there);
    raises if any boundary entry crosses two weight blocks.  One pass over
    each degree's basis keys and boundary rows sends each to its block; the
    keys stay unspelled and the values of a row are kept as they are.
    """
    if not c.ring.a_is_zero:
        raise LinearAlgebraError("weight decomposition needs a = 0")
    if c.weights is None:
        raise LinearAlgebraError("complex carries no loop-count labels")
    all_w = sorted({w for p in c.basis for w in c.weights.get(p, ())})
    degrees = range(c.max_degree + 1)
    basis = {w: {} for w in all_w}
    # degree -> weight -> {index in the degree: index in the block}, so a
    # column of another weight is missing from a row's map
    local = {}
    for p in degrees:
        local[p] = blocks = {w: {} for w in all_w}
        for i, w in enumerate(c.weights.get(p, ())):
            block = blocks[w]
            block[i] = len(block)
        whole = c.basis.get(p, Basis())
        for w in all_w:
            basis[w][p] = whole.pick(blocks[w])
    mats = {w: {} for w in all_w}
    for p in range(1, c.max_degree + 1):
        row_w, col_w = c.weights.get(p - 1, ()), c.weights.get(p, ())
        rloc, cloc = local[p - 1], local[p]
        rows = {w: [] for w in all_w}
        for r, cs, vs in c.boundary(p).row_data:
            w = row_w[r]
            try:
                # each block keeps the row order of the whole matrix
                rows[w].append((rloc[w][r], tuple(map(cloc[w].__getitem__, cs)), vs))
            except KeyError:
                col = next(col for col in cs if col_w[col] != w)
                raise LinearAlgebraError(
                    f"boundary entry ({r},{col}) in degree {p} crosses weights") from None
        for w in all_w:
            # a block's columns are numbered in the order of the whole
            # matrix's, so its rows are as ordered and nonzero as they were
            mats[w][p] = block = SparseMatrix.__new__(SparseMatrix)
            block._assign(len(basis[w][p - 1]), len(basis[w][p]), tuple(rows[w]),
                          c.ring.domain)
    return [(w, ChainComplexData(
        c.ring, c.max_degree, basis[w], mats[w],
        weights={p: (w,) * len(b) for p, b in basis[w].items()},
        description=f"{c.description}[weight {w}]")) for w in all_w]


def homology_table(blocks, degrees, domains
                   ) -> dict[CoefficientDomain, list[HomologyGroup]]:
    """Homology over each of domains (Z or fields) of the direct sum of the
    complexes over Z in blocks, each reduced once and let go before the next
    is drawn: weight_blocks(spec) builds a loop complex's weight blocks one
    at a time, [cx] is one complex.  A field F follows by universal
    coefficients: dim H_p(C; F) = rank H_p + #{t in tors H_p and tors
    H_{p-1} : char F divides t}."""
    if bad := [dom for dom in domains if dom.kind != INTEGERS and not dom.is_field()]:
        raise DomainError(f"homology is computed over Z or a field, not {bad[0]!r}")
    degrees = list(degrees)
    needed = sorted(set(degrees) | {p - 1 for p in degrees if p >= 1})
    rank, size = dict.fromkeys(needed, 0), dict.fromkeys(needed, 0)
    torsion = {p: [] for p in needed}
    for c in blocks:
        if c.ring.domain.kind != INTEGERS:
            raise DomainError("homology_table reads every ring off complexes over Z")
        for h in homology(c, needed):
            rank[h.degree] += h.free_rank
            size[h.degree] += h.basis_size
            torsion[h.degree].extend(h.torsion)
        del c  # else the loop variable holds this block while the next is built

    def group(p, dom):
        if dom.kind == INTEGERS:
            return HomologyGroup(p, rank[p], tuple(sorted(torsion[p])), size[p])
        # Q has no characteristic: no torsion term survives there
        tors = torsion[p] + torsion.get(p - 1, [])
        extra = sum(1 for t in tors if dom.p and t % dom.p == 0)
        return HomologyGroup(p, rank[p] + extra, (), size[p])

    return {dom: [group(p, dom) for p in degrees] for dom in domains}
