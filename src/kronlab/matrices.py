"""Dense matrices over any scalar backend, with exact elimination.

Storage is a single row-major list; row and column indices are 1-based to
match the multi-index convention used everywhere else.

Rank, dependency witnesses, inverses and leading principal minors all come
from one forward-elimination kernel, ``_echelon``.  Its pivot rule: the
pivot of a column is its first nonzero entry at or below the current row
(exact arithmetic needs no search for the largest entry, and the dependency
witnesses that callers report depend on this rule).  The backend is decided
by :func:`~kronlab.scalars.common_backend`, so complex64 meeting an exact
value raises.  On the exact backends each row is scaled to int numerators
and eliminated fraction-free (Bareiss), over Z or over Z[i]; values become
``Fraction`` or ``GaussianRational`` again only in the results.  complex64
rows are eliminated in floats.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, floordiv, mul
from typing import Callable, Iterable, Optional, Sequence

from .scalars import RATIONAL, common_backend, from_numerators, numerators


class DenseMatrix:
    """An ``nrows x ncols`` matrix stored as a flat row-major list.

    Instances are value-like: no method mutates entries, every operation
    returns a fresh matrix, so sharing across threads is safe.
    """

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: Sequence):
        data = list(data)
        if len(data) != nrows * ncols:
            raise ValueError(f"need {nrows * ncols} entries, got {len(data)}")
        self.nrows = nrows
        self.ncols = ncols
        self.data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("a matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = [v for r in rows for v in r]
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int, one=1, zero=0) -> "DenseMatrix":
        data = [zero] * (n * n)
        for i in range(n):
            data[i * n + i] = one
        return cls(n, n, data)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, zero=0) -> "DenseMatrix":
        return cls(nrows, ncols, [zero] * (nrows * ncols))

    def at(self, i: int, j: int):
        """Entry in row ``i``, column ``j`` (1-based)."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise ValueError(f"entry ({i},{j}) out of range for {self.nrows}x{self.ncols}")
        return self.data[(i - 1) * self.ncols + (j - 1)]

    def row(self, i: int) -> list:
        if not 1 <= i <= self.nrows:
            raise ValueError(f"row {i} out of range")
        s = (i - 1) * self.ncols
        return self.data[s:s + self.ncols]

    def col(self, j: int) -> list:
        if not 1 <= j <= self.ncols:
            raise ValueError(f"column {j} out of range")
        return self.data[j - 1::self.ncols]

    def rows(self) -> list:
        return [self.row(i) for i in range(1, self.nrows + 1)]

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix.from_rows([self.col(j) for j in range(1, self.ncols + 1)])

    def matvec(self, x: Sequence) -> list:
        if len(x) != self.ncols:
            raise ValueError(f"vector length {len(x)} != {self.ncols} columns")
        out = []
        for i in range(self.nrows):
            base = i * self.ncols
            acc = 0
            for j, v in enumerate(x):
                acc += self.data[base + j] * v
            out.append(acc)
        return out

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"inner dimensions differ: {self.ncols} vs {other.nrows}")
        cols = [other.col(j) for j in range(1, other.ncols + 1)]
        data = []
        for i in range(self.nrows):
            r = self.row(i + 1)
            for c in cols:
                acc = 0
                for a, b in zip(r, c):
                    acc += a * b
                data.append(acc)
        return DenseMatrix(self.nrows, other.ncols, data)

    __matmul__ = matmul

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return DenseMatrix(self.nrows, self.ncols,
                           [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix subtraction")
        return DenseMatrix(self.nrows, self.ncols,
                           [a - b for a, b in zip(self.data, other.data)])

    def scale(self, c) -> "DenseMatrix":
        return DenseMatrix(self.nrows, self.ncols, [c * v for v in self.data])

    def submatrix(self, rows: Iterable[int], cols: Iterable[int],
                  mode: str = "retain") -> "DenseMatrix":
        """Restrict to index sets, ``retain`` keeping them or ``delete``
        keeping their complements; original index order is preserved."""
        rset, cset = set(rows), set(cols)
        for i in rset:
            if not 1 <= i <= self.nrows:
                raise ValueError(f"row index {i} out of range")
        for j in cset:
            if not 1 <= j <= self.ncols:
                raise ValueError(f"column index {j} out of range")
        if mode == "retain":
            keep_r = sorted(rset)
            keep_c = sorted(cset)
        elif mode == "delete":
            keep_r = [i for i in range(1, self.nrows + 1) if i not in rset]
            keep_c = [j for j in range(1, self.ncols + 1) if j not in cset]
        else:
            raise ValueError(f"mode must be 'retain' or 'delete', got {mode!r}")
        if not keep_r or not keep_c:
            raise ValueError("submatrix would have no rows or no columns")
        return DenseMatrix.from_rows([[self.at(i, j) for j in keep_c] for i in keep_r])

    def map(self, fn: Callable) -> "DenseMatrix":
        return DenseMatrix(self.nrows, self.ncols, [fn(v) for v in self.data])

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and \
            all(a == b for a, b in zip(self.data, other.data))

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols}, {self.rows()!r})"


def matrix_backend(m: DenseMatrix):
    """Backend the entries share, by :func:`~kronlab.scalars.common_backend`:
    plain ints are backend-neutral (int-only counts as rational), rationals
    embed into Gaussian, and complex64 meeting an exact value raises."""
    return common_backend([m.data]) or RATIONAL


def _prepare(rows: Sequence[Sequence], aug: int = 0) -> tuple:
    """``(work, scales, backend)``: each row, followed by ``aug`` columns of
    the identity, as a list of parts.  On complex64 that is one part, cast
    to ``complex``.  On the exact backends (int-only counts as rational) the
    row times the lcm of its denominators, its scale, gives int numerators:
    one part, or real and imaginary parts when some entry is not real."""
    backend = common_backend(rows) or RATIONAL
    rows = [[*r, *(int(i == j) for j in range(aug))] for i, r in enumerate(rows)]
    if not backend.exact:
        return [[[complex(v) for v in r]] for r in rows], None, backend
    scaled = [numerators(r, backend) for r in rows]
    width = max((len(parts) for parts, _ in scaled), default=1)
    work = [parts + [[0] * len(r)] * (width - len(parts)) for (parts, _), r in zip(scaled, rows)]
    return work, [den for _, den in scaled], backend


def _mul(a: Sequence[int], b: Sequence[int]) -> list:
    """Product of two scalars given as parts, ``[re]`` or ``[re, im]``."""
    return [a[0] * b[0]] if len(a) == 1 else [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]


def _divisor(q: Sequence[int]) -> tuple:
    """``(c, d)`` with ``x / q == x * c // d`` for every multiple ``x`` of
    ``q``: ``([1], q)`` over Z, ``(conj(q), |q|^2)`` over Z[i]."""
    return ([1], q[0]) if len(q) == 1 else ([q[0], -q[1]], q[0] * q[0] + q[1] * q[1])


def _combine(terms: Sequence[tuple], d: int = 1) -> list:
    """``sum(s * v for s, v in terms) // d`` over Z or Z[i], for scalars
    ``s`` and rows ``v`` given as parts; ``d`` divides every entry exactly."""
    out = [None] * len(terms[0][1])
    for s, v in terms:
        if len(out) == 1:
            real = [(0, s[0], v[0])]
        else:  # (s_re + i s_im)(v_re + i v_im)
            real = [(0, s[0], v[0]), (0, -s[1], v[1]), (1, s[0], v[1]), (1, s[1], v[0])]
        for k, c, x in real:
            if c:
                t = map(mul, repeat(c), x)
                out[k] = t if out[k] is None else map(add, out[k], t)
    n = len(terms[0][1][0])
    return [[0] * n if o is None else list(map(floordiv, o, repeat(d))) for o in out]


def _echelon(work: list, ncols: int, exact: bool):
    """Forward elimination of the first ``ncols`` columns of ``work`` in
    place; later columns (an augmented block) get the same row operations.

    The pivot of each column is swapped up to the current row.  Yields
    ``(source_row, pivot_col)`` after the swap and before the clearing, so a
    caller that stops iterating stops the sweep.  complex64 rows: each row
    with a nonzero entry below the pivot loses a multiple of the pivot row
    ``b``.  Int rows (Bareiss): every row ``a`` below, whatever its entry
    ``f`` in the pivot column, becomes ``(p * a - f * b) / prev``, with ``p``
    the pivot and ``prev`` the previous one (first 1).  The division is
    exact, and the ``k``-th pivot is a ``k x k`` minor of the input rows.
    """
    n = len(work)
    pr = 0
    prev = [1, 0][:len(work[0])] if work else [1]
    for pc in range(ncols):
        if pr == n:
            return
        for piv in range(pr, n):
            if any(part[pc] for part in work[piv]):
                break
        else:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        yield piv, pc
        top = work[pr]
        if exact:
            c, d = _divisor(prev)
            prev = [part[pc] for part in top]
            p = _mul(prev, c)
            for r in range(pr + 1, n):
                f = _mul([-part[pc] for part in work[r]], c)
                work[r] = _combine([(p, work[r]), (f, top)], d)
        else:
            (t,) = top
            for r in range(pr + 1, n):
                (row,) = work[r]
                if row[pc] != 0:
                    f = row[pc] / t[pc]
                    work[r] = [[a - f * b for a, b in zip(row, t)]]
        pr += 1


def _divide(parts: Sequence[Sequence[int]], q: Sequence[int], backend) -> list:
    """Exact values of the scalars given by ``parts``, each divided by ``q``."""
    c, d = _divisor(q)
    return from_numerators(_combine([(c, parts)]), d, backend)


def row_dependency(rows: Sequence[Sequence]) -> Optional[list]:
    """Coefficients of a nontrivial vanishing combination of ``rows``.

    Returns ``None`` when the rows are linearly independent.  The
    multipliers are tracked in an augmented identity block; the first row
    left without a pivot gives the combination, with coefficient 1 on that
    row (which makes it unique).
    """
    n, m = len(rows), len(rows[0]) if rows else 0
    work, _, backend = _prepare(rows, n)
    order = list(range(n))
    rank = 0
    for piv, _ in _echelon(work, m, backend.exact):
        order[rank], order[piv] = order[piv], order[rank]
        rank += 1
    if rank == n:
        return None
    aug = [part[m:] for part in work[rank]]
    if not backend.exact:
        return aug[0]
    # the block carries the row scales, so it multiplies the input rows
    return _divide(aug, [part[order[rank]] for part in aug], backend)


def rank_of(rows: Sequence[Sequence]) -> int:
    """Exact rank by elimination."""
    work, _, backend = _prepare(rows)
    return sum(1 for _ in _echelon(work, len(rows[0]) if rows else 0, backend.exact))


def inverse(m: DenseMatrix) -> DenseMatrix:
    """Exact inverse: forward elimination on ``[m | I]``, then back
    substitution on the identity block; raises if singular.  On the exact
    backends the back substitution is fraction-free: with ``D`` the last
    pivot, ``D`` times the inverse is integral (the block carries the row
    scales), and each entry is divided by ``D`` once."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices can be inverted")
    n = m.nrows
    work, _, backend = _prepare(m.rows(), n)
    if sum(1 for _ in _echelon(work, n, backend.exact)) < n:
        raise ValueError("matrix is singular")
    if not backend.exact:
        inv = [row[0][n:] for row in work]
        for i in reversed(range(n)):
            (u,) = work[i]
            row = inv[i]
            for j in range(i + 1, n):
                if u[j] != 0:
                    row = [a - u[j] * b for a, b in zip(row, inv[j])]
            inv[i] = [v / u[i] for v in row]
        return DenseMatrix.from_rows(inv)
    last = [part[n - 1] for part in work[n - 1]]
    x = [None] * n
    for i in reversed(range(n)):
        c, d = _divisor([part[i] for part in work[i]])
        terms = [(_mul(last, c), [part[n:] for part in work[i]])]
        terms += [(_mul([-part[j] for part in work[i]], c), x[j]) for j in range(i + 1, n)]
        x[i] = _combine(terms, d)
    return DenseMatrix.from_rows([_divide(xi, last, backend) for xi in x])


def leading_principal_minors(rows: Sequence[Sequence]) -> list:
    """Determinants of the top-left ``k x k`` blocks, ``k = 1..n``.

    Each minor is the ``k``-th pivot over the first ``k`` row scales (on
    complex64 the product of the first ``k`` pivots) as long as every pivot
    sits on the diagonal.  The sweep stops at the first one that does not
    (a zero diagonal entry); that minor and all later ones are reported as
    exact zero, which is all the positive definiteness check needs.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("leading minors need a square matrix")
    work, scales, backend = _prepare(rows)
    minors = []
    det = den = 1
    for k, pivot in enumerate(_echelon(work, n, backend.exact)):
        if pivot != (k, k):
            break
        if backend.exact:
            den *= scales[k]
            det = from_numerators([[part[k]] for part in work[k]], den, backend)[0]
        else:
            det = det * work[k][0][k]
        minors.append(det)
    return minors + [det * 0] * (n - len(minors))
