"""Dense matrices over any scalar backend, with exact elimination.

Storage is a single row-major list; row and column indices are 1-based to
match the multi-index convention used everywhere else.

Rank, dependency witnesses, inverses and leading principal minors all come
from one forward-elimination kernel, ``_echelon``.  Its pivot rule: the
pivot of a column is its first nonzero entry at or below the current row
(exact arithmetic needs no search for the largest entry, and the dependency
witnesses that callers report depend on this rule).  The kernel divides, so its inputs are first normalized into the
surrounding backend (int/int would silently produce floats).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .scalars import COMPLEX, GAUSSIAN, RATIONAL, GaussianRational, backend_of


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
    """Backend shared by all entries; raises on a mix.

    Plain ints are backend-neutral; every other scalar type must agree.
    """
    kinds = {b.name: b for b in (backend_of(v) for v in m.data if not isinstance(v, int))}
    if len(kinds) > 1:
        raise ValueError(f"mixed scalar backends in matrix: {sorted(kinds)}")
    return kinds.popitem()[1] if kinds else RATIONAL


def _division_safe(rows: Sequence[Sequence]) -> list:
    """Copy rows, widening plain ints so that later divisions stay exact."""
    kinds = {backend_of(v).name for r in rows for v in r}
    if COMPLEX.name in kinds:
        cast = complex
    elif GAUSSIAN.name in kinds:
        cast = lambda v: v if isinstance(v, GaussianRational) else GaussianRational(v)
    else:
        cast = lambda v: v if isinstance(v, Fraction) else Fraction(v)
    return [[cast(v) for v in r] for r in rows]


def _identity_rows(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _echelon(work: list, aug: Optional[list] = None):
    """Forward elimination of ``work`` in place, one pivot at a time.

    The pivot of each column is its first nonzero entry at or below the
    current row; it is swapped up to that row, then every nonzero entry
    below it is cleared by subtracting a multiple of the pivot row.  Each
    swap and row update is mirrored on ``aug`` when given.  Yields
    ``(source_row, pivot_col)`` after the swap and before the clearing, so a
    caller that stops iterating stops the sweep.  ``work`` needs entries
    that divide exactly (see :func:`_division_safe`).
    """
    n = len(work)
    pr = 0
    for pc in range(len(work[0]) if work else 0):
        if pr == n:
            return
        for piv in range(pr, n):
            if work[piv][pc] != 0:
                break
        else:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        if aug is not None:
            aug[pr], aug[piv] = aug[piv], aug[pr]
        yield piv, pc
        top = work[pr]
        for r in range(pr + 1, n):
            if work[r][pc] != 0:
                f = work[r][pc] / top[pc]
                work[r] = [a - f * b for a, b in zip(work[r], top)]
                if aug is not None:
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[pr])]
        pr += 1


def row_dependency(rows: Sequence[Sequence]) -> Optional[list]:
    """Coefficients of a nontrivial vanishing combination of ``rows``.

    Returns ``None`` when the rows are linearly independent.  Exact for the
    exact backends: the multipliers are tracked in an augmented identity
    block, and the first row left without a pivot gives the combination.
    """
    work = _division_safe(rows)
    mult = _identity_rows(len(work))
    rank = sum(1 for _ in _echelon(work, mult))
    return mult[rank] if rank < len(work) else None


def rank_of(rows: Sequence[Sequence]) -> int:
    """Exact rank by elimination."""
    return sum(1 for _ in _echelon(_division_safe(rows)))


def inverse(m: DenseMatrix) -> DenseMatrix:
    """Exact inverse: forward elimination on ``[m | I]``, then back
    substitution on the identity block; raises if singular."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices can be inverted")
    n = m.nrows
    work = _division_safe(m.rows())
    inv = _identity_rows(n)
    if sum(1 for _ in _echelon(work, inv)) < n:
        raise ValueError("matrix is singular")
    for i in reversed(range(n)):
        row = inv[i]
        for j in range(i + 1, n):
            f = work[i][j]
            if f != 0:
                row = [a - f * b for a, b in zip(row, inv[j])]
        d = work[i][i]
        inv[i] = [v / d for v in row]
    return DenseMatrix.from_rows(inv)


def leading_principal_minors(rows: Sequence[Sequence]) -> list:
    """Determinants of the top-left ``k x k`` blocks, ``k = 1..n``.

    Each minor is the product of the first ``k`` pivots as long as every
    pivot sits on the diagonal.  The sweep stops at the first one that does
    not (a zero diagonal entry); that minor and all later ones are reported
    as exact zero, which is all the positive definiteness check needs.
    """
    work = _division_safe(rows)
    n = len(work)
    if any(len(r) != n for r in work):
        raise ValueError("leading minors need a square matrix")
    minors = []
    det = 1
    for k, pivot in enumerate(_echelon(work)):
        if pivot != (k, k):
            break
        det = det * work[k][k]
        minors.append(det)
    return minors + [det * 0] * (n - len(minors))
