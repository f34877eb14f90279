"""Kronecker products of matrices, dense and lazy.

Rows of a product of factors ``A_i`` (each ``p_i x q_i``) are indexed by
multi-indices over ``(p_1, ..., p_m)``, columns over ``(q_1, ..., q_m)``,
both in lex order, and the entry at ``(mu, kappa)`` is the product of the
factor entries ``A_i(mu(i), kappa(i))``.  The lazy operator applies this
matrix to vectors one factor at a time without ever materializing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .index_space import Shape
from .matrices import DenseMatrix, matrix_backend
from .multilinear import MultilinearMap
from .tensor import build_model, pure, universal_factor

__all__ = [
    "KroneckerOperator", "kron", "factorized_matrix_product", "submatrix",
    "flat_pair_shape",
]


def _kron2(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    p, q = a.nrows, a.ncols
    r, s = b.nrows, b.ncols
    data = [0] * (p * r * q * s)
    width = q * s
    for i in range(p):
        for k in range(r):
            base = (i * r + k) * width
            brow = b.data[k * s:(k + 1) * s]
            for j in range(q):
                aij = a.data[i * q + j]
                off = base + j * s
                if aij == 0:
                    continue
                for l, v in enumerate(brow):
                    data[off + l] = aij * v
    return DenseMatrix(p * r, q * s, data)


def kron(factors: Sequence[DenseMatrix]) -> DenseMatrix:
    """Dense Kronecker product of one or more matrices."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    kinds = {matrix_backend(f).name for f in factors}
    if len(kinds) > 1:
        raise ValueError(f"factors mix scalar backends: {sorted(kinds)}")
    out = factors[0]
    for f in factors[1:]:
        out = _kron2(out, f)
    return out


@dataclass(frozen=True)
class KroneckerOperator:
    """Factor list interpreted as their Kronecker product, unmaterialized."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("need at least one factor")
        kinds = {matrix_backend(f).name for f in factors}
        if len(kinds) > 1:
            raise ValueError(f"factors mix scalar backends: {sorted(kinds)}")
        object.__setattr__(self, "factors", factors)

    @property
    def row_shape(self) -> Shape:
        return Shape(tuple(f.nrows for f in self.factors))

    @property
    def col_shape(self) -> Shape:
        return Shape(tuple(f.ncols for f in self.factors))

    @property
    def nrows(self) -> int:
        return self.row_shape.size

    @property
    def ncols(self) -> int:
        return self.col_shape.size

    def entry(self, mu: Sequence[int], kappa: Sequence[int]):
        """Single entry, straight from the defining product formula."""
        mu = self.row_shape.validate_index(mu)
        kappa = self.col_shape.validate_index(kappa)
        w = 1
        for f, i, j in zip(self.factors, mu, kappa):
            w = w * f.at(i, j)
        return w

    def matvec(self, x: Sequence) -> list:
        """Apply to a lex-ordered coefficient vector.

        One contraction per factor; never allocates the dense product.
        """
        if len(x) != self.ncols:
            raise ValueError(f"vector length {len(x)} != {self.ncols} columns")
        qs = [f.ncols for f in self.factors]
        cur = list(x)
        left = 1
        for i, f in enumerate(self.factors):
            p, q = f.nrows, qs[i]
            right = 1
            for d in qs[i + 1:]:
                right *= d
            cur = _contract_axis(cur, f, left, q, right, p)
            left *= p
        return cur

    def materialize(self) -> DenseMatrix:
        return kron(self.factors)


def _contract_axis(cur: list, f: DenseMatrix, left: int, mid: int,
                   right: int, p: int) -> list:
    out = [0] * (left * p * right)
    fdata = f.data
    for l in range(left):
        base_in = l * mid * right
        base_out = l * p * right
        for r in range(p):
            acc = None
            frow = fdata[r * mid:(r + 1) * mid]
            for s in range(mid):
                a = frow[s]
                if a == 0:
                    continue
                seg = cur[base_in + s * right:base_in + (s + 1) * right]
                if acc is None:
                    acc = [a * v for v in seg]
                else:
                    acc = [u + a * v for u, v in zip(acc, seg)]
            if acc is not None:
                out[base_out + r * right:base_out + (r + 1) * right] = acc
    return out


def factorized_matrix_product(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Matrix product computed through universal factorization.

    Models the two matrix spaces as a tensor product of coordinate spaces,
    builds the bilinear multiplication map on standard basis pairs (the
    value on ``E_cd, E_ef`` is ``E_cf`` when ``d == e``, else zero), factors
    it through the model, and applies the factored linear map to the
    coordinates of the homogeneous tensor of ``a`` and ``b``.  Agrees with
    the ordinary matrix product entrywise.
    """
    p, q = a.nrows, a.ncols
    if b.nrows != q:
        raise ValueError(f"inner dimensions differ: {q} vs {b.nrows}")
    s = b.ncols
    shape = Shape((p * q, q * s))
    model = build_model(shape)
    out_dim = p * s
    rows = []
    for j1 in range(p * q):
        c, d = divmod(j1, q)
        for j2 in range(q * s):
            e, f = divmod(j2, s)
            vec = [0] * out_dim
            if d == e:
                vec[c * s + f] = 1
            rows.append(tuple(vec))
    phi = MultilinearMap(shape, out_dim, tuple(rows))
    h = universal_factor(model, phi)
    coords = pure(model, [a.data, b.data])
    return DenseMatrix(p, s, h.apply(coords.coeffs))


def submatrix(a: DenseMatrix, rows: Iterable[int], cols: Iterable[int],
              mode: str = "retain") -> DenseMatrix:
    """Submatrix by index sets; ``retain`` keeps them, ``delete`` keeps the
    complements.  Row and column order of the parent is preserved."""
    return a.submatrix(rows, cols, mode)


def flat_pair_shape(shape_a: tuple, shape_b: tuple) -> tuple:
    """Shape assigned to a product of two matrix spaces under the
    entries-by-entries convention (rows of the product = entry count of the
    first factor, columns = entry count of the second).

    Unlike the Kronecker convention this grouping is not associative: the
    two ways of bracketing three factors give different shapes, which is
    why the library does not use it.
    """
    (p1, q1), (p2, q2) = shape_a, shape_b
    return (p1 * q1, p2 * q2)
