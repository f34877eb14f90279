"""Kronecker products of matrices, dense and lazy.

Rows of a product of factors ``A_i`` (each ``p_i x q_i``) are indexed by
multi-indices over ``(p_1, ..., p_m)``, columns over ``(q_1, ..., q_m)``,
both in lex order, and the entry at ``(mu, kappa)`` is the product of the
factor entries ``A_i(mu(i), kappa(i))``.  The lazy operator applies this
matrix to vectors one factor at a time without ever materializing it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .index_space import Shape
from .matrices import DenseMatrix
from .multilinear import MultilinearMap, _contract, _lex_products
from .scalars import common_backend
from .tensor import build_model, pure, universal_factor

__all__ = [
    "KroneckerOperator", "kron", "factorized_matrix_product", "flat_pair_shape",
]


def kron(factors: Sequence[DenseMatrix]) -> DenseMatrix:
    """Dense Kronecker product of one or more matrices."""
    factors = KroneckerOperator(tuple(factors)).factors  # checks: nonempty, backends agree
    rows = factors[0].rows()
    for f in factors[1:]:
        frows = f.rows()
        rows = [_lex_products((r, fr)) for r in rows for fr in frows]
    return DenseMatrix(len(rows), len(rows[0]), itertools.chain.from_iterable(rows))


@dataclass(frozen=True)
class KroneckerOperator:
    """Factor list interpreted as their Kronecker product, unmaterialized."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("need at least one factor")
        common_backend([f.data for f in factors])  # raises on complex64 meeting exact values
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
        return _contract(x, [(f.nrows, f.data) for f in self.factors])

    def materialize(self) -> DenseMatrix:
        return kron(self.factors)


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
