"""Conjugate bilinear forms and inner products on tensor spaces.

A form is stored extensionally as its Gram table over lex-ordered basis
pairs: linear in the first slot, conjugate-linear in the second.  Product
forms multiply per-factor forms, so evaluation on homogeneous tensors
factorizes into a product of factor evaluations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .index_space import Shape
from .matrices import leading_principal_minors
from .multilinear import _lex_products
from .scalars import COMPLEX, backend_of, conj

FLOAT_TOL = 1e-12  # relative tolerance for the float backend checks


@dataclass(frozen=True)
class ConjugateBilinearForm:
    """Gram table of a conjugate bilinear form between two spaces."""

    left_dim: int
    right_dim: int
    gram: tuple  # left_dim rows of right_dim scalars

    def __post_init__(self):
        gram = tuple(tuple(r) for r in self.gram)
        if len(gram) != self.left_dim or any(len(r) != self.right_dim for r in gram):
            raise ValueError(f"gram table must be {self.left_dim}x{self.right_dim}")
        object.__setattr__(self, "gram", gram)

    def at(self, i: int, j: int):
        if not (1 <= i <= self.left_dim and 1 <= j <= self.right_dim):
            raise ValueError(f"gram entry ({i},{j}) out of range")
        return self.gram[i - 1][j - 1]


def eval_form(phi: ConjugateBilinearForm, a: Sequence, b: Sequence):
    """Value on coefficient vectors: sum of c_a * conj(d_b) * gram(a, b).

    Zero left coefficients and zero Gram entries are skipped, so a sparse
    table (the induced identity, a product of sparse factors) costs one
    multiplication per nonzero entry.
    """
    if len(a) != phi.left_dim:
        raise ValueError(f"left vector has length {len(a)}, expected {phi.left_dim}")
    if len(b) != phi.right_dim:
        raise ValueError(f"right vector has length {len(b)}, expected {phi.right_dim}")
    db = [conj(v) for v in b]
    acc = 0
    for ca, row in zip(a, phi.gram):
        if ca == 0:
            continue
        inner = 0
        for dv, g in zip(db, row):
            if g == 0:
                continue
            inner = inner + dv * g
        acc = acc + ca * inner
    return acc


def product_form(factors: Sequence[ConjugateBilinearForm], left_shape: Shape,
                 right_shape: Shape) -> ConjugateBilinearForm:
    """Form on the two tensor spaces whose factor values multiply.

    The Gram entry at ``(alpha, beta)`` is the product over axes of
    ``factor_i.gram(alpha(i), beta(i))``; on homogeneous tensors the form
    therefore evaluates to the product of the factor forms.
    """
    factors = list(factors)
    if len(factors) != left_shape.arity or len(factors) != right_shape.arity:
        raise ValueError("need exactly one factor form per axis")
    for i, f in enumerate(factors):
        if f.left_dim != left_shape.dims[i] or f.right_dim != right_shape.dims[i]:
            raise ValueError(f"factor {i + 1} is {f.left_dim}x{f.right_dim}, "
                             f"expected {left_shape.dims[i]}x{right_shape.dims[i]}")
    gram = [_lex_products(rows) for rows in itertools.product(*(f.gram for f in factors))]
    return ConjugateBilinearForm(left_shape.size, right_shape.size, gram)


@dataclass(frozen=True)
class InnerProductForm:
    """A conjugate bilinear form known to be an inner product.

    Construct through :func:`inner_product_form` to have conjugate symmetry
    and positive definiteness verified; the induced orthonormal form is
    built directly.
    """

    form: ConjugateBilinearForm

    @property
    def dim(self) -> int:
        return self.form.left_dim

    def eval(self, a: Sequence, b: Sequence):
        return eval_form(self.form, a, b)


def _is_real_positive(v, tol: float) -> bool:
    if isinstance(v, complex):
        return abs(v.imag) <= tol * max(1.0, abs(v)) and v.real > 0
    if hasattr(v, "im"):  # GaussianRational
        return v.im == 0 and v.re > 0
    return v > 0


def validate_inner_product(form: ConjugateBilinearForm) -> None:
    """Check conjugate symmetry and positive definiteness.

    Exact backends are checked by exact equality and exact positivity of
    the leading principal minors; the float backend uses a relative
    tolerance of ``1e-12``.
    """
    if form.left_dim != form.right_dim:
        raise ValueError("an inner product needs equal left and right dimensions")
    entries = [v for row in form.gram for v in row]
    is_float = any(backend_of(v) is COMPLEX for v in entries)
    scale = max((abs(v) for v in entries), default=1.0) if is_float else None
    for i in range(form.left_dim):
        for j in range(i, form.right_dim):
            g, h = form.gram[i][j], conj(form.gram[j][i])
            if is_float:
                if abs(g - h) > FLOAT_TOL * max(1.0, scale):
                    raise ValueError("gram table is not conjugate symmetric")
            elif g != h:
                raise ValueError("gram table is not conjugate symmetric")
    minors = leading_principal_minors(form.gram)
    tol = FLOAT_TOL if is_float else 0.0
    if not all(_is_real_positive(m, tol) for m in minors):
        raise ValueError("gram table is not positive definite")


def inner_product_form(gram: Sequence[Sequence]) -> InnerProductForm:
    """Wrap a user Gram table after verifying the inner-product axioms."""
    gram = tuple(tuple(r) for r in gram)
    form = ConjugateBilinearForm(len(gram), len(gram[0]) if gram else 0, gram)
    validate_inner_product(form)
    return InnerProductForm(form)


def induced_inner_product(shape: Shape) -> InnerProductForm:
    """Inner product making the canonical basis tensors orthonormal."""
    n = shape.size
    gram = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return InnerProductForm(ConjugateBilinearForm(n, n, gram))
