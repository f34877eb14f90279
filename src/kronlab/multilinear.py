"""Multilinear maps given by their values on basis tuples.

A map is stored extensionally: one target vector per multi-index, in lex
order.  Evaluation is the multilinear expansion

    f(x_1, ..., x_m) = sum over g of (prod_i c_{i,g(i)}) * s_g

computed literally; a factored (axis-by-axis) evaluator is provided as an
optimization and is required by the tests to agree with the direct sum.
Vectors are plain sequences of scalars relative to an implicit ordered
basis.

Every Kronecker-shaped computation in the library runs on the private
kernels defined here.  ``_lex_products`` takes one factor entry per axis,
multiplied in lex order (dense ``kron``, homogeneous tensors, product forms
and the weights of :func:`evaluate`).  ``_contract`` applies a list of
factors, each to the leading axis of a flat array, moving the new axis to
the end (``_leading``), so that after the last factor the axes are back in
lex order: the lazy Kronecker matvec, and :func:`evaluate_factored` with
each argument as a ``1 x n_i`` factor.  On the exact backends ``_contract``
runs on int numerators over one common denominator and divides once at
the end; it refuses complex64 values meeting exact ones.  Both kernels
skip zero factor entries; an output that only zeros contribute to is a
plain int ``0``, except that the exact contraction returns its outputs in
the backend's type unless every input is an int.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

from .index_space import Shape
from .scalars import common_backend, from_numerators, numerators


@dataclass(frozen=True)
class MultilinearMap:
    """Value table of a multilinear map into a coordinate space."""

    shape: Shape
    target_dim: int
    values: tuple  # one tuple of length target_dim per multi-index, lex order

    def __post_init__(self):
        if self.target_dim < 1:
            raise ValueError("target dimension must be >= 1")
        vals = tuple(tuple(v) for v in self.values)
        if len(vals) != self.shape.size:
            raise ValueError(f"need {self.shape.size} value rows, got {len(vals)}")
        if any(len(v) != self.target_dim for v in vals):
            raise ValueError("all value rows must have the target dimension")
        object.__setattr__(self, "values", vals)

    def value_at(self, g: Sequence[int]) -> tuple:
        return self.values[self.shape.offset(g)]


def from_values(shape: Shape, target_dim: int, values) -> MultilinearMap:
    """Build a map from ``{multi-index: vector}`` or a lex-ordered sequence.

    A mapping must mention every multi-index exactly once.
    """
    if isinstance(values, Mapping):
        table = []
        missing = []
        for g in shape.indices():
            key = tuple(g)
            if key in values:
                table.append(tuple(values[key]))
            else:
                missing.append(key)
        if missing:
            raise ValueError(f"missing values for indices {missing[:3]}...")
        if len(values) != shape.size:
            raise ValueError("value table mentions indices outside the shape")
        return MultilinearMap(shape, target_dim, tuple(table))
    return MultilinearMap(shape, target_dim, tuple(tuple(v) for v in values))


def _check_arguments(f: MultilinearMap, xs: Sequence[Sequence]) -> None:
    if len(xs) != f.shape.arity:
        raise ValueError(f"expected {f.shape.arity} arguments, got {len(xs)}")
    for i, (x, n) in enumerate(zip(xs, f.shape.dims)):
        if len(x) != n:
            raise ValueError(f"argument {i + 1} has length {len(x)}, expected {n}")


def _lex_products(vectors: Sequence[Sequence]) -> list:
    """Products taking one entry per vector, in lex order of the choices.

    Multiplies left to right, ``(c_1 * c_2) * c_3 ...``; a zero prefix
    product yields a block of int ``0`` without multiplying further.
    """
    out = list(vectors[0])
    for v in vectors[1:]:
        zeros = [0] * len(v)
        nxt = []
        for w in out:
            nxt += zeros if w == 0 else [w * c for c in v]
        out = nxt
    return out


def _leading(cur: Sequence, p: int, fdata: Sequence) -> list:
    """Apply a ``p x q`` factor (flat, row-major) to the leading axis of
    ``cur`` viewed as a ``q x (N/q)`` array, and move the new axis to the end.

    Each output entry adds ``a * v`` over ascending ``s``, starting from the
    first product; zero factor entries are skipped, and an entry that no
    product reaches is int ``0``.
    """
    q = len(fdata) // p
    n = len(cur) // q
    segs = [cur[s * n:(s + 1) * n] for s in range(q)]
    rows = []
    for r in range(0, len(fdata), q):
        acc = None
        for a, seg in zip(fdata[r:r + q], segs):
            if a:
                acc = [a * v for v in seg] if acc is None else [u + a * v for u, v in zip(acc, seg)]
        rows.append([0] * n if acc is None else acc)
    return list(chain.from_iterable(zip(*rows)))


def _contract(cur: Sequence, factors: Sequence[tuple]) -> list:
    """Apply factors ``(p, data)`` (flat, row-major ``p x q``) in turn, each
    to the leading axis of ``cur``; after the last one the axes are back in
    lex order.

    Ints and complex64 values go through :func:`_leading` as they are.  Exact
    values are scaled to int numerators once per factor and once for
    ``cur``, a Gaussian value being split into real and imaginary parts
    (one real contraction per pair of parts, so four for a complex factor
    on complex values and two for a real one), and the outputs are divided
    by the product of the denominators at the end.
    """
    backend = common_backend([cur] + [data for _, data in factors])
    if backend is None or not backend.exact:
        for p, data in factors:
            cur = _leading(cur, p, data)
        return cur
    parts, den = numerators(cur, backend)
    for p, data in factors:
        fparts, fden = numerators(data, backend)
        den *= fden
        # (f_re + i f_im)(c_re + i c_im), an absent imaginary part being zero
        (fre, *fim), (cre, *cim) = fparts, parts
        re = _leading(cre, p, fre)
        for f, c in zip(fim, cim):
            re = [u - v for u, v in zip(re, _leading(c, p, f))]
        ims = [_leading(c, p, fre) for c in cim] + [_leading(cre, p, f) for f in fim]
        if len(ims) == 2:
            ims = [[u + v for u, v in zip(*ims)]]
        parts = [re] + ims
    return from_numerators(parts, den, backend)


def evaluate(f: MultilinearMap, xs: Sequence[Sequence]) -> list:
    """Direct expansion over all multi-indices."""
    _check_arguments(f, xs)
    out = [0] * f.target_dim
    for w, s in zip(_lex_products(xs), f.values):
        if w != 0:
            out = [o + w * v for o, v in zip(out, s)]
    return out


def evaluate_factored(f: MultilinearMap, xs: Sequence[Sequence]) -> list:
    """Axis-at-a-time contraction; equals :func:`evaluate` exactly."""
    _check_arguments(f, xs)
    return _contract([v for row in f.values for v in row], [(1, x) for x in xs])


def basis_functional(shape: Shape, alpha: Sequence[int]) -> MultilinearMap:
    """The scalar-valued map that is 1 on basis tuple ``alpha``, 0 elsewhere.

    Evaluates to the coordinate product ``prod_i c_{i,alpha(i)}``.
    """
    alpha = shape.validate_index(alpha)
    k = shape.offset(alpha)
    values = [(0,)] * shape.size
    values[k] = (1,)
    return MultilinearMap(shape, 1, tuple(values))


def component(f: MultilinearMap, j: int) -> MultilinearMap:
    """The scalar-valued ``j``-th coordinate of ``f`` (1-based)."""
    if not 1 <= j <= f.target_dim:
        raise ValueError(f"component {j} out of range 1..{f.target_dim}")
    return MultilinearMap(f.shape, 1, tuple((v[j - 1],) for v in f.values))
