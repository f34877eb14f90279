"""Multilinear maps given by their values on basis tuples.

A map is stored extensionally: one target vector per multi-index, in lex
order.  Evaluation is the multilinear expansion

    f(x_1, ..., x_m) = sum over g of (prod_i c_{i,g(i)}) * s_g

computed literally; a factored (axis-by-axis) evaluator is provided as an
optimization and is required by the tests to agree with the direct sum.
Vectors are plain sequences of scalars relative to an implicit ordered
basis.

Every Kronecker-shaped computation in the library runs on the two private
kernels defined here: ``_lex_products`` (one factor entry per axis,
multiplied in lex order; dense ``kron``, homogeneous tensors, product forms
and the weights of :func:`evaluate`) and ``_contract_axis`` (one factor
applied along one axis; the lazy Kronecker matvec and
:func:`evaluate_factored`).  Both skip zero factor entries; an output
that only zeros contribute to is a plain int ``0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .index_space import Shape


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


def _contract_axis(cur: list, fdata: Sequence, left: int, mid: int,
                   right: int, p: int) -> list:
    """Apply a ``p x mid`` factor (flat, row-major) along the middle axis of
    ``cur`` viewed as a ``left x mid x right`` array; zero entries skipped."""
    out = [0] * (left * p * right)
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
    cur = [v for row in f.values for v in row]
    for x in xs:
        cur = _contract_axis(cur, x, 1, len(x), len(cur) // len(x), 1)
    return cur


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
