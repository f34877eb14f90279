"""Direct-sum decompositions of tensor spaces from per-axis partitions.

Ordered partitions of each axis induce a partition of the multi-index set;
each block spans a subspace tensor product, and the whole space is their
direct sum.  The same bookkeeping labels the block structure of Kronecker
products: the support of a product whose factors live in given basis spans
is confined to one labeled rectangle.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

from .index_space import (BlockPartition, OrderedSetPartition, Shape, induced_partition,
                          render_lex_table)
from .tensor import SubspaceProduct, Tensor, TensorModel, subspace_product


@dataclass(frozen=True)
class Summand:
    """One block of a decomposition: a subspace product keyed by ``alpha``."""

    alpha: tuple
    members: tuple  # multi-indices of the block, lex order
    product: SubspaceProduct

    @property
    def model(self) -> TensorModel:
        return self.product.model

    @property
    def dim(self) -> int:
        return self.product.model.dim


@dataclass(frozen=True)
class Decomposition:
    """A tensor model split into subspace products along axis partitions."""

    model: TensorModel
    parts: tuple
    blocks: BlockPartition
    summands: tuple  # lex order of alpha

    def summand(self, alpha: Sequence[int]) -> Summand:
        k = self.blocks.alpha_shape.offset(alpha)
        return self.summands[k]

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self.summands)


def decompose(model: TensorModel, parts: Sequence[OrderedSetPartition]) -> Decomposition:
    """Split the model along ordered partitions of its axes."""
    parts = tuple(parts)
    blocks = induced_partition(parts)
    if blocks.shape != model.shape:
        raise ValueError(f"partitions fit shape {blocks.shape.dims}, "
                         f"model has {model.shape.dims}")
    summands = []
    for alpha, members in blocks.blocks():
        subsets = [parts[i].block_elements(a) for i, a in enumerate(alpha)]
        summands.append(Summand(alpha, members, subspace_product(model, subsets)))
    return Decomposition(model, parts, blocks, tuple(summands))


def project(d: Decomposition, t: Tensor, alpha: Sequence[int]) -> Tensor:
    """Component of ``t`` in block ``alpha``, in sub-model coordinates."""
    if t.model != d.model:
        raise ValueError("tensor does not belong to the decomposed model")
    s = d.summand(alpha)
    return Tensor(s.model, tuple(t.coeff(g) for g in s.members))


def embed(d: Decomposition, t_sub: Tensor, alpha: Sequence[int]) -> Tensor:
    """Send a sub-model tensor back into the parent space."""
    s = d.summand(alpha)
    if t_sub.model != s.model:
        raise ValueError("tensor does not belong to the summand model")
    return Tensor(d.model, tuple(s.product.embedding.apply(t_sub.coeffs)))


def reassemble(d: Decomposition, t: Tensor) -> Tensor:
    """Sum of the embedded projections; equals ``t`` exactly."""
    out = None
    for s in d.summands:
        piece = embed(d, project(d, t, s.alpha), s.alpha)
        out = piece if out is None else out + piece
    return out


@dataclass(frozen=True)
class BlockLabelMatrix:
    """Block-pair labels on a lex-indexed matrix of Kronecker shape."""

    row_blocks: BlockPartition
    col_blocks: BlockPartition

    @property
    def row_shape(self) -> Shape:
        return self.row_blocks.shape

    @property
    def col_shape(self) -> Shape:
        return self.col_blocks.shape

    def label_pair(self, mu: Sequence[int], kappa: Sequence[int]) -> tuple:
        return self.row_blocks.block_of(mu), self.col_blocks.block_of(kappa)

    def label(self, mu: Sequence[int], kappa: Sequence[int]) -> str:
        """Single letter per block pair, assigned in lex order of pairs."""
        ar, ac = self.label_pair(mu, kappa)
        idx = (self.row_blocks.alpha_shape.offset(ar) *
               self.col_blocks.alpha_shape.size +
               self.col_blocks.alpha_shape.offset(ac))
        if idx >= len(string.ascii_lowercase):
            raise ValueError("more than 26 block pairs cannot be labeled with letters")
        return string.ascii_lowercase[idx]

    def region(self, letter: str) -> tuple:
        """All (mu, kappa) pairs carrying the letter."""
        out = []
        for mu in self.row_shape.indices():
            for kappa in self.col_shape.indices():
                if self.label(mu, kappa) == letter:
                    out.append((mu, kappa))
        return tuple(out)

    def render(self) -> str:
        """Text table with lex row and column labels, as in the worked
        eight-by-eight example."""
        return render_lex_table(self.row_shape, self.col_shape, self.label)


def block_label_matrix(row_shape: Shape, col_shape: Shape,
                       row_parts: Sequence[OrderedSetPartition],
                       col_parts: Sequence[OrderedSetPartition]) -> BlockLabelMatrix:
    rb = induced_partition(row_parts)
    cb = induced_partition(col_parts)
    if rb.shape != row_shape or cb.shape != col_shape:
        raise ValueError("partitions do not match the stated shapes")
    return BlockLabelMatrix(rb, cb)


def support_example() -> BlockLabelMatrix:
    """The eight-by-eight a/b/c/d support pattern for four matrix factors
    of sizes 2x1, 2x2, 1x2, 2x2, split on the span of the first and third
    factor's basis elements."""
    row_shape = Shape((2, 2, 1, 2))
    col_shape = Shape((1, 2, 2, 2))
    row_parts = [
        OrderedSetPartition(2, [[1], [2]]),
        OrderedSetPartition(2, [[1, 2]]),
        OrderedSetPartition(1, [[1]]),
        OrderedSetPartition(2, [[1, 2]]),
    ]
    col_parts = [
        OrderedSetPartition(1, [[1]]),
        OrderedSetPartition(2, [[1, 2]]),
        OrderedSetPartition(2, [[1], [2]]),
        OrderedSetPartition(2, [[1, 2]]),
    ]
    return block_label_matrix(row_shape, col_shape, row_parts, col_parts)
