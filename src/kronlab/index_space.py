"""Multi-index spaces with lexicographic order.

The set of multi-indices ``(g(1), ..., g(m))`` with ``1 <= g(i) <= n_i``
indexes every basis constructed in this library.  Indices are 1-based
everywhere in the public interface; the conversion to 0-based offsets
happens in exactly one place (:meth:`Shape.offset`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

MultiIndex = tuple  # a tuple of 1-based ints


@dataclass(frozen=True)
class Shape:
    """Axis dimensions ``(n_1, ..., n_m)`` of a multi-index space."""

    dims: tuple

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) == 0:
            raise ValueError("a shape needs at least one axis")
        if any(d < 1 for d in dims):
            raise ValueError(f"axis dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def arity(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def contains(self, g: Sequence[int]) -> bool:
        return len(g) == len(self.dims) and all(1 <= v <= d for v, d in zip(g, self.dims))

    def validate_index(self, g: Sequence[int]) -> MultiIndex:
        g = tuple(g)
        if not self.contains(g):
            raise ValueError(f"index {g} is out of range for shape {self.dims}")
        return g

    def indices(self) -> Iterator[MultiIndex]:
        """All multi-indices in lexicographic order."""
        return itertools.product(*(range(1, d + 1) for d in self.dims))

    def offset(self, g: Sequence[int]) -> int:
        """0-based position of ``g`` in lex order (mixed-radix value)."""
        g = self.validate_index(g)
        k = 0
        for v, d in zip(g, self.dims):
            k = k * d + (v - 1)
        return k

    def rank(self, g: Sequence[int]) -> int:
        """1-based position of ``g`` in lex order."""
        return self.offset(g) + 1

    def unrank(self, k: int) -> MultiIndex:
        """Inverse of :meth:`rank`; ``1 <= k <= size``."""
        if not 1 <= k <= self.size:
            raise ValueError(f"rank {k} out of range 1..{self.size}")
        k -= 1
        out = []
        for d in reversed(self.dims):
            k, r = divmod(k, d)
            out.append(r + 1)
        return tuple(reversed(out))


def lex_compare(a: Sequence[int], b: Sequence[int]) -> int:
    """-1, 0 or 1 as ``a`` precedes, equals or follows ``b`` in lex order."""
    if len(a) != len(b):
        raise ValueError(f"cannot compare indices of lengths {len(a)} and {len(b)}")
    ta, tb = tuple(a), tuple(b)
    if ta == tb:
        return 0
    return -1 if ta < tb else 1


def concat(a: Sequence[int], b: Sequence[int]) -> MultiIndex:
    """Join two multi-indices; preserves lex order on pairs."""
    return tuple(a) + tuple(b)


def render_lex_table(row_shape: Shape, col_shape: Shape,
                     cell: Callable[[MultiIndex, MultiIndex], str]) -> str:
    """Text table of ``cell(mu, kappa)`` with lex row and column labels.

    A label writes the index entries side by side, or comma-separated when
    some axis has more than nine values; columns are right-justified.
    """
    sep = "" if all(d <= 9 for d in row_shape.dims + col_shape.dims) else ","
    rows, cols = list(row_shape.indices()), list(col_shape.indices())
    row_labels = [sep.join(str(v) for v in mu) for mu in rows]
    col_labels = [sep.join(str(v) for v in kappa) for kappa in cols]
    cells = [[cell(mu, kappa) for kappa in cols] for mu in rows]
    rlw = max(len(s) for s in row_labels)
    widths = [max(len(label), *(len(r[j]) for r in cells))
              for j, label in enumerate(col_labels)]
    lines = [" " * rlw + " " + " ".join(s.rjust(w) for s, w in zip(col_labels, widths))]
    for label, row in zip(row_labels, cells):
        lines.append(label.rjust(rlw) + " " + " ".join(s.rjust(w) for s, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass(frozen=True)
class OrderedSetPartition:
    """A partition of ``{1, ..., ground}`` whose blocks carry a fixed order."""

    ground: int
    blocks: tuple  # tuple of frozensets

    def __init__(self, ground: int, blocks: Iterable[Iterable[int]]):
        blocks = tuple(frozenset(int(x) for x in blk) for blk in blocks)
        if any(not blk for blk in blocks):
            raise ValueError("partition blocks must be nonempty")
        seen: set = set()
        for blk in blocks:
            if seen & blk:
                raise ValueError("partition blocks must be disjoint")
            seen |= blk
        if seen != set(range(1, ground + 1)):
            raise ValueError(f"blocks must cover 1..{ground} exactly, got {sorted(seen)}")
        object.__setattr__(self, "ground", int(ground))
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, x: int) -> int:
        """1-based index of the block containing ``x``."""
        for j, blk in enumerate(self.blocks, start=1):
            if x in blk:
                return j
        raise ValueError(f"{x} is not in the ground set 1..{self.ground}")

    def block_elements(self, j: int) -> tuple:
        """Elements of block ``j`` in increasing order."""
        return tuple(sorted(self.blocks[j - 1]))


def unit_partition(n: int) -> OrderedSetPartition:
    return OrderedSetPartition(n, [range(1, n + 1)])


def discrete_partition(n: int) -> OrderedSetPartition:
    return OrderedSetPartition(n, [[i] for i in range(1, n + 1)])


@dataclass(frozen=True)
class BlockPartition:
    """The partition of a multi-index space induced by per-axis partitions.

    Block ``alpha`` is the Cartesian product of the per-axis blocks
    ``D_{i,alpha(i)}``; blocks are keyed and ordered lexicographically on
    ``alpha``.
    """

    shape: Shape
    parts: tuple  # tuple of OrderedSetPartition

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if tuple(p.ground for p in self.parts) != self.shape.dims:
            raise ValueError("axis partitions do not match the shape")

    @property
    def alpha_shape(self) -> Shape:
        return Shape(tuple(p.block_count for p in self.parts))

    def block(self, alpha: Sequence[int]) -> tuple:
        """Members of block ``alpha`` in lex order."""
        alpha = self.alpha_shape.validate_index(alpha)
        axes = [self.parts[i].block_elements(a) for i, a in enumerate(alpha)]
        return tuple(itertools.product(*axes))

    def block_of(self, g: Sequence[int]) -> MultiIndex:
        """The unique ``alpha`` whose block contains ``g``."""
        g = self.shape.validate_index(g)
        return tuple(self.parts[i].block_of(v) for i, v in enumerate(g))

    def blocks(self) -> Iterator[tuple]:
        """Pairs ``(alpha, members)`` in lex order of ``alpha``."""
        for alpha in self.alpha_shape.indices():
            yield alpha, self.block(alpha)


def induced_partition(parts: Sequence[OrderedSetPartition]) -> BlockPartition:
    """Build the induced partition from one ordered partition per axis."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("need at least one axis partition")
    shape = Shape(tuple(p.ground for p in parts))
    return BlockPartition(shape, parts)


def block_of(g: Sequence[int], parts: Sequence[OrderedSetPartition]) -> MultiIndex:
    """Locate ``g`` within the induced partition without materializing it."""
    return induced_partition(parts).block_of(g)
