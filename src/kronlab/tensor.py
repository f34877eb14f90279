"""Tensor-product models over lex-ordered multi-index bases.

The canonical model of a product of coordinate spaces is the coordinate
space over the multi-index set itself: basis vector ``p_g`` sits at the lex
rank of ``g``.  Every other model is reached through explicit isomorphisms,
so a single backbone representation serves the whole library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .index_space import Shape, concat
from .matrices import DenseMatrix, row_dependency
from .multilinear import MultilinearMap, _lex_products


@dataclass(frozen=True)
class TensorModel:
    """Coordinate model of a tensor product with the given factor shape."""

    shape: Shape

    @property
    def dim(self) -> int:
        return self.shape.size

    def basis_index(self, g: Sequence[int]) -> int:
        """1-based position of basis tensor ``p_g``."""
        return self.shape.rank(g)

    def basis_tensor(self, g: Sequence[int]) -> "Tensor":
        coeffs = [0] * self.dim
        coeffs[self.shape.offset(g)] = 1
        return Tensor(self, tuple(coeffs))


def build_model(shape: Shape) -> TensorModel:
    return TensorModel(shape)


@dataclass(frozen=True)
class Tensor:
    """Coefficient vector over the lex-ordered basis of a model."""

    model: TensorModel
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) != self.model.dim:
            raise ValueError(f"need {self.model.dim} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, g: Sequence[int]):
        return self.coeffs[self.model.shape.offset(g)]

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        if other.model != self.model:
            raise ValueError("cannot add tensors from different models")
        return Tensor(self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        if other.model != self.model:
            raise ValueError("cannot subtract tensors from different models")
        return Tensor(self.model, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "Tensor":
        return Tensor(self.model, tuple(c * v for v in self.coeffs))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs)


def zero_tensor(model: TensorModel) -> Tensor:
    return Tensor(model, (0,) * model.dim)


def pure(model: TensorModel, xs: Sequence[Sequence]) -> Tensor:
    """The homogeneous tensor of the factor vectors.

    Its coefficient at ``g`` is the product of the factor coordinates
    ``c_{i,g(i)}``.
    """
    if len(xs) != model.shape.arity:
        raise ValueError(f"expected {model.shape.arity} factors, got {len(xs)}")
    for i, (x, n) in enumerate(zip(xs, model.shape.dims)):
        if len(x) != n:
            raise ValueError(f"factor {i + 1} has length {len(x)}, expected {n}")
    return Tensor(model, _lex_products(xs))


@dataclass(frozen=True)
class NuTable:
    """Images of the basis tuples under a candidate multilinear map.

    One ambient coordinate vector per multi-index, lex order; the ambient
    dimension is the common row length.
    """

    shape: Shape
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != self.shape.size:
            raise ValueError(f"need {self.shape.size} image rows, got {len(rows)}")
        if len({len(r) for r in rows}) > 1:
            raise ValueError("image rows must share one ambient dimension")
        object.__setattr__(self, "rows", rows)

    @property
    def ambient_dim(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True)
class Verdict:
    """Outcome of the basis criterion for a candidate tensor product."""

    is_tensor_product: bool
    failed_criterion: Optional[str] = None  # "dimension" or "independence"
    witness: Optional[tuple] = None  # coefficients of a vanishing combination

    def __bool__(self):
        return self.is_tensor_product


def verify_tensor_product(nu: NuTable, ambient_dim: Optional[int] = None) -> Verdict:
    """Decide whether the table makes its ambient space a tensor product.

    The criterion: the images of the basis tuples form a basis, i.e. they
    are linearly independent and the ambient dimension equals the product
    of the factor dimensions.  Rank is decided by exact elimination; a
    failed independence check returns the vanishing combination found.
    """
    if ambient_dim is None:
        ambient_dim = nu.ambient_dim
    elif ambient_dim != nu.ambient_dim:
        raise ValueError(f"stated ambient dimension {ambient_dim} does not match "
                         f"rows of length {nu.ambient_dim}")
    if ambient_dim != nu.shape.size:
        return Verdict(False, "dimension", None)
    dep = row_dependency(nu.rows)
    if dep is not None:
        return Verdict(False, "independence", tuple(dep))
    return Verdict(True)


@dataclass(frozen=True)
class LinearMap:
    """A linear map between coordinate spaces, stored by nonzero columns.

    ``columns[j]`` holds the image of domain basis vector ``j`` as a tuple
    of ``(row, value)`` pairs: its nonzero coordinates in the codomain
    basis, 0-based rows in ascending order.  Embeddings and the canonical
    isomorphism have one entry per column, so applying them costs one
    multiplication per nonzero coefficient, not one per matrix entry.
    """

    domain_dim: int
    codomain_dim: int
    columns: tuple

    def __post_init__(self):
        if len(self.columns) != self.domain_dim:
            raise ValueError(f"need {self.domain_dim} columns, got {len(self.columns)}")
        for col in self.columns:
            prev = -1
            for i, _ in col:
                if not prev < i < self.codomain_dim:
                    raise ValueError("column rows must ascend within 0.."
                                     f"{self.codomain_dim - 1}")
                prev = i

    @property
    def matrix(self) -> DenseMatrix:
        """The ``codomain_dim x domain_dim`` matrix, built on demand."""
        n = self.domain_dim
        data = [0] * (self.codomain_dim * n)
        for j, col in enumerate(self.columns):
            for i, v in col:
                data[i * n + j] = v
        return DenseMatrix(self.codomain_dim, n, data)

    def apply(self, coeffs: Sequence) -> list:
        """Image of a coefficient vector: each nonzero coefficient, in
        column order, scatters its column into the output.  Every output
        sums the same nonzero terms in the same order as a dense row loop;
        one that nothing reaches is int ``0``."""
        if len(coeffs) != self.domain_dim:
            raise ValueError(f"vector length {len(coeffs)} != {self.domain_dim} columns")
        out = [0] * self.codomain_dim
        for x, col in zip(coeffs, self.columns):
            if x == 0:
                continue
            for i, v in col:
                out[i] += v * x
        return out

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """``self`` after ``inner``."""
        if inner.codomain_dim != self.domain_dim:
            raise ValueError("maps do not compose: dimensions differ")
        columns = []
        for col in inner.columns:
            x = [0] * self.domain_dim
            for k, w in col:
                x[k] = w
            columns.append(_nonzeros(self.apply(x)))
        return LinearMap(inner.domain_dim, self.codomain_dim, tuple(columns))


def _nonzeros(vec: Sequence) -> tuple:
    """The ``(row, value)`` pairs of a vector's nonzero entries."""
    return tuple((i, v) for i, v in enumerate(vec) if v != 0)


def matrix_of(images: Sequence[Sequence]) -> DenseMatrix:
    """Matrix of a linear map from the images of the domain basis.

    ``images[j]`` holds the coordinates of the image of the ``j``-th basis
    vector in the codomain basis; it becomes column ``j``.
    """
    images = [list(v) for v in images]
    if not images:
        raise ValueError("need at least one image")
    r = len(images[0])
    if any(len(v) != r for v in images):
        raise ValueError("images must share the codomain dimension")
    return DenseMatrix.from_rows([[images[j][i] for j in range(len(images))]
                                  for i in range(r)])


def universal_factor(model: TensorModel, phi: MultilinearMap) -> LinearMap:
    """The linear map through which ``phi`` factors over the model.

    Determined on the canonical basis: basis tensor ``p_g`` maps to the
    value of ``phi`` on basis tuple ``g``.  Consequently applying it to a
    homogeneous tensor reproduces the multilinear evaluation.
    """
    if phi.shape != model.shape:
        raise ValueError(f"map shape {phi.shape.dims} != model shape {model.shape.dims}")
    return LinearMap(model.dim, phi.target_dim, tuple(_nonzeros(v) for v in phi.values))


def canonical_isomorphism(m1: TensorModel, m2: TensorModel) -> LinearMap:
    """Basis-to-basis correspondence between two models of the same shape.

    In the two lex-ordered canonical bases its matrix is the identity.
    """
    if m1.shape != m2.shape:
        raise ValueError(f"shapes differ: {m1.shape.dims} vs {m2.shape.dims}")
    return LinearMap(m1.dim, m2.dim, tuple(((j, 1),) for j in range(m1.dim)))


@dataclass(frozen=True)
class SubspaceProduct:
    """A subspace tensor product with its embedding into the parent."""

    model: TensorModel
    embedding: LinearMap
    selected: tuple  # per axis, the retained 1-based indices in order


def subspace_product(model: TensorModel, subsets: Sequence) -> SubspaceProduct:
    """Restrict the model to per-axis index subsets.

    The sub-model has shape ``(|D_1|, ..., |D_m|)``; its basis tensor at a
    sub-index embeds as the parent basis tensor at the composed index.
    """
    if len(subsets) != model.shape.arity:
        raise ValueError(f"expected {model.shape.arity} subsets, got {len(subsets)}")
    selected = []
    for i, (d, n) in enumerate(zip(subsets, model.shape.dims)):
        elems = sorted(set(int(x) for x in d))
        if not elems:
            raise ValueError(f"subset for axis {i + 1} is empty")
        if elems[0] < 1 or elems[-1] > n:
            raise ValueError(f"subset for axis {i + 1} leaves the range 1..{n}")
        selected.append(tuple(elems))
    sub_shape = Shape(tuple(len(s) for s in selected))
    sub_model = TensorModel(sub_shape)
    cols = []
    for g_sub in sub_shape.indices():
        g_parent = tuple(selected[i][v - 1] for i, v in enumerate(g_sub))
        cols.append(((model.shape.offset(g_parent), 1),))
    emb = LinearMap(sub_model.dim, model.dim, tuple(cols))
    return SubspaceProduct(sub_model, emb, tuple(selected))


def dual_eval(model: TensorModel, t: Tensor, phi: MultilinearMap):
    """Pair a tensor with a scalar-valued multilinear map.

    On a homogeneous tensor this equals evaluating the map on the factors;
    in general it is the linear extension against the value table.
    """
    if phi.shape != model.shape:
        raise ValueError("map shape does not match the model")
    if phi.target_dim != 1:
        raise ValueError("dual evaluation needs a scalar-valued map")
    if t.model != model:
        raise ValueError("tensor does not belong to the model")
    acc = 0
    for c, s in zip(t.coeffs, phi.values):
        acc = acc + c * s[0]
    return acc


@dataclass(frozen=True)
class Regrouping:
    """Order-preserving identification with a two-factor regrouped model."""

    model: TensorModel
    split_at: int

    def __post_init__(self):
        if not 1 <= self.split_at < self.model.shape.arity:
            raise ValueError(f"split position must be in 1..{self.model.shape.arity - 1}")

    @property
    def left_shape(self) -> Shape:
        return Shape(self.model.shape.dims[:self.split_at])

    @property
    def right_shape(self) -> Shape:
        return Shape(self.model.shape.dims[self.split_at:])

    @property
    def pair_shape(self) -> Shape:
        return Shape((self.left_shape.size, self.right_shape.size))

    def split(self, g: Sequence[int]) -> tuple:
        g = self.model.shape.validate_index(g)
        return g[:self.split_at], g[self.split_at:]

    def join(self, a: Sequence[int], b: Sequence[int]) -> tuple:
        g = concat(a, b)
        return self.model.shape.validate_index(g)

    def pair_rank(self, g: Sequence[int]) -> int:
        """Rank of the split pair in the regrouped model; equals the rank
        of ``g`` itself because the correspondence preserves lex order."""
        a, b = self.split(g)
        return self.pair_shape.rank((self.left_shape.rank(a), self.right_shape.rank(b)))


def regroup(model: TensorModel, p: int) -> Regrouping:
    return Regrouping(model, p)
