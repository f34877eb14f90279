import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlab.matrices import (DenseMatrix, inverse, leading_principal_minors,
                              matrix_backend, rank_of, row_dependency)
from kronlab.scalars import GAUSSIAN, RATIONAL, GaussianRational


def rand_matrix(rng, p, q, backend=RATIONAL):
    return DenseMatrix.from_rows([[backend.random(rng) for _ in range(q)]
                                  for _ in range(p)])


def test_constructors_and_access():
    m = DenseMatrix.from_rows([[1, 2], [3, 4]])
    assert (m.nrows, m.ncols) == (2, 2)
    assert m.at(2, 1) == 3
    assert m.row(1) == [1, 2]
    assert m.col(2) == [2, 4]
    assert DenseMatrix.identity(2) == DenseMatrix.from_rows([[1, 0], [0, 1]])
    assert DenseMatrix.zeros(1, 3) == DenseMatrix.from_rows([[0, 0, 0]])
    with pytest.raises(ValueError):
        DenseMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        DenseMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        m.at(3, 1)


def test_transpose_and_map():
    m = DenseMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == DenseMatrix.from_rows([[1, 4], [2, 5], [3, 6]])
    assert m.transpose().transpose() == m
    assert m.map(lambda v: 2 * v) == m.scale(2)


def test_matmul_against_explicit_sums():
    rng = random.Random(55)
    a = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 3, 4)
    prod = a.matmul(b)
    for i in range(1, 3):
        for j in range(1, 5):
            want = sum((a.at(i, k) * b.at(k, j) for k in range(1, 4)), Fraction(0))
            assert prod.at(i, j) == want
    with pytest.raises(ValueError):
        b.matmul(a.transpose())


def test_matvec_and_arithmetic():
    m = DenseMatrix.from_rows([[1, 2], [3, 4]])
    assert m.matvec([1, 1]) == [3, 7]
    assert (m + m) == m.scale(2)
    assert (m - m) == DenseMatrix.zeros(2, 2)
    with pytest.raises(ValueError):
        m.matvec([1])
    with pytest.raises(ValueError):
        m + DenseMatrix.identity(3)


def test_rank_of_known_matrices():
    assert rank_of([[1, 0], [0, 1]]) == 2
    assert rank_of([[1, 2], [2, 4]]) == 1
    assert rank_of([[0, 0], [0, 0]]) == 0
    assert rank_of([[1, 2, 3], [4, 5, 6]]) == 2
    # int rows must not fall into float division
    assert rank_of([[2, 4], [1, 3]]) == 2


def test_rank_of_random_products_is_bounded_by_inner_dimension():
    rng = random.Random(56)
    for _ in range(10):
        a = rand_matrix(rng, 3, 1)
        b = rand_matrix(rng, 1, 3)
        assert rank_of(a.matmul(b).rows()) <= 1


def test_row_dependency_finds_vanishing_combination():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    w = row_dependency(rows)
    assert w is not None
    assert any(c != 0 for c in w)
    assert all(sum(c * r[j] for c, r in zip(w, rows)) == 0 for j in range(2))
    assert row_dependency([[1, 0], [0, 1]]) is None


def test_row_dependency_gaussian_backend():
    i = GaussianRational(0, 1)
    rows = [[GaussianRational(1), i], [i, GaussianRational(-1)]]  # row2 = i*row1
    w = row_dependency(rows)
    assert w is not None
    assert all(sum(c * r[j] for c, r in zip(w, rows)) == 0 for j in range(2))


def test_inverse_round_trip():
    rng = random.Random(57)
    for backend in (RATIONAL, GAUSSIAN):
        for _ in range(5):
            m = rand_matrix(rng, 3, 3, backend)
            if rank_of(m.rows()) < 3:
                continue
            assert m.matmul(inverse(m)) == DenseMatrix.identity(3).map(Fraction)
    with pytest.raises(ValueError):
        inverse(DenseMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(DenseMatrix.zeros(2, 3))


def test_leading_principal_minors():
    minors = leading_principal_minors([[2, 1], [1, 2]])
    assert minors == [2, 3]
    # a zero pivot stops the sweep; remaining minors report as zero,
    # which is what the definiteness check consumes
    assert leading_principal_minors([[0, 1], [1, 0]]) == [0, 0]
    # the zero pivot appears only after the first elimination step, while
    # a later column still holds a nonzero entry
    assert leading_principal_minors([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) == [1, 0, 0]
    with pytest.raises(ValueError):
        leading_principal_minors([[1, 2, 3], [4, 5, 6]])


def test_matrix_backend_classification():
    assert matrix_backend(DenseMatrix.identity(2)) is RATIONAL
    assert matrix_backend(DenseMatrix.from_rows([[GaussianRational(1), 0]])) is GAUSSIAN
    with pytest.raises(ValueError):
        matrix_backend(DenseMatrix.from_rows([[GaussianRational(1), 0.5]]))


# -- properties of the elimination kernel, against cofactor expansion ---------

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
# few distinct values, so that singular matrices and dependent rows are common
small = st.sampled_from(sorted({Fraction(p, q) for p in range(-2, 3) for q in (1, 2, 3)}))
SCALARS = {"rational": small,
           "gaussian": st.builds(GaussianRational, small, st.sampled_from([0, 0, 1, Fraction(-1, 2)]))}


@st.composite
def small_matrices(draw, square=False):
    entry = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


def cofactor_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def minor_rank(rows):
    n, m = len(rows), len(rows[0])
    for k in range(min(n, m), 0, -1):
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                if cofactor_det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


@PROPERTY
@given(small_matrices())
def test_rank_of_matches_minor_rank(rows):
    assert rank_of(rows) == minor_rank(rows)


@PROPERTY
@given(small_matrices(square=True))
def test_leading_minors_match_cofactor_determinants_up_to_first_zero(rows):
    want = []
    for k in range(1, len(rows) + 1):
        d = cofactor_det([r[:k] for r in rows[:k]])
        want.append(d if all(want) else 0)
    assert leading_principal_minors(rows) == want


@PROPERTY
@given(small_matrices(square=True))
def test_inverse_is_a_left_inverse(rows):
    m = DenseMatrix.from_rows(rows)
    if cofactor_det(rows) == 0:
        with pytest.raises(ValueError):
            inverse(m)
    else:
        assert inverse(m).matmul(m) == DenseMatrix.identity(len(rows))


@PROPERTY
@given(small_matrices())
def test_row_dependency_witness(rows):
    w = row_dependency(rows)
    if minor_rank(rows) == len(rows):
        assert w is None
    else:
        assert w is not None and any(c != 0 for c in w)
        assert all(sum(c * r[j] for c, r in zip(w, rows)) == 0 for j in range(len(rows[0])))


# -- every backend against a plain Gauss elimination ------------------------------

REFERENCE = settings(max_examples=30, deadline=None, derandomize=True)
# large numerators over small, large and mixed denominators; about half zero
big = st.builds(Fraction, st.integers(-10**12, 10**12),
                st.sampled_from([1, 2, 3, 7, 12, 10**6 + 3, 2**61 - 1]) | st.integers(1, 10**9))
# floats with full mantissas, kept away from overflow and subnormals
floats = st.builds(lambda p, q: p / q, st.integers(-1000, 1000), st.integers(1, 997))
ENTRIES = {
    "rational": st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-3, 3), big),
    "gaussian": st.one_of(st.just(GaussianRational(0)), st.just(0), big,
                          st.builds(GaussianRational, big, big | st.just(0))),
    "real-gaussian": st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, big)),
    "complex64": st.one_of(st.just(0j), st.just(0), st.integers(-3, 3), floats,
                           st.builds(complex, floats, floats)),
}
CAST = {"rational": Fraction, "complex64": complex,
        "gaussian": lambda v: v if isinstance(v, GaussianRational) else GaussianRational(v)}
CAST["real-gaussian"] = CAST["gaussian"]


@st.composite
def matrices(draw, kind, square=False):
    """Up to 7 x 9 (square: 7 x 7), zero-heavy, often with a row that is a
    combination of two others."""
    n = draw(st.integers(1, 7))
    m = n if square else draw(st.integers(1, 9))
    rows = [[draw(ENTRIES[kind]) for _ in range(m)] for _ in range(n)]
    if kind != "rational":  # not all ints or Fractions, which would make it rational
        rows[0][0] = CAST[kind](rows[0][0])
    if n > 2 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        c = draw(ENTRIES[kind])
        rows[k] = [c * a + b for a, b in zip(rows[i], rows[j])]
    return rows


def gauss(rows, cast):
    """Elimination with division, on ``[rows | I]``: each column's pivot is its
    first nonzero entry at or below the current row, and every row with a
    nonzero entry below it loses a multiple of the pivot row."""
    n = len(rows)
    work = [[cast(v) for v in r] + [cast(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    pivots = []
    for pc in range(len(rows[0])):
        pr = len(pivots)
        piv = next((r for r in range(pr, n) if work[r][pc] != 0), None)
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        pivots.append((piv, pc))
        for r in range(pr + 1, n):
            if work[r][pc] != 0:
                f = work[r][pc] / work[pr][pc]
                work[r] = [a - f * b for a, b in zip(work[r], work[pr])]
    return work, pivots


def reference_inverse(work, n):
    inv = [row[n:] for row in work]
    for i in reversed(range(n)):
        row = inv[i]
        for j in range(i + 1, n):
            if work[i][j] != 0:
                row = [a - work[i][j] * b for a, b in zip(row, inv[j])]
        inv[i] = [v / work[i][i] for v in row]
    return inv


def reference_minors(work, pivots, n):
    minors, det = [], 1
    for k, pivot in enumerate(pivots):
        if pivot != (k, k):
            break
        det = det * work[k][k]
        minors.append(det)
    return minors + [det * 0] * (n - len(minors))


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@REFERENCE
@given(data=st.data())
def test_elimination_matches_plain_gauss(kind, data):
    """Exact backends: the same rank, witness, inverse and minors as Gauss
    elimination on Fractions; complex64: the same floats."""
    cast = CAST[kind]
    value_type = type(cast(1))
    rows = data.draw(matrices(kind))
    work, pivots = gauss(rows, cast)
    n, m, rank = len(rows), len(rows[0]), len(pivots)
    assert rank_of(rows) == rank
    w = row_dependency(rows)
    if rank == n:
        assert w is None
    else:
        assert w == work[rank][m:] and all(type(c) is value_type for c in w)
    sq = data.draw(matrices(kind, square=True))
    n = len(sq)
    work, pivots = gauss(sq, cast)
    if len(pivots) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(DenseMatrix.from_rows(sq))
    else:
        inv = inverse(DenseMatrix.from_rows(sq))
        assert inv.rows() == reference_inverse(work, n)
        assert all(type(v) is value_type for v in inv.data)
    assert leading_principal_minors(sq) == reference_minors(work, pivots, n)


MIXED_ROWS = [
    ([[Fraction(1, 2), 0.5j], [Fraction(1, 2), 0.5j]], ["complex64", "rational"]),
    ([[GaussianRational(1, 1), 0], [0, 2.0]], ["complex64", "gaussian"]),
]


@pytest.mark.parametrize("fn", [rank_of, row_dependency, leading_principal_minors,
                                lambda rows: inverse(DenseMatrix.from_rows(rows))],
                         ids=["rank_of", "row_dependency", "leading_principal_minors", "inverse"])
@pytest.mark.parametrize("rows, names", MIXED_ROWS, ids=["rational-complex", "gaussian-float"])
def test_elimination_refuses_mixed_backends(fn, rows, names):
    with pytest.raises(ValueError, match=re.escape(str(names))):
        fn(rows)


def test_ints_stay_neutral_and_rationals_embed_into_gaussian():
    assert rank_of([[1, 0.5j], [2, 1j]]) == 1
    assert row_dependency([[2, 1j], [4, 2j]]) == [-2, 1]
    w = row_dependency([[Fraction(1, 2), GaussianRational(0, 1)], [1, GaussianRational(0, 2)]])
    assert w == [-2, 1] and all(isinstance(c, GaussianRational) for c in w)
    assert inverse(DenseMatrix.from_rows([[2, 0], [0, GaussianRational(0, 1)]])).data == \
        [Fraction(1, 2), 0, 0, GaussianRational(0, -1)]
    assert leading_principal_minors([[Fraction(1, 3), 1], [1, GaussianRational(5)]]) == \
        [Fraction(1, 3), Fraction(2, 3)]
