import itertools
import random
import re
from fractions import Fraction

import pytest

from kronlab.index_space import Shape
from kronlab.kronecker import (DenseMatrix, KroneckerOperator,
                               factorized_matrix_product, flat_pair_shape,
                               kron)
from kronlab.scalars import GaussianRational, RATIONAL


def rand_matrix(rng, p, q):
    return DenseMatrix.from_rows([[RATIONAL.random(rng) for _ in range(q)]
                                  for _ in range(p)])


def naive_matmul(a, b):
    return DenseMatrix.from_rows(
        [[sum((a.at(i, k) * b.at(k, j) for k in range(1, a.ncols + 1)), Fraction(0))
          for j in range(1, b.ncols + 1)] for i in range(1, a.nrows + 1)])


def unit_matrix(p, q, i, j):
    rows = [[1 if (r, c) == (i, j) else 0 for c in range(1, q + 1)]
            for r in range(1, p + 1)]
    return DenseMatrix.from_rows(rows)


def test_column_times_row_golden():
    a, b, c, d = (Fraction(v) for v in (2, -3, 5, 7))
    col = DenseMatrix.from_rows([[a], [b]])
    row = DenseMatrix.from_rows([[c, d]])
    assert kron([col, row]) == DenseMatrix.from_rows([[a * c, a * d], [b * c, b * d]])


def test_two_by_two_block_layout():
    rng = random.Random(41)
    a1 = rand_matrix(rng, 2, 2)
    a2 = rand_matrix(rng, 2, 2)
    got = kron([a1, a2])
    blocks = [[a2.scale(a1.at(i, j)) for j in (1, 2)] for i in (1, 2)]
    rows = []
    for i in (0, 1):
        for r in (1, 2):
            rows.append(blocks[i][0].row(r) + blocks[i][1].row(r))
    assert got == DenseMatrix.from_rows(rows)


def test_identity_factors():
    assert kron([DenseMatrix.identity(2), DenseMatrix.identity(3)]) == \
        DenseMatrix.identity(6)


def test_kron_backend_mismatch():
    a = DenseMatrix.from_rows([[Fraction(1, 2)]])
    b = DenseMatrix.from_rows([[complex(1)]])
    with pytest.raises(ValueError, match=re.escape("['complex64', 'rational']")):
        kron([a, b])
    with pytest.raises(ValueError, match=re.escape("['complex64', 'rational']")):
        KroneckerOperator((a, b))
    c = DenseMatrix.from_rows([[complex(1), GaussianRational(1)]])
    with pytest.raises(ValueError, match=re.escape("['complex64', 'gaussian']")):
        kron([c])


def test_ints_and_rationals_embed_into_gaussian_factors():
    g = DenseMatrix(1, 1, [GaussianRational(1, 1)])
    for other in (DenseMatrix(1, 1, [2]), DenseMatrix(1, 1, [Fraction(1, 2)])):
        op = KroneckerOperator((other, g))
        assert kron([other, g]).data == [other.data[0] * GaussianRational(1, 1)]
        assert op.matvec([3]) == [other.data[0] * GaussianRational(3, 3)]


def test_entry_formula_exhaustive_small():
    rng = random.Random(42)
    for m in (1, 2, 3):
        factors = [rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
                   for _ in range(m)]
        op = KroneckerOperator(tuple(factors))
        dense = kron(factors)
        for mu in op.row_shape.indices():
            for ka in op.col_shape.indices():
                want = Fraction(1)
                for f, i, j in zip(factors, mu, ka):
                    want *= f.at(i, j)
                assert op.entry(mu, ka) == want
                assert dense.at(op.row_shape.rank(mu), op.col_shape.rank(ka)) == want


def test_entry_zero_chain():
    f1 = DenseMatrix.from_rows([[0, 1], [1, 1]])
    f2 = DenseMatrix.from_rows([[1, 1], [1, 1]])
    op = KroneckerOperator((f1, f2))
    assert op.entry((1, 1), (1, 2)) == 0


def test_entry_single_factor():
    rng = random.Random(43)
    f = rand_matrix(rng, 3, 2)
    op = KroneckerOperator((f,))
    for i in (1, 2, 3):
        for j in (1, 2):
            assert op.entry((i,), (j,)) == f.at(i, j)


def test_entry_out_of_range():
    op = KroneckerOperator((DenseMatrix.identity(2), DenseMatrix.identity(2)))
    with pytest.raises(ValueError):
        op.entry((3, 1), (1, 1))
    with pytest.raises(ValueError):
        op.entry((1, 1), (1, 3))


def test_matvec_identity_operator():
    rng = random.Random(44)
    op = KroneckerOperator((DenseMatrix.identity(2), DenseMatrix.identity(2)))
    x = [RATIONAL.random(rng) for _ in range(4)]
    assert op.matvec(x) == x


def test_matvec_intro_columns():
    a, b, c, d = (Fraction(v) for v in (2, -3, 5, 7))
    op = KroneckerOperator((DenseMatrix.from_rows([[a], [b]]),
                            DenseMatrix.from_rows([[c, d]])))
    assert op.matvec([1, 0]) == [a * c, b * c]
    assert op.matvec([0, 1]) == [a * d, b * d]


def test_matvec_matches_dense_on_random_factors():
    rng = random.Random(45)
    for _ in range(20):
        m = rng.randint(1, 3)
        factors = [rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
                   for _ in range(m)]
        op = KroneckerOperator(tuple(factors))
        dense = op.materialize()
        for _ in range(10):
            x = [RATIONAL.random(rng) for _ in range(op.ncols)]
            assert op.matvec(x) == dense.matvec(x)


def test_matvec_length_check():
    op = KroneckerOperator((DenseMatrix.identity(2), DenseMatrix.identity(3)))
    with pytest.raises(ValueError):
        op.matvec([1, 2, 3])


def test_kron_bilinear_in_each_slot():
    rng = random.Random(46)
    a = rand_matrix(rng, 2, 2)
    a2 = rand_matrix(rng, 2, 2)
    b = rand_matrix(rng, 2, 3)
    ca, cb = RATIONAL.random(rng), RATIONAL.random(rng)
    lhs = kron([a.scale(ca) + a2.scale(cb), b])
    rhs = kron([a, b]).scale(ca) + kron([a2, b]).scale(cb)
    assert lhs == rhs
    lhs = kron([b, a.scale(ca) + a2.scale(cb)])
    rhs = kron([b, a]).scale(ca) + kron([b, a2]).scale(cb)
    assert lhs == rhs


def test_kron_associativity_good_choice():
    rng = random.Random(47)
    a = rand_matrix(rng, 2, 2)
    b = rand_matrix(rng, 2, 3)
    c = rand_matrix(rng, 3, 2)
    flat = kron([a, b, c])
    assert kron([kron([a, b]), c]) == flat
    assert kron([a, kron([b, c])]) == flat


def test_flat_pair_convention_is_not_associative():
    # modeling a product of matrix spaces as entries-by-entries matrices
    # gives different shapes for the two groupings of three factors
    s1, s2, s3 = (2, 2), (2, 3), (3, 2)
    left = flat_pair_shape(flat_pair_shape(s1, s2), s3)
    right = flat_pair_shape(s1, flat_pair_shape(s2, s3))
    assert left != right
    assert left[0] == 4 * 6 and right[0] == 4


def test_factorized_product_on_all_unit_pairs():
    # unit times unit is a shifted unit exactly when the inner indices meet
    for c, d, e, f in itertools.product((1, 2), repeat=4):
        a = unit_matrix(2, 2, c, d)
        b = unit_matrix(2, 2, e, f)
        got = factorized_matrix_product(a, b)
        want = unit_matrix(2, 2, c, f) if d == e else DenseMatrix.zeros(2, 2)
        assert got == want


def test_factorized_product_identity():
    rng = random.Random(48)
    b = rand_matrix(rng, 3, 2)
    assert factorized_matrix_product(DenseMatrix.identity(3), b) == b


def test_factorized_product_matches_naive():
    rng = random.Random(49)
    for _ in range(30):
        a = rand_matrix(rng, 2, 3)
        b = rand_matrix(rng, 3, 2)
        assert factorized_matrix_product(a, b) == naive_matmul(a, b)


def test_factorized_product_dimension_check():
    with pytest.raises(ValueError):
        factorized_matrix_product(DenseMatrix.identity(2), DenseMatrix.identity(3))


def test_submatrix_retain_all():
    rng = random.Random(50)
    a = rand_matrix(rng, 3, 3)
    assert a.submatrix([1, 2, 3], [1, 2, 3], "retain") == a


def test_submatrix_delete_nothing():
    rng = random.Random(51)
    a = rand_matrix(rng, 3, 3)
    assert a.submatrix([], [], "delete") == a


def test_submatrix_golden():
    a = DenseMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.submatrix([1, 3], [2], "retain") == DenseMatrix.from_rows([[2], [8]])
    assert a.submatrix([2], [3], "delete") == DenseMatrix.from_rows([[1, 2], [7, 8]])


def test_submatrix_block_region():
    # restricting the 8x8 support pattern to its first block rows/columns
    rng = random.Random(52)
    f1 = DenseMatrix.from_rows([[RATIONAL.random(rng)], [0]])
    f2 = rand_matrix(rng, 2, 2)
    f3 = DenseMatrix.from_rows([[RATIONAL.random(rng), 0]])
    f4 = rand_matrix(rng, 2, 2)
    dense = kron([f1, f2, f3, f4])
    # block rows: first four (row multi-indices starting 1...), block
    # columns: those with third column index 1
    a_region = dense.submatrix([1, 2, 3, 4], [1, 2, 5, 6], "retain")
    outside = dense.submatrix([1, 2, 3, 4], [1, 2, 5, 6], "delete")
    assert any(v != 0 for v in a_region.data) or all(v == 0 for v in dense.data)
    assert all(v == 0 for v in outside.data)


def test_submatrix_out_of_range():
    a = DenseMatrix.identity(2)
    with pytest.raises(ValueError):
        a.submatrix([3], [1], "retain")
    with pytest.raises(ValueError):
        a.submatrix([1], [1], "keep")


def test_operator_shapes():
    op = KroneckerOperator((DenseMatrix.zeros(2, 3), DenseMatrix.zeros(4, 5)))
    assert op.row_shape == Shape((2, 4))
    assert op.col_shape == Shape((3, 5))
    assert op.nrows == 8 and op.ncols == 15
