import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlab.index_space import (BlockPartition, OrderedSetPartition, Shape,
                                 block_of, concat, discrete_partition,
                                 induced_partition, lex_compare,
                                 unit_partition)


def test_lex_compare_first_coordinate_rule():
    assert lex_compare((1, 3), (2, 1)) == -1
    assert lex_compare((2, 1), (2, 1)) == 0
    assert lex_compare((2, 1), (1, 3)) == 1


def test_lex_compare_needs_equal_lengths():
    with pytest.raises(ValueError):
        lex_compare((1, 2), (1, 2, 3))


def test_lex_listing_of_3_4_starts_as_printed():
    listing = list(Shape((3, 4)).indices())
    assert listing[:5] == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1)]
    assert len(listing) == 12
    assert listing[-1] == (3, 4)


def test_enumerate_is_strictly_increasing_and_duplicate_free():
    for dims in [(2, 2), (3, 4), (2, 1, 3)]:
        listing = list(Shape(dims).indices())
        assert len(set(listing)) == len(listing)
        for a, b in zip(listing, listing[1:]):
            assert lex_compare(a, b) == -1


def test_enumerate_goldens():
    assert list(Shape((2, 2)).indices()) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(Shape((1,)).indices()) == [(1,)]


def test_rank_golden_from_enumeration():
    # position of (2,1) counted in the lex listing of the 2x3 space
    shape = Shape((2, 3))
    listing = list(shape.indices())
    assert listing.index((2, 1)) + 1 == 4
    assert shape.rank((2, 1)) == 4
    assert Shape((5,)).rank((1,)) == 1
    assert Shape((3, 4)).unrank(12) == (3, 4)


def test_rank_unrank_bijection_across_shapes():
    for dims in [(2, 3), (4,), (2, 2, 2), (3, 1, 4), (10, 10, 10, 10)]:
        shape = Shape(dims)
        assert shape.size <= 10 ** 4
        for k in range(1, shape.size + 1):
            assert shape.rank(shape.unrank(k)) == k
        for pos, g in enumerate(shape.indices(), start=1):
            assert shape.rank(g) == pos


def test_rank_monotone_with_lex():
    shape = Shape((3, 4))
    listing = list(shape.indices())
    for a, b in itertools.combinations(listing, 2):
        assert lex_compare(a, b) == -1
        assert shape.rank(a) < shape.rank(b)


def test_offset_is_rank_minus_one():
    shape = Shape((2, 3))
    for g in shape.indices():
        assert shape.offset(g) == shape.rank(g) - 1


def test_unrank_out_of_range():
    shape = Shape((2, 3))
    for k in (0, 7, -1):
        with pytest.raises(ValueError):
            shape.unrank(k)


def test_invalid_indices_rejected():
    shape = Shape((2, 3))
    for g in [(0, 1), (3, 1), (1, 4), (1,), (1, 1, 1)]:
        with pytest.raises(ValueError):
            shape.rank(g)


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(())
    with pytest.raises(ValueError):
        Shape((2, 0))


def test_concat_golden():
    assert concat((2, 1), (3,)) == (2, 1, 3)
    assert concat((1,), (1,)) == (1, 1)


def test_concat_preserves_lex_order_exhaustively():
    left = list(Shape((2, 2)).indices())
    right = list(Shape((2,)).indices())
    pairs = list(itertools.product(left, right))
    for (a, b), (a2, b2) in itertools.combinations(pairs, 2):
        # pairs iterate in lex order on (a, b)
        assert lex_compare(concat(a, b), concat(a2, b2)) == -1


def test_ordered_set_partition_validation():
    with pytest.raises(ValueError):
        OrderedSetPartition(3, [[1, 2]])  # missing 3
    with pytest.raises(ValueError):
        OrderedSetPartition(3, [[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValueError):
        OrderedSetPartition(3, [[1, 2, 3], []])  # empty block
    with pytest.raises(ValueError):
        OrderedSetPartition(3, [[1, 2, 3, 4]])  # out of range


def test_block_partition_worked_example():
    d1 = OrderedSetPartition(3, [[1, 3], [2]])
    d2 = OrderedSetPartition(4, [[2, 4], [1, 3]])
    bp = induced_partition([d1, d2])
    assert bp.block((1, 1)) == ((1, 2), (1, 4), (3, 2), (3, 4))
    assert bp.block((1, 2)) == ((1, 1), (1, 3), (3, 1), (3, 3))
    assert bp.block((2, 1)) == ((2, 2), (2, 4))
    assert bp.block((2, 2)) == ((2, 1), (2, 3))
    # blocks listed in lex order of alpha
    assert [alpha for alpha, _ in bp.blocks()] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_block_of_worked_example():
    d1 = OrderedSetPartition(3, [[1, 3], [2]])
    d2 = OrderedSetPartition(4, [[2, 4], [1, 3]])
    assert block_of((3, 4), [d1, d2]) == (1, 1)
    assert block_of((2, 1), [d1, d2]) == (2, 2)


def test_block_of_unit_partitions():
    parts = [unit_partition(2), unit_partition(3)]
    for g in Shape((2, 3)).indices():
        assert block_of(g, parts) == (1, 1)


def test_discrete_partitions_make_singleton_blocks():
    parts = [discrete_partition(2), discrete_partition(3)]
    bp = induced_partition(parts)
    blocks = list(bp.blocks())
    assert len(blocks) == 6
    assert all(len(members) == 1 for _, members in blocks)


def test_blocks_are_disjoint_and_cover():
    for dims, parts in [
        ((3, 4), [OrderedSetPartition(3, [[1, 3], [2]]),
                  OrderedSetPartition(4, [[2, 4], [1, 3]])]),
        ((2, 2, 2), [OrderedSetPartition(2, [[1], [2]]),
                     OrderedSetPartition(2, [[1, 2]]),
                     OrderedSetPartition(2, [[2], [1]])]),
    ]:
        shape = Shape(dims)
        bp = induced_partition(parts)
        seen = []
        for alpha, members in bp.blocks():
            assert len(members) == len(set(members))
            seen.extend(members)
            for g in members:
                assert bp.block_of(g) == alpha
        assert sorted(seen) == sorted(shape.indices())


def test_block_size_law():
    parts = [OrderedSetPartition(3, [[1, 3], [2]]),
             OrderedSetPartition(4, [[2, 4], [1, 3]])]
    bp = induced_partition(parts)
    total = 0
    for alpha, members in bp.blocks():
        want = 1
        for i, a in enumerate(alpha):
            want *= len(parts[i].block_elements(a))
        assert len(members) == want
        total += len(members)
    assert total == bp.shape.size


def test_block_partition_shape_consistency():
    with pytest.raises(ValueError):
        BlockPartition(Shape((2, 2)), (unit_partition(2), unit_partition(3)))


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(Shape)


@st.composite
def shape_and_index(draw, shape=None):
    shape = shape or draw(shapes)
    return shape, tuple(draw(st.integers(1, d)) for d in shape.dims)


@PROPERTY
@given(shape_and_index(), st.data())
def test_rank_and_unrank_are_inverse(shape_g, data):
    shape, g = shape_g
    assert shape.unrank(shape.rank(g)) == g
    k = data.draw(st.integers(1, shape.size))
    assert shape.rank(shape.unrank(k)) == k


@PROPERTY
@given(shapes, st.data())
def test_rank_order_is_lex_order(shape, data):
    g = data.draw(shape_and_index(shape))[1]
    h = data.draw(shape_and_index(shape))[1]
    rg, rh = shape.rank(g), shape.rank(h)
    assert lex_compare(g, h) == (rg > rh) - (rg < rh)
