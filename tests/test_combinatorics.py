import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlab.combinatorics import (FiniteFunction, SetPartition, bell, coimage,
                                   count_functions, covering_edges,
                                   enumerate_functions, enumerate_partitions,
                                   from_blocks, position_rank, refines,
                                   stirling2)


def test_partition_canonical_form():
    p = SetPartition(5, ((4, 2), (5, 1, 3)))
    assert p.blocks == ((1, 3, 5), (2, 4))
    assert str(p) == "{1,3,5}|{2,4}"
    assert p.sdr() == (1, 2)


def test_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2),))
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2), (2, 3)))


def test_stirling_and_bell_goldens():
    assert stirling2(5, 2) == 15
    assert bell(5) == 52
    assert bell(1) == 1


def test_enumeration_counts_match_goldens():
    assert len(enumerate_partitions(5, 2)) == 15
    assert len(enumerate_partitions(5)) == 52
    assert len(enumerate_partitions(1)) == 1


def test_enumeration_is_duplicate_free():
    parts = enumerate_partitions(5)
    assert len(set(parts)) == len(parts)


def test_enumeration_counts_match_recurrences():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        assert len(parts) == bell(n)
        for k in range(1, n + 1):
            assert sum(1 for p in parts if p.block_count == k) == stirling2(n, k)
    for n in range(1, 9):
        assert sum(stirling2(n, k) for k in range(1, n + 1)) == bell(n)


def test_enumerate_partitions_argument_errors():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 4)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 0)


def test_coimage_of_the_two_line_example():
    # values a, c, a, d over the range {a,b,c,d,e}, encoded 1,3,1,4
    f = FiniteFunction(4, 5, (1, 3, 1, 4))
    assert coimage(f) == from_blocks([[1, 3], [2], [4]])


def test_coimage_constant_and_injective():
    assert coimage(FiniteFunction(4, 2, (2, 2, 2, 2))) == from_blocks([[1, 2, 3, 4]])
    assert coimage(FiniteFunction(3, 5, (4, 1, 3))) == \
        from_blocks([[1], [2], [3]])


def test_coimage_satisfies_partition_invariants():
    rng = random.Random(81)
    for _ in range(50):
        n, p = rng.randint(1, 8), rng.randint(1, 5)
        f = FiniteFunction(n, p, tuple(rng.randint(1, p) for _ in range(n)))
        part = coimage(f)
        assert part.ground == n
        pooled = sorted(x for b in part.blocks for x in b)
        assert pooled == list(range(1, n + 1))
        # fibers really are fibers
        for b in part.blocks:
            vals = {f(x) for x in b}
            assert len(vals) == 1


def test_finite_function_validation():
    with pytest.raises(ValueError):
        FiniteFunction(3, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        FiniteFunction(3, 2, (1, 2))
    f = FiniteFunction(2, 2, (2, 1))
    with pytest.raises(ValueError):
        f(3)


def test_refines_worked_example():
    finer = from_blocks([[1, 3], [5], [2], [4]])
    coarser = from_blocks([[1, 3, 5], [2, 4]])
    assert refines(finer, coarser)
    assert not refines(coarser, finer)


def test_refines_reflexive_and_extremes():
    parts = enumerate_partitions(4)
    discrete = from_blocks([[1], [2], [3], [4]])
    unit = from_blocks([[1, 2, 3, 4]])
    for p in parts:
        assert refines(p, p)
        assert refines(discrete, p)
        assert refines(p, unit)


def test_refines_ground_mismatch():
    with pytest.raises(ValueError):
        refines(from_blocks([[1]]), from_blocks([[1], [2]]))


def test_refinement_is_a_partial_order_on_four_elements():
    parts = enumerate_partitions(4)
    assert len(parts) == 15
    for x in parts:
        assert refines(x, x)
    for x, y in itertools.permutations(parts, 2):
        if refines(x, y):
            assert not refines(y, x)
    for x, y, z in itertools.permutations(parts, 3):
        if refines(x, y) and refines(y, z):
            assert refines(x, z)


def test_covers_of_the_unit_partition_of_three():
    unit = from_blocks([[1, 2, 3]])
    covers = sorted(str(x) for x, y in covering_edges(3) if y == unit)
    assert covers == ["{1,2}|{3}", "{1,3}|{2}", "{1}|{2,3}"]


def test_covering_edges_none_for_singleton():
    assert covering_edges(1) == []


def test_covering_edges_betweenness_characterization():
    for n in (2, 3, 4):
        parts = enumerate_partitions(n)
        edges = set(covering_edges(n))
        for x, y in itertools.permutations(parts, 2):
            if not refines(x, y):
                assert (x, y) not in edges
                continue
            between = any(z not in (x, y) and refines(x, z) and refines(z, y)
                          for z in parts)
            assert ((x, y) in edges) == (not between)


def test_covering_edges_guard():
    with pytest.raises(ValueError):
        covering_edges(7)


def test_function_class_count_formulas():
    assert count_functions("SNC", 3, 5) == comb(5, 3) == 10
    assert count_functions("WNC", 3, 5) == comb(7, 3)
    assert count_functions("INJ", 3, 5) == 5 * 4 * 3
    assert count_functions("PER", 4, 4) == factorial(4)
    assert count_functions("PER", 0, 0) == 1
    assert count_functions("INJ", 4, 2) == 0


def test_enumeration_matches_counts_up_to_six():
    for n in range(0, 7):
        for p in range(0, 7):
            for cls in ("SNC", "WNC", "INJ"):
                fns = enumerate_functions(cls, n, p)
                assert len(fns) == count_functions(cls, n, p)
                assert len(set(f.values for f in fns)) == len(fns)
        fns = enumerate_functions("PER", n, n)
        assert len(fns) == count_functions("PER", n, n)


def test_enumerated_classes_have_the_defining_property():
    for f in enumerate_functions("SNC", 3, 5):
        assert all(f.values[i] < f.values[i + 1] for i in range(2))
    for f in enumerate_functions("WNC", 3, 4):
        assert all(f.values[i] <= f.values[i + 1] for i in range(2))
    for f in enumerate_functions("INJ", 3, 4):
        assert len(set(f.values)) == 3
    for f in enumerate_functions("PER", 3, 3):
        assert sorted(f.values) == [1, 2, 3]


def test_function_class_argument_errors():
    with pytest.raises(ValueError):
        count_functions("SUR", 2, 2)
    with pytest.raises(ValueError):
        count_functions("PER", 2, 3)
    with pytest.raises(ValueError):
        enumerate_functions("INJ", -1, 2)


def test_position_rank_golden():
    pi, rho = position_rank([1, 2, 3, 4, 5], {2, 4}, 4)
    assert (pi, rho) == (2, 1)


def test_position_rank_full_subset_is_lex_position():
    universe = list(range(1, 6))
    for x in universe:
        pi, rho = position_rank(universe, universe, x)
        assert pi == x
        assert rho == x - 1


def test_position_rank_below_subset():
    pi, rho = position_rank([1, 2, 3, 4, 5], {4, 5}, 2)
    assert (pi, rho) == (0, 0)


def test_position_rank_membership_rule():
    universe = ["a", "b", "c", "d"]
    subset = {"b", "d"}
    for x in universe:
        pi, rho = position_rank(universe, subset, x)
        if x in subset:
            assert pi == rho + 1
        else:
            assert pi == rho


def test_position_rank_errors():
    with pytest.raises(ValueError):
        position_rank([1, 2, 3], {1}, 9)
    with pytest.raises(ValueError):
        position_rank([1, 2, 3], {9}, 1)
    with pytest.raises(ValueError):
        position_rank([1, 1, 2], {1}, 2)


def test_two_line_rendering():
    f = FiniteFunction(4, 5, (1, 3, 1, 4))
    assert f.two_line() == "(1 2 3 4 / 1 3 1 4)"


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@PROPERTY
@given(st.integers(1, 7), st.data())
def test_partition_counts_are_bell_and_stirling_numbers(n, data):
    assert len(enumerate_partitions(n)) == bell(n)
    k = data.draw(st.integers(1, n))
    assert len(enumerate_partitions(n, k)) == stirling2(n, k)


def fibers(labels):
    """The partition of ``{1..len(labels)}`` into positions of equal label."""
    return coimage(FiniteFunction(len(labels), max(labels), labels))


@PROPERTY
@given(st.integers(1, 7), st.data())
def test_refines_is_a_partial_order(n, data):
    """x, then two successive coarsenings y and z of it, and an unrelated w."""
    label = lambda m: st.lists(st.integers(1, m), min_size=n, max_size=n)
    lx, merge_y, merge_z = data.draw(label(n)), data.draw(label(n)), data.draw(label(n))
    ly = [merge_y[v - 1] for v in lx]
    x, y, z, w = fibers(lx), fibers(ly), fibers([merge_z[v - 1] for v in ly]), fibers(data.draw(label(n)))
    assert refines(x, y) and refines(y, z) and refines(x, z)
    for a, b in itertools.product((x, y, z, w), repeat=2):
        assert refines(a, a)
        assert (refines(a, b) and refines(b, a)) == (a == b)
        for c in (x, y, z, w):
            assert not (refines(a, b) and refines(b, c)) or refines(a, c)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_coimage_has_one_block_per_image_point(domain, codomain, data):
    values = data.draw(st.lists(st.integers(1, codomain), min_size=domain, max_size=domain))
    assert coimage(FiniteFunction(domain, codomain, values)).block_count == len(set(values))
