import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiphoton.errors import SizeLimitError, ValidationError
from multiphoton.symgroup import (
    Permutation,
    cycle_decomposition,
    cycle_index,
    cycle_type_positions,
    cycle_types,
    enumerate_permutations,
    identity,
    mode_subgroup_blocks,
    partitions,
    permutation_array,
    permutation_index,
    relative_cycle_type,
    subgroup_members,
)

perm_strategy = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(n)))
)


def test_cycle_type_positions_match_cycle_types():
    for n in range(7):
        types = [ct for ct, _ in cycle_types(n)]
        expected = [types.index(Permutation(t).cycle_type()) for t in permutation_array(n)]
        assert cycle_type_positions(n).tolist() == expected


def test_enumerate_n1_identity_only():
    assert enumerate_permutations(1) == [Permutation((0,))]


def test_enumerate_n2_identity_first():
    assert [p.images for p in enumerate_permutations(2)] == [(0, 1), (1, 0)]


def test_enumerate_n3_size():
    assert len(enumerate_permutations(3)) == 6


def test_enumerate_lexicographic_and_indexed():
    perms = enumerate_permutations(4)
    images = [p.images for p in perms]
    assert images == sorted(images)
    for i, p in enumerate(perms):
        assert permutation_index(p) == i


def test_enumerate_cap():
    with pytest.raises(SizeLimitError):
        enumerate_permutations(11)


def test_invalid_permutation_rejected():
    with pytest.raises(ValidationError):
        Permutation((0, 0, 2))


def test_composition_convention():
    # (s1 s2)(a) = s1(s2(a))
    s1 = Permutation((1, 2, 0))
    s2 = Permutation((0, 2, 1))
    composed = s1 * s2
    for a in range(3):
        assert composed(a) == s1(s2(a))


def test_compose_with_inverse_is_identity():
    p = Permutation((2, 0, 3, 1))
    assert (p * p.inverse()).images == identity(4).images


def test_cycle_decomposition_identity():
    cycles, ct = cycle_decomposition(identity(3))
    assert cycles == [(0,), (1,), (2,)]
    assert ct == (3, 0, 0)


def test_cycle_decomposition_transposition():
    cycles, ct = cycle_decomposition(Permutation((1, 0)))
    assert cycles == [(0, 1)]
    assert ct == (0, 1)


def test_cycle_decomposition_three_cycle():
    # 0 -> 1 -> 2 -> 0
    cycles, ct = cycle_decomposition(Permutation((1, 2, 0)))
    assert cycles == [(0, 1, 2)]
    assert ct == (0, 0, 1)


@given(perm_strategy)
def test_cycle_type_of_inverse(images):
    p = Permutation(images)
    assert p.cycle_type() == p.inverse().cycle_type()


@given(perm_strategy, st.randoms(use_true_random=False))
def test_cycle_type_conjugation_invariant(images, rnd):
    p = Permutation(images)
    other = list(range(len(images)))
    rnd.shuffle(other)
    q = Permutation(other)
    conj = q * p * q.inverse()
    assert conj.cycle_type() == p.cycle_type()


def test_subgroup_trivial():
    assert subgroup_members((1, 1, 1)) == [identity(3)]


def test_subgroup_full_s2():
    members = subgroup_members((2, 0))
    assert [m.images for m in members] == [(0, 1), (1, 0)]


def test_subgroup_2_1():
    members = subgroup_members((2, 1))
    assert len(members) == 2
    assert all(m.images[2] == 2 for m in members)


def test_subgroup_order_is_mu():
    occ = (2, 0, 3, 1)
    members = subgroup_members(occ)
    assert len(members) == math.factorial(2) * math.factorial(3)


def test_subgroup_closed_under_composition_and_inverse():
    members = set(subgroup_members((2, 2)))
    for a in members:
        assert a.inverse() in members
        for b in members:
            assert a * b in members


def test_subgroup_blocks_fixed_setwise():
    blocks = mode_subgroup_blocks((2, 1, 0, 2))
    assert blocks == [(0, 1), (2,), (3, 4)]
    for m in subgroup_members((2, 1, 0, 2)):
        for block in blocks:
            assert sorted(m(i) for i in block) == list(block)


def test_cycle_index_n1():
    assert cycle_index(1, [3.7]) == pytest.approx(3.7)


def test_cycle_index_n2():
    a1, a2 = 1.3, -0.4
    assert cycle_index(2, [a1, a2]) == pytest.approx((a1**2 + a2) / 2)


def test_cycle_index_n3():
    a = [0.9, 1.7, -2.2]
    expected = (a[0] ** 3 + 3 * a[0] * a[1] + 2 * a[2]) / 6
    assert cycle_index(3, a) == pytest.approx(expected)


@given(st.integers(2, 6), st.lists(st.floats(-2, 2), min_size=6, max_size=6))
@settings(max_examples=25)
def test_cycle_index_matches_enumeration(n, a):
    # cross-check of the partition path against brute enumeration
    brute = 0.0
    for p in enumerate_permutations(n):
        term = 1.0
        for k, c in enumerate(p.cycle_type(), start=1):
            term *= a[k - 1] ** c
        brute += term
    brute /= math.factorial(n)
    assert cycle_index(n, a) == pytest.approx(brute, abs=1e-12)


def test_cycle_types_class_sizes_sum_to_order():
    for n in range(1, 9):
        assert sum(size for _, size in cycle_types(n)) == math.factorial(n)


def test_partitions_count():
    assert len(list(partitions(10))) == 42


def test_relative_cycle_type_matches_direct():
    perms = enumerate_permutations(4)
    for s1, s2 in itertools.product(perms[:8], perms[:8]):
        rel = s2 * s1.inverse()
        assert relative_cycle_type(s1.images, s2.images) == rel.cycle_type()


def test_permutation_array_matches_enumeration():
    arr = permutation_array(4)
    perms = enumerate_permutations(4)
    assert arr.shape == (24, 4)
    assert [tuple(r) for r in arr] == [p.images for p in perms]
