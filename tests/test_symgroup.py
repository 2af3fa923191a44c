import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiphoton import symgroup
from multiphoton.errors import SizeLimitError, ValidationError
from multiphoton.symgroup import (
    Permutation,
    cycle_decomposition,
    cycle_index,
    cycle_table,
    cycle_type_positions,
    cycle_types,
    enumerate_permutations,
    identity,
    inverse_pairs,
    mode_subgroup_blocks,
    partitions,
    permutation_array,
    permutation_index,
    relative_cycle_type,
    relative_positions,
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


def test_cycle_table_matches_cycle_walk():
    """Each id's cycle, rebuilt from its parent and last element, and the ids
    of every permutation give that permutation's cycles; there are
    sum_k C(N, k) (k-1)! distinct cycles."""
    for n in range(7):
        table = cycle_table(n)
        assert len(table.length) == sum(math.comb(n, k) * math.factorial(k - 1)
                                        for k in range(1, n + 1))
        cycles = []
        for c in range(len(table.length)):
            head = cycles[table.parent[c]] if table.parent[c] >= 0 else ()
            cycles.append(head + (int(table.last[c]),))
            assert len(cycles[c]) == table.length[c]
        for t, ids in zip(permutation_array(n), table.ids):
            got = sorted(cycles[c] for c in ids if c < len(cycles))
            assert got == sorted(Permutation(t).cycles())
    assert len(cycle_table(8).length) == 16072


def test_relative_positions_match_composition():
    perms = enumerate_permutations(4)
    pos = relative_positions(4)
    for (i, s1), (j, s2) in itertools.product(enumerate(perms), repeat=2):
        assert pos[i, j] == permutation_index(s2 * s1.inverse())


@pytest.mark.parametrize("n", range(9))
def test_inverse_pairs_pick_one_of_each_pair(n):
    """The representative of {tau, tau^-1} has the smaller position: its
    inverse is itself (an involution) or not a representative, and every tau
    is a representative or the inverse of one. The shared arrays are read-only."""
    pairs = inverse_pairs(n)
    assert not any(a.flags.writeable for a in (pairs.positions, pairs.images, pairs.involution))
    reps = pairs.positions.tolist()
    assert reps == sorted(set(reps))
    assert np.array_equal(pairs.images, permutation_array(n)[pairs.positions])
    inverse = [permutation_index(Permutation(t).inverse()) for t in pairs.images.tolist()]
    assert [i == r for i, r in zip(inverse, reps)] == pairs.involution.tolist()
    assert not set(reps) & {i for i, r in zip(inverse, reps) if i != r}
    assert all(i >= r for i, r in zip(inverse, reps))
    assert set(reps) | set(inverse) == set(range(math.factorial(n)))


def test_inverse_pairs_counts():
    """Representatives (N! + I_N) / 2 and involutions I_N, the telephone numbers."""
    assert [len(inverse_pairs(n).positions) for n in range(9)] == [
        1, 1, 2, 5, 17, 73, 398, 2636, 20542]
    assert [int(inverse_pairs(n).involution.sum()) for n in range(9)] == [
        1, 1, 2, 4, 10, 26, 76, 232, 764]


def test_inverse_pairs_build_needs_no_code_table():
    """The N = 8 build stays far below the 128 MiB of an N^N intp code table."""
    permutation_array(8)
    inverse_pairs.cache_clear()
    tracemalloc.start()
    try:
        inverse_pairs(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    code_table = 8**8 * np.dtype(np.intp).itemsize  # 128 MiB
    assert peak < code_table / 4


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


@pytest.mark.parametrize("n", range(10))
def test_permutation_array_is_itertools_order(n):
    nf = math.factorial(n)
    expected = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                           dtype=np.intp, count=nf * n).reshape(nf, n)
    assert np.array_equal(permutation_array(n), expected)


def test_permutation_index_ranks_every_row_of_s8():
    rows = permutation_array(8).tolist()
    assert [permutation_index(t) for t in rows] == list(range(len(rows)))


@pytest.mark.parametrize("images", [(0, 0, 1), (0, 2), (1, 2, 3)])
def test_permutation_index_rejects_non_permutations(images):
    with pytest.raises(ValidationError):
        permutation_index(images)


def test_s8_array_and_index_retain_only_the_array():
    """S_8 is one 40320 x 8 intp array (2.5 MiB), ranked by its Lehmer code
    with no tuple table or index dict beside it; every cached table is
    dropped first."""
    for cached in vars(symgroup).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    tracemalloc.start()
    try:
        permutation_array(8)
        permutation_index(range(7, -1, -1))
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= 3 * 2**20


def test_permutation_array_matches_enumeration():
    arr = permutation_array(4)
    perms = enumerate_permutations(4)
    assert arr.shape == (24, 4)
    assert [tuple(r) for r in arr] == [p.images for p in perms]
