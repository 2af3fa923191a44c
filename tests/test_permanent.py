import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiphoton.errors import SizeLimitError, ValidationError
from multiphoton.network import fourier, submatrix
from multiphoton.permanent import (
    RYSER_TEMP_ELEMENTS,
    _digits,
    _plan,
    permanent_gather_batch,
    permanent_laplace,
    permanent_naive,
    permanent_ryser,
    permanent_ryser_batch,
    zero_threshold,
)
from multiphoton.symgroup import inverse_pairs


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_naive_identity():
    assert permanent_naive(np.eye(3)) == pytest.approx(1.0)


def test_naive_all_ones():
    assert permanent_naive(np.ones((3, 3))) == pytest.approx(6.0)


def test_naive_2x2_definition():
    a, b, c, d = 1.2 + 0.3j, -0.7j, 2.0, 0.5 - 1.0j
    mat = np.array([[a, b], [c, d]])
    assert permanent_naive(mat) == pytest.approx(a * d + b * c)


def test_naive_cap():
    with pytest.raises(SizeLimitError):
        permanent_naive(np.eye(10))


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        permanent_naive(np.array([[np.nan, 1], [1, 1]]))


def test_empty_matrix_permanent_is_one():
    assert permanent_naive(np.zeros((0, 0))) == 1
    assert permanent_ryser(np.zeros((0, 0))) == 1


def test_ryser_all_ones_4x4():
    assert permanent_ryser(np.ones((4, 4))) == pytest.approx(24.0)


def test_ryser_fourier3():
    # frozen from the naive S_3 enumeration: per(F_3) = -1/sqrt(3)
    val = permanent_ryser(fourier(3))
    assert val == pytest.approx(permanent_naive(fourier(3)), abs=1e-14)
    assert val == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-12)


def test_ryser_matches_naive_random_6x6(rng):
    a = random_complex(rng, 6)
    pn, pr = permanent_naive(a), permanent_ryser(a)
    assert abs(pn - pr) <= 1e-10 * abs(pn)


@pytest.mark.parametrize("n", range(1, 9))
def test_ryser_matches_naive_sizes(rng, n):
    for _ in range(5):
        a = random_complex(rng, n)
        pn, pr = permanent_naive(a), permanent_ryser(a)
        assert abs(pn - pr) <= 1e-10 * max(abs(pn), 1e-30)


def test_ryser_larger_size_consistent_with_laplace(rng):
    a = random_complex(rng, 12)
    direct = permanent_ryser(a)
    via_laplace = permanent_laplace(a, 4)
    assert abs(direct - via_laplace) <= 1e-9 * abs(direct)


def test_ryser_cap():
    with pytest.raises(SizeLimitError):
        permanent_ryser(np.eye(25))


def test_ryser_n13_matches_naive_laplace(rng):
    # both Laplace blocks (6x6 and 7x7) go to permanent_naive, so the
    # reference shares no code with the Ryser kernel
    a = random_complex(rng, 13)
    ref = permanent_laplace(a, 6)
    assert abs(permanent_ryser(a) - ref) <= 1e-10 * abs(ref)


def test_batch_matches_single(rng):
    stack = np.stack([random_complex(rng, 4) for _ in range(7)])
    batch = permanent_ryser_batch(stack)
    for mat, val in zip(stack, batch):
        assert val == pytest.approx(permanent_ryser(mat), abs=1e-12)
    # stacks of more than two kernel chunks, the last one partial; scaling each
    # tiled matrix by its own factor (per(sA) = s^n per(A)) makes every entry distinct
    for n in range(1, 9):
        size = 2 * (RYSER_TEMP_ELEMENTS // n) + 3
        tile = np.arange(size) % 11
        base = np.stack([random_complex(rng, n) for _ in range(11)])
        scale = rng.uniform(0.5, 1.5, size) * np.exp(1j * rng.uniform(0, 2 * np.pi, size))
        expected = np.array([permanent_naive(m) for m in base])[tile] * scale**n
        batch = permanent_ryser_batch(base[tile] * scale[:, None, None])
        assert np.all(np.abs(batch - expected) <= 1e-10 * np.abs(expected)), n


def random_stack(rng, size, n, dtype):
    real = rng.standard_normal((size, n, n))
    return real + 1j * rng.standard_normal((size, n, n)) if dtype is complex else real


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("n", range(10))
def test_glynn_matches_naive_on_batches(rng, n, dtype):
    # batch sizes 0, 1 and more than two kernel chunks; the long stack tiles
    # 11 matrices, each copy scaled by its own factor (per(sA) = s^n per(A))
    base = random_stack(rng, 11, n, dtype)
    naive = np.array([permanent_naive(m) for m in base])
    assert permanent_ryser_batch(base[:0]).shape == (0,)
    assert permanent_ryser_batch(base[:1])[0] == pytest.approx(naive[0], rel=1e-10)
    size = 2 * (RYSER_TEMP_ELEMENTS // max(n, 1)) + 3
    tile = np.arange(size) % 11
    scale = rng.uniform(0.5, 1.5, size)
    if dtype is complex:
        scale = scale * np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    batch = permanent_ryser_batch(base[tile] * scale[:, None, None])
    expected = naive[tile] * scale**n
    assert np.all(np.abs(batch - expected) <= 1e-10 * np.abs(expected))


def test_real_input_matches_complex_cast_and_returns_complex(rng):
    for n in range(1, 13):
        a = rng.standard_normal((n, n))
        real, cast = permanent_ryser(a), permanent_ryser(a.astype(complex))
        assert isinstance(real, complex)
        assert abs(real - cast) <= 1e-13 * abs(cast)
        stack = rng.standard_normal((40, n, n))
        batch = permanent_ryser_batch(stack)
        assert batch.dtype == complex
        cast = permanent_ryser_batch(stack.astype(complex))
        assert np.all(np.abs(batch - cast) <= 1e-13 * np.abs(cast))


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("k", [8, 9])
def test_shuffled_block_diagonal_matches_naive_blocks(rng, k, dtype):
    # entries of modulus uniform in [0, 1), with random phases when complex:
    # positive row sums make the inclusion-exclusion terms large against the
    # permanent, the regime where precision is lost
    def block():
        mod = rng.uniform(0.0, 1.0, (k, k))
        return mod * np.exp(2j * np.pi * rng.uniform(size=(k, k))) if dtype is complex else mod
    b1, b2 = block(), block()
    a = np.zeros((2 * k, 2 * k), dtype=dtype)
    a[:k, :k], a[k:, k:] = b1, b2
    a = a[rng.permutation(2 * k)][:, rng.permutation(2 * k)]
    ref = permanent_naive(b1) * permanent_naive(b2)
    assert abs(permanent_ryser(a) - ref) <= 1e-12 * abs(ref)


def _traced_peak(func, arg) -> int:
    tracemalloc.start()
    try:
        func(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_stays_bounded(rng):
    # the input exists before tracing starts, so the peak counts only the
    # kernel's own arrays
    bound = 6 * RYSER_TEMP_ELEMENTS * 16
    assert _traced_peak(permanent_ryser, random_complex(rng, 20)) <= bound
    assert _traced_peak(permanent_ryser_batch, random_stack(rng, 3125, 5, complex)) <= bound
    images = inverse_pairs(8).images
    assert _traced_peak(lambda w: permanent_gather_batch(w, images),
                        random_stack(rng, 8, 8, complex)) <= bound
    # a bunched output's tau-route call: one W column per block
    assert _traced_peak(lambda w: permanent_gather_batch(w, images, mult=(3, 2, 2, 1)),
                        rng.standard_normal((8, 8, 4)) + 0j) <= bound


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("n", range(9))
def test_gather_feeder_matches_materialised_stack(rng, n, dtype):
    # P = 1, the pair table of S_n, and one table either side of a chunk
    # boundary (a chunk holds RYSER_TEMP_ELEMENTS // n^2 matrices)
    w = random_stack(rng, n, n, dtype)
    rows = np.arange(n)
    boundary = RYSER_TEMP_ELEMENTS // max(n * n, 1)
    pairs = inverse_pairs(n).images
    tables = [pairs[-1:], pairs] + [np.argsort(rng.random((size, n)), axis=1)
                                    for size in (boundary - 1, boundary + 1)]
    for images in tables:
        got = permanent_gather_batch(w, images)
        want = permanent_ryser_batch(w[rows, images])
        assert got.dtype == complex and got.shape == (len(images),)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), len(images)


def test_gather_feeder_rejects_bad_input(rng):
    w = random_stack(rng, 3, 3, complex)
    images = inverse_pairs(3).images
    for bad in (np.nan, np.inf):
        broken = w.copy()
        broken[1, 2, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            permanent_gather_batch(broken, images)
    for table in (images + 1, images[:, :2], images.astype(float)):
        with pytest.raises(ValidationError):
            permanent_gather_batch(w, table)
    with pytest.raises(ValidationError):
        permanent_gather_batch(w[:, :2], images)


def _expanded(w, mult):
    """W with column a repeated m_a times: (n, K, n)."""
    return w[:, :, np.repeat(np.arange(len(mult)), mult)]


def random_composition(rng, n):
    cuts = np.flatnonzero(rng.random(n - 1) < 0.5) + 1
    return tuple(np.diff(np.concatenate(([0], cuts, [n]))).tolist())


@pytest.mark.parametrize("dtype", [complex, float])
def test_gather_with_multiplicities_matches_naive_expansion(rng, dtype):
    """Columns repeated in blocks: the kernel sums over minus-sign counts per
    block, and equals permanent_naive of the expanded matrix. One block of
    n, all ones, odd pivots ((2, 2, 1, 1) pivots on a 1, (3, 2) on the 3),
    even pivots ((2, 4), (4, 4)), random compositions of n <= 8, and an
    image table either side of a chunk boundary. The gap is taken relative
    to per(|A|), the scale of Glynn's rounding error: a random permanent
    can cancel far below it."""
    cases = [((5,), 7), ((8,), 3), ((1,) * 6, 7), ((2, 2, 1, 1), 7), ((3, 2), 7),
             ((2, 4), 7), ((4, 4), 3)]
    cases += [(random_composition(rng, n), 7 if n < 8 else 3) for n in range(1, 9)]
    boundary = RYSER_TEMP_ELEMENTS // 9
    cases += [((2, 1), boundary - 1), ((1, 2), boundary + 1)]
    for mult, count in cases:
        n = sum(mult)
        w = rng.standard_normal((n, n, len(mult)))
        if dtype is complex:
            w = w + 1j * rng.standard_normal(w.shape)
        images = rng.integers(0, n, (count, n))
        got = permanent_gather_batch(w, images, mult=mult)
        assert got.dtype == complex and got.shape == (count,)
        full = _expanded(w, mult)
        for a, per in zip(full[np.arange(n), images], got):
            scale = permanent_naive(np.abs(a)).real
            assert abs(per - permanent_naive(a)) <= 1e-12 * scale, (mult, count)


def test_sign_pattern_counts():
    """(floor(m_p / 2) + 1) prod_{l != p} (m_l + 1) patterns for the best
    pivot p, 2^(n-1) with every m_l = 1; the plan's low patterns times its
    Gray steps (plus the first) cover them all."""
    expected = {(2, 2, 1, 1): 18, (6,): 4, (3, 3): 8, (2, 4): 9, (4, 2, 1, 1): 30}
    expected.update({(1,) * n: 2 ** (n - 1) for n in range(1, 9)})
    for mult, count in expected.items():
        best = min((m // 2 + 1) * math.prod(k + 1 for k in mult[:p] + mult[p + 1:])
                   for p, m in enumerate(mult))
        assert math.prod(_digits(mult)[2]) == best == count, mult
        for budget in (1, 4, 7, 1 << 14):
            plan = _plan(mult, budget)
            assert len(plan.weights) * (len(plan.walk) + 1) == count
            assert len(plan.weights) <= max(budget, mult[_digits(mult)[0]] // 2 + 1)


def test_gather_with_multiplicities_rejects_bad_input(rng):
    w = rng.standard_normal((4, 4, 2))
    images = inverse_pairs(4).images
    for mult in ((2, 1), (3, 2), (2, 2, 0), (4, 0), (5, -1), (2.5, 1.5), ("2", "2")):
        with pytest.raises(ValidationError, match="multiplicities"):
            permanent_gather_batch(w, images, mult=mult)
    with pytest.raises(ValidationError, match="multiplicities"):
        permanent_gather_batch(w[:, :, :1], images, mult=(4, 0))


def random_gather_source(rng, n, k, dtype):
    real = rng.standard_normal((n, k, n))
    return real + 1j * rng.standard_normal((n, k, n)) if dtype is complex else real


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("n, r, draws", [(1, 2, 3), (3, 2, 2), (4, 3, 3), (5, 5, 2)])
def test_offset_gather_equals_materialised_stack(rng, n, r, draws, dtype):
    # W is (n, K, n) with K = draws r > n, one offset d r per draw; P = D T
    # is 0, 1, a few, and on either side of a chunk boundary (a chunk holds
    # RYSER_TEMP_ELEMENTS // n^2 matrices), with one offset and with several
    k = draws * r
    w = random_gather_source(rng, n, k, dtype)
    rows = np.arange(n)
    boundary = RYSER_TEMP_ELEMENTS // (n * n)
    every, last = np.arange(draws) * r, np.array([k - r])
    cases = [(every, 0), (every[:0], 5), (last, 1), (every, 5), (last, boundary - 1),
             (last, boundary + 1), (every, boundary // draws), (every, boundary // draws + 1)]
    for offsets, count in cases:
        images = rng.integers(0, r, (count, n))
        got = permanent_gather_batch(w, images, offsets)
        want = permanent_ryser_batch(w[rows, (offsets[:, None, None] + images).reshape(-1, n)])
        assert got.dtype == complex and got.shape == want.shape
        # the stack feeder sums the rows of a chunk of one matrix by NumPy's
        # pairwise reduction, so that last permanent may differ in its last bits
        head = len(want) - (len(want) % boundary == 1)
        assert np.array_equal(got[:head], want[:head]), (len(offsets), count)
        assert np.all(np.abs(got[head:] - want[head:]) <= 1e-13 * np.abs(want[head:]))


def test_offset_gather_rejects_bad_input(rng):
    w = random_gather_source(rng, 3, 6, complex)
    images = rng.integers(0, 3, (4, 3))
    offsets = np.array([0, 3])
    for table, shifts in ((images, offsets + 1), (images - 1, offsets), (images, offsets - 1),
                          (images, offsets[:, None]), (images, offsets.astype(float))):
        with pytest.raises(ValidationError):
            permanent_gather_batch(w, table, shifts)
    for bad in (np.nan, np.inf):
        broken = w.copy()
        broken[2, 5, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            permanent_gather_batch(broken, images, offsets)
    for shape in ((3, 6), (3, 6, 2), (2, 6, 3), (1, 3, 6, 3)):
        with pytest.raises(ValidationError, match=r"\(n, K, n\)"):
            permanent_gather_batch(np.zeros(shape), images, offsets)


def test_batch_nonfinite_rejected(rng):
    stack = np.stack([random_complex(rng, 3) for _ in range(4)])
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValidationError):
        permanent_ryser_batch(stack)


def test_laplace_block_diagonal(rng):
    b = random_complex(rng, 2)
    c = random_complex(rng, 3)
    a = np.zeros((5, 5), dtype=complex)
    a[:2, :2] = b
    a[2:, 2:] = c
    assert permanent_laplace(a, 2) == pytest.approx(
        permanent_naive(b) * permanent_naive(c)
    )


def test_laplace_rectangular_zero_block():
    # a k x (n-k+1) all-zero block leaves too few nonzero columns: permanent 0
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a[:2, :3] = 0.0
    assert abs(permanent_laplace(a, 2)) < 1e-14
    assert abs(permanent_naive(a)) < 1e-14


def test_laplace_matches_naive_random_5x5(rng):
    a = random_complex(rng, 5)
    assert permanent_laplace(a, 2) == pytest.approx(permanent_naive(a), abs=1e-12)


def test_laplace_invalid_split(rng):
    with pytest.raises(ValidationError):
        permanent_laplace(random_complex(rng, 3), 3)


small_mats = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@given(small_mats)
@settings(max_examples=40)
def test_row_permutation_invariance(mat):
    a = np.array(mat)
    rolled = np.roll(a, 1, axis=0)
    assert permanent_naive(rolled) == pytest.approx(permanent_naive(a), abs=1e-9)


@given(small_mats)
@settings(max_examples=40)
def test_transpose_invariance(mat):
    a = np.array(mat)
    assert permanent_naive(a.T) == pytest.approx(permanent_naive(a), abs=1e-9)


@given(small_mats)
@settings(max_examples=40)
def test_simultaneous_row_column_permutation(mat):
    a = np.array(mat)
    n = a.shape[0]
    perm = np.roll(np.arange(n), 1)
    b = a[np.ix_(perm, perm)]
    assert permanent_naive(b) == pytest.approx(permanent_naive(a), abs=1e-9)


def test_column_multilinearity(rng):
    a = random_complex(rng, 4)
    c1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    asum, a1, a2 = a.copy(), a.copy(), a.copy()
    asum[:, 2] = c1 + c2
    a1[:, 2] = c1
    a2[:, 2] = c2
    assert permanent_naive(asum) == pytest.approx(
        permanent_naive(a1) + permanent_naive(a2), abs=1e-10
    )


def test_zero_threshold_floor():
    tiny = np.full((3, 3), 1e-8)
    assert zero_threshold(tiny) == pytest.approx(1e-12)


def test_hom_submatrix_vanishes():
    u = fourier(2)
    sub = submatrix(u, (1, 1), (1, 1))
    val = permanent_naive(sub)
    assert abs(val) < zero_threshold(sub)
