import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiphoton.errors import SizeLimitError, ValidationError
from multiphoton.network import fourier, submatrix
from multiphoton.permanent import (
    RYSER_TEMP_ELEMENTS,
    is_vanishing,
    permanent_laplace,
    permanent_naive,
    permanent_ryser,
    permanent_ryser_batch,
    zero_threshold,
)


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
    assert is_vanishing(val, sub)
