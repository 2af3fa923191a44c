"""Matrix permanents: a naive S_n oracle, a Ryser evaluator, and the Laplace
block expansion.

per(A) = sum_sigma prod_alpha A[sigma(alpha), alpha].  The empty matrix has
permanent 1 (empty product), which the Laplace expansion relies on.

Ryser's formula per(A) = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} A[i, j]
runs over every column subset S.  One kernel, ``_ryser``, evaluates it for a
whole (B, n, n) stack: the 2^lo subset sums of the ``lo`` low columns are
formed at once, and a Gray code over the remaining high columns adds or
removes one column per step, so each step multiplies out 2^lo subsets of the
whole batch.  ``lo`` and the batch chunk are chosen from n and B so that the
subset sums and their row products hold at most ``RYSER_TEMP_ELEMENTS``
complex numbers; the transposed copy of a chunk is at most n times that.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import SizeLimitError, ValidationError
from .symgroup import permutation_array

MAX_NAIVE_N = 9
MAX_RYSER_N = 24
RYSER_TEMP_ELEMENTS = 1 << 14   # 256 KiB of complex128 per working array of the kernel


def _check_stack(stack: np.ndarray, ndim: int) -> np.ndarray:
    """``stack`` as a complex array of square matrices (ndim 2 or 3), all finite."""
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != ndim or stack.shape[-1] != stack.shape[-2]:
        expected = "a square matrix" if ndim == 2 else "a (B, n, n) stack"
        raise ValidationError(f"expected {expected}, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValidationError("matrix entries must be finite")
    return stack


def permanent_naive(a: np.ndarray) -> complex:
    """Permanent by direct enumeration of S_n; the oracle for everything else.

    Capped at n <= 9 (n! terms).
    """
    a = _check_stack(a, 2)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > MAX_NAIVE_N:
        raise SizeLimitError(f"permanent_naive capped at n <= {MAX_NAIVE_N}, got {n}")
    perms = permutation_array(n)
    cols = np.arange(n)
    return complex(np.sum(np.prod(a[perms, cols], axis=1)))


def _ryser(stack: np.ndarray) -> np.ndarray:
    """Ryser permanents of a validated (B, n, n) stack."""
    b, n, _ = stack.shape
    if n > MAX_RYSER_N:
        raise SizeLimitError(f"Ryser permanents capped at n <= {MAX_RYSER_N}, got {n}")
    if n == 0:
        return np.ones(b, dtype=complex)
    lo = min(n, max(0, (RYSER_TEMP_ELEMENTS // (n * max(b, 1))).bit_length() - 1))
    chunk = max(1, RYSER_TEMP_ELEMENTS // (n << lo))
    out = np.empty(b, dtype=complex)
    for start in range(0, b, chunk):
        # (column, row, batch): the batch axis last keeps every row product contiguous
        cols = np.ascontiguousarray(stack[start:start + chunk].transpose(2, 1, 0))
        low = np.zeros((1 << lo,) + cols.shape[1:], dtype=complex)
        parity = np.ones(1)
        for j in range(lo):  # subset i of the low columns holds column j iff bit j of i
            low[1 << j:2 << j] = low[:1 << j] + cols[j]
            parity = np.concatenate([parity, -parity])
        high = np.zeros(cols.shape[1:], dtype=complex)
        sums = np.empty_like(low)
        total = np.zeros(cols.shape[2], dtype=complex)
        sign = (-1) ** n
        for k in range(1 << (n - lo)):
            if k:  # Gray step k flips high column c, the lowest set bit of k
                c = (k & -k).bit_length() - 1
                if (k ^ (k >> 1)) >> c & 1:
                    high += cols[lo + c]
                else:
                    high -= cols[lo + c]
                sign = -sign
            np.add(low, high, out=sums)
            total += sign * (parity @ np.prod(sums, axis=1))
        out[start:start + chunk] = total
    return out


def permanent_ryser(a: np.ndarray) -> complex:
    """Ryser inclusion-exclusion, O(2^n n); the batch kernel on a batch of one.

    Matches permanent_naive to 1e-10 relative for n <= 9; capped at n <= 24.
    """
    return complex(_ryser(_check_stack(a, 2)[None])[0])


def permanent_ryser_batch(stack: np.ndarray) -> np.ndarray:
    """Permanents of a (B, n, n) stack; same kernel, validation and cap as
    permanent_ryser. Used by the probability engines for many small
    permanents."""
    return _ryser(_check_stack(stack, 3))


def permanent_laplace(a: np.ndarray, row_split: int) -> complex:
    """Laplace-style block expansion of the permanent.

    Splits rows into [0, k) and [k, n); sums per(top block on columns S)
    times per(bottom block on complementary columns) over all k-subsets S.
    """
    a = _check_stack(a, 2)
    n = a.shape[0]
    if not 1 <= row_split < n:
        raise ValidationError(f"row split must satisfy 1 <= k < n, got k={row_split}, n={n}")
    top, bottom = a[:row_split], a[row_split:]
    all_cols = frozenset(range(n))
    total = 0.0 + 0.0j
    for subset in itertools.combinations(range(n), row_split):
        rest = sorted(all_cols.difference(subset))
        total += _sub_permanent(top[:, list(subset)]) * _sub_permanent(bottom[:, rest])
    return total


def _sub_permanent(a: np.ndarray) -> complex:
    return permanent_naive(a) if a.shape[0] <= MAX_NAIVE_N else permanent_ryser(a)


def zero_threshold(a: np.ndarray) -> float:
    """Scale-aware tolerance under which a permanent counts as exactly zero:
    1e-12 times the product of column max-norms, floored at 1."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 1e-12
    scale = float(np.prod(np.max(np.abs(a), axis=0)))
    return 1e-12 * max(scale, 1.0)


def is_vanishing(value: complex, a: np.ndarray) -> bool:
    """True if ``value`` is below the scale-aware zero threshold of ``a``."""
    return abs(value) < zero_threshold(a)

