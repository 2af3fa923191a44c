"""Matrix permanents: a naive S_n oracle, a Glynn evaluator, and the Laplace
block expansion.

per(A) = sum_sigma prod_alpha A[sigma(alpha), alpha].  The empty matrix has
permanent 1 (empty product), which the Laplace expansion relies on.

Glynn's formula (Eur. J. Combin. 31, 1887, 2010)

    per(A) = 2^-(n-1) sum_delta (prod_j delta_j) prod_i sum_j delta_j A[i, j]

runs over the 2^(n-1) sign vectors delta in {+1, -1}^n with delta_0 = +1.
One kernel, ``_glynn``, evaluates it for a whole (B, n, n) stack: the 2^lo
sign vectors of the ``lo`` columns after column 0 are formed at once, and a
Gray code over the remaining high columns adds or subtracts a precomputed
2 x column per step.  The working arrays are laid out (row, subset, batch), so
each step's row products multiply contiguous (subset, batch) planes.  ``lo``
and the batch chunk are chosen from n and B so that the signed row sums hold
at most ``RYSER_TEMP_ELEMENTS`` numbers; the doubled columns of a chunk are
at most n - 1 times that, and no Gray step allocates.

The arithmetic follows the dtype of the input: a real stack (bool, integer or
float) runs in float64, anything else in complex128.  The public results are
complex either way.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import SizeLimitError, ValidationError
from .symgroup import permutation_array

MAX_NAIVE_N = 9
MAX_RYSER_N = 24
RYSER_TEMP_ELEMENTS = 1 << 14   # 256 KiB of complex128 per working array of the kernel


def _check_stack(stack: np.ndarray, ndim: int) -> np.ndarray:
    """``stack`` as a float64 (real input) or complex128 array of square
    matrices (ndim 2 or 3), all finite."""
    stack = np.asarray(stack)
    stack = stack.astype(float if stack.dtype.kind in "biuf" else complex, copy=False)
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


@lru_cache(maxsize=None)
def _weights(lo: int, n: int) -> np.ndarray:
    """(2^lo,) sign product of the low columns of each subset i (-1 for odd
    bit counts) times Glynn's factor 2^-(n-1) (shared, read-only)."""
    weights = np.array([(-1.0) ** i.bit_count() for i in range(1 << lo)]) / (1 << (n - 1))
    weights.setflags(write=False)
    return weights


def _glynn(stack: np.ndarray) -> np.ndarray:
    """Glynn permanents of a validated (B, n, n) stack, in its own dtype."""
    b, n, _ = stack.shape
    if n > MAX_RYSER_N:
        raise SizeLimitError(f"permanents capped at n <= {MAX_RYSER_N}, got {n}")
    if n == 0:
        return np.ones(b, dtype=stack.dtype)
    lo = min(n - 1, max(0, (RYSER_TEMP_ELEMENTS // (n * max(b, 1))).bit_length() - 1))
    chunk = max(1, RYSER_TEMP_ELEMENTS // (n << lo))
    weights = _weights(lo, n)
    out = np.empty(b, dtype=stack.dtype)
    for start in range(0, b, chunk):
        part = stack[start:start + chunk].transpose(2, 1, 0)  # (column, row, batch) view
        # 2 x every column after column 0, contiguous: the change of one sign flip
        steps = np.multiply(part[1:], 2, order="C")
        # signed row sums, (row, subset, batch): subset 0 has every sign +1, and
        # subset i of the low columns flips column j + 1 iff bit j of i
        sums = np.empty((n, 1 << lo, part.shape[2]), dtype=stack.dtype)
        first = sums[:, 0]
        np.sum(steps, axis=0, out=first)
        first *= 0.5  # exact: halves the doubled sum
        first += part[0]
        for j in range(lo):
            np.subtract(sums[:, :1 << j], steps[j, :, None], out=sums[:, 1 << j:2 << j])
        acc = np.empty(sums.shape[1:], dtype=stack.dtype)
        prods = np.empty_like(acc)
        for k in range(1 << (n - 1 - lo)):
            if k:  # Gray step k flips column lo + 1 + c, c the lowest set bit of k
                c = (k & -k).bit_length() - 1
                if (k ^ (k >> 1)) >> c & 1:
                    sums -= steps[lo + c, :, None]
                else:
                    sums += steps[lo + c, :, None]
            if not k:
                np.prod(sums, axis=0, out=acc)
            elif k & 1:
                acc -= np.prod(sums, axis=0, out=prods)
            else:
                acc += np.prod(sums, axis=0, out=prods)
        out[start:start + chunk] = weights @ acc
    return out


def permanent_ryser(a: np.ndarray) -> complex:
    """Permanent by the Glynn kernel, O(2^(n-1) n); the batch kernel on a
    batch of one. Real input runs in real arithmetic; the result is complex.

    The name is kept for the public API and the benchmark tracer. Matches
    permanent_naive to 1e-10 relative for n <= 9; capped at n <= 24.
    """
    return complex(_glynn(_check_stack(a, 2)[None])[0])


def permanent_ryser_batch(stack: np.ndarray) -> np.ndarray:
    """Permanents of a (B, n, n) stack as a complex (B,) array; same Glynn
    kernel, dtype rule, validation and cap as permanent_ryser, whose name it
    shares for the same reason. Used by the probability engines for many
    small permanents."""
    return _glynn(_check_stack(stack, 3)).astype(complex, copy=False)


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

