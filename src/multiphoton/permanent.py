"""Matrix permanents: a naive S_n oracle, a Glynn evaluator, and the Laplace
block expansion.

per(A) = sum_sigma prod_alpha A[sigma(alpha), alpha].  The empty matrix has
permanent 1 (empty product), which the Laplace expansion relies on.

Glynn's formula (Eur. J. Combin. 31, 1887, 2010)

    per(A) = 2^-(n-1) sum_delta (prod_j delta_j) prod_i sum_j delta_j A[i, j]

runs over the 2^(n-1) sign vectors delta in {+1, -1}^n with delta_0 = +1.
One Gray-code core, ``_glynn``, evaluates it for many matrices in chunks: the
2^lo sign vectors of the ``lo`` columns after column 0 are formed at once,
and a Gray code over the remaining high columns adds or subtracts a doubled
column per step.  The working arrays are laid out (row, subset, batch), so
each step's row products multiply contiguous (subset, batch) planes, and
they are allocated once per call and reused for every chunk.  A chunk holds
at most ``RYSER_TEMP_ELEMENTS // n^2`` matrices and ``lo`` is chosen so that
the signed row sums hold at most ``RYSER_TEMP_ELEMENTS`` numbers; so do the
doubled columns, and the two (subset, batch) products hold 1/n of that each.
The working arrays thus hold at most (2 + 2/n) ``RYSER_TEMP_ELEMENTS``
numbers besides the result, and no step creates an array of its own; NumPy
adds transients: an iteration buffer (at most 8192 numbers) for each
broadcast column update, and a copy of the input in the low-column loop,
whose output overlaps it.

Two feeders fill a chunk's doubled columns and row sums:

* ``permanent_ryser`` and ``permanent_ryser_batch`` read them from a (B, n, n)
  stack that the caller holds; the kernel adds the working arrays and the
  (B,) result to it;
* ``permanent_gather_batch`` gathers them from an (n, K, n) array W for the
  D T matrices A_{d T + t}[b, a] = W[b, offsets[d] + images[t, b], a] of D
  offsets and a (T, n) image table, forming each chunk's indices in turn:
  the tau route passes K = n, one zero offset and the permutation images
  tau_t, the product fold one offset d r per draw and the basis tuples of
  rank r, the tensor route of the general engine one offset t r per
  canonical tuple and every tuple over the r span-basis states. Neither
  the matrices nor a (D T, n) index exist; W, its doubled columns and its
  row sums add 2 n^2 K numbers to the same bound.

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


def _glynn(n: int, count: int, dtype, form) -> np.ndarray:
    """Glynn permanents of ``count`` n x n matrices in ``dtype``, chunk by
    chunk. ``form(start, size, steps, first)`` fills the chunk of matrices
    start .. start + size - 1: ``steps`` (row, column, batch) with 2 x every
    column after column 0, ``first`` (row, batch) with the row sums. Both are
    views, with contiguous rows, of working arrays allocated once per call."""
    if n > MAX_RYSER_N:
        raise SizeLimitError(f"permanents capped at n <= {MAX_RYSER_N}, got {n}")
    if n == 0:
        return np.ones(count, dtype=dtype)
    chunk = max(1, min(count, RYSER_TEMP_ELEMENTS // (n * n)))
    lo = min(n - 1, (RYSER_TEMP_ELEMENTS // (n * chunk)).bit_length() - 1)
    weights = _weights(lo, n)
    step_buf = np.empty(n * (n - 1) * chunk, dtype=dtype)
    sum_buf = np.empty((n * chunk) << lo, dtype=dtype)
    acc_buf = np.empty(chunk << lo, dtype=dtype)
    prod_buf = np.empty_like(acc_buf)
    out = np.empty(count, dtype=dtype)
    for start in range(0, count, chunk):
        size = min(chunk, count - start)
        steps = step_buf[:n * (n - 1) * size].reshape(n, n - 1, size)
        # signed row sums, (row, subset, batch): subset 0 has every sign +1, and
        # subset i of the low columns flips column j + 1 iff bit j of i
        sums = sum_buf[:(n * size) << lo].reshape(n, 1 << lo, size)
        form(start, size, steps, sums[:, 0])
        for j in range(lo):
            np.subtract(sums[:, :1 << j], steps[:, j, None], out=sums[:, 1 << j:2 << j])
        acc = acc_buf[:size << lo].reshape(1 << lo, size)
        prods = prod_buf[:size << lo].reshape(1 << lo, size)
        for k in range(1 << (n - 1 - lo)):
            if k:  # Gray step k flips column lo + 1 + c, c the lowest set bit of k
                c = (k & -k).bit_length() - 1
                if (k ^ (k >> 1)) >> c & 1:
                    sums -= steps[:, lo + c, None]
                else:
                    sums += steps[:, lo + c, None]
            if not k:
                np.multiply.reduce(sums, axis=0, out=acc)
            elif k & 1:
                acc -= np.multiply.reduce(sums, axis=0, out=prods)
            else:
                acc += np.multiply.reduce(sums, axis=0, out=prods)
        np.matmul(weights, acc, out=out[start:start + size])
    return out


def _glynn_stack(stack: np.ndarray) -> np.ndarray:
    """Glynn permanents of a validated (B, n, n) stack, in its own dtype."""
    b, n, _ = stack.shape

    def form(start, size, steps, first):
        part = stack[start:start + size].transpose(1, 2, 0)  # (row, column, batch) view
        np.multiply(part[:, 1:], 2, out=steps)
        np.sum(steps, axis=1, out=first)
        first *= 0.5  # exact: halves the doubled sum
        first += part[:, 0]

    return _glynn(n, b, stack.dtype, form)


def permanent_ryser(a: np.ndarray) -> complex:
    """Permanent by the Glynn kernel, O(2^(n-1) n); the batch kernel on a
    batch of one. Real input runs in real arithmetic; the result is complex.

    The name is kept for the public API and the benchmark tracer. Matches
    permanent_naive to 1e-10 relative for n <= 9; capped at n <= 24.
    """
    return complex(_glynn_stack(_check_stack(a, 2)[None])[0])


def permanent_ryser_batch(stack: np.ndarray) -> np.ndarray:
    """Permanents of a (B, n, n) stack as a complex (B,) array; same Glynn
    kernel, dtype rule, validation and cap as permanent_ryser, whose name it
    shares for the same reason: the public entry point for a stack that the
    caller holds. The engines gather their matrices instead
    (``permanent_gather_batch``)."""
    return _glynn_stack(_check_stack(stack, 3)).astype(complex, copy=False)


def permanent_gather_batch(w: np.ndarray, images: np.ndarray,
                           offsets: np.ndarray | tuple[int, ...] = (0,)) -> np.ndarray:
    """Permanents of the matrices A_{d T + t}[b, a] = W[b, offsets[d] + images[t, b], a]
    for every offset d and every row t of a (T, n) image table, as a complex
    (D T,) array: the same Glynn kernel, dtype rule and cap as
    permanent_ryser_batch, fed by gathering each chunk's doubled columns and
    row sums from W instead of from a materialised (D T, n, n) stack. W must
    be a finite (n, K, n) array and every gathered index in 0 .. K - 1. The
    default, one zero offset with K = n, gives A_t = W[rows, images[t]]."""
    w = np.asarray(w)
    w = w.astype(float if w.dtype.kind in "biuf" else complex, copy=False)
    if w.ndim != 3 or w.shape[0] != w.shape[2]:
        raise ValidationError(f"expected an (n, K, n) array, got shape {w.shape}")
    n, k, _ = w.shape
    images, offsets = np.asarray(images), np.asarray(offsets)
    if (images.ndim != 2 or images.shape[1] != n or offsets.ndim != 1
            or images.dtype.kind not in "iu" or offsets.dtype.kind not in "iu"):
        raise ValidationError(f"expected a (T, {n}) integer image table and (D,) integer "
                              f"offsets, got {images.dtype} {images.shape} and "
                              f"{offsets.dtype} {offsets.shape}")
    count = len(offsets) * len(images)
    if count and n and (int(offsets.min()) + int(images.min()) < 0
                        or int(offsets.max()) + int(images.max()) >= k):
        raise ValidationError(f"gathered indices must lie in 0 .. {k - 1}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("matrix entries must be finite")
    if n == 0:
        return np.ones(count, dtype=complex)
    images, offsets = images.astype(np.intp, copy=False), offsets.astype(np.intp, copy=False)
    # doubled[b, a - 1, c] = 2 W[b, c, a] and row_sums[b, c] = sum_a W[b, c, a],
    # summed as the stack feeder sums its doubled columns
    doubled = np.multiply(w.transpose(0, 2, 1)[:, 1:], 2, order="C")
    row_sums = np.sum(doubled, axis=1)
    row_sums *= 0.5
    row_sums += w[:, :, 0]

    def form(start, size, steps, first):
        index = np.empty((n, size), dtype=np.intp)
        draw, row = divmod(start, len(images))
        if row + size <= len(images):  # the chunk lies in the rows of one offset
            np.add(images[row:row + size].T, offsets[draw], out=index)
        else:
            draw, row = np.divmod(np.arange(start, start + size), len(images))
            np.add(images[row].T, offsets[draw], out=index)
        for b in range(n):
            doubled[b].take(index[b], axis=1, out=steps[b], mode="clip")
            row_sums[b].take(index[b], out=first[b], mode="clip")

    return _glynn(n, count, w.dtype, form).astype(complex, copy=False)


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

