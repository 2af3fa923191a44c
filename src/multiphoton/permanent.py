"""Matrix permanents: a naive S_n oracle, a Glynn evaluator, and the Laplace
block expansion.

per(A) = sum_sigma prod_alpha A[sigma(alpha), alpha].  The empty matrix has
permanent 1 (empty product), which the Laplace expansion relies on.

Glynn's formula (Eur. J. Combin. 31, 1887, 2010)

    per(A) = 2^-(n-1) sum_delta (prod_j delta_j) prod_i sum_j delta_j A[i, j]

runs over the 2^(n-1) sign vectors delta in {+1, -1}^n with delta_0 = +1.
When the columns repeat in L blocks, block l holding m_l copies of one
column c_l (sum_l m_l = n), a term depends on delta only through the count
q_l of minus signs in each block, so the sum runs over the counts instead
(the repeated-row Gray code of Clifford & Clifford, arXiv:2005.04214):

    per(A) = 2^-n sum_q prod_l C(m_l, q_l) (-1)^q_l prod_i sum_l (m_l - 2 q_l) c_l[i].

Flipping every sign, q -> m - q, leaves a term unchanged, so the counts of
one pivot block p run over 0 .. floor(m_p / 2) only, a count below m_p / 2
weighing twice. That leaves (floor(m_p / 2) + 1) prod_{l != p} (m_l + 1)
sign patterns, and the pivot is the block that minimises this count (the
first odd block, else the first largest one): 18 for m = (2, 2, 1, 1), 4
for (6,), 8 for (3, 3), and 2^(n-1) when every m_l = 1, which is Glynn's
sum with column 0 as the pivot.

One Gray-code core, ``_glynn``, evaluates the sum for many matrices in
chunks. Each count is a digit, the pivot's first, then the other blocks by
decreasing multiplicity: the patterns of the pivot's digit and of as many
further digits as fit in the budget below are formed at once, and a
reflected mixed-radix Gray code over the remaining digits moves one count
by one per step, which adds or subtracts one doubled column. With every
m_l = 1 these are the 2^lo sign vectors of the ``lo`` columns after column
0 and the binary Gray code over the rest, in the order of Glynn's sum
itself. A bounded cache holds each multiplicity tuple's plan (its low
weights and Gray steps), filled on first use. The working arrays are laid
out (row, pattern, batch), so each step's row products multiply contiguous
(pattern, batch) planes, and they are allocated once per call and reused
for every chunk. A chunk holds at most ``RYSER_TEMP_ELEMENTS // n^2``
matrices and the low digits are chosen so that the signed row sums hold at
most ``RYSER_TEMP_ELEMENTS`` numbers; so do the doubled columns (at most
n - 1 digits), and the two (pattern, batch) products hold 1/n of that
each. The working arrays thus hold at most (2 + 2/n)
``RYSER_TEMP_ELEMENTS`` numbers besides the result, and no step creates an
array of its own; NumPy adds transients: an iteration buffer (at most 8192
numbers) for each broadcast column update, and a copy of the input in the
low-digit loop, whose output overlaps it.

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
  canonical tuple and every tuple over the r span-basis states. Given
  column multiplicities, W is (n, K, L) with one column per block; only
  the tau route passes them, its output's occupied modes. Neither the
  matrices nor a (D T, n) index exist; W, its doubled columns and its row
  sums add at most 2 n^2 K numbers to the same bound.

The arithmetic follows the dtype of the input: a real stack (bool, integer or
float) runs in float64, anything else in complex128.  The public results are
complex either way.
"""

from __future__ import annotations

import itertools
import math
import numbers
from functools import lru_cache
from typing import NamedTuple

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


@lru_cache(maxsize=256)
def _digits(mult: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The pivot block of column multiplicities ``mult``, and the block and
    radix of each digit: minus-sign counts 0 .. floor(m_p / 2) of the pivot
    first, then 0 .. m_l of every other block, by decreasing radix and
    otherwise in block order; radix-1 digits are left out."""
    total = math.prod(m + 1 for m in mult)
    pivot = min(range(len(mult)), key=lambda l: total // (mult[l] + 1) * (mult[l] // 2 + 1))
    others = sorted((l for l in range(len(mult)) if l != pivot), key=lambda l: -mult[l])
    digits = [(pivot, mult[pivot] // 2 + 1)] + [(l, mult[l] + 1) for l in others]
    digits = [d for d in digits if d[1] > 1]
    return pivot, tuple(b for b, _ in digits), tuple(r for _, r in digits)


class _Plan(NamedTuple):
    """How ``_glynn`` walks the sign patterns of one multiplicity tuple:
    the ``low`` digits, as (digit, radix), are vectorised (``weights``, one
    per low pattern, with the prefactor 2^-n), and ``walk`` lists each Gray
    step over the other digits as (digit, subtract, coefficient of the new
    high pattern)."""
    low: tuple[tuple[int, int], ...]
    weights: np.ndarray
    walk: tuple[tuple[int, bool, int], ...]


@lru_cache(maxsize=256)
def _plan(mult: tuple[int, ...], budget: int) -> _Plan:
    """The plan for column multiplicities ``mult`` whose low patterns number
    at most ``budget`` (shared; ``weights`` read-only). A pattern's
    coefficient is prod_l C(m_l, q_l) (-1)^q_l, doubled for a pivot count
    below m_p / 2. The pivot's digit is low, so that the walk starts at
    coefficient 1, and each other digit joins the low ones if their
    patterns still fit; with every m_l = 1 they are the first
    floor(log2 budget)."""
    pivot, blocks, radices = _digits(mult)
    coefs = [[(-1) ** q * math.comb(mult[b], q) * (2 if b == pivot and 2 * q < mult[b] else 1)
              for q in range(r)] for b, r in zip(blocks, radices)]
    low, high, span = [], [], 1
    for j, (b, r) in enumerate(zip(blocks, radices)):
        if b == pivot or span * r <= budget:
            low.append((j, r))
            span *= r
        else:
            high.append(j)
    # low pattern i = q_0 + r_0 (q_1 + r_1 (q_2 + ...)) over the low digits;
    # a radix-1 pivot counts 2
    weights = np.array([2 if mult[pivot] == 1 else 1])
    for j, _ in low:
        weights = np.outer(coefs[j], weights).ravel()
    weights = weights / (1 << sum(mult))
    weights.setflags(write=False)
    # the reflected mixed-radix Gray code of the high digits, first digit
    # fastest (Knuth, TAOCP 7.2.1.1, Algorithm H)
    q, focus, direction = [0] * len(high), list(range(len(high) + 1)), [1] * len(high)
    current = [1] * len(high)
    walk = []
    while (i := focus[0]) < len(high):
        focus[0] = 0
        q[i] += direction[i]
        j = high[i]
        current[i] = coefs[j][q[i]]
        walk.append((j, direction[i] > 0, math.prod(current)))
        if q[i] in (0, radices[j] - 1):
            direction[i] = -direction[i]
            focus[i], focus[i + 1] = focus[i + 1], i + 1
    return _Plan(tuple(low), weights, tuple(walk))


def _glynn(n: int, count: int, dtype, form, mult: tuple[int, ...] | None = None) -> np.ndarray:
    """Glynn permanents of ``count`` n x n matrices in ``dtype``, chunk by
    chunk, whose columns repeat in blocks of multiplicities ``mult`` (n
    distinct columns by default). ``form(start, size, steps, first)`` fills
    the chunk of matrices start .. start + size - 1: ``steps`` (row, digit,
    batch) with 2 x the column of each digit of ``_digits(mult)``, ``first``
    (row, batch) with the row sums sum_l m_l c_l. Both are views, with
    contiguous rows, of working arrays allocated once per call."""
    if n > MAX_RYSER_N:
        raise SizeLimitError(f"permanents capped at n <= {MAX_RYSER_N}, got {n}")
    if n == 0:
        return np.ones(count, dtype=dtype)
    chunk = max(1, min(count, RYSER_TEMP_ELEMENTS // (n * n)))
    mult = mult or (1,) * n
    low, weights, walk = _plan(mult, RYSER_TEMP_ELEMENTS // (n * chunk))
    span, digits = len(weights), len(_digits(mult)[2])
    step_buf = np.empty(n * digits * chunk, dtype=dtype)
    sum_buf = np.empty(n * chunk * span, dtype=dtype)
    acc_buf = np.empty(chunk * span, dtype=dtype)
    prod_buf = np.empty_like(acc_buf)
    out = np.empty(count, dtype=dtype)
    for start in range(0, count, chunk):
        size = min(chunk, count - start)
        steps = step_buf[:n * digits * size].reshape(n, digits, size)
        # signed row sums, (row, pattern, batch): pattern 0 has every sign +1,
        # and each count q of a low digit subtracts its doubled column once more
        sums = sum_buf[:n * size * span].reshape(n, span, size)
        form(start, size, steps, sums[:, 0])
        stride = 1
        for j, radix in low:
            for q in range(1, radix):
                np.subtract(sums[:, (q - 1) * stride:q * stride], steps[:, j, None],
                            out=sums[:, q * stride:(q + 1) * stride])
            stride *= radix
        acc = acc_buf[:size * span].reshape(span, size)
        prods = prod_buf[:size * span].reshape(span, size)
        np.multiply.reduce(sums, axis=0, out=acc)
        for j, subtract, coef in walk:  # each Gray step moves one count by one
            if subtract:
                sums -= steps[:, j, None]
            else:
                sums += steps[:, j, None]
            if coef == -1:
                acc -= np.multiply.reduce(sums, axis=0, out=prods)
            elif coef == 1:
                acc += np.multiply.reduce(sums, axis=0, out=prods)
            else:
                np.multiply.reduce(sums, axis=0, out=prods)
                prods *= coef
                acc += prods
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
                           offsets: np.ndarray | tuple[int, ...] = (0,),
                           mult: tuple[int, ...] | None = None) -> np.ndarray:
    """Permanents of the matrices A_{d T + t}[b, a] = W[b, offsets[d] + images[t, b], a]
    for every offset d and every row t of a (T, n) image table, as a complex
    (D T,) array: the same Glynn kernel, dtype rule and cap as
    permanent_ryser_batch, fed by gathering each chunk's doubled columns and
    row sums from W instead of from a materialised (D T, n, n) stack. W must
    be a finite (n, K, n) array and every gathered index in 0 .. K - 1. The
    default, one zero offset with K = n, gives A_t = W[rows, images[t]].

    With column multiplicities ``mult`` (positive integers summing to n), W
    is (n, K, L) with one column per block: column a of W stands for m_a
    equal columns of each matrix, and the kernel sums over minus-sign counts
    per block (module docstring)."""
    w = np.asarray(w)
    w = w.astype(float if w.dtype.kind in "biuf" else complex, copy=False)
    if w.ndim != 3:
        raise ValidationError(f"expected an (n, K, n) array, got shape {w.shape}")
    n, k, _ = w.shape
    ones = (1,) * n
    mult = ones if mult is None else tuple(mult)
    if (len(mult) != w.shape[2]
            or not all(isinstance(m, numbers.Integral) and m >= 1 for m in mult)
            or sum(mult) != n):
        raise ValidationError(f"expected an (n, K, n) array, or (n, K, L) with L positive integer "
                              f"column multiplicities summing to n, got shape {w.shape} and {mult}")
    mult = tuple(int(m) for m in mult)
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
    # doubled[b, j, c] = 2 W[b, c, a_j] for the block a_j of digit j, and
    # row_sums[b, c] = sum_a m_a W[b, c, a]; distinct columns are summed as
    # the stack feeder sums them, so that both give the same bits
    doubled = w.transpose(0, 2, 1).take(_digits(mult)[1], axis=1)
    doubled *= 2
    if mult == ones:
        row_sums = np.sum(doubled, axis=1)
        row_sums *= 0.5
        row_sums += w[:, :, 0]
    else:
        row_sums = w @ np.array(mult, dtype=float)

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

    return _glynn(n, count, w.dtype, form, mult).astype(complex, copy=False)


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

