"""Permutations of N elements: enumeration, cycle structure, mode subgroups,
and the cycle index polynomial.

S_N lives in one cached (N!, N) array, ``permutation_array``, whose rows
are ranked without a table by their Lehmer code (``permutation_index``).
On it, ``cycle_table`` holds the distinct cycles and each permutation's
cycle ids (read by ``cycle_type_positions`` and mixed J builds), and
``inverse_pairs`` one representative of every pair {tau, tau^-1}, over which
the tau route of ``prob_jmatrix`` sums. ``relative_cycle_type`` and
``cycle_index`` walk cycles and partitions instead: no table, no cap.

Conventions (fixed once, relied on everywhere):

* a permutation is stored as its image array, ``sigma.images[a] == sigma(a)``,
  0-based;
* composition is ``(s1 * s2)(a) == s1(s2(a))``;
* the canonical order of S_N is lexicographic on image arrays, and every
  N!-indexed structure in the package (J matrices, path-amplitude vectors)
  uses positions in that order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import SizeLimitError, ValidationError

MAX_ENUM_N = 10


class Permutation:
    """Element of S_N, stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValidationError(f"not a permutation of 0..{n - 1}: {images}")
        self.images = images

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, a: int) -> int:
        return self.images[a]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (s1 s2)(a) = s1(s2(a))
        return Permutation(tuple(self.images[b] for b in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for a, b in enumerate(self.images):
            inv[b] = a
        return Permutation(inv)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation{self.images}"

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles covering all indices, each starting at its
        smallest element and following a -> sigma(a)."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Counts (C_1, ..., C_N) where C_k is the number of k-cycles."""
        n = len(self.images)
        counts = [0] * n
        for cyc in self.cycles():
            counts[len(cyc) - 1] += 1
        return tuple(counts)


def identity(n: int) -> Permutation:
    return Permutation(range(n))


def enumerate_permutations(n: int) -> list[Permutation]:
    """All N! permutations in lexicographic order of image arrays.

    The position in this list is the canonical index used by every
    N!-indexed structure in the package.
    """
    if n < 1:
        raise SizeLimitError("enumeration needs 1 <= N")
    return [Permutation(t) for t in permutation_array(n).tolist()]


@lru_cache(maxsize=None)
def permutation_array(n: int) -> np.ndarray:
    """(N!, N) int array of images in canonical order (shared, read-only):
    S_k is, for each first image f, S_(k-1) with entries >= f shifted up."""
    # n = 0 is allowed internally (S_0 has one empty permutation), so the
    # probability engines handle vacuum inputs uniformly
    if not 0 <= n <= MAX_ENUM_N:
        raise SizeLimitError(f"full S_N enumeration capped at N <= {MAX_ENUM_N}, got {n}")
    arr = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k), len(arr))[:, None]
        rest = np.tile(arr, (k, 1))
        rest += rest >= first
        arr = np.hstack((first, rest))
    arr.setflags(write=False)
    return arr


def _lehmer_rank(images: np.ndarray) -> np.ndarray:
    """Canonical positions of image arrays along the last axis: Lehmer digit a
    counts the later images smaller than image a, read in factorial base."""
    n = images.shape[-1]
    a = np.arange(n)
    factorials = np.array([math.factorial(n - 1 - k) for k in a], dtype=np.intp)
    weights = (a[:, None] < a) * factorials[:, None]  # pair (a, b), b later: (N-1-a)!
    return np.einsum("...ab,ab->...", images[..., :, None] > images[..., None, :], weights)


def permutation_index(sigma: Permutation | Sequence[int]) -> int:
    """Canonical index of a permutation in the lexicographic enumeration."""
    images = sigma.images if isinstance(sigma, Permutation) else Permutation(sigma).images
    if len(images) > MAX_ENUM_N:
        raise SizeLimitError(f"permutation_index capped at N <= {MAX_ENUM_N}, got {len(images)}")
    return int(_lehmer_rank(np.array(images, dtype=np.intp)))


def cycle_decomposition(sigma: Permutation) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Disjoint cycles and the cycle type of ``sigma``."""
    return sigma.cycles(), sigma.cycle_type()


def mode_subgroup_blocks(occupation: Sequence[int]) -> list[tuple[int, ...]]:
    """Slot-index blocks of the input-mode subgroup for an occupation vector.

    Slot indices 0..N-1 refer to the naturally ordered mode list (mode k
    repeated n_k times, ascending); block b collects the slots of one mode.
    """
    blocks = []
    pos = 0
    for count in occupation:
        if count < 0:
            raise ValidationError("occupation numbers must be nonnegative")
        if count:
            blocks.append(tuple(range(pos, pos + count)))
            pos += count
    return blocks


def subgroup_members(occupation: Sequence[int]) -> list[Permutation]:
    """All mu(n) = prod n_k! permutations that fix each input-mode block setwise."""
    n = int(sum(occupation))
    if n > MAX_ENUM_N:
        raise SizeLimitError(f"subgroup enumeration capped at N <= {MAX_ENUM_N}")
    blocks = mode_subgroup_blocks(occupation)
    members = []
    per_block = [list(itertools.permutations(b)) for b in blocks]
    for choice in itertools.product(*per_block):
        images = [0] * n
        for block, perm_block in zip(blocks, choice):
            for src, dst in zip(block, perm_block):
                images[src] = dst
        members.append(Permutation(images))
    members.sort(key=lambda p: p.images)
    return members


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n in decreasing-part order."""
    if n == 0:
        yield ()
        return

    def rec(rest: int, largest: int):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, largest), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail

    yield from rec(n, n)


def cycle_types(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Cycle types of S_n with their class sizes N!/prod(k^C_k C_k!).

    Cycle-type-only path: no enumeration cap.
    """
    nfact = math.factorial(n)
    for part in partitions(n):
        counts = [0] * n
        for p in part:
            counts[p - 1] += 1
        size = nfact
        for k, c in enumerate(counts, start=1):
            size //= k**c * math.factorial(c)
        yield tuple(counts), size


@dataclass(frozen=True)
class CycleTable:
    """The distinct cycles of S_N and the cycles of every permutation.

    Cycle c is the sequence (a_1, ..., a_k) with a_1 its smallest element and
    a_{j+1} = tau(a_j). Ids run in order of length k, the fixed point (a) has
    id a, and dropping a_k leaves the cycle ``parent[c]`` of length k - 1, so
    a product along every cycle takes one step from its parent's product.
    """

    length: np.ndarray  # (C,) k, nondecreasing
    last: np.ndarray    # (C,) a_k
    parent: np.ndarray  # (C,) id of (a_1, ..., a_{k-1}), -1 for k = 1
    ids: np.ndarray     # (N!, N) cycle ids of each tau in canonical order, padded with C


@lru_cache(maxsize=None)
def cycle_table(n: int) -> CycleTable:
    """Cycle table of S_N (shared, read-only): sum_k C(N, k) (k-1)! distinct
    cycles, 415 at N = 6 and 16072 at N = 8."""
    perms = permutation_array(n)
    rows = np.arange(n)
    radix = (n + 1) ** np.arange(n, dtype=np.int64)
    # the cycle through a, coded by the base-(N+1) digits a_1 + 1, a_2 + 1, ...
    # (a_1 = a), for every start a of every tau at once: N steps of tau
    code = np.zeros(perms.shape, dtype=np.int64)
    image = smallest = np.broadcast_to(rows, perms.shape)
    unclosed = np.ones(perms.shape, dtype=bool)
    for step in range(n):
        code += unclosed * (image + 1) * radix[step]
        image = np.take_along_axis(perms, image, axis=1)
        smallest = np.minimum(smallest, image)
        unclosed &= image != rows
    starts = smallest == rows  # a is the smallest element of its cycle
    codes, ids_of_starts = np.unique(code[starts], return_inverse=True)
    ids = np.full(perms.shape, len(codes), dtype=np.intp)
    ids[starts] = ids_of_starts
    # a longer cycle has a larger code, and so has a cycle than its parent
    digits = codes[:, None] // radix % (n + 1)
    length = np.count_nonzero(digits, axis=1)
    last = digits[np.arange(len(codes)), length - 1] - 1
    parent = np.where(length > 1,
                      np.searchsorted(codes, codes - (last + 1) * radix[length - 1]), -1)
    for arr in (length, last, parent, ids):
        arr.setflags(write=False)
    return CycleTable(length=length, last=last, parent=parent, ids=ids)


@dataclass(frozen=True)
class InversePairs:
    """One representative of every pair {tau, tau^-1} of S_N: the member
    with the smaller canonical position. An involution (tau = tau^-1) is its
    own pair."""

    positions: np.ndarray   # (R,) canonical positions, ascending
    images: np.ndarray      # (R, N) image arrays of the representatives
    involution: np.ndarray  # (R,) bool, tau = tau^-1


@lru_cache(maxsize=None)
def inverse_pairs(n: int) -> InversePairs:
    """Inverse-pair table of S_N (shared, read-only): 398 representatives of
    720 at N = 6, 20542 of 40320 at N = 8. The canonical position of tau^-1
    is the Lehmer rank of its image array, so no N^N code table is needed."""
    perms = permutation_array(n)
    inverse_position = _lehmer_rank(np.argsort(perms, axis=1))
    positions = np.flatnonzero(np.arange(len(perms)) <= inverse_position)
    involution = inverse_position[positions] == positions
    images = perms[positions]
    for arr in (positions, images, involution):
        arr.setflags(write=False)
    return InversePairs(positions=positions, images=images, involution=involution)


@lru_cache(maxsize=None)
def cycle_type_positions(n: int) -> np.ndarray:
    """(N!,) position in ``cycle_types(n)`` of the cycle type of every
    permutation, in canonical order (shared, read-only)."""
    table = cycle_table(n)
    base = (n + 1) ** np.arange(n)  # cycle type (C_1, ..., C_N) as a base-(N+1) code
    codes = np.append(base[table.length - 1], 0)[table.ids].sum(axis=1)
    type_codes = np.array([sum(c * (n + 1) ** i for i, c in enumerate(ct))
                           for ct, _ in cycle_types(n)])
    order = np.argsort(type_codes)
    out = order[np.searchsorted(type_codes, codes, sorter=order)]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def relative_positions(n: int) -> np.ndarray:
    """(N!, N!) canonical position of s2 s1^-1 at [position of s1, position
    of s2] (shared, read-only). It indexes an N^N-code table, so callers keep
    N small (dense J: N <= 6)."""
    perms = permutation_array(n)
    radix = n ** np.arange(n)
    position = np.empty(n**n, dtype=np.intp)
    position[perms @ radix] = np.arange(len(perms))
    # sum_a (s2 s1^-1)(a) N^a = sum_b s2(b) N^(s1(b))
    out = position[radix[perms] @ perms.T]
    out.setflags(write=False)
    return out


def cycle_index(n: int, a: Sequence[complex]) -> complex:
    """Cycle index Z_N(a_1, ..., a_N) = (1/N!) sum_sigma prod_k a_k^{C_k(sigma)}.

    Evaluated over cycle types with class-size weights; the enumeration-based
    definition is asserted equal in the tests.
    """
    if len(a) < n:
        raise ValidationError(f"need {n} indeterminate values, got {len(a)}")
    total = 0.0 + 0.0j
    for counts, size in cycle_types(n):
        term = complex(size)
        for k, c in enumerate(counts, start=1):
            if c:
                term *= a[k - 1] ** c
        total += term
    return total / math.factorial(n)


def relative_cycle_type(s1: Sequence[int], s2: Sequence[int]) -> tuple[int, ...]:
    """Cycle type of s2 ∘ s1^{-1}, the relative permutation indexing
    cycle-compressed J matrices."""
    return (Permutation(s2) * Permutation(s1).inverse()).cycle_type()
