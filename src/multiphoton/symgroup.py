"""Permutations of N elements: enumeration, cycle structure, mode subgroups,
and the cycle index polynomial.

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


@lru_cache(maxsize=None)
def _image_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    # n = 0 is allowed internally (S_0 has one empty permutation), so the
    # probability engines handle vacuum inputs uniformly
    if not 0 <= n <= MAX_ENUM_N:
        raise SizeLimitError(f"full S_N enumeration capped at N <= {MAX_ENUM_N}, got {n}")
    # itertools.permutations yields lexicographic order for sorted input
    return tuple(itertools.permutations(range(n)))


def enumerate_permutations(n: int) -> list[Permutation]:
    """All N! permutations in lexicographic order of image arrays.

    The position in this list is the canonical index used by every
    N!-indexed structure in the package.
    """
    if n < 1:
        raise SizeLimitError("enumeration needs 1 <= N")
    return [Permutation(t) for t in _image_tuples(n)]


@lru_cache(maxsize=None)
def permutation_array(n: int) -> np.ndarray:
    """(N!, N) int array of images in canonical order (shared, read-only)."""
    arr = np.array(_image_tuples(n), dtype=np.intp)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _index_map(n: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(_image_tuples(n))}


def permutation_index(sigma: Permutation | Sequence[int]) -> int:
    """Canonical index of a permutation in the lexicographic enumeration."""
    images = sigma.images if isinstance(sigma, Permutation) else tuple(sigma)
    return _index_map(len(images))[images]


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


def cycle_index(n: int, a: Sequence[complex]) -> complex:
    """Cycle index Z_N(a_1, ..., a_N) = (1/N!) sum_sigma prod_k a_k^{C_k(sigma)}.

    Evaluated over cycle types with class-size weights; the enumeration-based
    definition is asserted equal in the tests.
    """
    if n > MAX_ENUM_N:
        raise SizeLimitError(f"cycle_index capped at N <= {MAX_ENUM_N}")
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
    arr1 = np.asarray(s1, dtype=np.intp)
    arr2 = np.asarray(s2, dtype=np.intp)
    rel = arr2[np.argsort(arr1)]
    n = len(rel)
    seen = np.zeros(n, dtype=bool)
    counts = [0] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        a = start
        while not seen[a]:
            seen[a] = True
            a = rel[a]
            length += 1
        counts[length - 1] += 1
    return tuple(counts)
