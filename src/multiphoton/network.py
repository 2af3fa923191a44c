"""Unitary network matrices, occupation vectors, submatrix selection and
output-configuration enumeration.

Mode indices are 0-based everywhere, including file formats.
"""

from __future__ import annotations

import json
import math
import numbers
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import SizeLimitError, ValidationError

USER_UNITARITY_TOL = 1e-8
MAX_OUTPUT_CONFIGS = 10**6


def unitarity_deviation(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _check_tolerance(tol: float) -> None:
    """A unitarity tolerance must be a finite number >= 0: NaN or inf would
    pass every network, and a negative one none."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"unitarity tolerance must be finite and >= 0, got {tol!r}")


def validate_network(u: np.ndarray, tol: float = USER_UNITARITY_TOL) -> np.ndarray:
    """Check the tolerance, then shape, finiteness and unitarity; the matrix
    is reported, never repaired."""
    _check_tolerance(tol)
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"network matrix must be square, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValidationError("network matrix entries must be finite")
    dev = unitarity_deviation(u)
    if dev > tol:
        raise ValidationError(f"network matrix is not unitary: max |U†U - I| = {dev:.3e} > {tol:g}")
    return u


def fourier(m: int) -> np.ndarray:
    """Fourier interferometer, entries exp(2*pi*i*k*l/m)/sqrt(m)."""
    if m < 1:
        raise ValidationError("need m >= 1")
    k = np.arange(m)
    return np.exp(2j * np.pi * np.outer(k, k) / m) / np.sqrt(m)


def random_unitary(m: int, seed: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix with the R-diagonal
    phase fixed. Deterministic for a fixed seed."""
    if m < 1:
        raise ValidationError("need m >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def check_occupation(occ: Sequence[int], modes: int | None = None) -> tuple[int, ...]:
    """``occ`` as a checked tuple of ints; a tuple of ints is returned itself,
    so results keep the caller's tuple (``enumerate_outputs`` shares them).
    Integers of any kind and integral floats such as 1.0 are accepted; any
    other entry raises ValidationError, never rounds."""
    if type(occ) is not tuple or any(type(x) is not int for x in occ):
        occ = tuple(_occupation_number(x) for x in occ)
    if any(x < 0 for x in occ):
        raise ValidationError(f"occupation numbers must be nonnegative: {occ}")
    if modes is not None and len(occ) != modes:
        raise ValidationError(f"occupation vector has {len(occ)} modes, network has {modes}")
    return occ


def _occupation_number(x) -> int:
    if isinstance(x, numbers.Integral) or (isinstance(x, numbers.Real) and float(x).is_integer()):
        return int(x)
    raise ValidationError(f"occupation numbers must be integers, got {x!r}")


def mode_list(occ: Sequence[int]) -> tuple[int, ...]:
    """Naturally ordered mode list: mode k repeated n_k times, ascending."""
    out: list[int] = []
    for k, c in enumerate(occ):
        out.extend([k] * int(c))
    return tuple(out)


def mu(occ: Sequence[int]) -> int:
    """Multiplicity factor mu(n) = prod_k n_k!."""
    p = 1
    for c in occ:
        p *= math.factorial(int(c))
    return p


def submatrix(u: np.ndarray, n_occ: Sequence[int], m_occ: Sequence[int]) -> np.ndarray:
    """U[n|m]: rows picked (with repetition) by the input mode list, columns
    by the output mode list."""
    u = np.asarray(u, dtype=complex)
    n_occ = check_occupation(n_occ, u.shape[0])
    m_occ = check_occupation(m_occ, u.shape[0])
    if sum(n_occ) != sum(m_occ):
        raise ValidationError(f"photon number mismatch: |n|={sum(n_occ)} vs |m|={sum(m_occ)}")
    return u[np.ix_(mode_list(n_occ), mode_list(m_occ))]


def output_count(m: int, n: int) -> int:
    return math.comb(m + n - 1, n)


def enumerate_outputs(m: int, n: int) -> list[tuple[int, ...]]:
    """All compositions of n into m nonnegative parts.

    Canonical order is descending-lexicographic (first mode filled first),
    e.g. M=2, N=2 -> [(2,0), (1,1), (0,2)]. Calls with the same (m, n) share
    the tuples (the last 16 pairs are kept), and so do the results of the
    sweeps that keep them.
    """
    if m < 1:
        raise ValidationError("need at least one mode")
    count = output_count(m, n)
    if count > MAX_OUTPUT_CONFIGS:
        raise SizeLimitError(
            f"{count} output configurations exceed the cap of {MAX_OUTPUT_CONFIGS}"
        )
    return list(_compositions(m, n))


@lru_cache(maxsize=16)
def _compositions(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    def rec(modes: int, left: int):
        if modes == 1:
            yield (left,)
            return
        for first in range(left, -1, -1):
            for rest in rec(modes - 1, left - first):
                yield (first,) + rest

    return tuple(rec(m, n))


# -- JSON I/O ----------------------------------------------------------------

def _complex_from_pair(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def network_from_dict(data: dict, tol: float = USER_UNITARITY_TOL) -> np.ndarray:
    try:
        m = int(data["m"])
        rows = data["rows"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"network file needs 'm' and 'rows': {exc}") from exc
    if len(rows) != m or any(len(r) != m for r in rows):
        raise ValidationError("network 'rows' must be an m x m array of [re, im] pairs")
    u = np.array([[_complex_from_pair(e) for e in row] for row in rows])
    return validate_network(u, tol)


def network_to_dict(u: np.ndarray) -> dict:
    u = np.asarray(u, dtype=complex)
    return {
        "m": u.shape[0],
        "rows": [[[z.real, z.imag] for z in row] for row in u],
    }


def load_network(path: str, tol: float = USER_UNITARITY_TOL) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_dict(json.load(fh), tol)


def parse_network_source(source: str, tol: float = USER_UNITARITY_TOL) -> np.ndarray:
    """Accepts 'fourier:M', 'haar:M:seed', or a JSON file path; refuses a
    tolerance that ``validate_network`` would refuse, whatever the source."""
    _check_tolerance(tol)
    if source.startswith("fourier:"):
        return fourier(int(source.split(":", 1)[1]))
    if source.startswith("haar:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise ValidationError("haar source must look like 'haar:M:seed'")
        return random_unitary(int(parts[1]), int(parts[2]))
    return load_network(source, tol)
