"""Reference probabilities that share no algorithm with the timed engines.

* ``glynn`` evaluates permanents by Glynn's formula over sign vectors, where
  every library kernel uses Ryser's inclusion-exclusion in Gray-code order.
* ``gaussian_overlap`` is the detector-weighted overlap of two Gaussian wave
  packets with a common centre and width, derived here by completing the
  square in the frequency integral instead of calling the library's spectral
  layer.
* ``tau_sum_probability`` writes X^dagger J X as a sum of N! permanents
  (Shchesnovich, PRA 91, 013844, 2015; Tichy, PRA 91, 022316, 2015): with
  tau = s2 s1^-1,  P = (1 / (mu(n) mu(m))) sum_tau per(A_tau),
  A_tau[b, a] = conj(U[k_b, l_a]) U[k_tau(b), l_a] G_{l_a}[b, tau(b)].
  It builds no J matrix and forms no quadratic form.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def glynn(stack: np.ndarray) -> np.ndarray:
    """Permanents of a (B, n, n) stack by Glynn's formula:
    per(A) = 2^(1-n) sum_d (prod_k d_k) prod_j sum_i d_i A[i, j], d_0 = +1."""
    stack = np.asarray(stack, dtype=complex)
    b, n, _ = stack.shape
    if n == 0:
        return np.ones(b, dtype=complex)
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)[None, :]) & 1
    delta = np.concatenate([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits], axis=1)
    sign = np.prod(delta, axis=1)
    combos = (delta @ stack.transpose(1, 2, 0).reshape(n, n * b)).reshape(-1, n, b)
    terms = combos[:, 0, :].copy()
    for j in range(1, n):  # numpy's product reduction over a short inner axis is slow
        terms *= combos[:, j, :]
    return (sign @ terms) / float(1 << (n - 1))


def gaussian_overlap(t_a: float, t_b: float, omega: float, delta: float, det) -> complex:
    """<phi_a| Gamma |phi_b> for Gaussian packets that differ only in arrival
    time; phi(w) = (2 pi delta^2)^(-1/4) exp(i w t - (w - omega)^2 / (4 delta^2)).

    conj(phi_a) phi_b is a normal density in w times exp(i w (t_b - t_a)); a
    Gaussian band multiplies it by another Gaussian, which only moves the
    centre and narrows the width, so the integral is a characteristic
    function."""
    gap = t_b - t_a
    if det.kind == "flat":
        return det.eta * np.exp(1j * omega * gap - 0.5 * delta**2 * gap**2)
    if det.kind == "gaussianBand":
        var = delta**2 * det.width**2 / (delta**2 + det.width**2)
        centre = (omega * det.width**2 + det.center * delta**2) / (delta**2 + det.width**2)
        weight = det.peak * math.sqrt(var) / delta * math.exp(
            -((omega - det.center) ** 2) / (2.0 * (delta**2 + det.width**2)))
        return weight * np.exp(1j * centre * gap - 0.5 * var * gap**2)
    raise ValueError(f"no reference overlap for detector kind {det.kind!r}")


def detector_grams(times, omega: float, delta: float, detectors) -> list[np.ndarray]:
    """One (N, N) overlap matrix per detector, photons ordered by slot."""
    return [
        np.array([[gaussian_overlap(ta, tb, omega, delta, det) for tb in times] for ta in times])
        for det in detectors
    ]


def occupation_modes(occ) -> list[int]:
    """Mode k repeated occ[k] times, ascending."""
    return [k for k, c in enumerate(occ) for _ in range(c)]


def multiplicity(occ) -> int:
    return math.prod(math.factorial(c) for c in occ)


@functools.lru_cache(maxsize=None)
def permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def tau_sum_probability(u: np.ndarray, n_occ, m_occ, grams_by_mode) -> float:
    """P(m|n) for single photons in pure states; ``grams_by_mode[l]`` is the
    photon overlap matrix under the detector on output mode l."""
    ks, ls = occupation_modes(n_occ), occupation_modes(m_occ)
    n = len(ks)
    taus = permutations(n)
    usub = u[np.ix_(ks, ls)]  # usub[b, a] = U[k_b, l_a]
    slot_grams = np.stack([grams_by_mode[l] for l in ls])  # [a, b, c]
    rows = np.arange(n)[None, :]
    overlaps = slot_grams[:, rows, taus].transpose(1, 2, 0)  # [tau, b, a]
    stack = usub.conj()[None, :, :] * usub[taus, :] * overlaps
    total = np.sum(glynn(stack))
    return float(total.real) / (multiplicity(n_occ) * multiplicity(m_occ))
