"""Realistic Boson-Sampling model: identical Gaussian sources with normally
distributed arrival times and identical detectors.

Everything downstream is a function of the classicality parameter
gamma = 2 eta^2 / (1 + 2 eta^2) with eta = (spectral width) x (time spread).
The coefficient law of the model,

    g_k = (1 - gamma)^(k/2) (1 - gamma^k)^(-1/2)
    J(s1, s2) = prod_k g_k^{C_k(s2 s1^{-1})}
    Tr{(J/N!)^2} = (1 - gamma)^N / prod_{k=1..N} (1 - gamma^k)

is self-consistent (the trace identity is a q-Pochhammer identity, checked by
the cycle-index route) and drives the purity-degradation curves.

Caveat, documented because it is easy to trip over: the law above is NOT the
exact cycle trace of the Gaussian arrival-time ensemble except for k <= 2.
The exact trace is available as ``gk_gaussian_model``: the k-fold cyclic
Gaussian integral evaluates to prod_{j=1..k-1}[1 + 2 eta^2 (1 - cos(2 pi
j/k))]^(-1/2), which resums to (1-q)^k/(1-q^k) with eta^2 = q/(1-q)^2 (a
geometric spectrum, as a Gaussian kernel must have). The coefficient law is
that circulant product with cos(theta_j) replaced by exp(i theta_j),
theta_j = 2 pi j/k: since 1 + 2 eta^2 = 1/(1 - gamma),

    prod_{j=1..k-1} (1 + 2 eta^2)(1 - gamma exp(i theta_j))
        = (1 - gamma^k)/(1 - gamma)^k = g_k^(-2).

The two expressions therefore agree for k <= 2 (where exp(i pi) = cos(pi))
and to first order in eta^2 (the gap is (k/2) eta^4 to leading order), and
the coefficient law is not realizable as the trace powers of any density
operator (its J loses positive semidefiniteness at small gamma for N >= 3).
Quadrature-based g_k checks therefore target ``gk_gaussian_model``; the
closed purity law targets ``gk_closed``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

from .errors import SizeLimitError, ValidationError
from .jmatrix import JMatrix, PurityResult, _cycle_jmatrix, _normalized_purity
from .spectral import MixedState
from .symgroup import cycle_index


@dataclass(frozen=True)
class BSParams:
    """Photon count plus source jitter; eta and gamma are derived."""

    n_photons: int
    spectral_width: float = 1.0   # rad/s
    time_spread: float = 0.0      # s

    def __post_init__(self):
        if not isinstance(self.n_photons, numbers.Integral) or self.n_photons < 1:
            raise ValidationError(f"need an integral photon count >= 1, got {self.n_photons!r}")
        width, spread = self.spectral_width, self.time_spread
        if not (math.isfinite(width) and width > 0 and math.isfinite(spread) and spread >= 0):
            raise ValidationError("spectral width must be finite and > 0, time spread finite "
                                  f"and >= 0, got {width!r} and {spread!r}")

    @property
    def eta(self) -> float:
        return self.spectral_width * self.time_spread

    @property
    def gamma(self) -> float:
        e2 = self.eta**2
        return 2.0 * e2 / (1.0 + 2.0 * e2)

    @staticmethod
    def from_gamma(n_photons: int, gamma: float) -> "BSParams":
        _check_gamma(gamma)
        # invert gamma = 2 eta^2/(1 + 2 eta^2) with unit spectral width
        eta = math.sqrt(gamma / (2.0 * (1.0 - gamma)))
        return BSParams(n_photons, spectral_width=1.0, time_spread=eta)

    def jitter_state(self, nodes: int = 32) -> MixedState:
        """The single-photon mixed state: fixed-shape Gaussian with normally
        distributed arrival time."""
        return MixedState.gaussian_time_jitter(0.0, self.spectral_width,
                                               self.time_spread, nodes=nodes)


def _check_gamma(gamma: float):
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"classicality parameter gamma must lie in [0, 1), got {gamma}")


def gk_closed(gamma: float, k: int) -> float:
    """g_k = (1 - gamma)^(k/2) (1 - gamma^k)^(-1/2); g_1 = 1 always."""
    _check_gamma(gamma)
    if k < 1:
        raise ValidationError("need k >= 1")
    if gamma == 0.0:
        return 1.0
    return (1.0 - gamma) ** (k / 2.0) / math.sqrt(1.0 - gamma**k)


def gk_gaussian_model(gamma: float, k: int) -> float:
    """Exact Tr{rho^k} of the Gaussian arrival-time ensemble (ideal
    detectors), with gamma given by the same 2 eta^2/(1 + 2 eta^2) mapping.

    The cyclic k-fold Gaussian integral gives a geometric spectrum:
    g_k = (1-q)^k / (1-q^k) with eta^2 = q/(1-q)^2. Matches ``gk_closed``
    for k <= 2 only; see the module docstring.
    """
    _check_gamma(gamma)
    if k < 1:
        raise ValidationError("need k >= 1")
    if gamma == 0.0:
        return 1.0
    eta_sq = gamma / (2.0 * (1.0 - gamma))
    c = 1.0 + 1.0 / (2.0 * eta_sq)
    q = c - math.sqrt(c * c - 1.0)
    return (1.0 - q) ** k / (1.0 - q**k)


def j_entry(params: BSParams | float, cycle_type: Sequence[int]) -> float:
    """J entry for a given cycle type of the relative permutation:
    prod_k g_k^{C_k} = (1-gamma)^{N/2} prod_k (1-gamma^k)^{-C_k/2}."""
    gamma = params.gamma if isinstance(params, BSParams) else float(params)
    _check_gamma(gamma)
    counts = tuple(int(c) for c in cycle_type)
    n = sum(k * c for k, c in enumerate(counts, start=1))
    if n == 0:
        raise ValidationError("cycle type sums to zero photons")
    val = 1.0
    for k, c in enumerate(counts, start=1):
        if c:
            val *= gk_closed(gamma, k) ** c
    return val


def build_bs_jmatrix(params: BSParams) -> JMatrix:
    """Cycle-compressed J with closed-form g_k (already unit-diagonal): each
    value is ``j_entry`` of its cycle type."""
    gamma = params.gamma
    return _cycle_jmatrix([gk_closed(gamma, k) for k in range(1, params.n_photons + 1)])


def trace2_closed(n: int, gamma: float) -> float:
    """Tr{(J/N!)^2} = (1-gamma)^N / prod_{k=1..N} (1-gamma^k)."""
    _check_gamma(gamma)
    if gamma == 0.0:
        return 1.0
    denom = 1.0
    for k in range(1, n + 1):
        denom *= 1.0 - gamma**k
    return (1.0 - gamma) ** n / denom


def purity_closed(params: BSParams) -> PurityResult:
    """Normalized purity from the closed-form trace (any N)."""
    return _normalized_purity(params.n_photons, trace2_closed(params.n_photons, params.gamma))


def purity_direct(params: BSParams) -> PurityResult:
    """Cycle-index route: Tr{(J/N!)^2} = (1-g)^N Z_N(1/(1-g), ..., 1/(1-g^N)).

    Brute-force cross-check of the closed form; capped at N <= 10."""
    n = params.n_photons
    if n > 10:
        raise SizeLimitError("purity_direct capped at N <= 10")
    gamma = params.gamma
    if gamma == 0.0:
        return _normalized_purity(n, 1.0)
    a = [1.0 / (1.0 - gamma**k) for k in range(1, n + 1)]
    trace2 = (1.0 - gamma) ** n * cycle_index(n, a).real
    return _normalized_purity(n, trace2)


@dataclass(frozen=True)
class ExpansionReport:
    eta_sq: float
    trace2: float
    linear_approx: float      # 1 - 2 (N-1) eta^2
    deviation: float
    bound_coefficient: float  # deviation / (eta^4 N^2)


def small_gamma_expansion_check(params: BSParams) -> ExpansionReport:
    """Compare Tr{(J/N!)^2} against the small-jitter law 1 - 2(N-1) eta^2."""
    e2 = params.eta**2
    if e2 > 1e-3:
        raise ValidationError(f"expansion check needs eta^2 <= 1e-3, got {e2}")
    trace2 = trace2_closed(params.n_photons, params.gamma)
    approx = 1.0 - 2.0 * (params.n_photons - 1) * e2
    dev = abs(trace2 - approx)
    coeff = dev / (e2**2 * params.n_photons**2) if e2 > 0 else 0.0
    return ExpansionReport(eta_sq=e2, trace2=trace2, linear_approx=approx,
                           deviation=dev, bound_coefficient=coeff)


def purity_curve(n_list: Sequence[int], gammas: Sequence[float]) -> list[dict]:
    """Rows of (gamma, N, purity, trace) with gamma ascending, one block per
    gamma value; reproduces the qualitative purity-degradation picture."""
    gammas = sorted(float(g) for g in gammas)
    for g in gammas:
        _check_gamma(g)
    n_list = [int(n) for n in n_list]
    if any(n < 2 for n in n_list):
        raise ValidationError("purity curves need N >= 2 (N = 1 purity is degenerate)")
    rows = []
    for g in gammas:
        for n in n_list:
            res = purity_closed(BSParams.from_gamma(n, g))
            rows.append({"gamma": g, "N": n, "purity": res.purity, "trace": res.trace2})
    return rows
