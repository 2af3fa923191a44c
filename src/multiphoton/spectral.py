"""Single-photon spectral states, detector models, detector-weighted overlaps,
Gram matrices and their factors, span orthonormalization, and mixed states.

Two state representations are supported and never mixed within one instance:

* Gaussian wave packets (center frequency, width, arrival time, polarization),
  for which all ideal/flat/Gaussian-band detector overlaps are closed-form
  frequency integrals;
* finite-rank coefficient vectors over an abstract orthonormal internal
  basis, for which detectors are Hermitian operators on that basis.

A detector enters only between two input states, so every integral becomes
small Hermitian matrix algebra on detector-weighted Grams. The photon
engines factor those Grams (``gram_factor``); ``SpanBasis``, which drops span
directions below ``RANK_TOL``, serves only ensembles given as tensors, and
no path that starts from photons (a product ensemble included) builds one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    IncompatibleRepresentationError,
    ValidationError,
)

RANK_TOL = 1e-10  # singular values below RANK_TOL * largest are dropped
GRAM_TOL = 1e-15  # Gram eigenvalues up to GRAM_TOL * largest are dropped


# -- states -------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianState:
    """Normalized Gaussian spectral amplitude
    phi(w) = (2 pi delta^2)^(-1/4) exp(i w t - (w - omega)^2 / (4 delta^2))
    with a discrete polarization index."""

    omega: float
    delta: float
    t: float = 0.0
    pol: int = 0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.omega, self.delta, self.t)):
            raise ValidationError(f"Gaussian state parameters must be finite, got {self}")
        if self.delta <= 0:
            raise ValidationError(f"spectral width must be positive, got {self.delta}")
        if self.pol not in (0, 1):
            raise ValidationError(f"polarization index must be 0 or 1, got {self.pol}")

    def delayed(self, tau: float) -> "GaussianState":
        return GaussianState(self.omega, self.delta, self.t + tau, self.pol)


class FiniteRankState:
    """Unit coefficient vector over an orthonormal internal basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        vec = np.asarray(coeffs, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-8:
            raise ValidationError(f"finite-rank state must have unit norm, got {norm}")
        vec = vec / norm
        vec.setflags(write=False)
        object.__setattr__(self, "coeffs", vec)

    @property
    def rank(self) -> int:
        return self.coeffs.size

    def __repr__(self) -> str:
        return f"FiniteRankState({np.round(self.coeffs, 6)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteRankState)
            and self.coeffs.shape == other.coeffs.shape
            and bool(np.all(self.coeffs == other.coeffs))
        )

    def __hash__(self) -> int:
        return hash(self.coeffs.tobytes())


PureState = GaussianState | FiniteRankState


# -- detectors ------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorModel:
    """Spectral sensitivity of a number-resolving detector.

    kinds: 'ideal' (unit sensitivity), 'flat' (constant eta), 'gaussianBand'
    (peak * exp(-(w-center)^2/(2 width^2))), 'matrix' (Hermitian operator on
    the finite-rank basis with eigenvalues in [0, 1]). A model checks its
    kind and parameters itself (ValidationError), so the factories only
    convert their arguments.
    """

    kind: str = "ideal"
    eta: float = 1.0
    center: float = 0.0
    width: float = 1.0
    peak: float = 1.0
    entries: tuple | None = None  # hashable storage for the 'matrix' kind

    def __post_init__(self):
        values = [self.eta, self.center, self.width, self.peak, *np.ravel(self.entries or ())]
        if not np.all(np.isfinite(np.array(values, dtype=complex))):
            raise ValidationError(f"detector {self.kind!r} needs finite parameters")
        if self.kind not in ("ideal", "flat", "gaussianBand", "matrix"):
            raise ValidationError(f"unknown detector kind: {self.kind!r}")
        if self.kind == "flat" and not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"flat efficiency must lie in [0, 1], got {self.eta}")
        if self.kind == "gaussianBand" and self.width <= 0:
            raise ValidationError(f"band width must be positive, got {self.width}")
        if self.kind == "gaussianBand" and not 0.0 < self.peak <= 1.0:
            raise ValidationError(f"band peak must lie in (0, 1], got {self.peak}")
        if self.kind == "matrix":
            m = np.array(self.entries, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError("detector operator must be a square matrix")
            if np.max(np.abs(m - m.conj().T)) > 1e-10:
                raise ValidationError("detector operator must be Hermitian")
            ev = np.linalg.eigvalsh(m)
            if ev.min() < -1e-10 or ev.max() > 1.0 + 1e-10:
                raise ValidationError(f"detector eigenvalues must lie in [0, 1], got [{ev.min()}, {ev.max()}]")

    @staticmethod
    def ideal() -> "DetectorModel":
        return DetectorModel("ideal")

    @staticmethod
    def flat(eta: float) -> "DetectorModel":
        return DetectorModel("flat", eta=float(eta))

    @staticmethod
    def gaussian_band(center: float, width: float, peak: float = 1.0) -> "DetectorModel":
        return DetectorModel("gaussianBand", center=float(center), width=float(width), peak=float(peak))

    @staticmethod
    def operator(matrix: np.ndarray) -> "DetectorModel":
        m = np.asarray(matrix, dtype=complex)
        return DetectorModel("matrix", entries=tuple(map(tuple, m)) if m.ndim == 2 else tuple(m.ravel()))

    @property
    def matrix(self) -> np.ndarray:
        if self.kind != "matrix":
            raise ValidationError("only 'matrix' detectors carry an explicit operator")
        return np.array(self.entries, dtype=complex)

    @property
    def is_ideal(self) -> bool:
        return self.kind == "ideal" or (self.kind == "flat" and self.eta == 1.0)


IDEAL = DetectorModel.ideal()


# -- overlaps -------------------------------------------------------------------

def _gauss_shares(state: GaussianState, det: DetectorModel) -> tuple[float, complex, float, float]:
    """A Gaussian state's share (A, B, C, p) of the closed form of
    ``_gauss_quadratic``; the detector's terms are split evenly between the
    two states."""
    v = state.delta**2
    a, b, c = 0.25 / v, state.omega / (2.0 * v) + 1j * state.t, -0.25 * state.omega**2 / v
    p = (2.0 * math.pi * v) ** -0.25
    if det.kind == "flat":
        p *= math.sqrt(det.eta)
    elif det.kind == "gaussianBand":
        w2 = det.width**2
        a, b, c = a + 0.25 / w2, b + 0.5 * det.center / w2, c - 0.25 * det.center**2 / w2
        p *= math.sqrt(det.peak)
    return a, b, c, p


def _gauss_quadratic(a, b):
    """Closed form of <a| Gamma |b> for Gaussian states of one polarization
    from their shares (``_gauss_shares``); the shares may be arrays that
    broadcast against each other (``gram_matrix`` passes the whole pair grid).

    The integrand is a product of Gaussians, so the frequency integral is
    p_a p_b sqrt(pi/A) exp(B^2/(4A) + C) with A = A_a + A_b,
    B = conj(B_a) + B_b and C = C_a + C_b read off from the combined
    exponent. B is real for a = b, so the diagonal of a Gram is real."""
    aa, bb, cc = a[0] + b[0], np.conj(a[1]) + b[1], a[2] + b[2]
    return (a[3] * b[3]) * np.sqrt(np.pi / aa) * np.exp(bb * bb / (4.0 * aa) + cc)


def overlap(a: PureState, det: DetectorModel, b: PureState) -> complex:
    """Detector-weighted overlap <a| Gamma |b>."""
    return complex(gram_matrix([a, b], det)[0, 1])


def gram_matrix(states: Sequence[PureState], det: DetectorModel | None = None) -> np.ndarray:
    """Hermitian PSD matrix of detector-weighted pairwise overlaps.

    Gaussian states are evaluated over the whole pair grid at once, and
    finite-rank states as one C^dagger Gamma C of their coefficient columns
    C. The upper triangle is mirrored, so the result is exactly Hermitian
    with a real diagonal, and Gaussian states of different polarization do
    not overlap. The states must share one representation (and one rank),
    and the detector must act on it (IncompatibleRepresentationError)."""
    det = det or IDEAL
    n = len(states)
    if n == 0:
        return np.empty((0, 0), dtype=complex)
    if all(isinstance(s, GaussianState) for s in states):
        if det.kind == "matrix":
            raise IncompatibleRepresentationError(
                "matrix detectors act on finite-rank states, not Gaussian ones"
            )
        a, b, c, p = np.array([_gauss_shares(s, det) for s in states]).T
        a, c, p = a.real, c.real, p.real
        g = _gauss_quadratic((a[:, None], b[:, None], c[:, None], p[:, None]), (a, b, c, p))
        pol = np.array([s.pol for s in states])
        g *= pol[:, None] == pol
    elif all(isinstance(s, FiniteRankState) for s in states):
        ranks = sorted({s.rank for s in states})
        if len(ranks) > 1:
            raise IncompatibleRepresentationError(
                f"finite-rank states live in different spaces (ranks {ranks})"
            )
        cols = np.array([s.coeffs for s in states]).T  # (rank, n)
        if det.kind in ("ideal", "flat"):
            g = cols.conj().T @ cols
            if det.kind == "flat":
                g *= det.eta
        elif det.kind == "matrix":
            m = det.matrix
            if m.shape[0] != ranks[0]:
                raise IncompatibleRepresentationError(
                    f"detector operator is {m.shape[0]}-dimensional, states are {ranks[0]}"
                )
            g = cols.conj().T @ (m @ cols)
        else:
            raise IncompatibleRepresentationError(
                f"detector kind {det.kind!r} has no action on finite-rank states"
            )
        np.fill_diagonal(g, g.diagonal().real)
    else:
        kinds = sorted({type(s).__name__ for s in states})
        raise IncompatibleRepresentationError(f"cannot overlap {' with '.join(kinds)}")
    rows = np.arange(n)
    return np.where(rows[:, None] <= rows, g, g.T.conj())  # the upper triangle, mirrored


class _GramTable:
    """Detector-weighted Grams of distinct pure states: one ``gram_matrix``
    per detector over all of them, computed on first use and kept in
    ``grams``. Callers index their states (``index``) and read sub-blocks
    (``block``), one per row of an index stack; a state may repeat among
    the rows."""

    def __init__(self, states: Iterable[PureState]):
        self._at = {s: i for i, s in enumerate(dict.fromkeys(states))}
        self.grams: dict[DetectorModel, np.ndarray] = {}

    def index(self, states: Iterable[PureState]) -> np.ndarray:
        return np.array([self._at[s] for s in states], dtype=np.intp)

    def block(self, at: np.ndarray, det: DetectorModel) -> np.ndarray:
        """(..., k, k) Grams of the states indexed by each row of a (..., k) stack."""
        if det not in self.grams:
            self.grams[det] = gram_matrix(list(self._at), det)
        at = np.asarray(at)
        return self.grams[det][at[..., :, None], at[..., None, :]]


def gram_factor(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors R = sqrt(Lambda) V^dagger, R^dagger R = G, of a (..., n, n)
    stack of Hermitian PSD Grams in one eigh, and their ranks (...). The
    rows of each R run in descending eigenvalue order, and those of
    eigenvalues up to GRAM_TOL of the largest are zero, so its first rank
    rows hold it: the error is linear in the dropped weight, and nothing is
    divided by sqrt(lambda). A non-finite Gram raises ValidationError."""
    grams = np.asarray(grams)
    if not np.all(np.isfinite(grams)):
        raise ValidationError("Gram matrix has non-finite entries")
    w, v = np.linalg.eigh(grams)
    w, v = w[..., ::-1], v[..., ::-1]
    keep = w > GRAM_TOL * np.maximum(w[..., :1], 0.0)
    roots = np.sqrt(np.where(keep, w, 0.0))
    return roots[..., :, None] * v.conj().swapaxes(-1, -2), np.count_nonzero(keep, axis=-1)


# -- span orthonormalization ------------------------------------------------------

class SpanBasis:
    """Orthonormal basis of the span of a state list under a (possibly
    detector-weighted) inner product, built from the Gram matrix.

    chi_j = sum_a mixing[a, j] * phi_a,    phi_b = sum_j coords[j, b] * chi_j.
    """

    def __init__(self, states: Sequence[PureState], kernel: DetectorModel | None = None):
        self.states = tuple(states)
        self.kernel = kernel or IDEAL
        self.gram = gram_matrix(self.states, self.kernel)
        w, vec = np.linalg.eigh(self.gram)
        keep = w > RANK_TOL * max(w.max(), 0.0)
        self.rank = int(np.count_nonzero(keep))
        if self.rank == 0:
            raise ValidationError("state list spans rank 0 under the given kernel")
        mixing = vec[:, keep] / np.sqrt(w[keep])
        # one refinement pass: near-degenerate Grams leave the candidate basis
        # orthonormal only to ~eps/lambda_min, which would push restricted
        # detector eigenvalues outside [0, 1]
        b = mixing.conj().T @ self.gram @ mixing
        bw, bv = np.linalg.eigh(0.5 * (b + b.conj().T))
        mixing = mixing @ ((bv / np.sqrt(bw)) @ bv.conj().T)
        self.mixing = mixing
        self.coords = self.mixing.conj().T @ self.gram
        self._det_cache: dict[DetectorModel, np.ndarray] = {}
        self._sqrt_cache: dict[DetectorModel, np.ndarray] = {}

    @property
    def rank_deficient(self) -> bool:
        return self.rank < len(self.states)

    def state_vectors(self) -> list[np.ndarray]:
        """Coefficient vectors of the original states in the new basis."""
        return [self.coords[:, b].copy() for b in range(len(self.states))]

    def as_finite_rank(self) -> list[FiniteRankState]:
        return [FiniteRankState(v) for v in self.state_vectors()]

    def detector_matrix(self, det: DetectorModel) -> np.ndarray:
        """Restriction of the detector operator to the span: Hermitian with
        eigenvalues in [0, 1] up to roundoff."""
        cached = self._det_cache.get(det)
        if cached is None:
            g = gram_matrix(self.states, det)
            m = self.mixing.conj().T @ g @ self.mixing
            cached = 0.5 * (m + m.conj().T)
            self._det_cache[det] = cached
        return cached

    def detector_sqrt(self, det: DetectorModel) -> np.ndarray:
        """Hermitian square root of the restricted detector operator.

        Note: this is sqrt(P Gamma P), not P sqrt(Gamma) P; only the former
        reproduces the exact detector-weighted overlaps after one basis
        insertion."""
        cached = self._sqrt_cache.get(det)
        if cached is None:
            m = self.detector_matrix(det)
            ev, vec = np.linalg.eigh(m)
            # near-null span directions carry O(eps / lambda_min) noise in the
            # restricted matrix elements; clip into the physical range and
            # fail only on genuine violations
            if ev.min() < -1e-6 or ev.max() > 1.0 + 1e-6:
                raise ValidationError(
                    f"restricted detector eigenvalues outside [0, 1]: [{ev.min()}, {ev.max()}]"
                )
            ev = np.clip(ev, 0.0, 1.0)
            cached = (vec * np.sqrt(ev)) @ vec.conj().T
            self._sqrt_cache[det] = cached
        return cached


def orthonormalize(states: Sequence[PureState], kernel: DetectorModel | None = None) -> SpanBasis:
    """Orthonormal basis of the span under the kernel-weighted inner product.

    A numerically singular Gram matrix is not an error: the rank is reduced
    and reported via ``SpanBasis.rank`` / ``rank_deficient``.
    """
    return SpanBasis(states, kernel)


# -- mixed states -----------------------------------------------------------------

class MixedState:
    """Single-photon mixed spectral state as a weighted ensemble of pure
    states; fluctuating-parameter families enter through a quadrature rule."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[tuple[float, PureState]]):
        comps = [(float(w), s) for w, s in components]
        if not comps:
            raise ValidationError("mixed state needs at least one component")
        if not all(math.isfinite(w) and w >= 0 for w, _ in comps):
            raise ValidationError("ensemble weights must be finite and nonnegative")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"ensemble weights must sum to 1 within 1e-12, got {total}")
        self.components = tuple(comps)

    @staticmethod
    def ensemble(pairs: Iterable[tuple[float, PureState]]) -> "MixedState":
        return MixedState(pairs)

    @staticmethod
    def pure(state: PureState) -> "MixedState":
        return MixedState([(1.0, state)])

    @staticmethod
    def from_gaussian_parameter(constructor, mean: float, spread: float,
                                nodes: int = 32) -> "MixedState":
        """Fluctuating-parameter family: ``constructor(x)`` builds the pure
        state for parameter value x, normally distributed with the given mean
        and spread; discretized by Gauss-Hermite quadrature (exact-class for
        the Gaussian weight; 32 nodes by default, convergence checked in
        tests against 64)."""
        if spread < 0:
            raise ValidationError("parameter spread must be nonnegative")
        if spread == 0:
            return MixedState.pure(constructor(mean))
        x, w = np.polynomial.hermite.hermgauss(nodes)
        weights = w / math.sqrt(math.pi)
        weights = weights / weights.sum()  # unit mass within 1e-12 guaranteed
        values = mean + math.sqrt(2.0) * spread * x
        return MixedState(
            [(float(wi), constructor(float(v))) for wi, v in zip(weights, values)]
        )

    @staticmethod
    def gaussian_time_jitter(omega: float, delta: float, time_spread: float, *,
                             mean_time: float = 0.0, pol: int = 0,
                             nodes: int = 32) -> "MixedState":
        """Gaussian wave packet with normally distributed arrival time."""
        return MixedState.from_gaussian_parameter(
            lambda t: GaussianState(omega, delta, t, pol),
            mean_time, time_spread, nodes=nodes,
        )


def pure_components(state: PureState | MixedState) -> tuple[tuple[float, PureState], ...]:
    if isinstance(state, MixedState):
        return state.components
    return ((1.0, state),)


def is_mixed(state: PureState | MixedState) -> bool:
    return isinstance(state, MixedState) and len(state.components) > 1


def gk_trace(rho: PureState | MixedState, det: DetectorModel, k: int) -> float:
    """Tr{(sqrt(Gamma) rho sqrt(Gamma))^k} for a single-photon state.

    Evaluated on the span of the ensemble components: the trace equals
    Tr{(W^(1/2) G W^(1/2))^k} with W the ensemble weights and G the
    detector-weighted component Gram matrix. g_1 is the one-photon
    detection probability; an ideal detector gives g_1 = 1 exactly.
    """
    if k < 1:
        raise ValidationError("need k >= 1")
    comps = pure_components(rho)
    weights = np.array([w for w, _ in comps])
    states = [s for _, s in comps]
    g = gram_matrix(states, det)
    b = (np.sqrt(weights)[:, None] * g) * np.sqrt(weights)[None, :]
    ev = np.linalg.eigvalsh(b)
    val = float(np.sum(np.clip(ev, 0.0, None) ** k))
    return min(max(val, 0.0), 1.0) if val <= 1.0 + 1e-9 else val


# -- JSON I/O ---------------------------------------------------------------------

def photon_from_dict(entry: dict) -> PureState:
    if "gaussian" in entry:
        g = entry["gaussian"]
        try:
            return GaussianState(
                omega=float(g["omega"]), delta=float(g["delta"]),
                t=float(g.get("t", 0.0)), pol=int(g.get("pol", 0)),
            )
        except KeyError as exc:
            raise ValidationError(f"gaussian photon entry missing field {exc}") from exc
    if "coeffs" in entry:
        return FiniteRankState([complex(p[0], p[1]) for p in entry["coeffs"]])
    raise ValidationError(f"photon entry must contain 'gaussian' or 'coeffs': {entry}")


def load_photons(path: str) -> list[PureState]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValidationError("photon file must be a nonempty JSON list")
    return [photon_from_dict(e) for e in data]


def detector_from_dict(entry: dict) -> DetectorModel:
    kind = entry.get("kind")
    if kind == "flat":
        return DetectorModel.flat(float(entry["eta"]))
    if kind == "gaussianBand":
        return DetectorModel.gaussian_band(float(entry["center"]), float(entry["width"]),
                                           float(entry.get("peak", 1.0)))
    if kind == "matrix":
        m = np.array([[complex(p[0], p[1]) for p in row] for row in entry["entries"]])
        return DetectorModel.operator(m)
    return DetectorModel(kind)  # 'ideal', or refused as an unknown kind


def load_detectors(path: str) -> list[DetectorModel]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValidationError("detector file must be a nonempty JSON list")
    return [detector_from_dict(e) for e in data]
