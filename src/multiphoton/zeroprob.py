"""Zero-probability tooling: group-factorized probabilities, suppression
scanning, vanishing-S-matrix detection, and the three-photon incompatibility
checker.

The conjecture under test: an exactly zero output probability is always an
exact cancellation of path amplitudes of completely indistinguishable photons
(a subset of the input), and therefore survives any change of the
distinguishability between the groups. A scan never assumes this; it flags
outputs whose group amplitudes all vanish and then verifies the probability
stays below tolerance across a grid of cross-group overlaps, reporting any
violation loudly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SizeLimitError, ValidationError
from .jmatrix import _slot_product, build_pure
from .network import enumerate_outputs, mode_list, mu
from .permanent import permanent_ryser, zero_threshold
from .probability import (JMATRIX_MAX_N, ProbabilityResult, _finalize, _slot_detectors,
                          prob_classical, prob_jmatrix)
from .spectral import (
    IDEAL,
    RANK_TOL,
    DetectorModel,
    FiniteRankState,
    PureState,
    gram_matrix,
)

DISTINGUISHABILITY_GRID = (0.9, 0.5, 0.1, 0.0)
SUPPRESSION_P_TOL = 1e-12
VERDICT_SUPPRESSED = "suppressed-by-indistinguishable-cancellation"
VERDICT_NOT = "not-suppressed"


@dataclass(frozen=True)
class PhotonGroup:
    """c_q photons sharing one spectral state, one per listed input mode."""

    state: PureState
    modes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.modes)


@dataclass
class GroupSpec:
    groups: tuple[PhotonGroup, ...]

    def __post_init__(self):
        all_modes = [m for g in self.groups for m in g.modes]
        if len(set(all_modes)) != len(all_modes):
            raise ValidationError("group input modes must be distinct (one photon per mode)")
        if not self.groups:
            raise ValidationError("need at least one photon group")

    @property
    def n(self) -> int:
        return sum(g.size for g in self.groups)

    def occupation(self, modes: int) -> tuple[int, ...]:
        occ = [0] * modes
        for g in self.groups:
            for m in g.modes:
                if not 0 <= m < modes:
                    raise ValidationError(f"group mode {m} outside 0..{modes - 1}")
                occ[m] = 1
        return tuple(occ)

    def slot_groups(self, modes: int) -> tuple[int, ...]:
        """Group label of each photon slot in natural (ascending-mode) order."""
        mode_to_group = {}
        for q, g in enumerate(self.groups):
            for m in g.modes:
                mode_to_group[m] = q
        return tuple(mode_to_group[m] for m in mode_list(self.occupation(modes)))

    def gram(self, det: DetectorModel = IDEAL) -> np.ndarray:
        return gram_matrix([g.state for g in self.groups], det)

    def independence_rank(self) -> int:
        # rank threshold shared with the spectral span machinery
        ev = np.linalg.eigvalsh(self.gram())
        return int(np.count_nonzero(ev > RANK_TOL * max(ev.max(), 0.0)))


@dataclass
class SuppressionRecord:
    m: tuple[int, ...]
    amplitudes: list[complex]
    amplitude_threshold: float
    verdict: str
    probabilities: dict[str, float] = field(default_factory=dict)
    violation: bool = False
    classically_forbidden: bool = False
    diagnostic: str = ""

    @property
    def max_amplitude(self) -> float:
        return max((abs(y) for y in self.amplitudes), default=0.0)

    def to_dict(self) -> dict:
        return {
            "m": list(self.m),
            "maxAmplitude": self.max_amplitude,
            "amplitudeThreshold": self.amplitude_threshold,
            "amplitudes": [[y.real, y.imag] for y in self.amplitudes],
            "verdict": self.verdict,
            "probabilities": self.probabilities,
            "violation": self.violation,
            "classicallyForbidden": self.classically_forbidden,
            "diagnostic": self.diagnostic,
        }


def group_patterns(spec: GroupSpec) -> list[tuple[int, ...]]:
    """Assignments of group labels to output slots (one per cross-group coset
    of S_N), N!/prod c_q! of them, lexicographic."""
    labels = []
    for q, g in enumerate(spec.groups):
        labels.extend([q] * g.size)
    return sorted(set(itertools.permutations(labels)))


def group_amplitudes(u: np.ndarray, spec: GroupSpec,
                     m_occ: Sequence[int]) -> tuple[list[tuple[int, ...]], list[complex], float]:
    """Per-coset amplitudes Y_w = prod_q per(U[group-q modes | slots assigned
    to q]), together with the scale-aware zero threshold."""
    modes = u.shape[0]
    ls = mode_list(m_occ)
    if len(ls) != spec.n:
        raise ValidationError(f"output has {len(ls)} photons, groups carry {spec.n}")
    patterns = group_patterns(spec)
    amps: list[complex] = []
    thresholds: list[float] = []
    for w in patterns:
        val = 1.0 + 0.0j
        scale = 1.0
        for q, g in enumerate(spec.groups):
            cols = [ls[a] for a in range(len(ls)) if w[a] == q]
            sub = u[np.ix_(sorted(g.modes), cols)]
            val *= permanent_ryser(sub)
            scale *= max(zero_threshold(sub) / 1e-12, 1.0)
        amps.append(val)
        thresholds.append(1e-12 * scale)
    return patterns, amps, max(thresholds)


def prob_group_factorized(u: np.ndarray, spec: GroupSpec, m_occ: Sequence[int],
                          detectors: Sequence[DetectorModel] | None = None
                          ) -> tuple[ProbabilityResult, list[complex]]:
    """P through the reduced quadratic form over cross-group cosets:
    P = (1/mu(m)) sum_{w1,w2} J_R(w1, w2) Y*_{w1} Y_{w2}.

    J_R(w1, w2) = prod_alpha <phi_{w1(alpha)} | Gamma_{l_alpha} | phi_{w2(alpha)}>
    needs only the Q x Q group Gram. Ideal detectors by default.

    With linearly dependent group states the zero-amplitude inference loses
    its converse, so the probability is recomputed through the full J-matrix
    engine and the result is tagged 'group-factorized-fallback'.
    """
    modes = u.shape[0]
    n = spec.n
    if n > JMATRIX_MAX_N:
        raise SizeLimitError(
            f"group-factorized probability capped at N <= {JMATRIX_MAX_N}, got {n}")
    m_occ = tuple(int(x) for x in m_occ)
    slot_dets = _slot_detectors(detectors, mode_list(m_occ), modes)
    patterns, amps, _ = group_amplitudes(u, spec, m_occ)
    n_occ = spec.occupation(modes)

    if spec.independence_rank() < len(spec.groups):
        states = [spec.groups[q].state for q in spec.slot_groups(modes)]
        full = _pure_jmatrix_probability(states, slot_dets, u, n_occ, m_occ)
        return ProbabilityResult(full.m, full.p, "group-factorized-fallback",
                                 full.imag_residual, full.clamped), amps

    grams = {d: spec.gram(d) for d in set(slot_dets)}
    yvec = np.asarray(amps)
    jr = _slot_product([grams[d] for d in slot_dets], np.asarray(patterns, dtype=np.intp))
    raw = np.vdot(yvec, jr @ yvec) / (mu(m_occ) * mu(n_occ))
    result = _finalize(raw, m_occ, "group-factorized")
    return result, amps


def _pure_jmatrix_probability(states: Sequence[PureState],
                              slot_dets: Sequence[DetectorModel], u: np.ndarray,
                              n_occ, m_occ) -> ProbabilityResult:
    """P through the J-matrix engine for pure slot states in natural order."""
    jm = build_pure(states, slot_dets, output_modes=mode_list(m_occ),
                    input_modes=mode_list(n_occ))
    return prob_jmatrix(jm, u, n_occ, m_occ)


def _dial_states(q: int, x: float) -> list[FiniteRankState]:
    """Q states with exact pairwise overlap x (0 included): a shared component
    of weight sqrt(x) plus orthogonal remainders."""
    if not 0.0 <= x < 1.0:
        raise ValidationError(f"overlap dial must lie in [0, 1), got {x}")
    states = []
    for i in range(q):
        v = np.zeros(q + 1, dtype=complex)
        v[0] = math.sqrt(x)
        v[i + 1] = math.sqrt(1.0 - x)
        states.append(FiniteRankState(v))
    return states


def _probability_at_dial(u: np.ndarray, spec: GroupSpec, m_occ, x: float) -> float:
    """Full probability via the J-matrix engine with the groups' cross
    overlaps set to x (in-group photons stay completely indistinguishable)."""
    modes = u.shape[0]
    n_occ = spec.occupation(modes)
    slot_groups = spec.slot_groups(modes)
    dial = _dial_states(len(spec.groups), x)
    states = [dial[g] for g in slot_groups]
    return _pure_jmatrix_probability(states, (IDEAL,) * spec.n, u, n_occ, m_occ).p


def suppression_scan(u: np.ndarray, spec: GroupSpec,
                     grid: Sequence[float] = DISTINGUISHABILITY_GRID) -> list[SuppressionRecord]:
    """Scan every output configuration.

    An output is flagged suppressed when every cross-group amplitude Y_w
    vanishes (scale-aware tolerance) while the classical transition is open:
    an exact interference cancellation, not a trivial routing zero (a zero
    single-particle element also kills the classical probability, and the
    conjecture excludes that case). For flagged outputs the full probability
    is evaluated at the instance's own states and across the overlap grid, and
    any value above 1e-12 marks the record as a conjecture violation (a
    reportable outcome, not an assertion failure).
    """
    modes = u.shape[0]
    n_occ = spec.occupation(modes)
    outputs = enumerate_outputs(modes, spec.n)
    dependent = spec.independence_rank() < len(spec.groups)

    def scan_one(m_occ) -> SuppressionRecord:
        patterns, amps, threshold = group_amplitudes(u, spec, m_occ)
        vanished = all(abs(y) < threshold for y in amps)
        forbidden = vanished and prob_classical(u, n_occ, m_occ).p < 1e-14
        flagged = vanished and not forbidden
        record = SuppressionRecord(
            m=tuple(m_occ), amplitudes=amps, amplitude_threshold=threshold,
            verdict=VERDICT_SUPPRESSED if flagged else VERDICT_NOT,
            classically_forbidden=forbidden,
        )
        if dependent:
            record.diagnostic = "group states are linearly dependent; zero amplitudes are sufficient but not necessary"
        if flagged:
            states = [spec.groups[q].state for q in spec.slot_groups(modes)]
            probs = {"input": _pure_jmatrix_probability(states, (IDEAL,) * spec.n,
                                                        u, n_occ, m_occ).p}
            for x in grid:
                probs[f"overlap={x:g}"] = _probability_at_dial(u, spec, m_occ, x)
            record.probabilities = probs
            record.violation = any(p >= SUPPRESSION_P_TOL for p in probs.values())
        return record

    return [scan_one(m) for m in outputs]


def vanishing_smatrix_filter(j_tuple: Sequence[int], group_sizes: Sequence[int]) -> bool:
    """True iff the S(j) block pattern forces per(U[n|m] . S) = 0 for every U.

    With linearly independent group states and the dual basis, row beta of S
    is the indicator of j_alpha == group(beta); the permanent survives only if
    the dual-index multiset matches the group sizes exactly. Anything else
    leaves a rectangular all-zero block, and the Laplace expansion kills every
    term.
    """
    counts = [0] * len(group_sizes)
    for j in j_tuple:
        if not 0 <= j < len(group_sizes):
            raise ValidationError(f"dual index {j} outside 0..{len(group_sizes) - 1}")
        counts[j] += 1
    return counts != list(group_sizes)


# -- three photons with linearly dependent spectral states ---------------------------


@dataclass
class IncompatibilityReport:
    residuals_set1: tuple[float, float, float]
    residuals_set2: tuple[float, float, float]
    max_residual: float
    witness_set1: complex       # ((-g31 g12/g32)(-g32 g13/g12)) / (-g13 g31), identically -1
    witness_set2: complex       # same structure for set 2, identically -1
    pair_product_pairwise: complex  # prod g_ij g_ji under the pairwise relations: -1
    pair_product_cyclic: complex    # prod g_ij g_ji under the cyclic relations: +1
    trivial_zero_branch: bool = False

    @property
    def incompatible(self) -> bool:
        return not self.trivial_zero_branch and self.max_residual > 0.0


def _relative_residual(t1: complex, t2: complex) -> float:
    denom = abs(t1) + abs(t2)
    if denom == 0.0:
        return 0.0
    return abs(t1 + t2) / denom


def three_photon_incompatibility(u: np.ndarray, c1: complex, c2: complex) -> IncompatibilityReport:
    """Exact-zero analysis for three photons with spectral states
    phi3 = c1 phi1 + c2 phi2 (phi1, phi2 independent), ideal detectors,
    input (1,1,1) -> output (1,1,1).

    Zero probability requires six permanents to vanish, three per dual-basis
    multiset class. The two classes are mutually incompatible for any unitary
    with nonzero entries: within class 1, equations A and C force
    g13 g31 = +1 while equation B forces g13 g31 = -1 (the witnesses below are
    identically -1 where joint solvability would demand +1); class 2 repeats
    the contradiction with g23 g32. The report also evaluates the product of
    the pair couplings g_ij g_ji over the three pairs, which the two relation
    families pin to -1 and +1 respectively.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise ValidationError(f"need a 3x3 unitary, got shape {u.shape}")
    if c1 == 0 or c2 == 0:
        raise ValidationError("c1, c2 must be nonzero (otherwise two groups suffice)")
    if np.min(np.abs(u)) < 1e-12 * np.max(np.abs(u)):
        return IncompatibilityReport(
            residuals_set1=(0.0,) * 3, residuals_set2=(0.0,) * 3, max_residual=0.0,
            witness_set1=0j, witness_set2=0j, pair_product_pairwise=0j,
            pair_product_cyclic=0j, trivial_zero_branch=True,
        )

    # the six vanishing-permanent equations, grouped by dual-index multiset
    set1 = (
        (u[1, 1] * u[0, 0] * u[2, 2], u[1, 1] * u[2, 0] * u[0, 2]),  # B: j = (1,2,1)
        (u[1, 0] * u[0, 1] * u[2, 2], u[1, 0] * u[2, 1] * u[0, 2]),  # C: j = (2,1,1)
        (u[1, 2] * u[0, 0] * u[2, 1], u[1, 2] * u[2, 0] * u[0, 1]),  # A: j = (1,1,2)
    )
    set2 = (
        (u[0, 0] * u[1, 1] * u[2, 2], u[0, 0] * u[2, 1] * u[1, 2]),  # D: j = (1,2,2)
        (u[0, 1] * u[1, 0] * u[2, 2], u[0, 1] * u[2, 0] * u[1, 2]),  # E: j = (2,1,2)
        (u[0, 2] * u[1, 0] * u[2, 1], u[0, 2] * u[2, 0] * u[1, 1]),  # F: j = (2,2,1)
    )
    res1 = tuple(_relative_residual(c1 * t1, c1 * t2) for t1, t2 in set1)
    res2 = tuple(_relative_residual(c2 * t1, c2 * t2) for t1, t2 in set2)

    g = u / np.diagonal(u)[:, None]  # g[i, j] = U_ij / U_ii
    w1 = ((-g[2, 0] * g[0, 1] / g[2, 1]) * (-g[2, 1] * g[0, 2] / g[0, 1])) / (-g[0, 2] * g[2, 0])
    w2 = ((-g[2, 0] * g[1, 2] / g[1, 0]) * (-g[1, 0] * g[2, 1] / g[2, 0])) / (-g[1, 2] * g[2, 1])

    # pair products under the two relation families, built from arbitrary
    # nonzero seeds: pairwise relations force -1, cyclic relations force +1
    rng = np.random.default_rng(0)
    seeds = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a12, a23, a13, a21 = seeds
    pairwise = (a12 * (-1.0 / a12)) * (a23 * (-1.0 / a23)) * (a13 * (-1.0 / a13))
    a31 = 1.0 / (a12 * a23)
    a32 = 1.0 / (a13 * a21)
    cyclic = (a12 * a21) * (a23 * a32) * (a13 * a31)

    return IncompatibilityReport(
        residuals_set1=res1, residuals_set2=res2,
        max_residual=max(max(res1), max(res2)),
        witness_set1=complex(w1), witness_set2=complex(w2),
        pair_product_pairwise=complex(pairwise),
        pair_product_cyclic=complex(cyclic),
    )
