"""Output-probability engines.

All engines compute P(m|n) for the same physical input and must agree; they
differ in the route:

* prob_jmatrix: with the partial-indistinguishability matrix J. A J with
  structure (per-slot Grams or cycle-type values) is evaluated as the sum of
  N! permanents over tau = s2 s1^{-1}, P = (1/(mu mu)) sum_tau per(A_tau); a
  J stored as a dense matrix through the N!^2 quadratic form X^dagger J X;
* prob_permanent_basis: finite-basis sum of |per(U[n|m] . S(j))|^2 over basis
  tuples (single photon or vacuum per input mode);
* prob_general: the general ensemble formula with tensor coefficients C and
  permanents of Hadamard products U[n|m] . B(j, j'); an ensemble whose
  components are products c_1 x ... x c_N (every from_photons ensemble) folds
  each component into one permanent per basis tuple, since a permanent is
  linear in each row;
* prob_classical: the Markov-chain form for maximally distinguishable photons;
* prob_ideal_indistinguishable: |per(U[n|m])|^2 / (mu mu);
* prob_oracle: direct expansion of both vacuum expectation values through the
  permutation-sum identity; slow, independent of every other engine, and the
  arbiter when they disagree.

Multiplicity factors mu(n), mu(m) live here and nowhere else.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    EngineError,
    SizeLimitError,
    UnsupportedInputError,
    ValidationError,
)
from .jmatrix import JMatrix, build_mixed, build_pure
from .network import check_occupation, enumerate_outputs, mode_list, mu
from .permanent import permanent_ryser, permanent_ryser_batch
from .spectral import (
    IDEAL,
    DetectorModel,
    MixedState,
    PureState,
    SpanBasis,
    gram_matrix,
    is_mixed,
    pure_components,
)
from .symgroup import permutation_array

log = logging.getLogger(__name__)

ENGINES = ("jmatrix", "permanent", "general", "classical", "ideal", "oracle")

NEGATIVE_CLAMP = -1e-9   # below this a negative probability is a hard error
IMAG_RESIDUAL_TOL = 1e-10
ORACLE_MAX_N = 5
JMATRIX_MAX_N = 8
PERMANENT_STACK_ELEMENTS = 1 << 14  # bounds each permanent stack of permanent, general and jmatrix


@dataclass(frozen=True)
class ProbabilityResult:
    m: tuple[int, ...]
    p: float
    engine: str
    imag_residual: float = 0.0
    clamped: bool = False


def _finalize(raw: complex, m_occ: Sequence[int], engine: str,
              imag_tol: float = IMAG_RESIDUAL_TOL) -> ProbabilityResult:
    raw = complex(raw)
    if abs(raw.imag) > imag_tol * max(1.0, abs(raw.real)):
        raise EngineError(f"{engine}: imaginary residual {raw.imag:.3e} exceeds {imag_tol:g}")
    p = raw.real
    clamped = False
    if p < 0.0:
        if p < NEGATIVE_CLAMP:
            raise EngineError(f"{engine}: probability {p:.3e} below {NEGATIVE_CLAMP:g}")
        log.warning("%s: clamping probability %.3e to 0 for output %s",
                    engine, p, tuple(m_occ))
        p, clamped = 0.0, True
    return ProbabilityResult(tuple(int(x) for x in m_occ), float(p), engine,
                             imag_residual=abs(raw.imag), clamped=clamped)


def _sizes(n_occ, m_occ, modes: int):
    n_occ = check_occupation(n_occ, modes)
    m_occ = check_occupation(m_occ, modes)
    if sum(n_occ) != sum(m_occ):
        raise ValidationError(
            f"photon numbers differ: |n| = {sum(n_occ)}, |m| = {sum(m_occ)}"
        )
    return n_occ, m_occ, sum(n_occ)


def _usub(u: np.ndarray, n_occ, m_occ) -> np.ndarray:
    """U[n|m] for occupations that ``_sizes`` has already checked."""
    return np.asarray(u, dtype=complex)[np.ix_(mode_list(n_occ), mode_list(m_occ))]


def _path_products(u: np.ndarray, n_occ, m_occ) -> np.ndarray:
    """X_sigma = prod_alpha U[k_{sigma(alpha)}, l_alpha] over canonical order."""
    n = sum(n_occ)
    ks = np.asarray(mode_list(n_occ), dtype=np.intp)
    ls = np.asarray(mode_list(m_occ), dtype=np.intp)
    if n == 0:
        return np.ones(1, dtype=complex)
    perms = permutation_array(n)
    return np.prod(u[ks[perms], ls[None, :]], axis=1)


# -- J-matrix engine ---------------------------------------------------------


def prob_jmatrix(jm: JMatrix, u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """P = (1/(mu(m) mu(n))) X^dagger J X with X the path products.

    Two routes, chosen by the storage of J. A J with structure (per-slot
    Grams, or one value per cycle type) is evaluated without the quadratic
    form: substituting tau = s2 s1^{-1} turns it into sum_tau per(A_tau) with
    A_tau[b, a] = conj(U[k_b, l_a]) U[k_tau(b), l_a] G_{l_a}[b, tau(b)]
    (Shchesnovich, PRA 91, 013844, 2015; Tichy, PRA 91, 022316, 2015), or
    J_ct(tau) per(conj(U[k_b, l_a]) U[k_tau(b), l_a]) for a cycle J. A J
    stored as a dense matrix goes through X^dagger J X."""
    n_occ, m_occ, n = _sizes(n_occ, m_occ, u.shape[0])
    if n > JMATRIX_MAX_N:
        raise SizeLimitError(f"prob_jmatrix capped at N <= {JMATRIX_MAX_N}, got {n}")
    if jm.n != n:
        raise ValidationError(f"J was built for N={jm.n}, instance has N={n}")
    ls = mode_list(m_occ)
    if not jm.context_matches(ls):
        raise ValidationError(
            f"J-matrix output context {jm.output_modes} does not match target output "
            f"modes {ls}; rebuild J for this output configuration"
        )
    if n == 0:
        return _finalize(1.0 + 0j, m_occ, "jmatrix")
    if jm.storage == "dense":
        x = _path_products(u, n_occ, m_occ)
        route, raw = "dense", np.vdot(x, jm.dense @ x)
    else:
        route, raw = "tau-permanent", _tau_permanent_sum(jm, _usub(u, n_occ, m_occ))
    log.debug("prob_jmatrix: %s route, N=%d, %d tau terms", route, n,
              math.factorial(n) if route == "tau-permanent" else 0)
    raw /= mu(n_occ) * mu(m_occ)
    return _finalize(raw, m_occ, "jmatrix")


def _tau_permanent_sum(jm: JMatrix, usub: np.ndarray) -> complex:
    """sum_tau per(A_tau) over every tau in S_N, in stacks of at most
    PERMANENT_STACK_ELEMENTS entries; usub[b, a] = U[k_b, l_a]. A cycle J
    weights per(conj(U[k_b, l_a]) U[k_tau(b), l_a]) by J_ct(tau)."""
    n = usub.shape[0]
    taus = permutation_array(n)
    rows = np.arange(n)
    if jm.slot_grams is None:
        weights = jm.cycle_weights()
    step = max(1, PERMANENT_STACK_ELEMENTS // (n * n))
    total = 0.0 + 0.0j
    for start in range(0, len(taus), step):
        tau = taus[start:start + step]
        stack = usub.conj() * usub[tau]
        if jm.slot_grams is None:
            total += weights[start:start + step] @ permanent_ryser_batch(stack)
        else:
            stack *= jm.slot_grams[:, rows, tau].transpose(1, 2, 0)  # G_{l_a}[b, tau(b)]
            total += permanent_ryser_batch(stack).sum()
    return total


# -- permanent-basis engine -----------------------------------------------------


def _output_blocks(ls: Sequence[int]) -> list[tuple[int, ...]]:
    """Consecutive slot blocks sharing an output mode (the l-list is sorted)."""
    blocks, start = [], 0
    for i in range(1, len(ls) + 1):
        if i == len(ls) or ls[i] != ls[start]:
            blocks.append(tuple(range(start, i)))
            start = i
    return blocks


def _canonical_tuples(r: int, blocks: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Basis tuples that are nondecreasing within each output block, as a
    (T, N) index array, with the count of their distinct rearrangements (T,).

    Permuting basis indices among slots of the same output mode permutes whole
    columns of the Hadamard product, so |per| is constant on those orbits; the
    weight makes the reduced sum equal to the full r^N tuple sum.
    """
    combos, counts = [], []
    for block in blocks:
        size = len(block)
        options = list(itertools.combinations_with_replacement(range(r), size))
        combos.append(np.array(options, dtype=np.intp))
        counts.append(np.array([
            math.factorial(size) // math.prod(math.factorial(c) for c in Counter(comb).values())
            for comb in options
        ]))
    grid = np.indices([len(c) for c in combos]).reshape(len(combos), -1)  # product order
    tuples = np.concatenate([c[g] for c, g in zip(combos, grid)], axis=1)
    weights = np.prod([w[g] for w, g in zip(counts, grid)], axis=0)
    return tuples, weights


def _tuple_permanents(usub: np.ndarray, rows: np.ndarray, tuples: np.ndarray,
                      cols: np.ndarray) -> np.ndarray:
    """per(U[n|m] . S) for every basis tuple j (a row of ``tuples``) and column
    choice c (a row of ``cols``), where S[beta, alpha] = rows[alpha, j_alpha, c_beta]
    and rows[alpha] is the (r, K) row source of output slot alpha. Shape (T, C)."""
    n = usub.shape[0]
    stack = usub * rows[np.arange(n), tuples][:, :, cols].transpose(0, 2, 3, 1)
    return permanent_ryser_batch(stack.reshape(-1, n, n)).reshape(len(tuples), len(cols))


def _product_fold(usub: np.ndarray, rows: np.ndarray, tuples: np.ndarray,
                  weights: np.ndarray, probs: np.ndarray) -> float:
    """sum_i p_i sum_j w_j |per(U[n|m] . S_{i,j})|^2 for K product components,
    S_{i,j}[beta, alpha] = rows[alpha, j_alpha, i N + beta]: the photons of
    component i are its N columns of the (N, r, K N) slot rows. Stacks hold
    at most PERMANENT_STACK_ELEMENTS entries."""
    n = usub.shape[0]
    cols = np.arange(rows.shape[2]).reshape(-1, n)
    step = max(1, PERMANENT_STACK_ELEMENTS // (len(cols) * n * n))
    total = 0.0
    for start in range(0, len(tuples), step):
        pers = _tuple_permanents(usub, rows, tuples[start:start + step], cols)
        total += weights[start:start + step] @ ((pers.real**2 + pers.imag**2) @ probs)
    return float(total)


def _permanent_basis_pure(states: Sequence[PureState], slot_dets: Sequence[DetectorModel],
                          u: np.ndarray, n_occ, m_occ) -> float:
    basis = SpanBasis(states)
    sq = {det: basis.detector_sqrt(det) @ basis.coords for det in set(slot_dets)}  # (r, N)
    rows = np.stack([sq[det] for det in slot_dets])
    tuples, weights = _canonical_tuples(basis.rank, _output_blocks(mode_list(m_occ)))
    return _product_fold(_usub(u, n_occ, m_occ), rows, tuples, weights, np.ones(1))


def prob_permanent_basis(photons: Sequence[PureState | MixedState],
                         detectors: Sequence[DetectorModel] | None,
                         u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """Finite-basis sum P = (1/mu(m)) sum_j |per(U[n|m] . S(j))|^2.

    Requires at most one photon per input mode. Mixed photons are averaged
    over their ensemble components (probability is linear in each photon's
    density operator)."""
    n_occ, m_occ, n = _sizes(n_occ, m_occ, u.shape[0])
    if any(c > 1 for c in n_occ):
        raise UnsupportedInputError(
            "prob_permanent_basis needs a single photon or vacuum per input mode; "
            "use prob_jmatrix or prob_general for multi-occupancy inputs"
        )
    if len(photons) != n:
        raise ValidationError(f"need {n} photons, got {len(photons)}")
    slot_dets = _slot_detectors(detectors, m_occ, u.shape[0])
    if n == 0:
        return _finalize(1.0 + 0j, m_occ, "permanent")
    total = 0.0
    for weight, states in _mode_correlated_draws(photons, n_occ):
        total += weight * _permanent_basis_pure(states, slot_dets, u, n_occ, m_occ)
    return _finalize(total / mu(m_occ), m_occ, "permanent")


def _slot_detectors(detectors: Sequence[DetectorModel] | None, m_occ,
                    modes: int) -> tuple[DetectorModel, ...]:
    """Expand per-mode detectors to the per-slot l-list."""
    if detectors is None:
        detectors = (IDEAL,) * modes
    detectors = tuple(detectors)
    if len(detectors) != modes:
        raise ValidationError(f"need one detector per mode: {len(detectors)} != {modes}")
    return tuple(detectors[l] for l in mode_list(m_occ))


def _mode_correlated_draws(photons: Sequence[PureState | MixedState], n_occ):
    """(weight, pure state list) draws with one ensemble draw per input mode:
    photons sharing a mode fluctuate together, different modes independently.
    For single-occupancy inputs this is the ordinary per-photon product."""
    ks = mode_list(n_occ)
    groups: dict[int, list[int]] = {}
    for slot, mode in enumerate(ks):
        groups.setdefault(mode, []).append(slot)
    blocks = list(groups.values())
    axes = [pure_components(photons[slots[0]]) for slots in blocks]
    for combo in itertools.product(*axes):
        weight = math.prod(w for w, _ in combo)
        slot_states: list[PureState] = [None] * len(ks)  # type: ignore[list-item]
        for slots, (_, drawn) in zip(blocks, combo):
            for s in slots:
                slot_states[s] = drawn
        yield weight, slot_states


# -- general ensemble engine -----------------------------------------------------


@dataclass
class GeneralEnsemble:
    """Spectral state of N photons as an ensemble of tensor coefficient
    arrays over the rank-r span basis.

    ``factors``, when set, marks every component as a product
    C_i = c_{i,1} x ... x c_{i,N}: factors[i] is an (r, N) matrix whose
    column beta holds the span-basis coordinates c_{i,beta} of the state in
    slot beta, and must agree with C_i. ``from_photons`` sets them; an
    ensemble built by hand carries none and is evaluated as entangled."""

    basis: SpanBasis
    components: tuple[tuple[float, np.ndarray], ...]
    factors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.factors is not None:
            shape = (self.basis.rank, self.n)
            if (len(self.factors) != len(self.components)
                    or any(np.shape(f) != shape for f in self.factors)):
                raise ValidationError(
                    f"need one {shape} factor matrix per component, got "
                    f"{[np.shape(f) for f in self.factors]} for {len(self.components)}"
                )

    @property
    def n(self) -> int:
        return self.components[0][1].ndim

    @staticmethod
    def from_photons(photons: Sequence[PureState | MixedState],
                     n_occ: Sequence[int] | None = None) -> "GeneralEnsemble":
        """Product-form ensemble: every mode-correlated ensemble draw
        contributes C = c_1 x ... x c_N with weight prod p. Without an
        occupation vector every photon occupies its own mode (independent
        draws)."""
        if n_occ is None:
            n_occ = (1,) * len(photons)
        all_states: list[PureState] = []
        for p in photons:
            all_states.extend(s for _, s in pure_components(p))
        basis = SpanBasis(all_states)
        index_of: dict = {}
        pos = 0
        for p in photons:
            for _, s in pure_components(p):
                index_of.setdefault(s, pos)
                pos += 1
        comps, factors = [], []
        for weight, states in _mode_correlated_draws(photons, n_occ):
            factor = basis.coords[:, [index_of[s] for s in states]]
            tensor = factor[:, 0]
            for column in factor.T[1:]:
                tensor = np.multiply.outer(tensor, column)
            comps.append((weight, np.asarray(tensor)))
            factors.append(factor)
        return GeneralEnsemble(basis, tuple(comps), tuple(factors))

    def validate_symmetry(self, n_occ, tol: float = 1e-10) -> None:
        """The G-function symmetry: C invariant under permutations of tensor
        slots within each input-mode block."""
        blocks = []
        pos = 0
        for c in n_occ:
            if c:
                blocks.append(tuple(range(pos, pos + c)))
                pos += c
        for _, tensor in self.components:
            for block in blocks:
                for a, b in zip(block, block[1:]):
                    if not np.allclose(tensor, np.swapaxes(tensor, a, b), atol=tol):
                        raise ValidationError(
                            "ensemble tensor is not symmetric under the input-mode "
                            f"subgroup (slots {a}, {b})"
                        )


def prob_general(ensemble: GeneralEnsemble, detectors: Sequence[DetectorModel] | None,
                 u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """General multi-occupancy, entangled-spectral-ensemble probability:
    P = (1/(mu mu)) sum_i p_i sum_j |sum_j' C_{j'} per(U[n|m] . B(j, j'))|^2
    with B(j, j')[beta, alpha] = <j_alpha| sqrt(Gamma_{l_alpha}) |j'_beta>.

    The route follows from the ensemble. When it carries product factors and
    has no more components K than r^N, each component folds into one
    permanent per basis tuple (the permanent is linear in each row):
    P = (1/(mu mu)) sum_i p_i sum_j |per(U[n|m] . S_{i,j})|^2 with
    S_{i,j}[beta, alpha] = <j_alpha| sqrt(Gamma_{l_alpha}) |c_{i,beta}>, K
    permanents per tuple. Otherwise (entangled tensors, or K > r^N) the r^N
    permanents per tuple are shared by every component."""
    n_occ, m_occ, n = _sizes(n_occ, m_occ, u.shape[0])
    if ensemble.n != n:
        raise ValidationError(f"ensemble describes {ensemble.n} photons, instance has {n}")
    r = ensemble.basis.rank
    if r**n > 10**6:
        raise SizeLimitError(f"r^N = {r**n} exceeds the 1e6 cap")
    ensemble.validate_symmetry(n_occ)
    if n == 0:
        return _finalize(1.0 + 0j, m_occ, "general")
    slot_dets = _slot_detectors(detectors, m_occ, u.shape[0])
    usub = _usub(u, n_occ, m_occ)
    sqrt_ops = {det: ensemble.basis.detector_sqrt(det) for det in set(slot_dets)}
    rows = np.stack([sqrt_ops[det] for det in slot_dets])
    probs = np.array([w for w, _ in ensemble.components])
    tuples, weights = _canonical_tuples(r, _output_blocks(mode_list(m_occ)))
    if ensemble.factors is not None and len(probs) <= r**n:
        route, per_tuple = "product-fold", len(probs)
        total = _product_fold(usub, rows @ np.concatenate(ensemble.factors, axis=1),
                              tuples, weights, probs)
    else:
        route, per_tuple = "tensor", r**n
        jp_tuples = np.indices((r,) * n).reshape(n, -1).T
        coeffs = np.stack([np.asarray(c, dtype=complex).reshape(-1)
                           for _, c in ensemble.components])
        step = max(1, PERMANENT_STACK_ELEMENTS // (r**n * n * n))
        total = 0.0
        for start in range(0, len(tuples), step):
            pers = _tuple_permanents(usub, rows, tuples[start:start + step], jp_tuples)
            amps = pers @ coeffs.T  # (tuples, components)
            total += weights[start:start + step] @ ((amps.real**2 + amps.imag**2) @ probs)
    log.debug("prob_general: %s route, N=%d, r=%d, %d canonical tuples, %d permanents",
              route, n, r, len(tuples), len(tuples) * per_tuple)
    total /= mu(n_occ) * mu(m_occ)
    return _finalize(total, m_occ, "general")


# -- closed-form engines ----------------------------------------------------------


def prob_classical(u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """Indistinguishable classical particles through the Markovian network
    |U|^2: P = per(|U[n|m]|^2) / mu(m)."""
    n_occ, m_occ, n = _sizes(n_occ, m_occ, u.shape[0])
    a = np.abs(_usub(u, n_occ, m_occ)) ** 2
    raw = permanent_ryser(a).real / mu(m_occ)
    return _finalize(raw, m_occ, "classical")


def prob_ideal_indistinguishable(u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """P = |per(U[n|m])|^2 / (mu(m) mu(n))."""
    n_occ, m_occ, n = _sizes(n_occ, m_occ, u.shape[0])
    per = permanent_ryser(_usub(u, n_occ, m_occ))
    raw = (per.real**2 + per.imag**2) / (mu(n_occ) * mu(m_occ))
    return _finalize(raw, m_occ, "ideal")


# -- brute-force oracle -----------------------------------------------------------


def prob_oracle(photons_or_ensemble, detectors: Sequence[DetectorModel] | None,
                u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """Direct expansion of P = Tr{rho Pi} via the permutation-sum identity for
    both vacuum expectation values.

    P = (1/(mu mu)) sum_{s1,s2} [prod_b U*_{k_{s1^-1(b)}, l_b} U_{k_{s2^-1(b)}, l_b}]
        x (spectral contraction of G against the detector sensitivities).

    Shares only the spectral data layer with the other engines; no J matrix,
    no permanents.
    """
    n_occ, m_occ, n = _sizes(n_occ, m_occ, u.shape[0])
    if n > ORACLE_MAX_N:
        raise SizeLimitError(f"prob_oracle capped at N <= {ORACLE_MAX_N}, got {n}")
    if n == 0:
        return _finalize(1.0 + 0j, m_occ, "oracle")
    slot_dets = _slot_detectors(detectors, m_occ, u.shape[0])
    ks = np.asarray(mode_list(n_occ), dtype=np.intp)
    ls = np.asarray(mode_list(m_occ), dtype=np.intp)
    perms = permutation_array(n)
    invs = np.argsort(perms, axis=1)
    x_inv = np.prod(u[ks[invs], ls[None, :]], axis=1)

    if isinstance(photons_or_ensemble, GeneralEnsemble):
        tmat = _oracle_tensor_contractions(photons_or_ensemble, slot_dets, invs, n)
    else:
        photons = list(photons_or_ensemble)
        if len(photons) != n:
            raise ValidationError(f"need {n} photons, got {len(photons)}")
        nf = perms.shape[0]
        tmat = np.zeros((nf, nf), dtype=complex)
        for weight, states in _mode_correlated_draws(photons, n_occ):
            grams = {d: gram_matrix(states, d) for d in set(slot_dets)}
            part = np.ones((nf, nf), dtype=complex)
            for b in range(n):
                g = grams[slot_dets[b]]
                col = invs[:, b]
                part *= g[col[:, None], col[None, :]]
            tmat += weight * part
    raw = np.vdot(x_inv, tmat @ x_inv) / (mu(n_occ) * mu(m_occ))
    return _finalize(raw, m_occ, "oracle")


def _oracle_tensor_contractions(ensemble: GeneralEnsemble,
                                slot_dets: Sequence[DetectorModel],
                                invs: np.ndarray, n: int) -> np.ndarray:
    r = ensemble.basis.rank
    if r > n:
        raise SizeLimitError(f"oracle ensemble path capped at rank <= N, got r={r}")
    dops = {det: ensemble.basis.detector_matrix(det) for det in set(slot_dets)}
    sqrts = {}
    for det, m in dops.items():
        ev, vec = np.linalg.eigh(m)
        sqrts[det] = (vec * np.sqrt(np.clip(ev, 0.0, None))) @ vec.conj().T
    nf = invs.shape[0]
    tmat = np.zeros((nf, nf), dtype=complex)
    for weight, tensor in ensemble.components:
        ws = np.empty((nf, r**n), dtype=complex)
        for i in range(nf):
            v = np.transpose(np.asarray(tensor, dtype=complex), axes=tuple(invs[i]))
            for axis in range(n):
                v = np.moveaxis(np.tensordot(sqrts[slot_dets[axis]], v, axes=(1, axis)), 0, axis)
            ws[i] = v.reshape(-1)
        tmat += weight * (ws.conj() @ ws.T)
    return tmat


# -- distribution sweep -------------------------------------------------------------


@dataclass
class DistributionResult:
    input: tuple[int, ...]
    engine: str
    results: list[ProbabilityResult] = field(default_factory=list)

    @property
    def total(self) -> float:
        return float(sum(r.p for r in self.results))

    def to_dict(self) -> dict:
        return {
            "input": list(self.input),
            "outputs": [{"m": list(r.m), "p": r.p} for r in self.results],
            "sum": self.total,
            "engine": self.engine,
        }


def _one_output(engine: str, u, n_occ, m_occ, photons, detectors, ensemble):
    if engine == "classical":
        return prob_classical(u, n_occ, m_occ)
    if engine == "ideal":
        return prob_ideal_indistinguishable(u, n_occ, m_occ)
    if engine == "permanent":
        return prob_permanent_basis(photons, detectors, u, n_occ, m_occ)
    if engine == "general":
        return prob_general(ensemble, detectors, u, n_occ, m_occ)
    if engine == "oracle":
        src = ensemble if ensemble is not None else photons
        return prob_oracle(src, detectors, u, n_occ, m_occ)
    if engine == "jmatrix":
        slot_dets = _slot_detectors(detectors, m_occ, u.shape[0])
        ls = mode_list(m_occ)
        ks = mode_list(n_occ)
        if any(is_mixed(p) for p in photons):
            jm = build_mixed(photons, slot_dets, output_modes=ls, input_modes=ks)
        else:  # single-component MixedStates are pure photons
            jm = build_pure([pure_components(p)[0][1] for p in photons], slot_dets,
                            output_modes=ls, input_modes=ks)
        return prob_jmatrix(jm, u, n_occ, m_occ)
    raise ValidationError(f"unknown engine {engine!r}; choose from {ENGINES}")


def output_distribution(engine: str, u: np.ndarray, n_occ, *,
                        photons: Sequence[PureState | MixedState] | None = None,
                        detectors: Sequence[DetectorModel] | None = None,
                        ensemble: GeneralEnsemble | None = None) -> DistributionResult:
    """Probabilities of every output configuration |m| = N, in canonical
    (descending lexicographic) output order."""
    n_occ = check_occupation(n_occ, u.shape[0])
    n = sum(n_occ)
    if engine not in ENGINES:
        raise ValidationError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine not in ("classical", "ideal") and photons is None and ensemble is None:
        raise ValidationError(f"engine {engine!r} needs spectral data")
    if photons is not None and len(photons) != n:
        raise ValidationError(f"photon list length {len(photons)} != |n| = {n}")
    if engine == "general" and ensemble is None:
        ensemble = GeneralEnsemble.from_photons(photons, n_occ)
    dist = DistributionResult(input=n_occ, engine=engine)
    dist.results = [
        _one_output(engine, u, n_occ, m_occ, photons, detectors, ensemble)
        for m_occ in enumerate_outputs(u.shape[0], n)
    ]
    return dist


def normalization_report(engine: str, u: np.ndarray, n_occ, *,
                         photons=None, detectors=None, ensemble=None) -> float:
    """Sum of P(m|n) over all outputs.

    1 for ideal detectors; below 1 for lossy detectors (the post-selected sum
    is reported as-is, renormalization is the caller's decision).
    """
    return output_distribution(engine, u, n_occ, photons=photons, detectors=detectors,
                               ensemble=ensemble).total
