"""Output-probability engines.

All engines compute P(m|n) for the same physical input and must agree; they
differ in the route:

* prob_jmatrix: with the partial-indistinguishability matrix J. A J with
  structure (per-slot Grams or cycle-type values) is evaluated as the sum
  over tau = s2 s1^{-1}, P = (1/(mu mu)) sum_tau per(A_tau), with one
  permanent per pair {tau, tau^-1} (J is Hermitian, so the two permanents
  are conjugate): (N! + I_N)/2 permanents, I_N the number of involutions,
  each summed over minus-sign counts per output mode, since the m_l slots
  of mode l repeat a column of A_tau m_l times; a J stored as a dense
  matrix through the N!^2 quadratic form X^dagger J X;
* prob_permanent_basis: finite-basis sum of |per(U[n|m] . S(j))|^2 over the
  basis tuples whose permanent is not structurally zero (single photon or
  vacuum per input mode);
* prob_general: the general ensemble formula with tensor coefficients C and
  permanents of Hadamard products U[n|m] . B(j, j') in the span basis, for
  ensembles given as tensors; an ensemble of product components
  c_1 x ... x c_N, given by their slot states (every from_photons ensemble),
  folds each component into one permanent per basis tuple, since a
  permanent is linear in each row, and has no span basis;
* prob_classical: the Markov-chain form for maximally distinguishable photons;
* prob_ideal_indistinguishable: |per(U[n|m])|^2 / (mu mu);
* prob_oracle: direct expansion of both vacuum expectation values through the
  permutation-sum identity, component by component for photons and product
  ensembles; slow, independent of every other engine, and the arbiter when
  they disagree.

Photons are their product ensemble: jmatrix._slot_draws, which
GeneralEnsemble.from_photons and the jmatrix sweeps call, is the only place
where photons become draws, and the permanent, general and oracle engines
check their photons or ensemble in one place (_checked_ensemble), so they
accept and refuse the same spectral input. The permanent engine and the
product fold share one route: each draw of N pure slot states takes the
rows of S(j) from factors R_l^dagger R_l = G_l of its Gamma_l-weighted
Grams (Tichy, PRA 91, 022316, 2015), sub-blocks of one Gram per detector
over the distinct states of all draws (the Gram table of ``spectral``),
which the mixed J builds read too. Any such factor will do, and the fold
takes the upper trapezoidal R of a QR decomposition: per(U[n|m] . S(j)) is
then identically zero unless the tuple j meets Hall's condition, and only
the tuples that do are evaluated, (N+1)^(N-1) of the N^N at rank r = N.
One generator (_basis_tuples) builds the tuples of the fold and of the
tensor route, and both gather their permanents from W in blocks through
one helper (_gathered_permanents), as the tau route gathers its own.

Each spectral engine has one route for one output and for a sweep: a
``permanent`` or ``general`` probability is a sweep over one output
(_spectral_outputs, which sets up once and chooses the product fold or the
tensor route once). A ``jmatrix`` probability and every output of a
``jmatrix`` sweep take one route (_jmatrix_output, the tau sum or the dense
quadratic form on the output's U[n|m]); the sweep checks N once, builds one
J per distinct slot-detector tuple, for pure and mixed photons alike, and
hands each output its J and its U[n|m] from the rows of U for the input
modes, taken once per sweep.

Every engine raises EngineError on a non-finite probability.

Multiplicity factors mu(n), mu(m) live here and nowhere else.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .errors import (
    EngineError,
    SizeLimitError,
    UnsupportedInputError,
    ValidationError,
)
from .jmatrix import JMatrix, _MixedSetup, _pure_from_grams, _slot_draws, _validate_block_states
from .network import check_occupation, enumerate_outputs, mode_list, mu
from .permanent import RYSER_TEMP_ELEMENTS, permanent_gather_batch, permanent_ryser
from .spectral import (
    IDEAL,
    DetectorModel,
    MixedState,
    PureState,
    SpanBasis,
    _GramTable,
    gram_factor,
    gram_matrix,
    is_mixed,
)
from .symgroup import inverse_pairs, mode_subgroup_blocks, permutation_array

log = logging.getLogger(__name__)

ENGINES = ("jmatrix", "permanent", "general", "classical", "ideal", "oracle")

NEGATIVE_CLAMP = -1e-9   # below this a negative probability is a hard error
IMAG_RESIDUAL_TOL = 1e-10
ORACLE_MAX_N = 5
JMATRIX_MAX_N = 8
TENSOR_MAX_ENTRIES = 10**6  # r^N entries of each component tensor on the tensor route of general


@dataclass(frozen=True)
class ProbabilityResult:
    m: tuple[int, ...]
    p: float
    engine: str
    imag_residual: float = 0.0
    clamped: bool = False


def _finalize(raw: complex, m_occ: tuple[int, ...], engine: str) -> ProbabilityResult:
    """The result for a checked output tuple, which it keeps as is."""
    raw = complex(raw)
    if not (math.isfinite(raw.real) and math.isfinite(raw.imag)):
        raise EngineError(f"{engine}: non-finite probability {raw}")
    if abs(raw.imag) > IMAG_RESIDUAL_TOL * max(1.0, abs(raw.real)):
        raise EngineError(f"{engine}: imaginary residual {raw.imag:.3e} exceeds {IMAG_RESIDUAL_TOL:g}")
    p = raw.real
    clamped = False
    if p < 0.0:
        if p < NEGATIVE_CLAMP:
            raise EngineError(f"{engine}: probability {p:.3e} below {NEGATIVE_CLAMP:g}")
        log.warning("%s: clamping probability %.3e to 0 for output %s",
                    engine, p, m_occ)
        p, clamped = 0.0, True
    return ProbabilityResult(m_occ, float(p), engine,
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


def _path_products(usub: np.ndarray) -> np.ndarray:
    """X_sigma = prod_alpha U[k_{sigma(alpha)}, l_alpha] over canonical order,
    from usub[b, a] = U[k_b, l_a]."""
    n = usub.shape[0]
    if n == 0:
        return np.ones(1, dtype=complex)
    return np.prod(usub[permutation_array(n), np.arange(n)], axis=1)


# -- J-matrix engine ---------------------------------------------------------


def prob_jmatrix(jm: JMatrix, u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """P = (1/(mu(m) mu(n))) X^dagger J X with X the path products.

    Two routes, chosen by the storage of J. A J with structure (per-slot
    Grams, or one value per cycle type) is evaluated without the quadratic
    form: substituting tau = s2 s1^{-1} turns it into sum_tau per(A_tau) with
    A_tau[b, a] = W[b, tau(b), a], W[b, c, a] = conj(U[k_b, l_a]) U[k_c, l_a]
    G_{l_a}[b, c] (Shchesnovich, PRA 91, 013844, 2015; Tichy, PRA 91, 022316,
    2015), or J_ct(tau) per(A_tau) without the G factor for a cycle J. J is
    Hermitian, so per(A_tau^-1) = conj per(A_tau) and one permanent per pair
    {tau, tau^-1} suffices: (N! + I_N)/2 permanents, I_N the number of
    involutions, in one kernel call that gathers them from W
    (``_tau_permanent_sum``). The m_l slots of output mode l give A_tau m_l
    equal columns, so W keeps one column per occupied mode and each
    permanent sums over the minus-sign counts of those columns:
    (floor(m_p / 2) + 1) prod_{l != p} (m_l + 1) sign patterns for a pivot
    mode p instead of 2^(N-1) (``permanent`` module docstring). A J stored
    as a dense matrix goes through X^dagger J X. After its checks, one
    output of ``_jmatrix_output``."""
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
    return _jmatrix_output(jm, _usub(u, n_occ, m_occ), n_occ, m_occ)


def _jmatrix_output(jm: JMatrix, usub: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """P(m|n) of the ``jmatrix`` engine, the route of ``prob_jmatrix`` and of
    every output of a sweep: checked occupations, their U[n|m] and a J of
    their photon number built for their slot detectors."""
    n = usub.shape[0]
    if n == 0:
        return _finalize(1.0 + 0j, m_occ, "jmatrix")
    if jm.storage == "dense":
        x = _path_products(usub)
        route, raw, terms, permanents = "dense", np.vdot(x, jm.dense @ x), 0, 0
    else:
        route, raw = "tau-permanent", _tau_permanent_sum(jm, usub, m_occ)
        terms, permanents = math.factorial(n), len(inverse_pairs(n).positions)
    log.debug("prob_jmatrix: %s route, N=%d, %d tau terms, %d permanents",
              route, n, terms, permanents)
    raw /= mu(n_occ) * mu(m_occ)
    return _finalize(raw, m_occ, "jmatrix")


def _tau_permanent_sum(jm: JMatrix, usub: np.ndarray, m_occ) -> complex:
    """sum_tau per(A_tau) over S_N with one permanent per pair {tau, tau^-1}:
    sum over involutions of per(A_tau) plus 2 sum over the other pairs of
    Re per(A_tau); usub[b, a] = U[k_b, l_a]. A_tau = W[rows, tau] with
    W[b, c, a] = conj(U[k_b, l_a]) U[k_c, l_a] G_{l_a}[b, c]; a cycle J
    leaves out G and weights per(A_tau) by J_ct(tau). All pair permanents
    come from one ``permanent_gather_batch`` call on W and the
    ``inverse_pairs`` images, which gathers each kernel chunk from W, so no
    A_tau stack exists and a non-finite W raises ValidationError. The
    imaginary part is the involutions' alone, which the caller's residual
    check reads.

    The m_l slots of output mode l give every A_tau m_l equal columns, as
    long as their slot Grams are equal (always for a cycle J, and for every
    J built for this output): W keeps one column per run of such slots, and
    the kernel takes the runs' lengths as column multiplicities, summing
    over minus-sign counts per run instead of over 2^(N-1) sign vectors.
    Slots of one mode with unequal Grams stay separate runs.

    The pairing needs J(tau^-1) = conj J(tau): a cycle value with an
    imaginary part or a non-Hermitian slot Gram raises ValidationError."""
    n = usub.shape[0]
    pairs = inverse_pairs(n)
    if jm.slot_grams is None:
        values = jm.cycle_weights()[pairs.positions]
        if np.any(np.abs(values.imag) > IMAG_RESIDUAL_TOL * np.maximum(1.0, np.abs(values.real))):
            raise ValidationError("tau route needs real cycle values (a Hermitian J)")
        values = values.real
    else:
        grams = jm.slot_grams
        if np.max(np.abs(grams - grams.conj().transpose(0, 2, 1))) > 1e-12:
            raise ValidationError("tau route needs Hermitian slot Grams (a Hermitian J)")
        values = 1.0
    # runs of slots in one output mode with equal slot Grams: run a starts at
    # slot starts[a] and gives A_tau mult[a] equal columns
    ls = mode_list(m_occ)
    same = ([True] * n if jm.slot_grams is None
            else (grams[1:] == grams[:-1]).all(axis=(1, 2)).tolist())
    starts = [a for a in range(n) if a == 0 or ls[a] != ls[a - 1] or not same[a - 1]]
    mult = tuple(b - a for a, b in zip(starts, starts[1:] + [n]))
    cols = usub if len(starts) == n else usub[:, starts]
    w = cols.conj()[:, None, :] * cols[None, :, :]
    if jm.slot_grams is not None:
        w *= (grams if len(starts) == n else grams[starts]).transpose(1, 2, 0)  # G_{l_a}[b, c]
    pers = permanent_gather_batch(w, pairs.images, mult=mult)
    weights = np.where(pairs.involution, 1.0, 2.0) * values
    real = weights @ pers.real
    imag = weights[pairs.involution] @ pers.imag[pairs.involution]
    return complex(real, imag)


# -- permanent-basis engine -----------------------------------------------------


@lru_cache(maxsize=128)
def _basis_tuples(r: int, sizes: tuple[int, ...], hall: bool) -> tuple[np.ndarray, np.ndarray]:
    """Basis tuples over r basis states that are nondecreasing within each
    output block (blocks of the given sizes, in slot order), as a shared,
    read-only (T, N) index array in lexicographic order, with the count of
    their distinct rearrangements (T,).

    Permuting basis indices among slots of the same output mode permutes whole
    columns of the Hadamard product, so |per| is constant on those orbits; the
    weight makes the reduced sum equal to the full r^N tuple sum.

    With ``hall``, the tuples of the product fold: those whose permanent can
    be nonzero when every slot's factor is upper trapezoidal in slot order
    (R[q, beta] = 0 for q > beta). Column alpha of U[n|m] . S_j is then zero
    above row j_alpha, so a permutation with a nonzero product exists iff at
    most N - t slots carry j_alpha >= t for every t (Hall's condition): the
    parking functions, (N+1)^(N-1) of the N^N tuples at r = N. The condition
    counts slots, so each kept tuple keeps its weight. The table grows block
    by block, and a prefix that already breaks the condition is dropped
    before any of its extensions is built: more slots only raise its counts.
    """
    bound = sum(sizes) - np.arange(r)  # most slots allowed to carry an index >= t
    tuples, weights = np.zeros((1, 0), dtype=np.intp), np.ones(1, dtype=np.int64)
    above = np.zeros((1, r), dtype=np.intp)  # fold only: per tuple, the slots carrying an index >= t
    for size in sizes:
        combos = np.array(list(itertools.combinations_with_replacement(range(r), size)),
                          dtype=np.intp)
        counts = np.array([
            math.factorial(size) // math.prod(math.factorial(c) for c in Counter(comb).values())
            for comb in combos.tolist()
        ], dtype=np.int64)
        if hall:
            combo_above = np.count_nonzero(combos[:, :, None] >= np.arange(r), axis=1)
            rows, cols = np.nonzero(np.all(above[:, None] + combo_above <= bound, axis=2))
            above = above[rows] + combo_above[cols]
        else:  # every extension is kept: no (T, C, r) count is formed
            rows, cols = np.indices((len(tuples), len(combos))).reshape(2, -1)
        tuples = np.concatenate([tuples[rows], combos[cols]], axis=1)
        weights = weights[rows] * counts[cols]
    tuples.setflags(write=False)
    weights.setflags(write=False)
    return tuples, weights


@dataclass(frozen=True)
class _FoldSetup:
    """Set-up of the product fold. ``kind[det]`` indexes the detector axis of
    every group; each group holds the draws of one Gram-factor rank r as
    their weights (D,) and the (r, N) slot columns of each detector's upper
    trapezoidal Gram factor, (detectors, D, r, N), C-contiguous."""

    kind: dict
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    draws: int


def _gram_draws(draws, detectors) -> _FoldSetup:
    """Factor every (weight, N slot states) draw: per detector, the Gram of
    its distinct states (duplicates add no rank) is factored by
    ``gram_factor``, expanded to the draw's N slots, cut to r, the largest
    rank over the detectors, and replaced by the R of its QR decomposition.
    That R is upper trapezoidal in slot order and R^dagger R is the slot Gram
    up to rounding, with nothing divided, so the fold may skip the tuples
    that ``_basis_tuples`` drops. Each draw's Gram is a sub-block of one Gram
    per detector over the distinct states of all draws, read from their Gram
    table. The factoring is batched: the Grams are zero-padded to the largest
    number of distinct states, whose padding adds only zero eigenvalues, for
    one stacked eigh over the detectors and draws, and the draws of each rank
    take one stacked QR. Draws that no detector sees (r = 0) are dropped."""
    draws = list(draws)
    table = _GramTable(s for _, states in draws for s in states)
    kind = {det: i for i, det in enumerate(detectors)}
    if not kind:
        return _FoldSetup(kind, (), len(draws))
    distinct = [list(dict.fromkeys(states)) for _, states in draws]
    valid = np.arange(max(map(len, distinct))) < np.array([len(d) for d in distinct])[:, None]
    at = np.zeros(valid.shape, dtype=np.intp)
    at[valid] = table.index(s for states in distinct for s in states)
    grams = np.stack([table.block(at, det) for det in kind])
    factors, rank = gram_factor(np.where(valid[:, :, None] & valid[:, None, :], grams, 0))
    ranks = rank.max(axis=0)
    cols = np.array([[d.index(s) for s in states] for d, (_, states) in zip(distinct, draws)])
    factors = np.take_along_axis(factors, cols[None, :, None, :], axis=3)
    probs = np.array([weight for weight, _ in draws])
    groups = tuple((probs[ranks == r], np.linalg.qr(factors[:, ranks == r, :r], mode="r"))
                   for r in dict.fromkeys(ranks.tolist()) if r)  # ranks in order of first draw
    return _FoldSetup(kind, groups, len(draws))


def _gathered_permanents(count: int, r: int, images: np.ndarray, gather):
    """Permanents of A_{d T + t}[b, a] = W[b, d r + images[t, b], a] for the
    ``count`` offsets d r and the T rows of an image table, in blocks of
    offsets: ``gather(block)`` returns the (n, size, r, n) W of a slice of
    offsets, and each block holds as many as keep W and its permanents within
    RYSER_TEMP_ELEMENTS numbers each, so a few offsets take one kernel call
    and many never take one call each. Yields each block's slice and its
    (size, T) permanents from one ``permanent_gather_batch`` call, the feeder
    of the tau route: no stack of matrices or (size T, n) index exists."""
    n = images.shape[1]
    block = max(1, RYSER_TEMP_ELEMENTS // max(len(images), r * n * n))
    for start in range(0, count, block):
        w = gather(slice(start, start + block))
        size = w.shape[1]
        pers = permanent_gather_batch(w.reshape(n, size * r, n), images, np.arange(size) * r)
        yield slice(start, start + size), pers.reshape(size, -1)


def _fold_output(setup: _FoldSetup, slot_dets: tuple[DetectorModel, ...],
                 usub: np.ndarray, n_occ, m_occ, engine: str) -> ProbabilityResult:
    """P = (1/(mu(n) mu(m))) sum_draws p sum_j w_j |per(U[n|m] . S_j)|^2 over
    canonical tuples j, S_j[beta, alpha] = R_{l_alpha}[j_alpha, beta]: each
    slot's basis sum gives sum_j conj(R[j, b]) R[j, c] = G_{l_alpha}[b, c].
    The factors of ``_gram_draws`` are upper trapezoidal, so only the tuples
    that meet Hall's condition (``_basis_tuples``) are evaluated; the others
    have permanent exactly 0. ``_gathered_permanents`` gathers the transpose
    of U[n|m] . S_j of draw d from W[alpha, d r + q, beta] =
    R_{d, l_alpha}[q, beta] U[k_beta, l_alpha] for every tuple, one call per
    rank and block of draws. ``usub`` is U[n|m] of checked occupations."""
    n = len(slot_dets)
    dets = [setup.kind[det] for det in slot_dets]
    total, permanents = 0.0, 0
    for probs, factors in setup.groups:
        _, draws, r, _ = factors.shape
        tuples, weights = _basis_tuples(r, tuple(c for c in m_occ if c), hall=True)
        for at, pers in _gathered_permanents(
                draws, r, tuples, lambda at: factors[dets, at] * usub.T[:, None, None, :]):
            coefs = probs[at, None] * weights  # p_d w_t of pair d T + t
            total += coefs.ravel() @ (pers.real**2 + pers.imag**2).ravel()
        permanents += draws * len(tuples)
    log.debug("%s engine: product-fold route, N=%d, %d draws, %d permanents",
              engine, n, setup.draws, permanents)
    return _finalize(total / (mu(n_occ) * mu(m_occ)), m_occ, engine)


def prob_permanent_basis(photons: Sequence[PureState | MixedState],
                         detectors: Sequence[DetectorModel] | None,
                         u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """Finite-basis sum P = (1/mu(m)) sum_j |per(U[n|m] . S(j))|^2.

    Requires at most one photon per input mode. Mixed photons are averaged
    over their ensemble components (probability is linear in each photon's
    density operator). One output of ``_spectral_outputs``."""
    n_occ, m_occ, _ = _sizes(n_occ, m_occ, u.shape[0])
    [result], _ = _spectral_outputs("permanent", photons, detectors, u, n_occ, [m_occ])
    return result


def _slot_detectors(detectors: Sequence[DetectorModel] | None, ls: Sequence[int],
                    modes: int) -> tuple[DetectorModel, ...]:
    """Expand per-mode detectors to the slots of an output's l-list."""
    if detectors is None:
        detectors = (IDEAL,) * modes
    detectors = tuple(detectors)
    if len(detectors) != modes:
        raise ValidationError(f"need one detector per mode: {len(detectors)} != {modes}")
    return tuple(detectors[l] for l in ls)


# -- general ensemble engine -----------------------------------------------------


@dataclass
class GeneralEnsemble:
    """Spectral state of N photons as an ensemble of (weight, component)
    pairs, each component in one of two forms:

    * with a ``basis``, a tensor coefficient array C of r^N entries over that
      rank-r span basis, evaluated as entangled;
    * with ``basis`` None, a product C = c_1 x ... x c_N given by its N slot
      states, as ``from_photons`` builds it.

    Every component describes the same number of photons, and the weights
    are finite, nonnegative and sum to 1 within 1e-12 per photon, the bound
    of each ``MixedState``."""

    basis: SpanBasis | None
    components: tuple[tuple[float, np.ndarray | tuple[PureState, ...]], ...]

    def __post_init__(self):
        if len(slots := {self._slots(c) for _, c in self.components}) > 1:
            raise ValidationError(f"components describe different photon numbers {sorted(slots)}")
        if not self.components:
            raise ValidationError("ensemble needs at least one component")
        weights = [w for w, _ in self.components]
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValidationError("ensemble weights must be finite and nonnegative")
        total = sum(weights)
        if abs(total - 1.0) > 1e-12 * max(1, self.n):
            raise ValidationError(f"ensemble weights must sum to 1 within 1e-12 per photon, got {total}")

    def _slots(self, component) -> int:
        return len(component) if self.basis is None else np.ndim(component)

    @property
    def n(self) -> int:
        return self._slots(self.components[0][1])

    @staticmethod
    def from_photons(photons: Sequence[PureState | MixedState],
                     n_occ: Sequence[int] | None = None) -> "GeneralEnsemble":
        """Product-form ensemble of checked photons, one component per draw of
        ``_slot_draws``: one ensemble draw per input mode (photons sharing a
        mode fluctuate together, different modes independently), its N slot
        states with weight prod p. Photons in one input mode must carry the
        same state (ValidationError). Without an occupation vector every
        photon occupies its own mode (independent draws)."""
        if n_occ is None:
            n_occ = (1,) * len(photons)
        if len(photons) != sum(n_occ):
            raise ValidationError(f"need {sum(n_occ)} photons, got {len(photons)}")
        return GeneralEnsemble(None, tuple(_slot_draws(photons, mode_list(n_occ))))

    def validate_symmetry(self, n_occ) -> None:
        """The G-function symmetry: C invariant, to 1e-10 absolute, under
        permutations of tensor slots within each input-mode block; a product
        component carries the same state on every slot of a block."""
        if self.basis is None:
            for _, states in self.components:
                _validate_block_states(states, mode_list(n_occ))
            return
        for _, tensor in self.components:
            for block in mode_subgroup_blocks(n_occ):
                for a, b in zip(block, block[1:]):
                    if not np.allclose(tensor, np.swapaxes(tensor, a, b), atol=1e-10):
                        raise ValidationError(
                            "ensemble tensor is not symmetric under the input-mode "
                            f"subgroup (slots {a}, {b})"
                        )


def _checked_ensemble(spectral: Sequence[PureState | MixedState] | GeneralEnsemble,
                      n_occ) -> GeneralEnsemble:
    """The spectral input of the ``permanent``, ``general`` and ``oracle``
    engines as one checked ensemble: photons become their ``from_photons``
    ensemble; a given ensemble must describe |n| photons and pass
    ``validate_symmetry``."""
    if not isinstance(spectral, GeneralEnsemble):
        return GeneralEnsemble.from_photons(spectral, n_occ)
    n = sum(n_occ)
    if spectral.n != n:
        raise ValidationError(f"ensemble describes {spectral.n} photons, instance has {n}")
    spectral.validate_symmetry(n_occ)
    return spectral


@dataclass(frozen=True)
class _TensorSetup:
    """Set-up of the general engine's tensor route: ``rows[det]`` is
    sqrt(Gamma) in the span basis, (r, r); ``coeffs`` holds the (K, r^N)
    component tensors."""

    rows: dict
    probs: np.ndarray
    coeffs: np.ndarray


def _spectral_setup(engine: str, spectral, n_occ, detectors) -> _FoldSetup | _TensorSetup:
    """Output-independent set-up of ``permanent`` and ``general`` from
    ``_checked_ensemble``: the product fold's draws for product components,
    else a ``_TensorSetup`` (capped at r^N <= TENSOR_MAX_ENTRIES). The
    ``permanent`` engine takes at most one photon per input mode."""
    if engine == "permanent" and any(c > 1 for c in n_occ):
        raise UnsupportedInputError(
            "prob_permanent_basis needs a single photon or vacuum per input mode; "
            "use prob_jmatrix or prob_general for multi-occupancy inputs"
        )
    ensemble = _checked_ensemble(spectral, n_occ)
    if ensemble.basis is None:
        return _gram_draws(ensemble.components, detectors)
    if ensemble.basis.rank**ensemble.n > TENSOR_MAX_ENTRIES:
        raise SizeLimitError(f"r^N = {ensemble.basis.rank**ensemble.n} exceeds "
                             f"TENSOR_MAX_ENTRIES = {TENSOR_MAX_ENTRIES}")
    probs = np.array([w for w, _ in ensemble.components])
    coeffs = np.stack([np.asarray(c, dtype=complex).reshape(-1) for _, c in ensemble.components])
    sqrt_ops = {det: ensemble.basis.detector_sqrt(det) for det in detectors}
    return _TensorSetup(sqrt_ops, probs, coeffs)


def _tensor_output(setup: _TensorSetup, slot_dets: tuple[DetectorModel, ...],
                   usub: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """P(m|n) on the tensor route of the general engine, for checked
    occupations and their U[n|m]. ``_gathered_permanents`` gathers
    U[n|m] . B(j, j'), B(j, j')[beta, alpha] = rows[alpha, j_alpha, j'_beta],
    from W[beta, t r + q, alpha] = U[k_beta, l_alpha] rows[alpha, j_{t, alpha}, q]
    for each block of canonical tuples j and every tuple j' as an image."""
    n = len(slot_dets)
    rows = np.stack([setup.rows[det] for det in slot_dets])
    r = rows.shape[1]
    tuples, weights = _basis_tuples(r, tuple(c for c in m_occ if c), hall=False)
    images = np.indices((r,) * n).reshape(n, -1).T  # every j', in the order of the coefficients
    total = 0.0
    for at, pers in _gathered_permanents(
            len(tuples), r, images,
            lambda at: usub[:, None, None, :] * rows[np.arange(n), tuples[at]].transpose(0, 2, 1)):
        amps = pers @ setup.coeffs.T  # (tuples, components)
        total += weights[at] @ ((amps.real**2 + amps.imag**2) @ setup.probs)
    log.debug("general engine: tensor route, N=%d, r=%d, %d canonical tuples, %d permanents",
              n, r, len(tuples), len(tuples) * r**n)
    total /= mu(n_occ) * mu(m_occ)
    return _finalize(total, m_occ, "general")


def prob_general(ensemble: GeneralEnsemble, detectors: Sequence[DetectorModel] | None,
                 u: np.ndarray, n_occ, m_occ) -> ProbabilityResult:
    """General multi-occupancy, entangled-spectral-ensemble probability:
    P = (1/(mu mu)) sum_i p_i sum_j |sum_j' C_{j'} per(U[n|m] . B(j, j'))|^2
    with B(j, j')[beta, alpha] = <j_alpha| sqrt(Gamma_{l_alpha}) |j'_beta>.

    The route follows from the ensemble. A product component, given by its
    slot states (every ``from_photons`` ensemble), is a draw of the product
    fold of ``prob_permanent_basis`` (the permanent is linear in each row):
    one permanent per basis tuple of its own Gram factors, exact whatever
    the number of components K, with no span basis. Components given as
    tensors (entangled) share the r^N permanents per tuple in the span
    basis. One output of ``_spectral_outputs``."""
    n_occ, m_occ, _ = _sizes(n_occ, m_occ, u.shape[0])
    [result], _ = _spectral_outputs("general", ensemble, detectors, u, n_occ, [m_occ])
    return result


def _spectral_outputs(engine: str, spectral, detectors: Sequence[DetectorModel] | None,
                      u: np.ndarray, n_occ, outputs: Sequence[tuple[int, ...]]
                      ) -> tuple[list[ProbabilityResult], int]:
    """P(m|n) of the ``permanent`` or ``general`` engine on checked
    occupations, the only route of both: one ``_spectral_setup`` over the
    slot detectors of every output, then every output on the route it
    chose, the product fold or the tensor route. Returns the results and the
    Grams of the set-up (one per detector on the fold, none on the tensor
    route). The vacuum, with no slot, has P = 1 on either route."""
    slots = [mode_list(m_occ) for m_occ in outputs]
    slot_dets = [_slot_detectors(detectors, ls, u.shape[0]) for ls in slots]
    kinds = set().union(*slot_dets)
    setup = _spectral_setup(engine, spectral, n_occ, kinds)
    if not kinds:
        return [_finalize(1.0 + 0j, m_occ, engine) for m_occ in outputs], 0
    if isinstance(setup, _FoldSetup):
        route, grams = partial(_fold_output, engine=engine), len(kinds)
    else:
        route, grams = _tensor_output, 0
    rows = np.asarray(u, dtype=complex).take(mode_list(n_occ), axis=0)
    return [route(setup, dets, rows.take(ls, axis=1), n_occ, m_occ)
            for m_occ, ls, dets in zip(outputs, slots, slot_dets)], grams


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

    The photons or ensemble are checked as for ``general``
    (``_checked_ensemble``). An ensemble given as tensors is contracted in
    its span basis (rank r <= N); every other ensemble, photons included,
    is read component by component as products of per-slot Grams. Shares
    only the spectral data layer and the draw enumeration with the other
    engines; no J matrix, no permanents.
    """
    n_occ, m_occ, n = _sizes(n_occ, m_occ, u.shape[0])
    if n > ORACLE_MAX_N:
        raise SizeLimitError(f"prob_oracle capped at N <= {ORACLE_MAX_N}, got {n}")
    ensemble = _checked_ensemble(photons_or_ensemble, n_occ)
    if n == 0:
        return _finalize(1.0 + 0j, m_occ, "oracle")
    ls = np.asarray(mode_list(m_occ), dtype=np.intp)
    slot_dets = _slot_detectors(detectors, ls, u.shape[0])
    ks = np.asarray(mode_list(n_occ), dtype=np.intp)
    perms = permutation_array(n)
    invs = np.argsort(perms, axis=1)
    x_inv = np.prod(u[ks[invs], ls[None, :]], axis=1)
    if ensemble.basis is not None:
        tmat = _oracle_tensor_contractions(ensemble, slot_dets, invs, n)
    else:
        nf = perms.shape[0]
        tmat = np.zeros((nf, nf), dtype=complex)
        for weight, states in ensemble.components:
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


def _jmatrix_sweep(photons: Sequence[PureState | MixedState],
                   detectors: Sequence[DetectorModel] | None, u: np.ndarray, n_occ,
                   outputs: list[tuple[int, ...]]) -> tuple[list[ProbabilityResult], int, int]:
    """Every output on the route of ``prob_jmatrix`` (``_jmatrix_output``),
    with the checks, Grams and J builds done once. N is checked against
    JMATRIX_MAX_N before any set-up. The set-up reads its Grams from one Gram
    table: for pure photons (their single ``_slot_draws`` draw) one Gram per
    detector over the slot states, for mixed photons one ``_MixedSetup``. J
    depends on an output only through its slot-detector tuple, so one J is
    built per distinct tuple (one at a time, since a dense J can be large)
    and serves the outputs of that tuple, each with its U[n|m] taken from
    the rows of U for the input modes. Returns the results, the Grams of the
    table and the J builds."""
    ks = mode_list(n_occ)
    if len(ks) > JMATRIX_MAX_N:
        raise SizeLimitError(f"jmatrix sweep capped at N <= {JMATRIX_MAX_N}, got {len(ks)}")
    groups: dict[tuple[DetectorModel, ...], list[int]] = {}
    slots = [mode_list(m_occ) for m_occ in outputs]
    for i, ls in enumerate(slots):
        groups.setdefault(_slot_detectors(detectors, ls, u.shape[0]), []).append(i)
    if any(is_mixed(p) for p in photons):
        setup = _MixedSetup(photons, ks)
        table, build = setup.table, setup.build
    else:
        [(_, states)] = _slot_draws(photons, ks)  # single-component MixedStates too
        table = _GramTable(states)
        at = table.index(states)
        build = partial(_pure_from_grams, {det: table.block(at, det) for det in set().union(*groups)})
    rows = np.asarray(u, dtype=complex).take(ks, axis=0)
    results: list[ProbabilityResult] = [None] * len(outputs)  # type: ignore[list-item]
    for dets, members in groups.items():
        jm = build(dets)
        for i in members:
            results[i] = _jmatrix_output(jm, rows.take(slots[i], axis=1), n_occ, outputs[i])
    return results, len(table.grams), len(groups)


def output_distribution(engine: str, u: np.ndarray, n_occ, *,
                        photons: Sequence[PureState | MixedState] | None = None,
                        detectors: Sequence[DetectorModel] | None = None,
                        ensemble: GeneralEnsemble | None = None) -> DistributionResult:
    """Probabilities of every output configuration |m| = N, in canonical
    (descending lexicographic) output order.

    Every engine takes one detector per mode (ValidationError otherwise),
    and the output-independent set-up of an engine is done once per sweep:
    for ``permanent`` and ``general``, the set-up of ``_spectral_outputs``
    (the Gram factors of each draw and detector, from one Gram per detector,
    or the span-basis operators and checks of an ensemble given as
    tensors); for ``jmatrix``, one Gram per detector (pure photons) or one
    mixed set-up (draws, Gram table and photon factors), and one J build per
    distinct slot-detector tuple. Given both photons and an ensemble,
    ``general`` reads the ensemble."""
    modes = u.shape[0]
    n_occ = check_occupation(n_occ, modes)
    n = sum(n_occ)
    if engine not in ENGINES:
        raise ValidationError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine in ("jmatrix", "permanent") and photons is None:
        raise ValidationError(f"engine {engine!r} needs photons")
    if engine in ("general", "oracle") and photons is None and ensemble is None:
        raise ValidationError(f"engine {engine!r} needs spectral data")
    if photons is not None and len(photons) != n:
        raise ValidationError(f"photon list length {len(photons)} != |n| = {n}")
    if detectors is not None and len(detectors) != modes:
        raise ValidationError(f"need one detector per mode: {len(detectors)} != {modes}")
    outputs = enumerate_outputs(modes, n)
    grams = builds = 0
    spectral = photons if engine == "permanent" or ensemble is None else ensemble
    if engine == "jmatrix":
        results, grams, builds = _jmatrix_sweep(photons, detectors, u, n_occ, outputs)
    elif engine in ("permanent", "general"):
        results, grams = _spectral_outputs(engine, spectral, detectors, u, n_occ, outputs)
    elif engine == "oracle":
        results = [prob_oracle(spectral, detectors, u, n_occ, m_occ) for m_occ in outputs]
    elif engine == "classical":
        results = [prob_classical(u, n_occ, m_occ) for m_occ in outputs]
    else:
        results = [prob_ideal_indistinguishable(u, n_occ, m_occ) for m_occ in outputs]
    log.debug("output_distribution: %s engine, %d outputs, set-up: %d Grams, %d J builds",
              engine, len(outputs), grams, builds)
    return DistributionResult(input=n_occ, engine=engine, results=results)


def normalization_report(engine: str, u: np.ndarray, n_occ, *,
                         photons=None, detectors=None, ensemble=None) -> float:
    """Sum of P(m|n) over all outputs.

    1 for ideal detectors; below 1 for lossy detectors (the post-selected sum
    is reported as-is, renormalization is the caller's decision).
    """
    return output_distribution(engine, u, n_occ, photons=photons, detectors=detectors,
                               ensemble=ensemble).total
