"""The partial-indistinguishability matrix J(sigma1, sigma2), its reduced and
cycle-compressed forms, Mandel visibility, and the normalized purity measure.

J is an N! x N! Hermitian PSD matrix indexed by permutation pairs in the
canonical (lexicographic) order of ``symgroup.enumerate_permutations``. For
pure product inputs

    J(s1, s2) = prod_alpha <phi_{s1(alpha)} | Gamma_{l_alpha} | phi_{s2(alpha)}>,

for independent mixed inputs each entry factorizes over the disjoint cycles of
the relative permutation s2 s1^{-1} into operator traces, and for identical
sources with identical detectors it collapses to a function of the cycle type
alone: J = prod_k g_k^{C_k}.

``JMatrix`` is the one J type, with one of three storages. A pure build
(``build_pure``, ``build_extreme``) stores only its N per-slot Gram matrices
G_{l_alpha}[b, c] = <phi_b | Gamma_{l_alpha} | phi_c>, which determine every
entry; a cycle-compressed build stores one value per cycle type; a mixed
build (``build_mixed``) stores the dense matrix and is capped at
N <= DENSE_CAP. ``as_dense`` materialises the first two on demand
(N <= DENSE_CAP) and caches the result. The reduced J of ``reduce_jmatrix``
is a ``JMatrix`` too: a cycle J stays cycle, any other becomes dense.

A mixed build traces each distinct cycle of S_N (``symgroup.cycle_table``)
once per detector labelling, on blocks of the photons' own density
operators, and gathers J by the relative position of s2 s1^{-1}. Its
detector-independent set-up (``_MixedSetup``: the draws of correlated
modes, one Gram table of the photons' pure components, each photon's
factor) is made once, so a sweep sets up once and builds one J per
slot-detector tuple. ``_slot_draws`` is the only place where photons
become draws: ``GeneralEnsemble.from_photons``, the pure ``jmatrix`` sweep
and the mixed set-up all call it.

With dissimilar detectors the entries depend on the output configuration, so
every J carries its output context (the mode list it was built for) and the
probability engines refuse to reuse it across outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import spectral
from .errors import (
    DegenerateDetectionError,
    SizeLimitError,
    ValidationError,
)
from .network import mode_list
from .spectral import (
    GRAM_TOL,
    IDEAL,
    DetectorModel,
    MixedState,
    PureState,
    _GramTable,
    gram_matrix,
    is_mixed,
    pure_components,
)
from .symgroup import (
    cycle_table,
    cycle_type_positions,
    cycle_types,
    permutation_array,
    permutation_index,
    relative_cycle_type,
    relative_positions,
)

DENSE_CAP = 6  # 6!^2 = 518400 complex entries: caps dense storage and mixed builds
CYCLE_STACK_ELEMENTS = 1 << 18  # bounds the cycle-product stacks of a mixed build


@dataclass
class JMatrix:
    """Partial-indistinguishability matrix with one of three storages.

    dense: full (N!, N!) array. cycle: map cycle_type -> value, valid for
    identical sources and detectors. lazy: the (N, N, N) per-slot Grams
    ``slot_grams`` of a pure build (any N). ``as_dense`` materialises a cycle
    or lazy J for N <= DENSE_CAP and caches it in ``dense``.
    """

    n: int
    storage: str  # "dense" | "cycle" | "lazy"
    dense: np.ndarray | None = None
    cycle_values: dict[tuple[int, ...], complex] | None = None
    slot_grams: np.ndarray | None = None  # [alpha, b, c] = <phi_b|Gamma_{l_alpha}|phi_c>
    output_modes: tuple[int, ...] | None = None  # l-list this J was built for
    detectors: tuple[DetectorModel, ...] | None = None  # per output slot

    def __post_init__(self):
        """Check the storage's payload by shape (by keys for a cycle J), not
        by value: a sweep builds one J per slot-detector tuple."""
        if self.n < 0:
            raise ValidationError(f"J needs N >= 0 photons, got {self.n}")
        if self.storage == "cycle":
            if (self.cycle_values is None
                    or set(self.cycle_values) != {ct for ct, _ in cycle_types(self.n)}):
                raise ValidationError(
                    f"cycle J of N={self.n} needs one value per cycle type of S_{self.n}")
            return
        if self.storage == "dense":
            payload, shape = self.dense, (math.factorial(self.n),) * 2
        elif self.storage == "lazy":
            payload, shape = self.slot_grams, (self.n,) * 3
        else:
            raise ValidationError(
                f"J storage must be 'dense', 'cycle' or 'lazy', got {self.storage!r}")
        if np.shape(payload) != shape:
            raise ValidationError(
                f"{self.storage} J of N={self.n} needs an array of shape {shape}, "
                f"got {'none' if payload is None else np.shape(payload)}")

    @property
    def detector_dependent(self) -> bool:
        """Whether the entries change with the output configuration: only
        when the slots carry different detectors (ideal ones count as equal)."""
        dets = self.detectors or ()
        return len(set(dets)) > 1 and not all(d.is_ideal for d in dets)

    def entry(self, s1: Sequence[int], s2: Sequence[int]) -> complex:
        """J(s1, s2) for image arrays s1, s2, which must be permutations of
        0..N-1 (ValidationError otherwise) whatever the storage."""
        for s in (s1, s2):
            if sorted(s) != list(range(self.n)):
                raise ValidationError(
                    f"J of N={self.n} is indexed by permutations of 0..{self.n - 1}, "
                    f"got {np.asarray(s).tolist()}")
        if self.storage == "dense":
            return complex(self.dense[permutation_index(s1), permutation_index(s2)])
        if self.storage == "cycle":
            return complex(self.cycle_values[relative_cycle_type(s1, s2)])
        i1, i2 = np.asarray(s1, dtype=np.intp), np.asarray(s2, dtype=np.intp)
        return complex(np.prod(self.slot_grams[np.arange(self.n), i1, i2]))

    def cycle_weights(self) -> np.ndarray:
        """(N!,) J(id, tau) = J_ct(tau) of a cycle J, tau in canonical order."""
        values = np.array([self.cycle_values[ct] for ct, _ in cycle_types(self.n)])
        return values[cycle_type_positions(self.n)]

    def as_dense(self) -> np.ndarray:
        """Materialize the full matrix (N <= DENSE_CAP only)."""
        if self.dense is not None:
            return self.dense
        if self.n > DENSE_CAP:
            raise SizeLimitError(f"dense J storage capped at N <= {DENSE_CAP}, got N={self.n}")
        if self.slot_grams is not None:
            out = _slot_product(self.slot_grams, permutation_array(self.n))
        else:  # cycle values: J(s1, s2) = J(id, s2 s1^-1)
            out = self.cycle_weights()[relative_positions(self.n)]
        self.dense = out
        return out

    def context_matches(self, output_modes: Sequence[int]) -> bool:
        """Whether this J may be used for the given output mode list.

        With different slot detectors the entries depend on the l-list, so an
        exact match is required; with one detector on every slot (or ideal
        ones) J is output independent."""
        if not self.detector_dependent:
            return self.output_modes is None or len(output_modes) == self.n
        return self.output_modes == tuple(output_modes)


def _slot_product(grams, rows: np.ndarray) -> np.ndarray:
    """(P, P) products prod_alpha grams[alpha][rows[i, alpha], rows[j, alpha]]
    over the columns of the (P, N) index rows: a pure J on permutation rows,
    or its restriction to coset patterns (Tichy, PRA 91, 022316, 2015)."""
    out = np.ones((len(rows),) * 2, dtype=complex)
    for alpha, gram in enumerate(grams):
        idx = rows[:, alpha]
        out *= gram[idx[:, None], idx[None, :]]
    return out


def _cycle_jmatrix(gk: Sequence[float], detectors: tuple[DetectorModel, ...] | None = None
                   ) -> JMatrix:
    """The cycle J of N = len(gk) photons: J(s1, s2) = prod_k g_k^{C_k} with
    C the cycle type of s2 s1^{-1}, one value per cycle type."""
    values: dict[tuple[int, ...], complex] = {}
    for counts, _ in cycle_types(len(gk)):
        val = 1.0
        for k, c in enumerate(counts, start=1):
            if c:
                val *= gk[k - 1] ** c
        values[counts] = complex(val)
    return JMatrix(len(gk), "cycle", cycle_values=values, detectors=detectors)


@dataclass(frozen=True)
class PurityResult:
    trace2: float           # Tr{(J_hat / N!)^2}
    purity: float | None    # normalized; None when N = 1 (degenerate)
    degenerate: bool = False


def _identity_cycle_type(n: int) -> tuple[int, ...]:
    return (n,) + (0,) * (n - 1)


# -- builders -----------------------------------------------------------------


def _check_slot_detectors(n: int, detectors: Sequence[DetectorModel]) -> tuple[DetectorModel, ...]:
    detectors = tuple(detectors)
    if len(detectors) != n:
        raise ValidationError(f"need one detector per photon slot: {len(detectors)} != {n}")
    return detectors


def _validate_block_states(states: Sequence, input_modes: Sequence[int] | None):
    """Slots sharing a multiply-occupied input mode must carry the same state,
    otherwise the input is not a valid Fock-space density matrix."""
    if input_modes is None:
        return
    by_mode: dict[int, int] = {}
    for slot, mode in enumerate(input_modes):
        first = by_mode.setdefault(mode, slot)
        if pure_components(states[first]) != pure_components(states[slot]):
            raise ValidationError(
                f"slots {first} and {slot} share input mode {mode} but carry different "
                "spectral states; photons in one mode must be identical"
            )


def _slot_draws(states: Sequence[PureState | MixedState], input_modes: Sequence[int]
                ) -> Iterator[tuple[float, tuple[PureState, ...]]]:
    """The joint draws of photons in their input modes, the only place where
    photons become draws: one ensemble draw per input mode (photons sharing
    a mode fluctuate together, different modes independently), each with
    weight prod p and its slot states. Photons in one input mode must carry
    the same state (ValidationError)."""
    _validate_block_states(states, input_modes)
    modes = list(dict.fromkeys(input_modes))
    axes = [pure_components(states[list(input_modes).index(k)]) for k in modes]
    for draw in itertools.product(*axes):
        drawn = {k: state for k, (_, state) in zip(modes, draw)}
        yield math.prod(w for w, _ in draw), tuple(drawn[k] for k in input_modes)


def build_pure(states: Sequence[PureState], detectors: Sequence[DetectorModel], *,
               output_modes: Sequence[int] | None = None,
               input_modes: Sequence[int] | None = None) -> JMatrix:
    """J for single photons in pure spectral states:
    J(s1, s2) = prod_alpha <phi_{s1(a)} | Gamma_{l_a} | phi_{s2(a)}>,
    stored as its per-slot Gram matrices (one Gram per distinct detector)."""
    detectors = _check_slot_detectors(len(states), detectors)
    _validate_block_states(states, input_modes)
    grams = {det: gram_matrix(states, det) for det in set(detectors)}
    return _pure_from_grams(grams, detectors, output_modes=output_modes)


def _pure_from_grams(grams: dict[DetectorModel, np.ndarray],
                     detectors: tuple[DetectorModel, ...], *,
                     output_modes: Sequence[int] | None = None) -> JMatrix:
    """The pure J of checked slot detectors from the Gram of each detector,
    so that a sweep over outputs computes each Gram once."""
    n = len(detectors)
    slot_grams = np.array([grams[d] for d in detectors], dtype=complex).reshape(n, n, n)
    return JMatrix(n, "lazy", slot_grams=slot_grams,
                   output_modes=tuple(output_modes) if output_modes is not None else None,
                   detectors=detectors)


def build_mixed(states: Sequence[PureState | MixedState],
                detectors: Sequence[DetectorModel], *,
                output_modes: Sequence[int] | None = None,
                input_modes: Sequence[int] | None = None) -> JMatrix:
    """J for photons in mixed spectral states (fluctuating parameters enter
    through each MixedState's quadrature ensemble): the set-up of
    ``_MixedSetup`` and one accumulation over its draws.

    Photons in different input modes fluctuate independently. Photons
    sharing one input mode fluctuate together (they share each ensemble
    draw): a one-mode multi-photon state must stay invariant under one-sided
    permutations of its internal labels, which rules out independent
    within-mode jitter (it would not even be trace normalized after
    symmetrization).

    Per draw of those photons, J(s1, s2) = w_{L(s2)}(s2 s1^-1) with the
    detector labelling L(s2)(a) = detector of slot s2^-1(a): the cycle
    traces of ``_labelled_cycle_weights`` gathered by relative position.

    Dense-only (N <= DENSE_CAP); identical sources with identical detectors
    have the cycle-compressed form ``build_cycle_compressed`` at any N. No
    photons give the N = 0 J, [[1]] on the one permutation of no slots.
    """
    if not states:
        return JMatrix(0, "dense", dense=np.ones((1, 1), dtype=complex),
                       output_modes=tuple(output_modes) if output_modes is not None else None,
                       detectors=_check_slot_detectors(0, detectors))
    return _MixedSetup(states, input_modes).build(detectors, output_modes)


class _MixedSetup:
    """The detector-independent set-up of mixed J builds, in this order: the
    DENSE_CAP refusal, the block check, the draws of the correlated modes
    (several photons of one mixed state in one input mode, ``_slot_draws``),
    the Gram table of all pure components, and each photon's factor X_a.

    Photon a is rho_a = Phi_a P_a Phi_a^dagger (components Phi_a, weights
    P_a) and X_a = P_a^(1/2) V_a, V_a the eigenvectors of
    P_a^(1/2) Phi_a^dagger Phi_a P_a^(1/2) above GRAM_TOL of the largest,
    zero-padded to the largest rank r; nothing is divided by an eigenvalue.
    A photon of a correlated mode is its drawn pure state, X_a = 1. The
    set-up holds the table, the factors and each draw's table rows, never a
    draw's blocks, so a sweep sets it up once and ``build``s one J per
    slot-detector tuple."""

    def __init__(self, states: Sequence[PureState | MixedState],
                 input_modes: Sequence[int] | None):
        n = self.n = len(states)
        if n > DENSE_CAP:
            raise SizeLimitError(f"mixed J builds are dense-only (N <= {DENSE_CAP}), got N={n}; "
                                 "for identical sources and detectors use build_cycle_compressed")
        _validate_block_states(states, input_modes)
        modes = list(range(n) if input_modes is None else input_modes)
        drawn = [a for a in range(n) if modes.count(modes[a]) > 1 and is_mixed(states[a])]
        self.table = _GramTable(s for st in states for _, s in pure_components(st))
        xs, rows = [], []
        for a, st in enumerate(states):
            # a photon of a correlated mode is one pure row, set to its drawn state per draw
            comps = ((1.0, pure_components(st)[0][1]),) if a in drawn else pure_components(st)
            rows.append(self.table.index(s for _, s in comps))
            root = np.sqrt([w for w, _ in comps])
            w, v = np.linalg.eigh(root[:, None] * self.table.block(rows[-1], IDEAL) * root)
            xs.append(root[:, None] * v[:, w > GRAM_TOL * w[-1]])
        self.r = r = max(x.shape[1] for x in xs)
        # X_a on the rows of photon a's components and in column block a
        self.x = np.concatenate([np.pad(xa[:, None], ((0, 0), (a, n - 1 - a), (0, r - xa.shape[1])))
                                 for a, xa in enumerate(xs)]).reshape(-1, n * r)
        self.rows = np.concatenate(rows)
        self.drawn_rows = np.cumsum([0] + [len(at) for at in rows])[drawn]
        self.draws = [(weight, self.table.index(slot_states)) for weight, slot_states
                      in _slot_draws([states[a] for a in drawn], [modes[a] for a in drawn])]

    def build(self, detectors: Sequence[DetectorModel],
              output_modes: Sequence[int] | None = None) -> JMatrix:
        """The dense J of the slot detectors, accumulated over the draws:
        per draw, the blocks B^d_{a,b} = X_a^dagger (Phi_a^dagger Gamma_d
        Phi_b) X_b of every distinct detector d, read from the Gram table."""
        detectors = _check_slot_detectors(self.n, detectors)
        kinds = list(dict.fromkeys(detectors))
        slot_kind = np.array([kinds.index(d) for d in detectors])
        labellings, row_labelling = np.unique(slot_kind[np.argsort(permutation_array(self.n))],
                                              axis=0, return_inverse=True)
        gather = (row_labelling.reshape(-1)[None, :], relative_positions(self.n))
        xh, rows = self.x.conj().T, self.rows.copy()
        dense = np.zeros((math.factorial(self.n),) * 2, dtype=complex)
        for weight, at in self.draws:
            rows[self.drawn_rows] = at
            blocks = np.array([xh @ self.table.block(rows, det) @ self.x for det in kinds])
            blocks = blocks.reshape(-1, self.n, self.r, self.n, self.r).transpose(0, 1, 3, 2, 4)
            dense += weight * _labelled_cycle_weights(blocks, labellings)[gather]
        return JMatrix(self.n, "dense", dense=dense,
                       output_modes=tuple(output_modes) if output_modes is not None else None,
                       detectors=detectors)


def _labelled_cycle_weights(blocks: np.ndarray, labellings: np.ndarray) -> np.ndarray:
    """(labellings, N!) weights w_L(tau) of independently fluctuating
    photons, tau in canonical order, from their (D, N, N, r, r) blocks
    B^d_{a,b} and the (labellings, N) detector index L(a) of each element:
    w_L(tau) = prod over the cycles (a_1 ... a_k) of tau of
    Tr{Gamma_{L(a_1)} rho_{a_1} ... Gamma_{L(a_k)} rho_{a_k}}
    = Tr{B^{L(a_2)}_{a_1 a_2} ... B^{L(a_1)}_{a_k a_1}}.
    Each cycle of ``cycle_table`` is traced once per labelling: its open
    product is one block from its parent's, and the block back to its first
    element closes it. Stacks hold at most CYCLE_STACK_ELEMENTS entries."""
    n, r = blocks.shape[1], blocks.shape[-1]
    table = cycle_table(n)
    level_start = np.searchsorted(table.length, np.arange(1, n + 2))
    rows = np.arange(n)
    step = max(1, CYCLE_STACK_ELEMENTS // (len(table.length) * r * r))
    weights = np.empty((len(labellings), len(table.ids)), dtype=complex)
    for start in range(0, len(labellings), step):
        lab = labellings[start:start + step]
        traces = [np.trace(blocks[lab, rows, rows], axis1=2, axis2=3)]  # the fixed points
        first = previous = rows  # the first and last elements of the level's cycles
        for k in range(2, n + 1):
            cyc = slice(level_start[k - 1], level_start[k])
            parent, last = table.parent[cyc] - level_start[k - 2], table.last[cyc]
            block = blocks[lab[:, last], previous[parent], last]
            opens = block if k == 2 else opens[:, parent] @ block
            first, previous = first[parent], last
            close = blocks[lab[:, first], last, first]
            traces.append(np.einsum("lcij,lcji->lc", opens, close))
        traces.append(np.ones((len(lab), 1)))  # the padding id C
        weights[start:start + step] = np.concatenate(traces, axis=1)[:, table.ids].prod(axis=2)
    return weights


def build_cycle_compressed(rho: PureState | MixedState, det: DetectorModel,
                           n: int) -> JMatrix:
    """J for N photons from identical sources with identical detectors:
    J(s1, s2) = prod_k g_k^{C_k(s2 s1^{-1})} with g_k = Tr{(sqrt(G) rho sqrt(G))^k}."""
    if n < 1:
        raise ValidationError("need at least one photon")
    return _cycle_jmatrix([spectral.gk_trace(rho, det, k) for k in range(1, n + 1)],
                          (det,) * n)


def build_extreme(kind: str, occupation: Sequence[int],
                  detectors: Sequence[DetectorModel],
                  states: Sequence[PureState], *,
                  output_modes: Sequence[int] | None = None) -> JMatrix:
    """The two extreme cases with arbitrary detectors, as pure builds.

    kind='ind': completely indistinguishable photons, J = D * (all ones) with
    the detection probability D = prod_a <phi|Gamma_{l_a}|phi>.
    kind='cl': maximally distinguishable photons (cross-mode orthogonal,
    identical within a mode), block form with detector factors D(tau); the
    slot Grams are zeroed across input modes so the blocks are exact.
    ``output_modes`` is the l-list the slot detectors belong to, as in
    ``build_pure``; a J with different slot detectors needs it to be used.
    """
    n = int(sum(occupation))
    detectors = _check_slot_detectors(n, detectors)
    input_modes = mode_list(occupation)

    if kind == "ind":
        if len(set(states)) != 1:
            raise ValidationError("'ind' needs a single common spectral state")
        return build_pure([states[0]] * n, detectors, output_modes=output_modes,
                          input_modes=input_modes)

    if kind != "cl":
        raise ValidationError(f"extreme kind must be 'ind' or 'cl', got {kind!r}")
    if len(states) != n:
        raise ValidationError("'cl' needs one state per photon slot")
    jm = build_pure(states, detectors, output_modes=output_modes, input_modes=input_modes)
    ks = np.asarray(input_modes)
    same_mode = ks[:, None] == ks[None, :]
    cross = np.abs(jm.slot_grams * ~same_mode) > 1e-12
    if cross.any():
        _, a, b = np.argwhere(cross)[0]
        raise ValidationError(
            f"'cl' requires cross-mode orthogonal states (slots {a},{b} overlap)"
        )
    jm.slot_grams *= same_mode
    return jm


# -- reductions and measures ----------------------------------------------------


def reduce_jmatrix(jm: JMatrix) -> JMatrix:
    """J_hat = D^{-1/2} J D^{-1/2}: unit diagonal, |entries| <= 1, as a
    ``JMatrix`` with the output context of J. A cycle J stays cycle (its
    values divided by the identity's); a dense or lazy J becomes dense
    (N <= DENSE_CAP). Reducing a reduced J returns the same values."""
    if jm.storage == "cycle":
        ident = jm.cycle_values[_identity_cycle_type(jm.n)]
        if ident.real <= 0:
            raise DegenerateDetectionError("cycle-compressed J has vanishing diagonal")
        values = {ct: v / ident for ct, v in jm.cycle_values.items()}
        return JMatrix(jm.n, "cycle", cycle_values=values,
                       output_modes=jm.output_modes, detectors=jm.detectors)
    dense = jm.as_dense()
    diag = np.real(np.diagonal(dense)).copy()
    bad = np.nonzero(diag <= 0.0)[0]
    if bad.size:
        images = tuple(permutation_array(jm.n)[bad[0]])
        raise DegenerateDetectionError(
            f"J(sigma, sigma) = {diag[bad[0]]:.3e} for sigma = {images}; "
            "a path has zero detection probability"
        )
    scale = 1.0 / np.sqrt(diag)
    reduced = dense * scale[:, None] * scale[None, :]
    np.fill_diagonal(reduced, 1.0)
    if np.max(np.abs(reduced)) > 1.0 + 1e-9:
        raise ValidationError("reduced J has |entries| > 1; input J was not PSD")
    return JMatrix(jm.n, "dense", dense=reduced,
                   output_modes=jm.output_modes, detectors=jm.detectors)


def mandel_visibility(rho1: PureState | MixedState, rho2: PureState | MixedState,
                      det1: DetectorModel, det2: DetectorModel) -> complex:
    """Two-photon visibility V = J(T, I) / sqrt(J(I, I) J(T, T)), read from
    ``build_mixed`` with det1 on the first slot and det2 on the second.

    J(I,I) = Tr(G1 r1) Tr(G2 r2), J(T,T) = Tr(G2 r1) Tr(G1 r2),
    J(T,I) = Tr(G1 r1 G2 r2); |V| <= 1 follows from positivity.
    """
    j = build_mixed([rho1, rho2], (det1, det2)).dense
    j_ii, j_tt = j[0, 0].real, j[1, 1].real
    if j_ii <= 0.0 or j_tt <= 0.0:
        raise DegenerateDetectionError("a two-photon path has zero detection probability")
    return complex(j[1, 0] / math.sqrt(j_ii * j_tt))


def purity(jm: JMatrix) -> PurityResult:
    """Normalized purity P = (N!/(N!-1)) (Tr{(J_hat/N!)^2} - 1/N!).

    J is reduced first (``reduce_jmatrix``), which leaves an already reduced
    J unchanged. The cycle-compressed path sums over cycle types with class
    sizes N!/prod(k^{C_k} C_k!) and works for N <= 30.
    """
    red = reduce_jmatrix(jm)
    if red.storage == "cycle":
        return _purity_from_cycle(jm.n, red.cycle_values)
    return _purity_from_dense(jm.n, red.dense)


def _normalized_purity(n: int, trace2: float) -> PurityResult:
    nf = math.factorial(n)
    if nf == 1:
        return PurityResult(trace2=trace2, purity=None, degenerate=True)
    val = (nf / (nf - 1.0)) * (trace2 - 1.0 / nf)
    if not -1e-12 <= val <= 1.0 + 1e-12:
        raise ValidationError(f"normalized purity {val} outside [0, 1]")
    return PurityResult(trace2=trace2, purity=float(min(max(val, 0.0), 1.0)))


def _purity_from_dense(n: int, dense: np.ndarray) -> PurityResult:
    nf = math.factorial(n)
    trace2 = float(np.sum(np.abs(dense) ** 2)) / nf**2
    return _normalized_purity(n, trace2)


def _purity_from_cycle(n: int, values: dict[tuple[int, ...], complex]) -> PurityResult:
    if n > 30:
        raise SizeLimitError("cycle-compressed purity capped at N <= 30")
    nf = math.factorial(n)
    acc = 0.0
    for counts, size in cycle_types(n):
        acc += size * abs(values[counts]) ** 2
    return _normalized_purity(n, acc / nf)


# -- checks and serialization ----------------------------------------------------


def min_eigenvalue(jm: JMatrix) -> float:
    dense = jm.as_dense()
    return float(np.linalg.eigvalsh(dense)[0])


def dump_jmatrix(jm: JMatrix) -> dict:
    out: dict = {"n": jm.n, "order": "lex"}
    if jm.storage == "cycle":
        out["cycleCompressed"] = [
            {"cycleType": list(ct), "value": [v.real, v.imag]}
            for ct, v in sorted(jm.cycle_values.items())
        ]
        if jm.n <= DENSE_CAP:
            dense = jm.as_dense()
            out["entries"] = [[z.real, z.imag] for z in dense.ravel()]
    else:
        dense = jm.as_dense()
        out["entries"] = [[z.real, z.imag] for z in dense.ravel()]
    return out
