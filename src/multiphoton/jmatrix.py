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

A J has one of three storages. A pure build (``build_pure``,
``build_extreme``) stores only its N per-slot Gram matrices
G_{l_alpha}[b, c] = <phi_b | Gamma_{l_alpha} | phi_c>, which determine every
entry; a cycle-compressed build stores one value per cycle type; a mixed
build (``build_mixed``) stores the dense matrix and is capped at
N <= DENSE_CAP. ``as_dense`` materialises the first two on demand
(N <= DENSE_CAP) and caches the result.

With dissimilar detectors the entries depend on the output configuration, so
every J carries its output context (the mode list it was built for) and the
probability engines refuse to reuse it across outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import spectral
from .errors import (
    DegenerateDetectionError,
    SizeLimitError,
    ValidationError,
)
from .network import mode_list
from .spectral import (
    DetectorModel,
    MixedState,
    PureState,
    SpanBasis,
    gram_matrix,
    pure_components,
)
from .symgroup import (
    cycle_type_positions,
    cycle_types,
    permutation_array,
    permutation_index,
    relative_cycle_type,
)

DENSE_CAP = 6  # 6!^2 = 518400 complex entries: caps dense storage and mixed builds


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
    input_modes: tuple[int, ...] | None = None
    reduced: bool = False

    @property
    def order(self) -> int:
        return math.factorial(self.n)

    @property
    def detector_dependent(self) -> bool:
        """Whether the entries change with the output configuration: only
        when the slots carry different detectors (ideal ones count as equal)."""
        dets = self.detectors or ()
        return len(set(dets)) > 1 and not all(d.is_ideal for d in dets)

    def entry(self, s1: Sequence[int], s2: Sequence[int]) -> complex:
        """J(s1, s2) for image arrays s1, s2."""
        if self.storage == "dense":
            return complex(self.dense[permutation_index(tuple(s1)), permutation_index(tuple(s2))])
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
        perms = permutation_array(self.n)
        nf = perms.shape[0]
        if self.slot_grams is not None:
            out = np.ones((nf, nf), dtype=complex)
            for alpha in range(self.n):
                idx = perms[:, alpha]
                out *= self.slot_grams[alpha][idx[:, None], idx[None, :]]
        else:  # cycle values: J(s1, s2) = J(id, s2 s1^-1), gathered by the code
            # sum_a (s2 s1^-1)(a) N^a = sum_b s2(b) N^(s1(b)) of the relative permutation
            radix = self.n ** np.arange(self.n)
            by_code = np.empty(self.n ** self.n, dtype=complex)
            by_code[perms @ radix] = self.cycle_weights()
            out = by_code[radix[perms] @ perms.T]
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


@dataclass
class ReducedJMatrix:
    """J rescaled by its diagonal: unit diagonal, |entries| <= 1."""

    n: int
    dense: np.ndarray | None = None
    cycle_values: dict[tuple[int, ...], complex] | None = None

    def as_dense(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        tmp = JMatrix(self.n, "cycle", cycle_values=self.cycle_values)
        return tmp.as_dense()


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


def build_pure(states: Sequence[PureState], detectors: Sequence[DetectorModel], *,
               output_modes: Sequence[int] | None = None,
               input_modes: Sequence[int] | None = None) -> JMatrix:
    """J for single photons in pure spectral states:
    J(s1, s2) = prod_alpha <phi_{s1(a)} | Gamma_{l_a} | phi_{s2(a)}>,
    stored as its per-slot Gram matrices (one Gram per distinct detector)."""
    n = len(states)
    detectors = _check_slot_detectors(n, detectors)
    _validate_block_states(states, input_modes)
    grams = {det: gram_matrix(states, det) for det in set(detectors)}
    slot_grams = np.array([grams[d] for d in detectors], dtype=complex).reshape(n, n, n)
    return JMatrix(n, "lazy", slot_grams=slot_grams,
                   output_modes=tuple(output_modes) if output_modes is not None else None,
                   detectors=detectors,
                   input_modes=tuple(input_modes) if input_modes is not None else None)


def _operator_setup(states: Sequence[PureState | MixedState],
                    detectors: Sequence[DetectorModel]):
    """Common span basis, per-photon density operators and per-slot detector
    operators for mixed builds."""
    all_pure: list[PureState] = []
    for st in states:
        all_pure.extend(s for _, s in pure_components(st))
    basis = SpanBasis(all_pure)
    rho_ops = []
    pos = 0
    for st in states:
        comps = pure_components(st)
        op = np.zeros((basis.rank, basis.rank), dtype=complex)
        for w, _ in comps:
            v = basis.coords[:, pos]
            op += w * np.outer(v, v.conj())
            pos += 1
        rho_ops.append(op)
    det_ops = {det: basis.detector_matrix(det) for det in set(detectors)}
    return basis, rho_ops, det_ops


def _entry_via_cycles(rho_ops, det_ops_per_slot, s1, s2) -> complex:
    """Cycle-trace evaluation: factorize over disjoint cycles of s2 s1^{-1};
    a cycle a1 -> a2 -> ... contributes
    Tr{ Gamma_{l_{s2^-1(a1)}} rho_{a1} Gamma_{l_{s2^-1(a2)}} rho_{a2} ... }."""
    n = len(s1)
    inv1 = np.argsort(np.asarray(s1))
    inv2 = np.argsort(np.asarray(s2))
    rel = np.asarray(s2)[inv1]  # s2 ∘ s1^{-1}
    seen = [False] * n
    val = 1.0 + 0.0j
    for start in range(n):
        if seen[start]:
            continue
        prod = None
        a = start
        while not seen[a]:
            seen[a] = True
            factor = det_ops_per_slot[inv2[a]] @ rho_ops[a]
            prod = factor if prod is None else prod @ factor
            a = rel[a]
        val *= np.trace(prod)
    return val


def build_mixed(states: Sequence[PureState | MixedState],
                detectors: Sequence[DetectorModel], *,
                output_modes: Sequence[int] | None = None,
                input_modes: Sequence[int] | None = None) -> JMatrix:
    """J for photons in mixed spectral states (fluctuating parameters enter
    through each MixedState's quadrature ensemble).

    Photons in different input modes fluctuate independently. Photons
    sharing one input mode fluctuate together (they share each ensemble
    draw): a one-mode multi-photon state must stay invariant under one-sided
    permutations of its internal labels, which rules out independent
    within-mode jitter (it would not even be trace normalized after
    symmetrization).

    Dense-only (N <= DENSE_CAP); identical sources with identical detectors
    have the cycle-compressed form ``build_cycle_compressed`` at any N.
    """
    n = len(states)
    if n > DENSE_CAP:
        raise SizeLimitError(
            f"mixed J builds are dense-only (N <= {DENSE_CAP}), got N={n}; for identical "
            "sources and detectors use build_cycle_compressed"
        )
    detectors = _check_slot_detectors(n, detectors)
    _validate_block_states(states, input_modes)

    correlated: list[list[int]] = []  # slot blocks of multiply-occupied mixed modes
    if input_modes is not None:
        groups: dict[int, list[int]] = {}
        for slot, mode in enumerate(input_modes):
            groups.setdefault(mode, []).append(slot)
        correlated = [slots for slots in groups.values()
                      if len(slots) > 1 and len(pure_components(states[slots[0]])) > 1]
    # mixture over joint draws of the correlated blocks (a single draw without
    # them); the remaining slots keep their own independent mixed operators
    draw_axes = [pure_components(states[slots[0]]) for slots in correlated]
    nf = math.factorial(n)
    dense = np.zeros((nf, nf), dtype=complex)
    for combo in itertools.product(*draw_axes):
        weight = math.prod(w for w, _ in combo)
        slot_states: list = list(states)
        for slots, (_, drawn) in zip(correlated, combo):
            for s in slots:
                slot_states[s] = drawn
        dense += weight * _independent_mixed_dense(slot_states, detectors)
    return JMatrix(n, "dense", dense=dense,
                   output_modes=tuple(output_modes) if output_modes is not None else None,
                   detectors=detectors,
                   input_modes=tuple(input_modes) if input_modes is not None else None)


def _independent_mixed_dense(states, detectors) -> np.ndarray:
    """Dense J of independently fluctuating photons, entry by cycle traces."""
    basis, rho_ops, det_ops = _operator_setup(states, detectors)
    det_slot_ops = [det_ops[d] for d in detectors]
    # identical sources and detectors: entries depend only on the cycle type
    # of the relative permutation
    by_cycle_type = len(set(detectors)) == 1 and all(
        pure_components(st) == pure_components(states[0]) for st in states
    )
    cache: dict[tuple[int, ...], complex] = {}
    perms = permutation_array(len(states))
    nf = perms.shape[0]
    dense = np.empty((nf, nf), dtype=complex)
    for i in range(nf):
        for j in range(i, nf):
            if by_cycle_type:
                ct = relative_cycle_type(perms[i], perms[j])
                if ct not in cache:
                    cache[ct] = _entry_via_cycles(rho_ops, det_slot_ops, perms[i], perms[j])
                val = cache[ct]
            else:
                val = _entry_via_cycles(rho_ops, det_slot_ops, perms[i], perms[j])
            dense[i, j] = val
            dense[j, i] = np.conj(val)
    return dense


def build_cycle_compressed(rho: PureState | MixedState, det: DetectorModel,
                           n: int) -> JMatrix:
    """J for N photons from identical sources with identical detectors:
    J(s1, s2) = prod_k g_k^{C_k(s2 s1^{-1})} with g_k = Tr{(sqrt(G) rho sqrt(G))^k}."""
    if n < 1:
        raise ValidationError("need at least one photon")
    gk = [spectral.gk_trace(rho, det, k) for k in range(1, n + 1)]
    values: dict[tuple[int, ...], complex] = {}
    for counts, _ in cycle_types(n):
        val = 1.0
        for k, c in enumerate(counts, start=1):
            if c:
                val *= gk[k - 1] ** c
        values[counts] = complex(val)
    return JMatrix(n, "cycle", cycle_values=values, detectors=(det,) * n)


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


def reduce_jmatrix(jm: JMatrix) -> ReducedJMatrix:
    """J_hat = D^{-1/2} J D^{-1/2}: unit diagonal, |entries| <= 1."""
    if jm.storage == "cycle":
        ident = jm.cycle_values[_identity_cycle_type(jm.n)]
        if ident.real <= 0:
            raise DegenerateDetectionError("cycle-compressed J has vanishing diagonal")
        values = {ct: v / ident for ct, v in jm.cycle_values.items()}
        return ReducedJMatrix(jm.n, cycle_values=values)
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
    return ReducedJMatrix(jm.n, dense=reduced)


def mandel_visibility(rho1: PureState | MixedState, rho2: PureState | MixedState,
                      det1: DetectorModel, det2: DetectorModel) -> complex:
    """Two-photon visibility V = J(T, I) / sqrt(J(I, I) J(T, T)).

    J(I,I) = Tr(G1 r1) Tr(G2 r2), J(T,T) = Tr(G2 r1) Tr(G1 r2),
    J(T,I) = Tr(G1 r1 G2 r2); |V| <= 1 follows from positivity.
    """
    basis, (r1, r2), det_ops = _operator_setup([rho1, rho2], (det1, det2))
    g1, g2 = det_ops[det1], det_ops[det2]
    j_ii = np.trace(g1 @ r1).real * np.trace(g2 @ r2).real
    j_tt = np.trace(g2 @ r1).real * np.trace(g1 @ r2).real
    if j_ii <= 0.0 or j_tt <= 0.0:
        raise DegenerateDetectionError("a two-photon path has zero detection probability")
    j_ti = np.trace(g1 @ r1 @ g2 @ r2)
    return complex(j_ti / math.sqrt(j_ii * j_tt))


def purity(jm: JMatrix | ReducedJMatrix) -> PurityResult:
    """Normalized purity P = (N!/(N!-1)) (Tr{(J_hat/N!)^2} - 1/N!).

    Accepts a raw J (reduced internally) or an already reduced matrix. The
    cycle-compressed path sums over cycle types with class sizes
    N!/prod(k^{C_k} C_k!) and works for N <= 30.
    """
    n = jm.n
    if isinstance(jm, JMatrix):
        if jm.storage == "cycle":
            red = reduce_jmatrix(jm)
            return _purity_from_cycle(n, red.cycle_values)
        red = reduce_jmatrix(jm)
        return _purity_from_dense(n, red.dense)
    if jm.cycle_values is not None:
        return _purity_from_cycle(n, jm.cycle_values)
    return _purity_from_dense(n, jm.dense)


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


def min_eigenvalue(jm: JMatrix | ReducedJMatrix) -> float:
    dense = jm.as_dense()
    return float(np.linalg.eigvalsh(dense)[0])


def jmatrix_entry_cycle_route(states: Sequence[PureState],
                              detectors: Sequence[DetectorModel],
                              s1: Sequence[int], s2: Sequence[int]) -> complex:
    """Second code path for pure inputs: the cycle-trace identity instead of
    the direct per-slot product (used to cross-check the two)."""
    detectors = _check_slot_detectors(len(states), detectors)
    basis, rho_ops, det_ops = _operator_setup(list(states), detectors)
    det_slot_ops = [det_ops[d] for d in detectors]
    return _entry_via_cycles(rho_ops, det_slot_ops, np.asarray(s1), np.asarray(s2))


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
