import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import markov_distribution
from multiphoton.errors import (
    EngineError,
    SizeLimitError,
    UnsupportedInputError,
    ValidationError,
)
from multiphoton.jmatrix import (
    JMatrix,
    build_cycle_compressed,
    build_extreme,
    build_mixed,
    build_pure,
    mandel_visibility,
    reduce_jmatrix,
)
from multiphoton.bosonsampling import BSParams, build_bs_jmatrix
from multiphoton.network import enumerate_outputs, fourier, mode_list, mu, random_unitary
from multiphoton.permanent import (RYSER_TEMP_ELEMENTS, permanent_gather_batch,
                                  permanent_naive, permanent_ryser_batch)
from multiphoton import jmatrix, probability, spectral
from multiphoton.probability import (
    ENGINES,
    GeneralEnsemble,
    _finalize,
    _path_products,
    normalization_report,
    output_distribution,
    prob_classical,
    prob_general,
    prob_ideal_indistinguishable,
    prob_jmatrix,
    prob_oracle,
    prob_permanent_basis,
)
from multiphoton.spectral import (
    IDEAL,
    DetectorModel,
    FiniteRankState,
    GaussianState,
    MixedState,
    SpanBasis,
    pure_components,
)
from multiphoton.symgroup import permutation_array
from multiphoton.verify import engine_discrepancy, random_instance


def ideal_dets(m):
    return (IDEAL,) * m


def gaussians(*taus, omega=0.0, delta=1.0):
    return [GaussianState(omega, delta, t) for t in taus]


def build_j_for(states, m_occ, detectors=None, n_occ=None):
    modes = len(m_occ)
    dets = detectors or ideal_dets(modes)
    slot = tuple(dets[l] for l in mode_list(m_occ))
    return build_pure(states, slot, output_modes=mode_list(m_occ),
                      input_modes=mode_list(n_occ) if n_occ else None)


# -- HOM and closed-form anchors ---------------------------------------------------


def test_hom_dip_all_engines():
    u = fourier(2)
    g = GaussianState(0.0, 1.0, 0.0)
    pair = [g, g]
    jm = build_j_for(pair, (1, 1))
    assert prob_jmatrix(jm, u, (1, 1), (1, 1)).p < 1e-12
    assert prob_permanent_basis(pair, None, u, (1, 1), (1, 1)).p < 1e-12
    assert prob_general(GeneralEnsemble.from_photons(pair), None, u, (1, 1), (1, 1)).p < 1e-12
    assert prob_oracle(pair, None, u, (1, 1), (1, 1)).p < 1e-12


def test_hom_delayed_closed_form():
    u = fourier(2)
    delta = 1.0
    for tau in (0.4, 1.0, 2.3):
        pair = gaussians(0.0, tau, delta=delta)
        expected = (1.0 - math.exp(-(delta**2) * tau**2)) / 2.0
        assert prob_permanent_basis(pair, None, u, (1, 1), (1, 1)).p == pytest.approx(
            expected, abs=1e-10
        )
        jm = build_j_for(pair, (1, 1))
        assert prob_jmatrix(jm, u, (1, 1), (1, 1)).p == pytest.approx(expected, abs=1e-10)


def test_classical_balanced_splitter():
    u = fourier(2)
    assert prob_classical(u, (1, 1), (2, 0)).p == pytest.approx(0.25, abs=1e-12)
    assert prob_classical(u, (1, 1), (1, 1)).p == pytest.approx(0.5, abs=1e-12)
    assert prob_classical(u, (1, 1), (0, 2)).p == pytest.approx(0.25, abs=1e-12)


def test_classical_identity_network():
    u = np.eye(3, dtype=complex)
    assert prob_classical(u, (1, 0, 1), (1, 0, 1)).p == pytest.approx(1.0)
    assert prob_classical(u, (1, 0, 1), (0, 1, 1)).p == pytest.approx(0.0)


def test_classical_matches_markov_oracle(rng):
    for trial in range(5):
        m = int(rng.integers(2, 5))
        n_modes = sorted(rng.choice(m, size=min(3, m), replace=False).tolist())
        n_occ = tuple(1 if k in n_modes else 0 for k in range(m))
        u = random_unitary(m, int(rng.integers(0, 10**6)))
        oracle = markov_distribution(u, n_occ)
        for m_occ in enumerate_outputs(m, sum(n_occ)):
            assert prob_classical(u, n_occ, m_occ).p == pytest.approx(
                oracle[m_occ], abs=1e-12
            )


def test_classical_multi_occupancy_markov(rng):
    u = random_unitary(3, 77)
    n_occ = (2, 1, 0)
    oracle = markov_distribution(u, n_occ)
    for m_occ in enumerate_outputs(3, 3):
        assert prob_classical(u, n_occ, m_occ).p == pytest.approx(oracle[m_occ], abs=1e-12)


def test_ideal_fourier3_suppression_and_value():
    u = fourier(3)
    assert prob_ideal_indistinguishable(u, (1, 1, 1), (2, 1, 0)).p < 1e-12
    assert prob_ideal_indistinguishable(u, (1, 1, 1), (1, 1, 1)).p == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_jmatrix_all_ones_equals_ideal(rng):
    u = random_unitary(4, 5)
    g = GaussianState(0.0, 1.0, 0.0)
    n_occ = (1, 1, 1, 0)
    for m_occ in enumerate_outputs(4, 3)[:8]:
        jm = build_j_for([g, g, g], m_occ)
        assert prob_jmatrix(jm, u, n_occ, m_occ).p == pytest.approx(
            prob_ideal_indistinguishable(u, n_occ, m_occ).p, abs=1e-12
        )


def test_jmatrix_identity_equals_classical(rng):
    u = random_unitary(4, 6)
    states = [FiniteRankState(v) for v in np.eye(3)]
    n_occ = (1, 1, 1, 0)
    for m_occ in enumerate_outputs(4, 3)[:8]:
        jm = build_j_for(states, m_occ)
        assert prob_jmatrix(jm, u, n_occ, m_occ).p == pytest.approx(
            prob_classical(u, n_occ, m_occ).p, abs=1e-12
        )


# -- engine equivalence ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["gaussian", "finite", "mixed"])
def test_engine_equivalence_battery(kind):
    rng = np.random.default_rng({"gaussian": 101, "finite": 202, "mixed": 303}[kind])
    for _ in range(6):
        u, n_occ, photons, detectors = random_instance(rng, kind)
        worst, sums = engine_discrepancy(u, n_occ, photons, detectors)
        assert worst < 1e-9


def test_multi_occupancy_jmatrix_vs_general_vs_oracle(rng):
    u = random_unitary(4, 21)
    g = GaussianState(0.0, 1.0, 0.0)
    h = GaussianState(0.0, 1.0, 1.2)
    photons = [g, g, h]
    n_occ = (2, 0, 1, 0)
    dets = (DetectorModel.flat(0.9), IDEAL, DetectorModel.flat(0.75), IDEAL)
    ens = GeneralEnsemble.from_photons(photons)
    for m_occ in enumerate_outputs(4, 3):
        slot = tuple(dets[l] for l in mode_list(m_occ))
        jm = build_pure(photons, slot, output_modes=mode_list(m_occ),
                        input_modes=mode_list(n_occ))
        a = prob_jmatrix(jm, u, n_occ, m_occ).p
        b = prob_general(ens, dets, u, n_occ, m_occ).p
        c = prob_oracle(photons, dets, u, n_occ, m_occ).p
        assert a == pytest.approx(b, abs=1e-10)
        assert a == pytest.approx(c, abs=1e-10)


def test_multi_occupancy_mixed_jmatrix_vs_oracle_vs_general():
    """Mixed states on a doubly occupied mode: the two photons share each
    ensemble draw (independent within-mode jitter is not a valid one-mode
    photon pair); all engines agree and the ideal-detector sum is 1."""
    u = random_unitary(3, 321)
    rho = MixedState.ensemble([(0.4, GaussianState(0.0, 1.0, 0.0)),
                               (0.6, GaussianState(0.0, 1.0, 1.1))])
    other = GaussianState(0.0, 1.0, 0.5)
    photons = [rho, rho, other]
    n_occ = (2, 1, 0)
    dets = (DetectorModel.flat(0.85), IDEAL, DetectorModel.flat(0.7))
    ens = GeneralEnsemble.from_photons(photons, n_occ)
    for m_occ in enumerate_outputs(3, 3):
        slot = tuple(dets[l] for l in mode_list(m_occ))
        jm = build_mixed(photons, slot, output_modes=mode_list(m_occ),
                         input_modes=mode_list(n_occ))
        a = prob_jmatrix(jm, u, n_occ, m_occ).p
        b = prob_oracle(photons, dets, u, n_occ, m_occ).p
        g = prob_general(ens, dets, u, n_occ, m_occ).p
        assert a == pytest.approx(b, abs=1e-10)
        assert a == pytest.approx(g, abs=1e-10)
    ideal_total = sum(
        prob_oracle(photons, None, u, n_occ, m_occ).p for m_occ in enumerate_outputs(3, 3)
    )
    assert ideal_total == pytest.approx(1.0, abs=1e-10)
    jm_total = sum(
        prob_jmatrix(
            build_mixed(photons, (IDEAL,) * 3, output_modes=mode_list(m_occ),
                        input_modes=mode_list(n_occ)),
            u, n_occ, m_occ).p
        for m_occ in enumerate_outputs(3, 3)
    )
    assert jm_total == pytest.approx(1.0, abs=1e-10)


def test_entangled_symmetric_ensemble_general_vs_oracle(rng):
    """Entangled C tensor on a multi-occupancy input: the two engines that can
    handle it must agree (explicit-loop contraction pinned in test below)."""
    u = random_unitary(3, 33)
    base_states = [FiniteRankState(v) for v in np.eye(2)]
    basis = SpanBasis(base_states)
    raw = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    sym = (raw + raw.transpose(1, 0, 2)) / 2.0
    sym /= np.linalg.norm(sym)
    ens = GeneralEnsemble(basis, ((1.0, sym),))
    n_occ = (2, 1, 0)
    dets = (DetectorModel.flat(0.8), IDEAL, DetectorModel.flat(0.95))
    total_g = total_o = 0.0
    for m_occ in enumerate_outputs(3, 3):
        pg = prob_general(ens, dets, u, n_occ, m_occ).p
        po = prob_oracle(ens, dets, u, n_occ, m_occ).p
        assert pg == pytest.approx(po, abs=1e-10)
        total_g += pg
        total_o += po
    ideal_total = sum(
        prob_general(ens, None, u, n_occ, m_occ).p for m_occ in enumerate_outputs(3, 3)
    )
    assert ideal_total == pytest.approx(1.0, abs=1e-10)


def test_oracle_tensor_contraction_against_explicit_loop(rng):
    """Pin the transpose orientation of the tensor-oracle against a literal
    sum over basis tuples."""
    from multiphoton.symgroup import permutation_array

    u = random_unitary(3, 99)
    base_states = [FiniteRankState(v) for v in np.eye(2)]
    basis = SpanBasis(base_states)
    raw = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    raw /= np.linalg.norm(raw)
    ens = GeneralEnsemble(basis, ((1.0, raw),))
    n_occ = (1, 1, 1)
    m_occ = (1, 1, 1)
    dets = (DetectorModel.flat(0.7), IDEAL, DetectorModel.flat(0.9))
    p_fast = prob_oracle(ens, dets, u, n_occ, m_occ).p

    ls = mode_list(m_occ)
    mops = {d: basis.detector_matrix(d) for d in set(dets)}
    perms = permutation_array(3)
    invs = np.argsort(perms, axis=1)
    tuples = list(itertools.product(range(2), repeat=3))
    total = 0.0 + 0.0j
    for i in range(6):
        for j in range(6):
            x = 1.0 + 0.0j
            for b in range(3):
                x *= np.conj(u[invs[i, b], ls[b]]) * u[invs[j, b], ls[b]]
            contr = 0.0 + 0.0j
            for jt in tuples:
                for jpt in tuples:
                    t = raw[jt] * np.conj(raw[jpt])
                    for b in range(3):
                        t *= mops[dets[ls[b]]][jpt[invs[i, b]], jt[invs[j, b]]]
                    contr += t
            total += x * contr
    assert p_fast == pytest.approx(total.real, abs=1e-12)


def _fold_state(x: float, finite: bool):
    if finite:  # a direction in a rank-3 internal space, for matrix detectors
        v = np.array([1.0, x, 0.5j * x * x])
        return FiniteRankState(v / np.linalg.norm(v))
    return GaussianState(0.0, 1.0, x)


def _fold_case(case: str, finite: bool):
    """(n_occ, photons) in M = 4 modes for the product-fold tests."""
    s = partial(_fold_state, finite=finite)
    if case == "single":
        return (1, 1, 1, 0), [s(0.0), s(0.6), s(1.3)]
    if case == "multi":
        return (2, 1, 0, 1), [s(0.0), s(0.0), s(0.7), s(1.4)]
    if case == "mixed":  # the pair in mode 0 shares each draw: K = 2 x 2 components
        rho = MixedState.ensemble([(0.3, s(0.0)), (0.7, s(0.5))])
        other = MixedState.ensemble([(0.5, s(1.0)), (0.5, s(-0.4))])
        return (2, 1, 0, 0), [rho, rho, other]
    return (2, 0, 1, 0), [s(0.3)] * 3  # identical photons: a rank-1 span


def _matrix_detector(seed: int) -> DetectorModel:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return DetectorModel.operator((q * rng.uniform(0.2, 1.0, 3)) @ q.conj().T)


FOLD_DETECTORS = {
    "ideal": None,
    "flat": (DetectorModel.flat(0.8), DetectorModel.flat(0.6), IDEAL, DetectorModel.flat(0.9)),
    "band": tuple(DetectorModel.gaussian_band(0.2 * l - 0.3, 1.0 + 0.3 * l, 0.9)
                  for l in range(4)),
    "matrix": tuple(_matrix_detector(l) for l in range(4)),
}


def tensor_ensemble(photons, n_occ) -> GeneralEnsemble:
    """The from_photons ensemble given as tensors: every component
    C = c_1 x ... x c_N as r^N coefficients over the span basis of all
    photon components, which the engines evaluate as entangled."""
    states = [s for p in photons for _, s in pure_components(p)]
    basis = SpanBasis(states)
    coords = {s: basis.coords[:, pos] for pos, s in enumerate(states)}
    comps = []
    for weight, slots in GeneralEnsemble.from_photons(photons, n_occ).components:
        tensor = coords[slots[0]]
        for s in slots[1:]:
            tensor = np.multiply.outer(tensor, coords[s])
        comps.append((weight, np.asarray(tensor)))
    return GeneralEnsemble(basis, tuple(comps))


@pytest.mark.parametrize("det_kind", list(FOLD_DETECTORS))
@pytest.mark.parametrize("case", ["single", "multi", "mixed", "identical"])
def test_product_fold_matches_tensor_route(case, det_kind):
    """A from_photons ensemble (the product fold: one permanent per tuple and
    component) gives the same probability on every output as the same
    ensemble given as tensors (r^N permanents per tuple); both match the
    oracle."""
    n_occ, photons = _fold_case(case, finite=det_kind == "matrix")
    dets = FOLD_DETECTORS[det_kind]
    u = random_unitary(4, 404)
    ens = GeneralEnsemble.from_photons(photons, n_occ)
    tensor = tensor_ensemble(photons, n_occ)
    assert ens.basis is None and len(ens.components) <= tensor.basis.rank ** ens.n
    for m_occ in enumerate_outputs(4, sum(n_occ)):
        p = prob_general(ens, dets, u, n_occ, m_occ).p
        assert abs(p - prob_general(tensor, dets, u, n_occ, m_occ).p) <= 1e-12
        assert p == pytest.approx(prob_oracle(photons, dets, u, n_occ, m_occ).p, abs=1e-10)


def test_general_ensemble_rejects_misshapen_component_states():
    """Every component, product or tensor, describes the same photon number."""
    ens = GeneralEnsemble.from_photons(gaussians(0.0, 0.5, 1.0))
    with pytest.raises(ValidationError, match="different photon numbers"):
        replace(ens, components=ens.components + ((1.0, ens.components[0][1][:2]),))
    tensor = tensor_ensemble(gaussians(0.0, 0.5, 1.0), (1, 1, 1))
    with pytest.raises(ValidationError, match="different photon numbers"):
        replace(tensor, components=tensor.components + ((1.0, tensor.components[0][1][0]),))


# -- linearity, normalization, limits ----------------------------------------------


def test_general_classical_case_matches_classical_engine(rng):
    """A product of orthonormal basis states satisfies the classical
    orthogonality condition; the general engine must then reproduce the
    Markov-chain probabilities."""
    u = random_unitary(4, 55)
    photons = [FiniteRankState(v) for v in np.eye(3)]
    ens = GeneralEnsemble.from_photons(photons)
    n_occ = (1, 1, 0, 1)
    for m_occ in enumerate_outputs(4, 3):
        assert prob_general(ens, None, u, n_occ, m_occ).p == pytest.approx(
            prob_classical(u, n_occ, m_occ).p, abs=1e-10
        )


def test_general_fully_symmetric_rank1_matches_ideal(rng):
    u = random_unitary(3, 66)
    g = GaussianState(0.0, 1.0, 0.0)
    ens = GeneralEnsemble.from_photons([g, g, g])
    n_occ = (1, 1, 1)
    for m_occ in enumerate_outputs(3, 3)[:5]:
        assert prob_general(ens, None, u, n_occ, m_occ).p == pytest.approx(
            prob_ideal_indistinguishable(u, n_occ, m_occ).p, abs=1e-10
        )


def test_mixed_probability_is_weighted_average():
    u = fourier(2)
    g0 = GaussianState(0.0, 1.0, 0.0)
    g1 = GaussianState(0.0, 1.0, 1.5)
    mix = MixedState([(0.3, g0), (0.7, g1)])
    probe = GaussianState(0.0, 1.0, 0.2)
    p_mixed = output_distribution("jmatrix", u, (1, 1), photons=[mix, probe]).results
    p0 = output_distribution("jmatrix", u, (1, 1), photons=[g0, probe]).results
    p1 = output_distribution("jmatrix", u, (1, 1), photons=[g1, probe]).results
    for rm, r0, r1 in zip(p_mixed, p0, p1):
        assert rm.p == pytest.approx(0.3 * r0.p + 0.7 * r1.p, abs=1e-12)


def test_normalization_ideal_random_instances():
    rng = np.random.default_rng(4)
    for kind in ("gaussian", "finite", "mixed"):
        u, n_occ, photons, _ = random_instance(rng, kind, max_photons=3)
        for engine in ("jmatrix", "permanent", "oracle"):
            total = normalization_report(engine, u, n_occ, photons=photons)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_normalization_flat_eta_identical_photons():
    u = random_unitary(4, 12)
    g = GaussianState(0.0, 1.0, 0.0)
    eta = 0.85
    dets = tuple(DetectorModel.flat(eta) for _ in range(4))
    n_occ = (1, 1, 1, 0)
    total = normalization_report("jmatrix", u, n_occ, photons=[g, g, g], detectors=dets)
    assert total == pytest.approx(eta**3, abs=1e-9)


def test_normalization_classical_exact():
    u = random_unitary(4, 3)
    total = normalization_report("classical", u, (1, 1, 0, 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_completely_distinguishable_limit():
    # pairwise delays 12/delta: overlaps ~ e^-72, jmatrix -> classical
    u = random_unitary(3, 8)
    delta = 1.0
    photons = gaussians(0.0, 12.0, 24.0, delta=delta)
    n_occ = (1, 1, 1)
    for m_occ in enumerate_outputs(3, 3):
        jm = build_j_for(photons, m_occ)
        a = prob_jmatrix(jm, u, n_occ, m_occ).p
        b = prob_classical(u, n_occ, m_occ).p
        assert abs(a - b) < 1e-6


def test_vacuum_input():
    """Every engine gives the vacuum output with P = 1 for the vacuum input,
    from no photons and, for ``general`` and ``oracle``, from an empty
    product ensemble and from a tensor ensemble of zero photons."""
    u = fourier(3)
    assert prob_oracle([], None, u, (0, 0, 0), (0, 0, 0)).p == pytest.approx(1.0)
    assert prob_classical(u, (0, 0, 0), (0, 0, 0)).p == pytest.approx(1.0)
    for engine in ENGINES:
        dist = output_distribution(engine, u, (0, 0, 0), photons=[])
        assert [(r.m, r.p, r.engine) for r in dist.results] == [((0, 0, 0), 1.0, engine)]
    tensor = GeneralEnsemble(SpanBasis([FiniteRankState([1.0, 0.0])]), ((1.0, np.array(1.0)),))
    for vacuum in (GeneralEnsemble.from_photons([], (0, 0, 0)), tensor):
        assert prob_general(vacuum, None, u, (0, 0, 0), (0, 0, 0)).p == 1.0
        for engine in ("general", "oracle"):
            dist = output_distribution(engine, u, (0, 0, 0), ensemble=vacuum)
            assert [(r.m, r.p, r.engine) for r in dist.results] == [((0, 0, 0), 1.0, engine)]


MIXED_DETECTORS = (IDEAL, DetectorModel.flat(0.8),
                   DetectorModel.gaussian_band(center=0.3, width=1.2, peak=0.9))


@pytest.mark.parametrize("n", range(1, 7))
def test_tau_route_matches_dense_quadratic_form(n):
    """The tau-permanent route of prob_jmatrix equals X^dagger J X / (mu mu)
    with the same J materialised densely: multi-occupancy inputs, colliding
    outputs, and a per-mode mix of ideal, flat and band detectors."""
    rng = np.random.default_rng(500 + n)
    m = n + 1
    u = random_unitary(m, 600 + n)
    n_occ = tuple(int(c) for c in np.bincount(rng.integers(0, m, n), minlength=m))
    ks = mode_list(n_occ)
    times = rng.uniform(-1.0, 1.0, m)  # one state per input mode
    photons = [GaussianState(0.0, 1.0, float(times[k])) for k in ks]
    dets = [MIXED_DETECTORS[int(i)] for i in rng.integers(0, 3, m)]
    outputs = enumerate_outputs(m, n)
    picks = [outputs[0]] + [outputs[int(i)] for i in rng.choice(len(outputs), 6)]
    assert n == 1 or max(n_occ) > 1
    assert n == 1 or any(max(o) > 1 for o in picks[1:])
    for m_occ in picks:
        jm = build_j_for(photons, m_occ, dets, n_occ)
        assert jm.slot_grams is not None and jm.dense is None
        p = prob_jmatrix(jm, u, n_occ, m_occ).p
        dense = JMatrix(n, "dense", dense=jm.as_dense(), output_modes=jm.output_modes,
                        detectors=jm.detectors)
        x = _path_products(u[np.ix_(mode_list(n_occ), mode_list(m_occ))])
        expected = np.vdot(x, dense.dense @ x).real / (mu(n_occ) * mu(m_occ))
        assert abs(p - expected) <= 1e-12
        assert prob_jmatrix(dense, u, n_occ, m_occ).p == pytest.approx(expected, abs=1e-12)


def test_tau_route_names_itself_in_debug_log(caplog):
    u = random_unitary(3, 21)
    jm = build_j_for(gaussians(0.0, 0.5, 1.0), (1, 1, 1))
    dense = JMatrix(3, "dense", dense=jm.as_dense(), output_modes=jm.output_modes)
    cycle = build_cycle_compressed(MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, nodes=8),
                                   IDEAL, 3)
    with caplog.at_level("DEBUG", logger="multiphoton.probability"):
        prob_jmatrix(jm, u, (1, 1, 1), (1, 1, 1))
        prob_jmatrix(dense, u, (1, 1, 1), (1, 1, 1))
        prob_jmatrix(cycle, u, (1, 1, 1), (1, 1, 1))
    assert [r.getMessage() for r in caplog.records] == [
        "prob_jmatrix: tau-permanent route, N=3, 6 tau terms, 5 permanents",
        "prob_jmatrix: dense route, N=3, 0 tau terms, 0 permanents",
        "prob_jmatrix: tau-permanent route, N=3, 6 tau terms, 5 permanents",
    ]


def test_general_route_names_itself_in_debug_log(caplog):
    """A product ensemble takes the fold, also with more components than r^N;
    an entangled hand-built tensor takes the tensor route. The fold counts
    the permanents it evaluates: of the r = 2 tuples of two slots, Hall's
    condition drops (1, 1), whose permanent is zero under triangular factors."""
    u = random_unitary(3, 22)
    n_occ = (1, 1, 0)
    product = GeneralEnsemble.from_photons(gaussians(0.0, 0.5))
    e = np.eye(2)
    entangled = GeneralEnsemble(SpanBasis([FiniteRankState(v) for v in e]),
                                ((1.0, (np.outer(e[0], e[1]) + np.outer(e[1], e[0])) / 2**0.5),))
    mixed = [MixedState.ensemble([(1 / 3, FiniteRankState([np.cos(t), np.sin(t)])) for t in ts])
             for ts in ((0.0, 0.4, 1.1), (0.2, 0.8, 1.5))]
    many = GeneralEnsemble.from_photons(mixed)  # K = 9 > r^N = 4
    cases = [(product, (1, 1, 0)), (entangled, (1, 1, 0)), (many, (2, 0, 0))]
    with caplog.at_level("DEBUG", logger="multiphoton.probability"):
        results = [prob_general(ens, None, u, n_occ, m_occ).p for ens, m_occ in cases]
    assert [r.getMessage() for r in caplog.records] == [
        "general engine: product-fold route, N=2, 1 draws, 3 permanents",
        "general engine: tensor route, N=2, r=2, 4 canonical tuples, 16 permanents",
        "general engine: product-fold route, N=2, 9 draws, 18 permanents",
    ]
    for p, (ens, m_occ) in zip(results, cases):
        assert p == pytest.approx(prob_oracle(ens, None, u, n_occ, m_occ).p, abs=1e-12)


def test_mixed_build_above_dense_cap_refused_before_any_work(monkeypatch):
    """A mixed J is dense-only: at N = 7 build_mixed raises SizeLimitError
    before validating or setting up any spectral operator."""

    def fail(*args, **kwargs):
        raise AssertionError("build_mixed did work before its size check")

    for name in ("_check_slot_detectors", "_validate_block_states", "_slot_draws", "_GramTable"):
        monkeypatch.setattr(jmatrix, name, fail)
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, nodes=8)
    with pytest.raises(SizeLimitError, match="build_cycle_compressed"):
        jmatrix.build_mixed([rho] * 7, (IDEAL,) * 7, input_modes=tuple(range(7)))


def test_seven_photon_streamed_identical_photons():
    """N = 7 exceeds the dense cap: the tau-permanent route over the lazy J
    must reproduce the ideal-indistinguishable closed form."""
    u = random_unitary(7, 70)
    g = GaussianState(0.0, 1.0, 0.0)
    n_occ = (1,) * 7
    m_occ = (2, 1, 1, 1, 1, 1, 0)
    jm = build_pure([g] * 7, (IDEAL,) * 7, output_modes=mode_list(m_occ))
    assert jm.storage == "lazy"
    a = prob_jmatrix(jm, u, n_occ, m_occ).p
    b = prob_ideal_indistinguishable(u, n_occ, m_occ).p
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("gap, reference", [
    (0.0, prob_ideal_indistinguishable),
    (20.0, prob_classical),  # photons 20 widths apart: overlaps exp(-200)
])
def test_eight_photon_tau_route_limits(gap, reference):
    """At N = 8 (the cap, above DENSE_CAP) the tau route reproduces both
    closed-form limits, on an output with a collision."""
    u = random_unitary(9, 88)
    n_occ = (1,) * 8 + (0,)
    m_occ = (0, 2, 1, 1, 0, 1, 1, 1, 1)
    jm = build_pure(gaussians(*(gap * i for i in range(8))), (IDEAL,) * 8,
                    output_modes=mode_list(m_occ))
    expected = reference(u, n_occ, m_occ).p
    assert prob_jmatrix(jm, u, n_occ, m_occ).p == pytest.approx(expected, rel=1e-9)
    with pytest.raises(SizeLimitError, match="dense J storage capped"):
        jm.as_dense()
    if gap == 0.0:  # identical photons also as a cycle J and an extreme 'ind' J
        g = GaussianState(0.0, 1.0, 0.0)
        for other in (build_cycle_compressed(g, IDEAL, 8),
                      build_extreme("ind", n_occ, (IDEAL,) * 8, [g])):
            assert prob_jmatrix(other, u, n_occ, m_occ).p == pytest.approx(expected, rel=1e-9)


def test_eight_photon_tau_route_memory_stays_bounded():
    """The tau route feeds the Glynn kernel by gathering each chunk from W:
    one N = 8 output on a prebuilt pure J with a different band detector on
    every mode stays within the kernel's own bound, 6 RYSER_TEMP_ELEMENTS
    complex numbers (1.5 MiB). The 20542 pair matrices would take 21 MB,
    and a (P, N) index of them alone 1.3 MB."""
    u = random_unitary(9, 88)
    n_occ = (1,) * 8 + (0,)
    m_occ = (0, 2, 1, 1, 0, 1, 1, 1, 1)
    dets = [DetectorModel.gaussian_band(center=0.15 * l - 0.5, width=0.9 + 0.2 * l,
                                        peak=1.0 - 0.03 * l) for l in range(9)]
    jm = build_j_for(gaussians(*(0.6 * i for i in range(8))), m_occ, dets)
    expected = prob_jmatrix(jm, u, n_occ, m_occ).p  # warms the shared tables
    tracemalloc.start()
    try:
        p = prob_jmatrix(jm, u, n_occ, m_occ).p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == expected
    assert peak <= 6 * RYSER_TEMP_ELEMENTS * 16


def _full_tau_sum(jm, u, n_occ, m_occ):
    """P from sum_tau per(A_tau) over all N! tau, one permanent each (in
    blocks of at most 20160 tau above N = 7):
    A_tau[b, a] = conj(U[k_b, l_a]) U[k_tau(b), l_a] G_{l_a}[b, tau(b)], or
    J_ct(tau) per(conj(U[k_b, l_a]) U[k_tau(b), l_a]) for a cycle J."""
    usub = u[np.ix_(mode_list(n_occ), mode_list(m_occ))]
    total = 0j
    for block in np.array_split(np.arange(math.factorial(jm.n)), max(1, jm.n - 6)):
        taus = permutation_array(jm.n)[block]
        stack = usub.conj() * usub[taus]
        if jm.slot_grams is None:
            total += jm.cycle_weights()[block] @ permanent_ryser_batch(stack)
        else:
            stack *= jm.slot_grams[:, np.arange(jm.n), taus].transpose(1, 2, 0)
            total += permanent_ryser_batch(stack).sum()
    assert abs(total.imag) <= 1e-12 * abs(total.real)
    return total.real / (mu(n_occ) * mu(m_occ))


def test_seven_photon_pairing_matches_full_tau_sum():
    """One permanent per {tau, tau^-1} pair equals the full 5040-tau sum: a
    pure J with a different band detector on every mode on a multi-occupancy
    output, and a cycle J from a jitter state."""
    u = random_unitary(8, 77)
    n_occ = (1, 1, 1, 1, 1, 1, 1, 0)
    m_occ = (2, 0, 1, 1, 1, 1, 0, 1)
    ls = mode_list(m_occ)
    dets = [DetectorModel.gaussian_band(center=0.15 * l - 0.5, width=0.9 + 0.2 * l,
                                        peak=1.0 - 0.03 * l) for l in range(8)]
    pure = build_pure(gaussians(*(0.6 * i for i in range(7))), tuple(dets[l] for l in ls),
                      output_modes=ls)
    cycle = build_cycle_compressed(MixedState.gaussian_time_jitter(0.0, 1.0, 0.7, nodes=8),
                                   IDEAL, 7)
    for jm in (pure, cycle):
        expected = _full_tau_sum(jm, u, n_occ, m_occ)
        assert prob_jmatrix(jm, u, n_occ, m_occ).p == pytest.approx(expected, rel=1e-12)


def test_eight_photon_bunched_output_matches_full_tau_sum(monkeypatch):
    """A bunched N = 8 output, (4, 2, 1, 1, 0, 0, 0, 0): the tau route's
    permanents sum over minus-sign counts per output mode, (4, 2, 1, 1) as
    column multiplicities, and equal the full 40320-tau sum, for a pure J
    with a different band detector on every mode and for a cycle J."""
    u = random_unitary(8, 78)
    n_occ = (1,) * 8
    m_occ = (4, 2, 1, 1, 0, 0, 0, 0)
    ls = mode_list(m_occ)
    dets = [DetectorModel.gaussian_band(center=0.15 * l - 0.5, width=0.9 + 0.2 * l,
                                        peak=1.0 - 0.03 * l) for l in range(8)]
    pure = build_pure(gaussians(*(0.6 * i for i in range(8))), tuple(dets[l] for l in ls),
                      output_modes=ls)
    cycle = build_cycle_compressed(MixedState.gaussian_time_jitter(0.0, 1.0, 0.7, nodes=8),
                                   IDEAL, 8)
    seen = []
    gather = probability.permanent_gather_batch
    monkeypatch.setattr(probability, "permanent_gather_batch",
                        lambda *args, **kw: seen.append(kw["mult"]) or gather(*args, **kw))
    for jm in (pure, cycle):
        expected = _full_tau_sum(jm, u, n_occ, m_occ)
        assert prob_jmatrix(jm, u, n_occ, m_occ).p == pytest.approx(expected, rel=1e-12)
    assert seen == [(4, 2, 1, 1)] * 2


def test_tau_route_keeps_unequal_slot_grams_apart(monkeypatch):
    """A hand-built lazy J whose slots 0 and 2, both in output mode 0, carry
    different slot Grams (different detectors): the tau route merges only
    slots 0 and 1 into one column block, and equals the dense X^dagger J X."""
    u = random_unitary(4, 25)
    n_occ, m_occ = (1, 1, 1, 1), (3, 1, 0, 0)
    flat, band = DetectorModel.flat(0.8), DetectorModel.gaussian_band(0.2, 1.1, 0.9)
    lazy = build_pure(gaussians(0.0, 0.4, 0.9, 1.5), (flat, flat, band, flat),
                      output_modes=mode_list(m_occ))
    assert not np.array_equal(lazy.slot_grams[1], lazy.slot_grams[2])
    dense = JMatrix(4, "dense", dense=lazy.as_dense(), output_modes=lazy.output_modes,
                    detectors=lazy.detectors)
    seen = []
    gather = probability.permanent_gather_batch
    monkeypatch.setattr(probability, "permanent_gather_batch",
                        lambda *args, **kw: seen.append(kw["mult"]) or gather(*args, **kw))
    p = prob_jmatrix(lazy, u, n_occ, m_occ).p
    assert seen == [(2, 1, 1)]
    assert abs(p - prob_jmatrix(dense, u, n_occ, m_occ).p) <= 1e-12


def test_tau_route_rejects_a_non_hermitian_j():
    """Pairing tau with tau^-1 needs J(tau^-1) = conj J(tau): a complex cycle
    value or a non-Hermitian slot Gram raises instead of losing its
    imaginary part."""
    u = random_unitary(3, 23)
    n_occ = m_occ = (1, 1, 1)
    cycle = build_cycle_compressed(MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, nodes=8),
                                   IDEAL, 3)
    skewed = replace(cycle, cycle_values={ct: v * (1 + 1e-6j) if ct[0] < 3 else v
                                          for ct, v in cycle.cycle_values.items()})
    with pytest.raises(ValidationError, match="real cycle values"):
        prob_jmatrix(skewed, u, n_occ, m_occ)
    pure = build_j_for(gaussians(0.0, 0.5, 1.0), m_occ)
    grams = pure.slot_grams.copy()
    grams[1, 0, 2] += 1e-9
    with pytest.raises(ValidationError, match="Hermitian slot Grams"):
        prob_jmatrix(replace(pure, slot_grams=grams), u, n_occ, m_occ)


def test_every_builder_gives_a_hermitian_j():
    """The J of every builder passes the tau route's Hermiticity checks."""
    u = random_unitary(4, 24)
    n_occ, m_occ = (2, 1, 1, 0), (1, 0, 2, 1)
    ls = mode_list(m_occ)
    dets = [DetectorModel.gaussian_band(center=0.2 * l, width=1.0 + 0.3 * l, peak=0.9)
            for l in range(4)]
    slot_dets = tuple(dets[l] for l in ls)
    ks = mode_list(n_occ)
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, nodes=8)
    builds = [
        build_pure([GaussianState(0.0, 1.0, 0.4 * k) for k in ks], slot_dets,
                   output_modes=ls, input_modes=ks),
        build_cycle_compressed(rho, DetectorModel.flat(0.8), 4),
        build_extreme("ind", n_occ, slot_dets, [GaussianState(0.0, 1.0, 0.3)], output_modes=ls),
        build_extreme("cl", n_occ, slot_dets, [GaussianState(0.0, 1.0, 20.0 * k) for k in ks],
                      output_modes=ls),
        build_bs_jmatrix(BSParams(4, spectral_width=2.0, time_spread=0.5)),
    ]
    for jm in builds:
        assert jm.storage != "dense"
        assert prob_jmatrix(jm, u, n_occ, m_occ).p == pytest.approx(
            _full_tau_sum(jm, u, n_occ, m_occ), rel=1e-12, abs=1e-15)


def _band_per_mode(m):
    return [DetectorModel.gaussian_band(center=0.2 * l - 0.3, width=1.0 + 0.4 * l, peak=0.9)
            for l in range(m)]


@pytest.mark.parametrize("eps", [1e-3, 1e-5])
@pytest.mark.parametrize("n_occ, dets, seed", [
    pytest.param((1, 1, 1, 0), _band_per_mode(4), 31, id="n_occ0"),
    pytest.param((2, 1, 1, 1, 0, 0), _band_per_mode(6), 31, id="n_occ1"),
    pytest.param((1, 1, 1, 0), [DetectorModel.gaussian_band(0.3, 1.2, 0.9), IDEAL, IDEAL, IDEAL],
                 0, id="one-band"),
])
def test_tau_route_nearly_indistinguishable_matches_oracle(eps, n_occ, dets, seed):
    """Photons in different input modes delayed by 0, eps and 2 eps (a
    near-singular span) under band detectors: the jmatrix, general and
    (for single occupancy) permanent engines agree with the oracle to 1e-12."""
    m = len(n_occ)
    u = random_unitary(m, seed)
    photons = [GaussianState(0.0, 1.0, (k % 3) * eps) for k in mode_list(n_occ)]
    ensemble = GeneralEnsemble.from_photons(photons, n_occ)
    outputs = enumerate_outputs(m, sum(n_occ))
    for m_occ in outputs[::max(1, len(outputs) // 15)]:
        want = prob_oracle(photons, dets, u, n_occ, m_occ).p
        got = [prob_jmatrix(build_j_for(photons, m_occ, dets, n_occ), u, n_occ, m_occ).p,
               prob_general(ensemble, dets, u, n_occ, m_occ).p]
        if max(n_occ) == 1:
            got.append(prob_permanent_basis(photons, dets, u, n_occ, m_occ).p)
        assert max(abs(p - want) for p in got) <= 1e-12


def test_mixed_jitter_photons_under_band_detectors_match_oracle(setup_counts):
    """Three 8-node jitter photons whose 24 components nearly share a span,
    under a different band detector on every mode: the jmatrix, general and
    permanent engines agree with the oracle to 1e-12 on every output. No
    engine builds a span basis, and the general sweep's traced peak stays
    under 5 MiB."""
    u = random_unitary(4, 2)
    n_occ = (1, 1, 1, 0)
    photons = [MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, mean_time=t, nodes=8)
               for t in (0.0, 0.6, 1.2)]
    dets = FOLD_DETECTORS["band"]
    want = output_distribution("oracle", u, n_occ, photons=photons, detectors=dets)
    for engine in ("jmatrix", "general", "permanent"):
        dist = output_distribution(engine, u, n_occ, photons=photons, detectors=dets)
        assert max(abs(a.p - b.p) for a, b in zip(dist.results, want.results)) <= 1e-12
    assert "SpanBasis" not in setup_counts
    tracemalloc.start()
    try:
        output_distribution("general", u, n_occ, photons=photons, detectors=dets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_general_folds_product_ensemble_with_more_components_than_span_tensors():
    """Two photons of three packets 3e-5 apart span rank 2 (at RANK_TOL), so
    their K = 9 product components outnumber the r^N = 4 tensor entries.
    The general engine folds them over exact Gram factors, from photons and
    from the from_photons ensemble alike, and matches the oracle to 1e-12."""
    photons = [MixedState.ensemble([(1 / 3, GaussianState(0.0, 1.0, t + dt))
                                    for dt in (0.0, 3e-5, 6e-5)]) for t in (0.0, 0.5)]
    dets = (DetectorModel.gaussian_band(0.3, 1.2, 0.9), IDEAL,
            DetectorModel.gaussian_band(-0.2, 0.9, 0.8))
    u = random_unitary(3, 5)
    n_occ = (1, 1, 0)
    ensemble = GeneralEnsemble.from_photons(photons, n_occ)
    assert len(ensemble.components) > tensor_ensemble(photons, n_occ).basis.rank ** 2
    dist = output_distribution("general", u, n_occ, photons=photons, detectors=dets)
    for r in dist.results:
        want = prob_oracle(photons, dets, u, n_occ, r.m).p
        assert abs(r.p - want) <= 1e-12
        assert abs(prob_general(ensemble, dets, u, n_occ, r.m).p - want) <= 1e-12


def _jitter_pair():
    """(n_occ, photons, dets, u): two 4-node jitter photons, r = 8 > N = 2."""
    photons = [MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, mean_time=t, nodes=4)
               for t in (0.0, 0.7)]
    return (1, 1, 0), photons, FOLD_DETECTORS["band"][:3], random_unitary(3, 8)


def _mixed_multi_occupancy():
    """(n_occ, photons, dets, u): input (2, 1, 0), the pair sharing each draw."""
    rho = MixedState.ensemble([(0.4, GaussianState(0.0, 1.0, 0.0)),
                               (0.6, GaussianState(0.0, 1.0, 1.1))])
    photons = [rho, rho, MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, mean_time=0.5, nodes=3)]
    return (2, 1, 0), photons, FOLD_DETECTORS["band"][:3], random_unitary(3, 321)


@pytest.mark.parametrize("case", [_jitter_pair, _mixed_multi_occupancy])
def test_oracle_reads_product_ensemble_as_photons(case):
    """The oracle reads a from_photons ensemble draw by draw, as it reads the
    photons, whatever its span rank; the general engine matches it."""
    n_occ, photons, dets, u = case()
    ensemble = GeneralEnsemble.from_photons(photons, n_occ)
    for m_occ in enumerate_outputs(3, sum(n_occ)):
        want = prob_oracle(photons, dets, u, n_occ, m_occ).p
        assert abs(prob_oracle(ensemble, dets, u, n_occ, m_occ).p - want) <= 1e-15
        assert abs(prob_general(ensemble, dets, u, n_occ, m_occ).p - want) <= 1e-12


def test_from_photons_builds_no_span_basis(setup_counts):
    """A from_photons ensemble holds each draw's weight and slot states: for
    three 8-node jitter photons, 512 components and no span basis."""
    photons = [MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, mean_time=t, nodes=8)
               for t in (0.0, 0.6, 1.2)]
    tracemalloc.start()
    try:
        ensemble = GeneralEnsemble.from_photons(photons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ensemble.basis is None and len(ensemble.components) == 512 and ensemble.n == 3
    assert "SpanBasis" not in setup_counts
    assert peak < 2**20


@st.composite
def structured_j_cases(draw):
    """A structured J (pure with per-mode detectors, cycle from a jitter
    state, or extreme 'ind'/'cl') on N <= 5 photons in M <= N + 1 modes,
    with multi-occupancy allowed on both sides."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n + 1))
    slots = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
    n_occ = tuple(int(c) for c in np.bincount(draw(slots), minlength=m))
    m_occ = tuple(int(c) for c in np.bincount(draw(slots), minlength=m))
    ks, ls = mode_list(n_occ), mode_list(m_occ)
    dets = draw(st.lists(st.sampled_from(MIXED_DETECTORS), min_size=m, max_size=m))
    slot_dets = tuple(dets[l] for l in ls)
    kind = draw(st.sampled_from(["pure", "cycle", "ind", "cl"]))
    if kind == "pure":
        times = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
        jm = build_pure([GaussianState(0.0, 1.0, times[k]) for k in ks], slot_dets,
                        output_modes=ls, input_modes=ks)
    elif kind == "cycle":
        rho = MixedState.gaussian_time_jitter(0.0, 1.0, draw(st.floats(0.1, 1.0)), nodes=8)
        jm = build_cycle_compressed(rho, dets[0], n)
    else:
        if kind == "ind":
            states = [GaussianState(0.0, 1.0, draw(st.floats(-1.0, 1.0)))]
        else:  # input modes 20 widths apart: cross-mode overlaps below exp(-50)
            states = [GaussianState(0.0, 1.0, 20.0 * k) for k in ks]
        jm = build_extreme(kind, n_occ, slot_dets, states, output_modes=ls)
    return jm, random_unitary(m, draw(st.integers(0, 2**16))), n_occ, m_occ


@given(structured_j_cases())
@settings(deadline=None, max_examples=100)
def test_tau_route_property_matches_dense_quadratic_form(case):
    """Every structured J takes the tau route and equals X^dagger J X / (mu mu)
    for the same J stored densely."""
    jm, u, n_occ, m_occ = case
    assert jm.storage != "dense"
    p = prob_jmatrix(jm, u, n_occ, m_occ).p
    dense = JMatrix(jm.n, "dense", dense=jm.as_dense(), output_modes=jm.output_modes,
                    detectors=jm.detectors)
    x = _path_products(u[np.ix_(mode_list(n_occ), mode_list(m_occ))])
    expected = np.vdot(x, dense.dense @ x).real / (mu(n_occ) * mu(m_occ))
    assert abs(p - expected) <= 1e-12
    assert abs(prob_jmatrix(dense, u, n_occ, m_occ).p - expected) <= 1e-12


@st.composite
def mixed_j_cases(draw, components=2):
    """Mixed photons on N <= 4 slots in M <= N + 1 modes, one photon state
    per input mode (a multiply-occupied mixed mode shares each draw), with
    per-mode detectors that may differ: mixed Gaussian photons of
    ``components`` to 3 components, some nearly coincident, under
    ideal/flat/band detectors, or finite-rank mixed photons under
    ideal/flat/matrix detectors."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n + 1))
    slots = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
    n_occ = tuple(int(c) for c in np.bincount(draw(slots), minlength=m))
    if draw(st.booleans()):
        pure = st.sampled_from([-1.0, -0.3, 0.4, 1.0]).map(partial(_fold_state, finite=True))
        pool = (IDEAL, DetectorModel.flat(0.7), _matrix_detector(1), _matrix_detector(2))
    else:  # components 1e-6 and 1e-4 from t = 0 make a nearly singular span
        pure = st.builds(GaussianState, st.sampled_from([0.0, 0.8]), st.just(1.0),
                         st.sampled_from([-1.0, 0.0, 1e-6, 1e-4, 1.0]))
        pool = MIXED_DETECTORS + (DetectorModel.gaussian_band(-0.4, 0.8),)
    by_mode = []
    for _ in range(m):
        weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=components,
                                         max_size=3)))
        by_mode.append(MixedState.ensemble(
            [(w, draw(pure)) for w in weights / weights.sum()]))
    dets = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    photons = [by_mode[k] for k in mode_list(n_occ)]
    return photons, dets, random_unitary(m, draw(st.integers(0, 2**16))), n_occ


@given(mixed_j_cases())
@settings(deadline=None, max_examples=40)
def test_mixed_build_property_matches_oracle(case):
    """The cycle-table build of a mixed J, made for each output's slot
    detectors, gives the oracle's probability on every output."""
    photons, dets, u, n_occ = case
    ks = mode_list(n_occ)
    for m_occ in enumerate_outputs(len(dets), len(photons)):
        ls = mode_list(m_occ)
        jm = build_mixed(photons, tuple(dets[l] for l in ls), output_modes=ls, input_modes=ks)
        p = prob_jmatrix(jm, u, n_occ, m_occ).p
        assert abs(p - prob_oracle(photons, dets, u, n_occ, m_occ).p) <= 1e-10


@given(mixed_j_cases(components=1))
@settings(deadline=None, max_examples=100)
def test_product_fold_property_matches_oracle(case):
    """The general sweep (and the permanent sweep on single-occupancy
    inputs) of photons with one to three components gives the oracle's
    probability on every output."""
    photons, dets, u, n_occ = case
    want = output_distribution("oracle", u, n_occ, photons=photons, detectors=dets)
    engines = ("general", "permanent") if max(n_occ) == 1 else ("general",)
    for engine in engines:
        dist = output_distribution(engine, u, n_occ, photons=photons, detectors=dets)
        assert max(abs(a.p - b.p) for a, b in zip(dist.results, want.results)) <= 1e-12


@st.composite
def hall_fold_cases(draw):
    """Photons on N <= 5 slots in M <= N + 1 modes and one output, with
    multi-occupancy on both sides and per-mode detectors that may differ.
    Each input mode draws its state from a small pool, so one state may
    repeat across input modes unless they are drawn distinct, pure or mixed
    of two components: Gaussian
    states, some 1e-6 and 1e-4 from t = 0 (a nearly singular span), under
    ideal/flat/band detectors, or finite-rank states under
    ideal/flat/matrix detectors."""
    n = draw(st.integers(1, 5))
    single = draw(st.booleans())  # one photon per input mode
    m = draw(st.integers(n if single else 1, n + 1))
    slots = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
    if single:
        n_occ = tuple(draw(st.permutations([1] * n + [0] * (m - n))))
    else:
        n_occ = tuple(int(c) for c in np.bincount(draw(slots), minlength=m))
    m_occ = tuple(int(c) for c in np.bincount(draw(slots), minlength=m))
    if draw(st.booleans()):
        pure = st.sampled_from([-1.0, -0.3, 0.4, 1.0]).map(partial(_fold_state, finite=True))
        pool = (IDEAL, DetectorModel.flat(0.7), _matrix_detector(1), _matrix_detector(2))
        distinct = m <= 4 and draw(st.booleans())
    else:
        pure = st.builds(GaussianState, st.sampled_from([0.0, 0.8]), st.just(1.0),
                         st.sampled_from([-1.0, -0.5, 0.0, 1e-6, 1e-4, 0.5, 1.0]))
        pool = MIXED_DETECTORS + (DetectorModel.gaussian_band(-0.4, 0.8),)
        distinct = draw(st.booleans())
    by_mode = draw(st.lists(pure, min_size=m, max_size=m, unique=distinct))
    for k, state in enumerate(by_mode):
        if draw(st.booleans()):
            weight = draw(st.floats(0.1, 0.9))
            by_mode[k] = MixedState.ensemble([(weight, state), (1.0 - weight, draw(pure))])
    dets = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    photons = [by_mode[k] for k in mode_list(n_occ)]
    return photons, dets, random_unitary(m, draw(st.integers(0, 2**16))), n_occ, m_occ


def _hall(j, n) -> bool:
    """At most n - t slots carry j_alpha >= t, for every t."""
    return all(sum(q >= t for q in j) <= n - t for t in range(n + 1))


# r = N = 5 on a collision-free output, with a nearly singular span
@example(([GaussianState(0.0, 1.0, t) for t in (-1.0, 0.0, 1e-6, 1e-4, 1.0)],
          list(MIXED_DETECTORS) * 2, random_unitary(6, 5), (1, 1, 1, 1, 1, 0),
          (0, 1, 1, 1, 1, 1)))
@given(hall_fold_cases())
@settings(deadline=None, max_examples=60)
def test_hall_filtered_fold_property(case):
    """Under the triangular Gram factors of the fold's set-up, every basis
    tuple that Hall's condition drops has a permanent of exactly 0 (the
    first draw of each rank, all r^N tuples through permanent_naive), the
    fold reads exactly the canonical tuples that meet the condition, and the
    filtered fold (general, and permanent on single-occupancy inputs) equals
    the oracle."""
    photons, dets, u, n_occ, m_occ = case
    n = len(photons)
    slot_dets = tuple(dets[l] for l in mode_list(m_occ))
    setup = probability._spectral_setup("general", photons, n_occ, set(slot_dets))
    usub = u[np.ix_(mode_list(n_occ), mode_list(m_occ))]
    rows = [setup.kind[det] for det in slot_dets]
    for _, factors in setup.groups:
        r = factors.shape[2]
        sizes = tuple(c for c in m_occ if c)
        canonical, _ = probability._basis_tuples(r, sizes, False)
        kept, _ = probability._basis_tuples(r, sizes, True)
        assert kept.tolist() == [j for j in canonical.tolist() if _hall(j, n)]
        first = factors[rows, 0]  # (slot alpha, q, beta)
        for j in itertools.product(range(r), repeat=n):
            if not _hall(j, n):
                s_j = first[np.arange(n), list(j)].T  # S_j[beta, alpha] = R_alpha[j_alpha, beta]
                assert permanent_naive(usub * s_j) == 0
    want = prob_oracle(photons, dets, u, n_occ, m_occ).p
    assert abs(prob_general(GeneralEnsemble.from_photons(photons, n_occ), dets, u, n_occ,
                            m_occ).p - want) <= 1e-12
    if max(n_occ) == 1:
        assert abs(prob_permanent_basis(photons, dets, u, n_occ, m_occ).p - want) <= 1e-12


def _orbit_reference(r: int, sizes: tuple[int, ...]) -> list:
    """Every one of the r^N tuples sorted within each output block, as
    (representative, orbit size) pairs in lexicographic order."""
    ends = list(itertools.accumulate(sizes))
    orbits = Counter(
        tuple(q for a, b in zip([0] + ends, ends) for q in sorted(j[a:b]))
        for j in itertools.product(range(r), repeat=sum(sizes)))
    return sorted(orbits.items())


@pytest.mark.parametrize("n", range(1, 6))
def test_basis_tuples_match_orbit_reference(n):
    """Both tuple tables, for every block-size pattern of N photons and every
    r <= N + 1, equal the block-sorted orbits of all r^N tuples with their
    orbit sizes as weights; the fold's table keeps those that meet Hall's
    condition, in the same order."""
    patterns = [c for k in range(1, n + 1) for c in itertools.product(range(1, n + 1), repeat=k)
                if sum(c) == n]
    for sizes in patterns:
        for r in range(1, n + 2):
            orbits = _orbit_reference(r, sizes)
            for hall in (False, True):
                tuples, weights = probability._basis_tuples(r, sizes, hall)
                assert not tuples.flags.writeable and not weights.flags.writeable
                got = list(zip(map(tuple, tuples.tolist()), weights.tolist()))
                assert got == [(j, w) for j, w in orbits if not hall or _hall(j, n)]


def test_hall_table_never_holds_the_dropped_tuples():
    """N = r = 7 on a collision-free output: the fold keeps 8^6 of the 7^7
    tuples, and building its table block by block stays far below the
    182 MiB traced peak of building every tuple and then filtering."""
    tracemalloc.start()
    try:
        tuples, weights = probability._basis_tuples.__wrapped__(7, (1,) * 7, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tuples.shape == (8**6, 7) and np.all(weights == 1)
    assert peak < 96 * 2**20


@pytest.mark.parametrize("r, sizes", [(300, (1, 1)), (60, (1, 1, 1)), (30, (2, 2))])
def test_tensor_table_costs_a_small_multiple_of_itself(r, sizes):
    """The tensor route's table keeps every tuple, and its rank r is bounded
    by the span basis, not by N: building it forms no (T, C, r) Hall count,
    so its traced peak stays within 4 times the table it returns."""
    tracemalloc.start()
    try:
        tuples, weights = probability._basis_tuples.__wrapped__(r, sizes, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tuples) == math.prod(math.comb(r + s - 1, s) for s in sizes)
    assert peak < 4 * (tuples.nbytes + weights.nbytes)


def test_cycle_j_with_lossy_detector_matches_mixed_build_on_every_output():
    """A cycle J with one non-ideal detector on every slot does not depend on
    the output: it is accepted for every output and agrees with the dense
    mixed build made for that output."""
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.6, nodes=12)
    flat = DetectorModel.flat(0.9)
    cycle = build_cycle_compressed(rho, flat, 3)
    u = random_unitary(4, 43)
    n_occ = (1, 1, 1, 0)
    for m_occ in enumerate_outputs(4, 3):
        mixed = build_mixed([rho] * 3, (flat,) * 3, output_modes=mode_list(m_occ),
                            input_modes=mode_list(n_occ))
        p = prob_jmatrix(cycle, u, n_occ, m_occ).p
        assert p == pytest.approx(prob_jmatrix(mixed, u, n_occ, m_occ).p, abs=1e-10)


@pytest.mark.parametrize("photons", [
    [MixedState.pure(GaussianState(0.0, 1.0, 0.0)),
     MixedState.pure(GaussianState(0.0, 1.0, 0.0).delayed(0.7))],
    [MixedState.gaussian_time_jitter(0.0, 1.0, 0.0),
     MixedState.gaussian_time_jitter(0.0, 1.0, 0.0, mean_time=0.7)],
])
def test_jmatrix_distribution_of_single_component_mixed_photons(photons):
    """Single-component MixedStates are pure photons: the jmatrix sweep
    unwraps them and matches the oracle."""
    u = fourier(2)
    jm = output_distribution("jmatrix", u, (1, 1), photons=photons)
    oracle = output_distribution("oracle", u, (1, 1), photons=photons)
    assert [r.m for r in jm.results] == [r.m for r in oracle.results]
    for a, b in zip(jm.results, oracle.results):
        assert abs(a.p - b.p) <= 1e-12


def test_single_photon_detector_weighted():
    u = random_unitary(3, 17)
    det = DetectorModel.flat(0.6)
    dets = (det, IDEAL, det)
    g = GaussianState(0.0, 1.0, 0.0)
    for l in range(3):
        m_occ = tuple(1 if k == l else 0 for k in range(3))
        p = prob_oracle([g], dets, u, (0, 1, 0), m_occ).p
        eta = 0.6 if l != 1 else 1.0
        assert p == pytest.approx(eta * abs(u[1, l]) ** 2, abs=1e-12)


# -- path amplitudes and reduced quadratic form -------------------------------------


def test_reduced_quadratic_form_equals_probability(rng):
    u = random_unitary(3, 44)
    photons = gaussians(0.0, 0.7, 1.4)
    n_occ = (1, 1, 1)
    dets = (DetectorModel.flat(0.8), DetectorModel.flat(0.6), IDEAL)
    for m_occ in enumerate_outputs(3, 3)[:5]:
        slot = tuple(dets[l] for l in mode_list(m_occ))
        jm = build_pure(photons, slot, output_modes=mode_list(m_occ))
        x = np.sqrt(np.diagonal(jm.as_dense()).real) * _path_products(
            u[np.ix_(mode_list(n_occ), mode_list(m_occ))])
        red = reduce_jmatrix(jm)
        p_form = np.vdot(x, red.dense @ x).real / (mu(n_occ) * mu(m_occ))
        assert p_form == pytest.approx(prob_jmatrix(jm, u, n_occ, m_occ).p, abs=1e-12)


# -- validation and error paths ------------------------------------------------------


def test_context_mismatch_rejected():
    u = fourier(3)
    photons = gaussians(0.0, 0.5, 1.0)
    dets = (DetectorModel.flat(0.5), IDEAL, IDEAL)
    slot = tuple(dets[l] for l in mode_list((1, 1, 1)))
    jm = build_pure(photons, slot, output_modes=(0, 1, 2))
    with pytest.raises(ValidationError):
        prob_jmatrix(jm, u, (1, 1, 1), (2, 1, 0))
    with pytest.raises(ValidationError, match="built for N=3, instance has N=2"):
        prob_jmatrix(jm, u, (1, 1, 0), (1, 1, 0))


def test_context_free_for_ideal_detectors():
    u = fourier(3)
    photons = gaussians(0.0, 0.5, 1.0)
    jm = build_pure(photons, ideal_dets(3), output_modes=(0, 1, 2))
    # ideal-detector J is output independent; reuse is allowed
    prob_jmatrix(jm, u, (1, 1, 1), (2, 1, 0))


def test_extreme_j_carries_its_output_context():
    """An extreme J with different slot detectors is accepted for the output
    it was built for and refused for another."""
    u = random_unitary(3, 14)
    n_occ, m_occ = (1, 1, 1), (1, 1, 1)
    dets = (DetectorModel.flat(0.7), IDEAL, DetectorModel.gaussian_band(0.0, 1.5, 0.9))
    ls = mode_list(m_occ)
    g = GaussianState(0.0, 1.0, 0.0)
    apart = gaussians(0.0, 20.0, 40.0)  # cross-mode overlaps exp(-200)
    for kind, states, photons in (("ind", [g], [g] * 3), ("cl", apart, apart)):
        jm = build_extreme(kind, n_occ, tuple(dets[l] for l in ls), states, output_modes=ls)
        assert prob_jmatrix(jm, u, n_occ, m_occ).p == pytest.approx(
            prob_oracle(photons, dets, u, n_occ, m_occ).p, abs=1e-12)
        with pytest.raises(ValidationError):
            prob_jmatrix(jm, u, n_occ, (2, 1, 0))


def test_permanent_engine_rejects_multi_occupancy():
    u = fourier(2)
    g = GaussianState(0.0, 1.0, 0.0)
    with pytest.raises(UnsupportedInputError):
        prob_permanent_basis([g, g], None, u, (2, 0), (1, 1))


def test_general_engine_rejects_asymmetric_tensor(rng):
    u = random_unitary(2, 2)
    basis = SpanBasis([FiniteRankState(v) for v in np.eye(2)])
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    raw /= np.linalg.norm(raw)
    ens = GeneralEnsemble(basis, ((1.0, raw),))
    with pytest.raises(ValidationError):
        prob_general(ens, None, u, (2, 0), (1, 1))


def test_oracle_size_cap():
    u = random_unitary(6, 1)
    g = GaussianState(0.0, 1.0, 0.0)
    with pytest.raises(SizeLimitError):
        prob_oracle([g] * 6, None, u, (1,) * 6, (1,) * 6)


def test_finalize_clamps_and_raises():
    res = _finalize(complex(-5e-10, 0.0), (1, 0), "test")
    assert res.p == 0.0 and res.clamped
    with pytest.raises(EngineError):
        _finalize(complex(-5e-9, 0.0), (1, 0), "test")
    with pytest.raises(EngineError):
        _finalize(complex(0.5, 1e-6), (1, 0), "test")
    for raw in (complex(np.nan, 0.0), complex(0.5, np.inf)):
        with pytest.raises(EngineError, match="non-finite"):
            _finalize(raw, (1, 0), "test")


def test_photon_count_validation():
    u = fourier(2)
    g = GaussianState(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        output_distribution("jmatrix", u, (1, 1), photons=[g])


@pytest.mark.parametrize("engine", ["jmatrix", "general", "oracle"])
def test_sweeps_refuse_different_photons_in_one_input_mode(engine):
    with pytest.raises(ValidationError, match="share input mode 0"):
        output_distribution(engine, fourier(2), (2, 0), photons=gaussians(0.0, 0.5))


@pytest.mark.parametrize("count", [1, 3])
def test_from_photons_checks_photon_count(count):
    g, h = GaussianState(0.0, 1.0, 0.0), GaussianState(0.0, 1.0, 1.5)
    with pytest.raises(ValidationError, match=f"need 2 photons, got {count}"):
        GeneralEnsemble.from_photons([g, h, g][:count], (1, 1))


def test_distribution_dict_shape():
    u = fourier(2)
    g = GaussianState(0.0, 1.0, 0.0)
    d = output_distribution("jmatrix", u, (1, 1), photons=[g, g]).to_dict()
    assert set(d) == {"input", "outputs", "sum", "engine"}
    assert d["outputs"][0]["m"] == [2, 0]


@pytest.mark.parametrize("engine", ["jmatrix", "permanent"])
def test_photon_engines_refuse_an_ensemble_without_photons(engine):
    u = fourier(2)
    ens = GeneralEnsemble.from_photons(gaussians(0.0, 0.5))
    with pytest.raises(ValidationError, match=f"engine '{engine}' needs photons"):
        output_distribution(engine, u, (1, 1), ensemble=ens)


# -- one set-up per sweep ------------------------------------------------------------

SWEEP_BAND = DetectorModel.gaussian_band(0.2, 1.1, 0.9)
# per-mode band detectors; modes 0 and 2 share one, so some outputs share
# their slot-detector tuple
SWEEP_DETS = (SWEEP_BAND, DetectorModel.gaussian_band(-0.3, 1.5, 0.8), SWEEP_BAND,
              DetectorModel.gaussian_band(0.1, 0.9, 1.0))


def jitter(mean_time, nodes=3):
    return MixedState.gaussian_time_jitter(0.0, 1.0, 0.4, mean_time=mean_time, nodes=nodes)


@pytest.fixture
def setup_counts(monkeypatch):
    """Calls of the set-up work of the engines: span bases, Grams, and the
    mixed J set-ups and the builds through them."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    gram = counting("gram_matrix", spectral.gram_matrix)
    for module in (spectral, probability):
        monkeypatch.setattr(module, "gram_matrix", gram)
    monkeypatch.setattr(jmatrix._MixedSetup, "__init__",
                        counting("mixed_setup", jmatrix._MixedSetup.__init__))
    monkeypatch.setattr(jmatrix._MixedSetup, "build",
                        counting("mixed_build", jmatrix._MixedSetup.build))
    monkeypatch.setattr(SpanBasis, "__init__", counting("SpanBasis", SpanBasis.__init__))
    return counts


def distinct_slot_detectors(dets, n):
    return {tuple(dets[l] for l in mode_list(m)) for m in enumerate_outputs(len(dets), n)}


def assert_sweep_matches_public_calls(dist, one_output):
    outputs = enumerate_outputs(len(dist.input), sum(dist.input))
    assert [r.m for r in dist.results] == outputs
    for r in dist.results:
        assert abs(r.p - one_output(r.m).p) <= 1e-15


def test_pure_jmatrix_sweep_computes_one_gram_per_detector(setup_counts):
    u = random_unitary(4, 71)
    n_occ = (2, 1, 0, 1)
    photons = gaussians(0.0, 0.0, 0.6, -0.5)
    dist = output_distribution("jmatrix", u, n_occ, photons=photons, detectors=SWEEP_DETS)
    assert setup_counts == {"gram_matrix": len(set(SWEEP_DETS))}

    def one_output(m_occ):
        jm = build_j_for(photons, m_occ, SWEEP_DETS, n_occ)
        return prob_jmatrix(jm, u, n_occ, m_occ)

    assert_sweep_matches_public_calls(dist, one_output)


@pytest.mark.parametrize("n_occ", [(1, 1, 0, 1), (2, 1, 0, 0)])
@pytest.mark.parametrize("dets", [(DetectorModel.flat(0.9),) * 4, FOLD_DETECTORS["band"], None],
                         ids=["flat", "band", "none"])
def test_pure_jmatrix_sweep_is_bitwise_the_public_route(dets, n_occ):
    """Every output of a pure-photon sweep is the number ``prob_jmatrix``
    gives for that output's own ``build_pure`` J, to the last bit."""
    u = random_unitary(4, 73)
    photons = gaussians(*(0.7 * k - 0.6 for k, c in enumerate(n_occ) for _ in range(c)))
    dist = output_distribution("jmatrix", u, n_occ, photons=photons, detectors=dets)
    for r in dist.results:
        want = prob_jmatrix(build_j_for(photons, r.m, dets, n_occ), u, n_occ, r.m)
        assert (r.p, r.imag_residual, r.clamped) == (want.p, want.imag_residual, want.clamped)


@pytest.mark.parametrize("mixed", [False, True])
def test_jmatrix_sweep_above_cap_refused_before_any_gram(monkeypatch, mixed):
    """Nine photons: the sweep raises SizeLimitError before it draws,
    tabulates or factors a single spectral state."""

    def fail(*args, **kwargs):
        raise AssertionError("the jmatrix sweep did set-up work before its size check")

    for module, name in ((spectral, "gram_matrix"), (probability, "_GramTable"),
                         (probability, "_slot_draws"), (probability, "_MixedSetup")):
        monkeypatch.setattr(module, name, fail)
    photons = [jitter(0.0) if mixed else GaussianState(0.0, 1.0, 0.0)] * 9
    with pytest.raises(SizeLimitError, match="capped at N <= 8"):
        output_distribution("jmatrix", fourier(2), (5, 4), photons=photons)


def test_mixed_jmatrix_sweep_builds_one_j_per_slot_detector_tuple(setup_counts):
    u = random_unitary(4, 72)
    n_occ = (2, 0, 1, 0)
    rho = jitter(0.0)
    photons = [rho, rho, jitter(0.7)]
    dist = output_distribution("jmatrix", u, n_occ, photons=photons, detectors=SWEEP_DETS)
    builds = len(distinct_slot_detectors(SWEEP_DETS, 3))
    assert builds < len(dist.results)
    assert setup_counts["mixed_setup"] == 1 and setup_counts["mixed_build"] == builds

    def one_output(m_occ):
        ls = mode_list(m_occ)
        jm = build_mixed(photons, [SWEEP_DETS[l] for l in ls], output_modes=ls,
                         input_modes=mode_list(n_occ))
        return prob_jmatrix(jm, u, n_occ, m_occ)

    assert_sweep_matches_public_calls(dist, one_output)


def test_mixed_jmatrix_sweep_with_ideal_detectors_builds_one_j(setup_counts):
    """Five jitter photons through fourier(5): one J serves all 126 outputs."""
    u = fourier(5)
    n_occ = (1,) * 5
    photons = [jitter(0.4 * i, nodes=8) for i in range(5)]
    dist = output_distribution("jmatrix", u, n_occ, photons=photons)
    assert setup_counts["mixed_setup"] == setup_counts["mixed_build"] == 1
    assert len(dist.results) == 126
    assert dist.total == pytest.approx(1.0, abs=1e-9)
    for r in dist.results[::25]:
        jm = build_mixed(photons, (IDEAL,) * 5, output_modes=mode_list(r.m),
                         input_modes=mode_list(n_occ))
        assert abs(r.p - prob_jmatrix(jm, u, n_occ, r.m).p) <= 1e-15


def four_jitter_photons():
    """(u, n_occ, photons, dets): four 8-node jitter photons (4096 draws)
    through fourier(4), a different band detector on every mode."""
    photons = [jitter(0.5 * i, nodes=8) for i in range(4)]
    dets = [DetectorModel.gaussian_band(0.1 * l - 0.2, 1.0 + 0.2 * l, 1.0 - 0.05 * l)
            for l in range(4)]
    return fourier(4), (1, 1, 1, 1), photons, dets


def test_mixed_jmatrix_sweep_sets_up_once(setup_counts, monkeypatch):
    """Four 8-node jitter photons through fourier(4) under a different band
    detector per mode: every output has its own slot-detector tuple, and the
    sweep still makes one Gram per detector, one ideal-detector Gram for the
    photons' factors and one factor eigh per photon (220 Grams and 140 eigh
    calls when each build set itself up)."""
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        setup_counts["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    u, n_occ, photons, dets = four_jitter_photons()
    dist = output_distribution("jmatrix", u, n_occ, photons=photons, detectors=dets)
    assert setup_counts == {"gram_matrix": len(dets) + 1, "eigh": len(photons),
                            "mixed_setup": 1, "mixed_build": len(dist.results)}

    def one_output(m_occ):
        ls = mode_list(m_occ)
        jm = build_mixed(photons, [dets[l] for l in ls], output_modes=ls,
                         input_modes=mode_list(n_occ))
        return prob_jmatrix(jm, u, n_occ, m_occ)

    assert_sweep_matches_public_calls(dist, one_output)


def test_mixed_jmatrix_sweep_memory_does_not_grow_with_draws():
    """Two doubly occupied 12-node modes beside a 12-node photon give 144
    joint draws, whose (5, 5, 12, 12) blocks would take 7.9 MiB together.
    The set-up holds the Gram table and one factor per photon and forms
    each draw's blocks in turn, so the sweep stays far below that."""
    rho, sigma, other = (MixedState.gaussian_time_jitter(omega, 1.0, 0.5, mean_time=t, nodes=12)
                         for omega, t in ((0.0, 0.0), (0.3, 0.6), (0.0, -0.4)))
    photons, n_occ = [rho, rho, sigma, sigma, other], (2, 2, 1, 0, 0)
    u = fourier(5)
    output_distribution("jmatrix", u, n_occ, photons=photons)  # warms the S_5 tables
    tracemalloc.start()
    try:
        dist = output_distribution("jmatrix", u, n_occ, photons=photons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.total == pytest.approx(1.0, abs=1e-9)
    assert peak < 2 * 2**20


def test_mixed_jmatrix_sweep_logs_the_grams_of_its_set_up(caplog):
    """The mixed set-up's Gram table computes one Gram per detector and one
    ideal-detector Gram; the sweep's set-up line counts them."""
    u, n_occ, photons, dets = four_jitter_photons()
    with caplog.at_level("DEBUG", logger="multiphoton.probability"):
        output_distribution("jmatrix", u, n_occ, photons=photons, detectors=dets)
    assert caplog.records[-1].getMessage() == (
        "output_distribution: jmatrix engine, 35 outputs, set-up: 5 Grams, 35 J builds")


def test_many_draw_fold_output_memory_stays_bounded(monkeypatch):
    """One output of the four-photon sweep folds 4096 draws of rank 4 over
    256 canonical tuples, about a million permanents. The fold gathers them
    from one W per block of many draws, never one kernel call per draw, and
    its traced peak stays under the set-up's factor array plus the kernel's
    working set, (2 + 2/n) RYSER_TEMP_ELEMENTS numbers."""
    u, n_occ, photons, dets = four_jitter_photons()
    setup = probability._spectral_setup("permanent", photons, n_occ, set(dets))
    assert setup.draws == 4096
    calls = Counter()

    def counting(*args):
        calls["gather"] += 1
        return permanent_gather_batch(*args)

    monkeypatch.setattr(probability, "permanent_gather_batch", counting)
    usub = np.asarray(u, dtype=complex)[np.ix_(mode_list(n_occ), mode_list(n_occ))]
    fold = partial(probability._fold_output, setup, tuple(dets), usub, n_occ, n_occ, "permanent")
    want = fold().p  # warms the canonical tuples
    tracemalloc.start()
    try:
        assert fold().p == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < calls["gather"] <= setup.draws // 32
    factor_bytes = sum(factors.nbytes for _, factors in setup.groups)
    assert peak < factor_bytes + (2 + 2 / sum(n_occ)) * RYSER_TEMP_ELEMENTS * 16
    jm = build_mixed(photons, dets, output_modes=mode_list(n_occ), input_modes=mode_list(n_occ))
    assert abs(want - prob_jmatrix(jm, u, n_occ, n_occ).p) <= 1e-12


def test_fold_set_up_factors_its_draws_in_stacks(monkeypatch):
    """The fold's set-up makes one eigh, and one QR per rank, however many
    draws there are: one eigh and two QRs for two photons that share a
    component (one draw of one state, three of two), one of each for the
    4096 draws of four jitter photons. Every factor is upper trapezoidal and
    gives its draw's slot Gram."""
    calls = Counter()
    for name in ("eigh", "qr"):
        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    a, b, c = gaussians(0.0, 0.7, 1.5)
    photons = [MixedState.ensemble([(0.4, a), (0.6, b)]), MixedState.ensemble([(0.5, a), (0.5, c)])]
    dets = (IDEAL, DetectorModel.gaussian_band(0.2, 1.1, 0.9))
    setup = probability._spectral_setup("permanent", photons, (1, 1), set(dets))
    assert calls == {"eigh": 1, "qr": 2}
    draws = [states for _, states in GeneralEnsemble.from_photons(photons).components]
    assert draws[0] == (a, a)
    (one, single), (three, pairs) = setup.groups
    assert single.shape[1:3] == (1, 1) and pairs.shape[1:3] == (3, 2)
    assert one.tolist() == [0.2] and three.tolist() == [0.2, 0.3, 0.3]
    for factors, states in [(single[:, 0], draws[0])] + list(zip(pairs.transpose(1, 0, 2, 3),
                                                                 draws[1:])):
        for det, at in setup.kind.items():
            r = factors[at]
            assert np.all(np.tril(r, -1) == 0)
            assert np.allclose(r.conj().T @ r, spectral.gram_matrix(states, det), atol=1e-12)
    calls.clear()
    u, n_occ, photons, dets = four_jitter_photons()
    setup = probability._spectral_setup("permanent", photons, n_occ, set(dets))
    assert setup.draws == 4096 and calls == {"eigh": 1, "qr": 1}


def test_fold_drops_draws_that_no_detector_sees():
    """A draw whose states every detector is blind to has Gram-factor rank 0:
    the fold's set-up drops it (each of its permanents is 0), and the
    permanent and general sweeps still equal the oracle."""
    e0, e1 = FiniteRankState([1.0, 0.0]), FiniteRankState([0.0, 1.0])
    photons = [MixedState.ensemble([(0.4, e0), (0.6, e1)]),
               MixedState.ensemble([(0.5, e0), (0.5, e1)])]
    dets = (DetectorModel.operator(np.diag([0.9, 0.0])),) * 3  # blind to e1
    u, n_occ = random_unitary(3, 91), (1, 0, 1)
    setup = probability._spectral_setup("permanent", photons, n_occ, set(dets))
    assert setup.draws == 4 and [probs.tolist() for probs, _ in setup.groups] == [[0.2, 0.2, 0.3]]
    for engine in ("permanent", "general"):
        dist = output_distribution(engine, u, n_occ, photons=photons, detectors=dets)
        for r in dist.results:
            assert r.p == pytest.approx(prob_oracle(photons, dets, u, n_occ, r.m).p, abs=1e-12)
    assert dist.total == pytest.approx(0.2 * 0.9**2, abs=1e-12)  # only e0 e0 is seen twice


def test_permanent_sweep_computes_one_gram_per_detector(setup_counts):
    u = random_unitary(4, 73)
    n_occ = (1, 1, 0, 1)
    photons = [jitter(0.0), jitter(0.5), GaussianState(0.0, 1.0, -0.4)]
    dist = output_distribution("permanent", u, n_occ, photons=photons, detectors=SWEEP_DETS)
    # one Gram per distinct detector over the states of all draws; no span basis
    assert setup_counts == {"gram_matrix": len(set(SWEEP_DETS))}
    assert_sweep_matches_public_calls(
        dist, lambda m_occ: prob_permanent_basis(photons, SWEEP_DETS, u, n_occ, m_occ))


def test_mixed_builds_and_mandel_build_no_span_basis(setup_counts):
    """build_mixed and mandel_visibility trace per-photon blocks; neither
    orthonormalises the joint span of the components."""
    photons = [jitter(0.0), jitter(1e-6), jitter(0.7)]
    build_mixed(photons, SWEEP_DETS[:3])
    mandel_visibility(photons[0], photons[1], *SWEEP_DETS[:2])
    assert "SpanBasis" not in setup_counts


def test_general_sweep_builds_no_span_basis(setup_counts):
    u = random_unitary(4, 74)
    n_occ = (2, 1, 0, 1)
    rho = jitter(0.0, nodes=2)
    photons = [rho, rho, jitter(0.6, nodes=2), GaussianState(0.0, 1.0, -0.4)]
    dist = output_distribution("general", u, n_occ, photons=photons, detectors=SWEEP_DETS)
    # one Gram per distinct detector over the states of all draws, and no ensemble
    assert setup_counts == {"gram_matrix": len(set(SWEEP_DETS))}
    ensemble = GeneralEnsemble.from_photons(photons, n_occ)
    assert_sweep_matches_public_calls(
        dist, lambda m_occ: prob_general(ensemble, SWEEP_DETS, u, n_occ, m_occ))


def test_oracle_sweep_matches_public_calls():
    u = random_unitary(4, 75)
    n_occ = (2, 0, 1, 0)
    rho = jitter(0.0, nodes=2)
    photons = [rho, rho, jitter(0.7, nodes=2)]
    dist = output_distribution("oracle", u, n_occ, photons=photons, detectors=SWEEP_DETS)
    assert_sweep_matches_public_calls(
        dist, lambda m_occ: prob_oracle(photons, SWEEP_DETS, u, n_occ, m_occ))


@pytest.mark.parametrize("engine", ["general", "oracle"])
def test_tensor_ensemble_sweep_matches_public_calls(engine, caplog):
    """An ensemble given as tensors, on a multi-occupancy input under matrix
    detectors: the sweep (the tensor route of general, the tensor
    contractions of the oracle) equals the single-output call on every
    output."""
    n_occ, photons = _fold_case("multi", finite=True)
    dets = FOLD_DETECTORS["matrix"]
    u = random_unitary(4, 77)
    ensemble = tensor_ensemble(photons, n_occ)
    with caplog.at_level("DEBUG", logger="multiphoton.probability"):
        dist = output_distribution(engine, u, n_occ, ensemble=ensemble, detectors=dets)
    assert any("tensor route" in r.getMessage() for r in caplog.records) == (engine == "general")
    one_output = {"general": prob_general, "oracle": prob_oracle}[engine]
    assert_sweep_matches_public_calls(
        dist, lambda m_occ: one_output(ensemble, dets, u, n_occ, m_occ))


def test_sweep_names_its_set_up_in_debug_log(caplog):
    u = random_unitary(4, 76)
    n_occ = (1, 0, 1, 0)
    mixed = [jitter(0.0), jitter(0.7)]
    pure = gaussians(0.0, 0.7)
    with caplog.at_level("DEBUG", logger="multiphoton.probability"):
        output_distribution("jmatrix", u, n_occ, photons=mixed, detectors=SWEEP_DETS)
        output_distribution("jmatrix", u, n_occ, photons=pure, detectors=SWEEP_DETS)
        output_distribution("permanent", u, n_occ, photons=mixed)
        output_distribution("general", u, n_occ, photons=pure)
        output_distribution("ideal", u, n_occ)
    builds = len(distinct_slot_detectors(SWEEP_DETS, 2))
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("output_distribution")] == [
        f"output_distribution: jmatrix engine, 10 outputs, set-up: 4 Grams, {builds} J builds",
        f"output_distribution: jmatrix engine, 10 outputs, set-up: 3 Grams, {builds} J builds",
        "output_distribution: permanent engine, 10 outputs, set-up: 1 Grams, 0 J builds",
        "output_distribution: general engine, 10 outputs, set-up: 1 Grams, 0 J builds",
        "output_distribution: ideal engine, 10 outputs, set-up: 0 Grams, 0 J builds",
    ]


# -- one checked spectral input ---------------------------------------------------


def test_from_photons_refuses_different_photons_in_one_input_mode():
    g, h = gaussians(0.0, 0.5)
    with pytest.raises(ValidationError, match="share input mode 0"):
        GeneralEnsemble.from_photons([g, h], (2, 0))


def asymmetric_ensembles():
    """A product component with different states in one input mode, and an
    antisymmetric tensor: neither is a state of two photons in mode 0."""
    product = GeneralEnsemble(None, ((1.0, tuple(gaussians(0.0, 0.5))),))
    antisymmetric = GeneralEnsemble(SpanBasis([FiniteRankState(v) for v in np.eye(2)]),
                                    ((1.0, np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2)),))
    return {"product": product, "antisymmetric": antisymmetric}


@pytest.mark.parametrize("kind", ["product", "antisymmetric"])
def test_oracle_refuses_what_general_refuses(kind):
    """The oracle checks its ensemble as ``general`` does: the same
    ValidationError for a single output and for a sweep."""
    ens = asymmetric_ensembles()[kind]
    u = fourier(2)
    calls = [partial(prob_general, ens, None, u, (2, 0), (1, 1)),
             partial(prob_oracle, ens, None, u, (2, 0), (1, 1)),
             partial(output_distribution, "general", u, (2, 0), ensemble=ens),
             partial(output_distribution, "oracle", u, (2, 0), ensemble=ens)]
    messages = set()
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1


@pytest.mark.parametrize("engine", ["general", "oracle"])
def test_ensemble_engines_check_the_photon_number(engine):
    ens = GeneralEnsemble.from_photons(gaussians(0.0, 0.5))
    with pytest.raises(ValidationError, match="ensemble describes 2 photons, instance has 3"):
        output_distribution(engine, fourier(3), (1, 1, 1), ensemble=ens)


@pytest.mark.parametrize("n_occ", [(2, 0, 1, 1), (1, 3, 0, 1)])
def test_product_ensemble_draws_match_an_independent_product(n_occ):
    """The draws that every engine reads, through from_photons, formed here
    without the package: one ensemble component per occupied input mode, the
    product over the modes in order, the photons of a mode sharing its
    component, weights multiplied."""
    a, b, c, d, e = gaussians(0.0, 0.4, 0.9, -0.6, 1.3)
    by_mode = [MixedState.ensemble([(0.3, a), (0.7, b)]), jitter(0.5), c,
               MixedState.ensemble([(0.25, d), (0.75, e)])]
    slots = mode_list(n_occ)
    modes = sorted(set(slots))
    axes = [by_mode[k].components if isinstance(by_mode[k], MixedState) else [(1.0, by_mode[k])]
            for k in modes]
    want = []
    for draw in itertools.product(*axes):
        state = dict(zip(modes, draw))
        want.append((math.prod(w for w, _ in draw), tuple(state[k][1] for k in slots)))
    got = GeneralEnsemble.from_photons([by_mode[k] for k in slots], n_occ).components
    assert len(got) == len(want) == math.prod(len(axis) for axis in axes)
    for (weight, states), (want_weight, want_states) in zip(got, want):
        assert abs(weight - want_weight) <= 1e-15 and states == want_states


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_needs_one_detector_per_mode(engine):
    with pytest.raises(ValidationError, match="need one detector per mode: 2 != 3"):
        output_distribution(engine, fourier(3), (1, 1, 0), photons=gaussians(0.0, 0.5),
                            detectors=[IDEAL] * 2)


def test_general_ensemble_needs_a_component():
    with pytest.raises(ValidationError, match="at least one component"):
        GeneralEnsemble(None, ())


@pytest.mark.parametrize("weights", [(2.0,), (float("nan"),), (1.5, -0.5), (float("inf"), 0.0),
                                     (0.5, 0.4)],
                         ids=["sum-2", "nan", "negative", "inf", "sum-0.9"])
def test_general_ensemble_checks_its_weights(weights):
    g, h = gaussians(0.0, 0.5)
    with pytest.raises(ValidationError, match="ensemble weights"):
        GeneralEnsemble(None, tuple((w, (g, h)) for w in weights))


def test_general_ensemble_weights_sum_to_one_within_1e_12_per_photon():
    g, h = gaussians(0.0, 0.5)
    GeneralEnsemble(None, ((0.5, (g, h)), (0.5 + 1.5e-12, (h, g))))
    with pytest.raises(ValidationError, match="ensemble weights"):
        GeneralEnsemble(None, ((0.5, (g, h)), (0.5 + 2.5e-12, (h, g))))


def test_product_ensemble_weights_sum_to_one():
    """Four 8-node jitter photons: 4096 components whose weights sum to 1
    within roundoff."""
    photons = [MixedState.gaussian_time_jitter(0.0, 1.0, 0.4, mean_time=t, nodes=8)
               for t in (0.0, 0.5, 1.0, 1.5)]
    ens = GeneralEnsemble.from_photons(photons)
    assert len(ens.components) == 8**4
    assert abs(sum(w for w, _ in ens.components) - 1.0) < 1e-13


def test_non_finite_probabilities_raise_engine_error():
    u = random_unitary(3, 31)
    jm = build_j_for(gaussians(0.0, 0.5, 1.0), (1, 1, 1))
    dense = jm.as_dense().copy()
    dense[1, 2] = np.nan
    with pytest.raises(EngineError, match="non-finite"):
        prob_jmatrix(JMatrix(3, "dense", dense=dense, output_modes=jm.output_modes),
                     u, (1, 1, 1), (1, 1, 1))
    cycle = build_cycle_compressed(GaussianState(0.0, 1.0), IDEAL, 3)
    values = {ct: np.nan if i == 0 else v for i, (ct, v) in enumerate(cycle.cycle_values.items())}
    with pytest.raises(EngineError, match="non-finite"):
        prob_jmatrix(replace(cycle, cycle_values=values), u, (1, 1, 1), (1, 1, 1))
    with pytest.raises(EngineError, match="non-finite"):
        prob_oracle(gaussians(0.0, 0.5, 1.0), None, np.full((3, 3), np.nan), (1, 1, 1), (1, 1, 1))
