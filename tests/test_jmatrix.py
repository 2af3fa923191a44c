import math

import numpy as np
import pytest

from multiphoton.errors import DegenerateDetectionError, ValidationError
from multiphoton.jmatrix import (
    build_cycle_compressed,
    build_extreme,
    build_mixed,
    build_pure,
    dump_jmatrix,
    jmatrix_entry_cycle_route,
    mandel_visibility,
    min_eigenvalue,
    purity,
    reduce_jmatrix,
)
from multiphoton.network import mode_list
from multiphoton.spectral import (
    IDEAL,
    DetectorModel,
    FiniteRankState,
    GaussianState,
    MixedState,
)
from multiphoton.symgroup import enumerate_permutations, permutation_array, subgroup_members


def ideal_slots(n):
    return (IDEAL,) * n


def random_gaussians(rng, n):
    return [
        GaussianState(float(rng.normal(0, 0.7)), 1.0, float(rng.normal(0, 0.9)))
        for _ in range(n)
    ]


def test_identical_states_ideal_all_ones():
    g = GaussianState(0.4, 1.0, 0.0)
    jm = build_pure([g, g, g], ideal_slots(3))
    assert np.allclose(jm.as_dense(), np.ones((6, 6)), atol=1e-12)


def test_orthogonal_states_identity_jmatrix():
    states = [FiniteRankState(v) for v in np.eye(3)]
    jm = build_pure(states, ideal_slots(3))
    assert np.allclose(jm.as_dense(), np.eye(6), atol=1e-14)


def test_two_delayed_gaussians_offdiagonal():
    delta, tau = 1.0, 0.8
    a, b = GaussianState(0.0, delta, 0.0), GaussianState(0.0, delta, tau)
    jm = build_pure([a, b], ideal_slots(2))
    dense = jm.as_dense()
    assert abs(dense[0, 1]) == pytest.approx(math.exp(-(delta**2) * tau**2), abs=1e-12)
    assert np.allclose(np.diagonal(dense), 1.0)


def test_hermitian_exactly_and_psd(rng):
    for _ in range(8):
        n = int(rng.integers(2, 5))
        states = random_gaussians(rng, n)
        dets = tuple(
            DetectorModel.gaussian_band(float(rng.normal(0, 0.4)), float(rng.uniform(1.5, 4)),
                                        float(rng.uniform(0.6, 1.0)))
            for _ in range(n)
        )
        jm = build_pure(states, dets)
        dense = jm.as_dense()
        assert np.array_equal(dense, dense.conj().T)
        assert min_eigenvalue(jm) >= -1e-9


def test_trace_is_nfact_for_ideal_detectors(rng):
    states = random_gaussians(rng, 4)
    jm = build_pure(states, ideal_slots(4))
    assert np.trace(jm.as_dense()).real == pytest.approx(math.factorial(4), abs=1e-9)


def test_subgroup_symmetry_multi_occupancy(rng):
    # input (2, 1): permuting within the first mode's block leaves J unchanged
    g = GaussianState(0.0, 1.0, 0.0)
    h = GaussianState(0.0, 1.0, 1.1)
    states = [g, g, h]
    input_modes = (0, 0, 1)
    jm = build_pure(states, ideal_slots(3), input_modes=input_modes)
    dense = jm.as_dense()
    perms = enumerate_permutations(3)
    members = subgroup_members((2, 1))
    from multiphoton.symgroup import permutation_index

    for pi1 in members:
        for pi2 in members:
            for i, s1 in enumerate(perms):
                for j, s2 in enumerate(perms):
                    a = permutation_index(pi1 * s1)
                    b = permutation_index(pi2 * s2)
                    assert abs(dense[a, b] - dense[i, j]) < 1e-12


def test_block_state_validation():
    g = GaussianState(0.0, 1.0, 0.0)
    h = GaussianState(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        build_pure([g, h, h], ideal_slots(3), input_modes=(0, 0, 1))


def test_cycle_trace_identity_both_paths(rng):
    # direct per-slot product vs the cycle-factorized trace route
    for n in (2, 3, 4):
        states = random_gaussians(rng, n)
        dets = tuple(
            DetectorModel.flat(float(rng.uniform(0.5, 1.0))) for _ in range(n)
        )
        jm = build_pure(states, dets)
        perms = permutation_array(n)
        idx = rng.integers(0, len(perms), size=6)
        for i in idx:
            for j in idx:
                direct = jm.entry(perms[i], perms[j])
                via_cycles = jmatrix_entry_cycle_route(states, dets, perms[i], perms[j])
                assert abs(direct - via_cycles) < 1e-10


def test_build_mixed_zero_variance_equals_pure(rng):
    states = random_gaussians(rng, 3)
    dets = ideal_slots(3)
    jm_pure = build_pure(states, dets)
    jm_mixed = build_mixed([MixedState.pure(s) for s in states], dets)
    assert np.allclose(jm_pure.as_dense(), jm_mixed.as_dense(), atol=1e-10)


def test_build_mixed_identical_sources_cycle_structure():
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.8, nodes=16)
    jm = build_mixed([rho, rho, rho], ideal_slots(3))
    dense = jm.as_dense()
    perms = enumerate_permutations(3)
    from multiphoton.symgroup import relative_cycle_type

    seen = {}
    for i, s1 in enumerate(perms):
        for j, s2 in enumerate(perms):
            ct = relative_cycle_type(s1.images, s2.images)
            if ct in seen:
                assert abs(dense[i, j] - seen[ct]) < 1e-12
            else:
                seen[ct] = dense[i, j]


def test_cycle_compressed_matches_dense_mixed():
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.6, nodes=24)
    det = DetectorModel.flat(0.9)
    for n in (3, 4):
        jm_cycle = build_cycle_compressed(rho, det, n)
        jm_dense = build_mixed([rho] * n, (det,) * n)
        assert np.allclose(jm_cycle.as_dense(), jm_dense.as_dense(), atol=1e-9)


def test_cycle_dense_gather_equals_entries():
    from multiphoton.bosonsampling import BSParams, build_bs_jmatrix

    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.6, nodes=8)
    for n in range(1, 6):
        perms = permutation_array(n)
        for jm in (build_cycle_compressed(rho, DetectorModel.flat(0.9), n),
                   build_bs_jmatrix(BSParams.from_gamma(n, 0.3))):
            by_entry = np.array([[jm.entry(s1, s2) for s2 in perms] for s1 in perms])
            assert np.array_equal(jm.as_dense(), by_entry), n


def test_cycle_compressed_pure_ideal_all_ones():
    g = GaussianState(0.0, 1.0, 0.0)
    jm = build_cycle_compressed(g, IDEAL, 3)
    assert np.allclose(jm.as_dense(), np.ones((6, 6)), atol=1e-12)


def test_cycle_compressed_n2_entries():
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.5)
    det = IDEAL
    jm = build_cycle_compressed(rho, det, 2)
    from multiphoton.spectral import gk_trace

    g1, g2 = gk_trace(rho, det, 1), gk_trace(rho, det, 2)
    assert jm.cycle_values[(2, 0)] == pytest.approx(g1**2, abs=1e-12)
    assert jm.cycle_values[(0, 1)] == pytest.approx(g2, abs=1e-12)


def test_extreme_ind_ideal():
    g = GaussianState(0.0, 1.0, 0.0)
    jm = build_extreme("ind", (1, 1, 1), ideal_slots(3), [g])
    dense = jm.as_dense()
    assert np.allclose(dense, np.ones((6, 6)))
    ev = np.linalg.eigvalsh(dense)
    assert ev[-1] == pytest.approx(6.0, abs=1e-9)  # single eigenvalue N!
    assert np.all(np.abs(ev[:-1]) < 1e-9)


def test_extreme_ind_flat_detectors():
    g = GaussianState(0.0, 1.0, 0.0)
    eta = 0.8
    jm = build_extreme("ind", (1, 1, 1), (DetectorModel.flat(eta),) * 3, [g])
    assert np.allclose(jm.as_dense(), eta**3 * np.ones((6, 6)), atol=1e-12)


def test_extreme_cl_ideal_block_form():
    # N = 3 in modes (2, 1): blocks of size mu(n) = 2, N!/mu = 3 blocks
    a = GaussianState(0.0, 1.0, 0.0, pol=0)
    b = GaussianState(0.0, 1.0, 0.0, pol=1)
    jm = build_extreme("cl", (2, 1), ideal_slots(3), [a, a, b])
    dense = jm.as_dense()
    assert np.trace(dense).real == pytest.approx(6.0)
    ev = np.linalg.eigvalsh(dense)
    assert sum(e > 1e-9 for e in ev) == 3
    assert max(ev) == pytest.approx(2.0, abs=1e-9)


def test_extreme_cl_requires_orthogonality():
    a = GaussianState(0.0, 1.0, 0.0)
    b = GaussianState(0.0, 1.0, 2.0)  # overlapping, not orthogonal
    with pytest.raises(ValidationError):
        build_extreme("cl", (1, 1), ideal_slots(2), [a, b])


def test_extreme_builders_agree_with_generic_build(rng):
    g = GaussianState(0.3, 1.0, 0.1)
    dets = (DetectorModel.flat(0.8), DetectorModel.gaussian_band(0.0, 2.0, 0.9), IDEAL)
    ind = build_extreme("ind", (1, 1, 1), dets, [g])
    generic = build_pure([g, g, g], dets)
    assert np.allclose(ind.as_dense(), generic.as_dense(), atol=1e-12)

    a = GaussianState(0.0, 1.0, 0.0, pol=0)
    b = GaussianState(0.0, 1.0, 0.0, pol=1)
    cl = build_extreme("cl", (2, 1), dets, [a, a, b])
    generic_cl = build_pure([a, a, b], dets, input_modes=(0, 0, 1))
    assert np.allclose(cl.as_dense(), generic_cl.as_dense(), atol=1e-12)


def test_mandel_visibility_mixed_states():
    rho1 = MixedState.gaussian_time_jitter(0.0, 1.0, 0.6, nodes=16)
    rho2 = MixedState.gaussian_time_jitter(0.0, 1.0, 0.6, mean_time=0.4, nodes=16)
    det1, det2 = DetectorModel.flat(0.9), IDEAL
    v = mandel_visibility(rho1, rho2, det1, det2)
    assert abs(v) <= 1.0 + 1e-10
    jm = build_mixed([rho1, rho2], (det1, det2))
    assert purity(jm).purity == pytest.approx(abs(v) ** 2, abs=1e-10)


def test_build_mixed_block_validation():
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, nodes=8)
    other = MixedState.gaussian_time_jitter(0.0, 1.0, 0.7, nodes=8)
    build_mixed([rho, rho], ideal_slots(2), input_modes=(0, 0))  # identical: fine
    with pytest.raises(ValidationError):
        build_mixed([rho, other], ideal_slots(2), input_modes=(0, 0))


def test_reduce_ideal_already_unit_diagonal(rng):
    states = random_gaussians(rng, 3)
    jm = build_pure(states, ideal_slots(3))
    red = reduce_jmatrix(jm)
    assert np.allclose(np.diagonal(red.dense), 1.0)
    assert np.max(np.abs(red.dense)) <= 1.0 + 1e-12


def test_reduce_degenerate_diagonal_raises():
    a = GaussianState(0.0, 1.0, 0.0, pol=0)
    b = GaussianState(0.0, 1.0, 0.0, pol=1)
    # a polarization-selective detector kills one path entirely
    zero_pol = DetectorModel.operator(np.zeros((1, 1)))
    states = [FiniteRankState([1.0]), FiniteRankState([1.0])]
    with pytest.raises(DegenerateDetectionError):
        reduce_jmatrix(build_pure(states, (zero_pol, IDEAL)))


def test_mandel_visibility_identical_pure():
    g = GaussianState(0.5, 1.0, 0.0)
    dets = (DetectorModel.flat(0.7), DetectorModel.gaussian_band(0.3, 2.0, 0.9))
    v = mandel_visibility(g, g, *dets)
    assert v == pytest.approx(1.0, abs=1e-10)


def test_mandel_visibility_delayed_gaussians():
    delta, tau = 1.0, 0.9
    a, b = GaussianState(0.0, delta, 0.0), GaussianState(0.0, delta, tau)
    v = mandel_visibility(a, b, IDEAL, IDEAL)
    assert v == pytest.approx(math.exp(-(delta**2) * tau**2), abs=1e-10)


def test_mandel_visibility_orthogonal_states():
    a = GaussianState(0.0, 1.0, 0.0, pol=0)
    b = GaussianState(0.0, 1.0, 0.0, pol=1)
    assert abs(mandel_visibility(a, b, IDEAL, IDEAL)) < 1e-12


def test_mandel_visibility_bounded(rng):
    for _ in range(10):
        a, b = random_gaussians(rng, 2)
        det1 = DetectorModel.flat(float(rng.uniform(0.4, 1.0)))
        det2 = DetectorModel.gaussian_band(0.0, float(rng.uniform(1, 3)), 0.9)
        assert abs(mandel_visibility(a, b, det1, det2)) <= 1.0 + 1e-10


def test_purity_all_ones_is_one():
    g = GaussianState(0.0, 1.0, 0.0)
    jm = build_pure([g, g, g], ideal_slots(3))
    assert purity(jm).purity == pytest.approx(1.0, abs=1e-12)


def test_purity_identity_is_zero():
    states = [FiniteRankState(v) for v in np.eye(3)]
    jm = build_pure(states, ideal_slots(3))
    assert purity(jm).purity == pytest.approx(0.0, abs=1e-12)


def test_purity_n2_equals_visibility_squared():
    a = GaussianState(0.0, 1.0, 0.0)
    b = GaussianState(0.0, 1.0, 0.7)
    det1, det2 = DetectorModel.flat(0.8), DetectorModel.flat(0.6)
    jm = build_pure([a, b], (det1, det2))
    v = mandel_visibility(a, b, det1, det2)
    assert purity(jm).purity == pytest.approx(abs(v) ** 2, abs=1e-12)


def test_purity_cycle_vs_dense():
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.7, nodes=24)
    for n in (3, 4, 5):
        jm = build_cycle_compressed(rho, IDEAL, n)
        assert purity(jm).trace2 == pytest.approx(
            purity(reduce_jmatrix(jm)).trace2, abs=1e-12
        )
        dense_purity = purity(build_mixed([rho] * n, ideal_slots(n)))
        assert purity(jm).purity == pytest.approx(dense_purity.purity, abs=1e-9)


def test_purity_n1_degenerate():
    g = GaussianState(0.0, 1.0, 0.0)
    jm = build_cycle_compressed(g, IDEAL, 1)
    res = purity(jm)
    assert res.degenerate and res.purity is None
    assert res.trace2 == pytest.approx(1.0)


# -- monochromatic limits (width-scaled Gaussians) -------------------------------

EPS = 1e-4


def band_detectors():
    return (
        DetectorModel.gaussian_band(55.0, 200.0, 0.9),
        DetectorModel.gaussian_band(45.0, 180.0, 0.8),
        DetectorModel.gaussian_band(60.0, 220.0, 0.95),
    )


def test_monochromatic_distinct_frequencies_diagonal():
    width = math.sqrt(EPS)  # unit base width scaled by sqrt(eps)
    states = [
        GaussianState(4.0, width, 0.0),
        GaussianState(5.0, width, 0.3),
        GaussianState(6.5, width, -0.2),
    ]
    jm = build_pure(states, band_detectors())
    red = reduce_jmatrix(jm)
    off = red.dense - np.diag(np.diagonal(red.dense))
    assert np.max(np.abs(off)) < 1e-3


def test_monochromatic_equal_frequencies_all_ones():
    omega, width = 5.0, math.sqrt(EPS)
    states = [
        GaussianState(omega, width, 0.0),
        GaussianState(omega, width, 0.01),
        GaussianState(omega, width, 0.02),
    ]
    jm = build_pure(states, band_detectors())
    red = reduce_jmatrix(jm)
    assert np.max(np.abs(red.dense - 1.0)) < 1e-6


def test_dump_jmatrix_forms():
    g = GaussianState(0.0, 1.0, 0.0)
    jm = build_pure([g, g], ideal_slots(2))
    d = dump_jmatrix(jm)
    assert d["n"] == 2 and d["order"] == "lex" and len(d["entries"]) == 4
    jc = build_cycle_compressed(g, IDEAL, 2)
    dc = dump_jmatrix(jc)
    assert "cycleCompressed" in dc
