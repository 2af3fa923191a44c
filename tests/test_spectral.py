import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from multiphoton.errors import (
    IncompatibleRepresentationError,
    ValidationError,
)
from multiphoton.spectral import (
    IDEAL,
    DetectorModel,
    FiniteRankState,
    GaussianState,
    MixedState,
    SpanBasis,
    detector_from_dict,
    gk_trace,
    gram_factor,
    gram_matrix,
    load_detectors,
    load_photons,
    orthonormalize,
    overlap,
    photon_from_dict,
    pure_components,
)


def gaussian_amplitude(state, w):
    return (2 * math.pi * state.delta**2) ** -0.25 * np.exp(
        1j * w * state.t - (w - state.omega) ** 2 / (4 * state.delta**2)
    )


def sensitivity(det, w):
    if det.kind == "ideal":
        return 1.0
    if det.kind == "flat":
        return det.eta
    if det.kind == "gaussianBand":
        return det.peak * np.exp(-((w - det.center) ** 2) / (2 * det.width**2))
    raise ValueError(det.kind)


def quad_overlap(a, det, b):
    """Adaptive-quadrature oracle for the closed-form Gaussian integrals."""
    if a.pol != b.pol:
        return 0.0 + 0.0j

    def integrand_re(w):
        return (np.conj(gaussian_amplitude(a, w)) * sensitivity(det, w)
                * gaussian_amplitude(b, w)).real

    def integrand_im(w):
        return (np.conj(gaussian_amplitude(a, w)) * sensitivity(det, w)
                * gaussian_amplitude(b, w)).imag

    lo = min(a.omega, b.omega) - 12 * max(a.delta, b.delta)
    hi = max(a.omega, b.omega) + 12 * max(a.delta, b.delta)
    re, _ = quad(integrand_re, lo, hi, limit=200)
    im, _ = quad(integrand_im, lo, hi, limit=200)
    return re + 1j * im


def test_identical_gaussian_ideal_overlap_is_one():
    g = GaussianState(omega=2.0, delta=0.7, t=0.3)
    assert overlap(g, IDEAL, g) == pytest.approx(1.0, abs=1e-12)


def test_delayed_gaussian_overlap_closed_form():
    omega, delta, tau = 1.7, 0.9, 0.6
    a = GaussianState(omega, delta, 0.0)
    b = GaussianState(omega, delta, tau)
    expected = np.exp(1j * omega * tau) * np.exp(-(delta**2) * tau**2 / 2)
    assert overlap(a, IDEAL, b) == pytest.approx(expected, abs=1e-12)
    # validated against numerical quadrature
    assert overlap(a, IDEAL, b) == pytest.approx(quad_overlap(a, IDEAL, b), abs=1e-10)


def test_orthogonal_polarization_overlap_zero():
    a = GaussianState(1.0, 1.0, 0.0, pol=0)
    b = GaussianState(1.0, 1.0, 0.0, pol=1)
    assert overlap(a, IDEAL, b) == 0
    assert overlap(a, DetectorModel.gaussian_band(0.0, 2.0, 0.9), b) == 0


@pytest.mark.parametrize("det", [
    IDEAL,
    DetectorModel.flat(0.63),
    DetectorModel.gaussian_band(center=0.8, width=1.7, peak=0.85),
])
def test_gaussian_overlaps_match_quadrature(det):
    a = GaussianState(omega=0.4, delta=1.2, t=-0.3)
    b = GaussianState(omega=-0.9, delta=0.6, t=0.5)
    assert overlap(a, det, b) == pytest.approx(quad_overlap(a, det, b), abs=1e-10)
    assert overlap(a, det, a) == pytest.approx(quad_overlap(a, det, a), abs=1e-10)


def test_overlap_conjugate_symmetry():
    a = GaussianState(0.2, 1.0, 0.1)
    b = GaussianState(-0.5, 1.4, 0.9)
    det = DetectorModel.gaussian_band(0.0, 2.0, 0.9)
    assert overlap(a, det, b) == pytest.approx(np.conj(overlap(b, det, a)), abs=1e-14)


gauss_states = st.builds(
    GaussianState,
    omega=st.floats(-2, 2),
    delta=st.floats(0.3, 2.0),
    t=st.floats(-2, 2),
)


@given(gauss_states, gauss_states)
@settings(max_examples=40)
def test_cauchy_schwarz(a, b):
    det = DetectorModel.gaussian_band(0.4, 1.5, 0.9)
    lhs = abs(overlap(a, det, b)) ** 2
    rhs = overlap(a, det, a).real * overlap(b, det, b).real
    assert lhs <= rhs + 1e-10


def test_finite_rank_overlaps():
    a = FiniteRankState([1.0, 0.0])
    b = FiniteRankState([0.6, 0.8])
    assert overlap(a, IDEAL, b) == pytest.approx(0.6)
    assert overlap(a, DetectorModel.flat(0.5), b) == pytest.approx(0.3)
    m = DetectorModel.operator(np.diag([1.0, 0.25]))
    assert overlap(b, m, b) == pytest.approx(0.36 + 0.16)


def test_incompatible_representations():
    g = GaussianState(0.0, 1.0)
    f = FiniteRankState([1.0])
    with pytest.raises(IncompatibleRepresentationError):
        overlap(g, IDEAL, f)
    with pytest.raises(IncompatibleRepresentationError):
        overlap(g, DetectorModel.operator(np.eye(2)), g)
    with pytest.raises(IncompatibleRepresentationError):
        overlap(f, DetectorModel.gaussian_band(0, 1), f)


def test_detector_operator_validation():
    with pytest.raises(ValidationError):
        DetectorModel.operator(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DetectorModel.operator(np.diag([1.5, 0.5]))  # eigenvalue above 1


def test_gram_identical_states_all_ones():
    g = GaussianState(1.0, 1.0, 0.0)
    gm = gram_matrix([g, g, g])
    assert np.allclose(gm, np.ones((3, 3)))


def test_gram_orthonormal_states_identity():
    states = [FiniteRankState(v) for v in np.eye(3)]
    assert np.allclose(gram_matrix(states), np.eye(3))


def test_gram_two_delayed_gaussians():
    omega, delta, tau = 1.1, 0.8, 0.7
    a, b = GaussianState(omega, delta, 0.0), GaussianState(omega, delta, tau)
    gm = gram_matrix([a, b])
    expected = np.exp(1j * omega * tau - delta**2 * tau**2 / 2)
    assert gm[0, 1] == pytest.approx(expected, abs=1e-12)
    assert gm[1, 0] == pytest.approx(np.conj(expected), abs=1e-12)


@pytest.mark.parametrize("det", [IDEAL, DetectorModel.flat(0.7),
                                 DetectorModel.gaussian_band(0.3, 1.2, 0.8)])
def test_gaussian_gram_grid_matches_scalar_overlaps(det):
    """The Gaussian Gram, evaluated over the whole pair grid, equals the
    scalar overlaps, is exactly Hermitian with a real diagonal, and is zero
    across polarizations."""
    rng = np.random.default_rng(11)
    states = [GaussianState(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(-2, 2)), int(rng.integers(0, 2)))
              for _ in range(12)]
    g = gram_matrix(states, det)
    expected = np.array([[overlap(a, det, b) for b in states] for a in states])
    assert np.max(np.abs(g - expected)) <= 1e-15
    assert np.array_equal(g, g.conj().T)
    assert np.all(g.diagonal().imag == 0)
    pol = np.array([s.pol for s in states])
    assert 0 < np.count_nonzero(pol) < len(states)
    assert np.all(g[pol[:, None] != pol] == 0)


def random_operator(rng, dim):
    """A Hermitian detector operator with eigenvalues in [0, 1]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    m = (q * rng.uniform(0.0, 1.0, dim)) @ q.conj().T
    return DetectorModel.operator(0.5 * (m + m.conj().T))


@pytest.mark.parametrize("kind", ["ideal", "flat", "matrix"])
def test_finite_rank_gram_matches_pairwise_forms(kind):
    """The finite-rank Gram, one C^dagger Gamma C, equals the per-pair forms
    <a|Gamma|b> = vdot(a, Gamma b), is exactly Hermitian with a real
    diagonal, and overlap reads its entries."""
    rng = np.random.default_rng(5)
    dim = 4
    det = {"ideal": IDEAL, "flat": DetectorModel.flat(0.6),
           "matrix": random_operator(rng, dim)}[kind]
    op = det.matrix if kind == "matrix" else det.eta * np.eye(dim)
    vecs = rng.standard_normal((7, dim)) + 1j * rng.standard_normal((7, dim))
    states = [FiniteRankState(v / np.linalg.norm(v)) for v in vecs]
    g = gram_matrix(states, det)
    want = np.array([[np.vdot(a.coeffs, op @ b.coeffs) for b in states] for a in states])
    assert np.max(np.abs(g - want)) <= 1e-14
    assert np.array_equal(g, g.conj().T)
    assert np.all(g.diagonal().imag == 0)
    assert overlap(states[1], det, states[4]) == g[1, 4]


def test_gram_matrix_representation_errors():
    f2, f3 = FiniteRankState([1.0, 0.0]), FiniteRankState([0.0, 0.0, 1.0])
    g = GaussianState(0.0, 1.0)
    for states, det in [([f2, f3], IDEAL),                                # two ranks
                        ([f2, f2], DetectorModel.operator(np.eye(3))),    # operator dimension
                        ([f2, g], IDEAL),                                 # two representations
                        ([f2], DetectorModel.gaussian_band(0.0, 1.0)),    # no action
                        ([g, g], DetectorModel.operator(np.eye(1)))]:     # matrix on Gaussian
        with pytest.raises(IncompatibleRepresentationError):
            gram_matrix(states, det)


def test_gram_psd(rng):
    states = [
        GaussianState(float(rng.normal()), 1.0, float(rng.normal())) for _ in range(4)
    ]
    ev = np.linalg.eigvalsh(gram_matrix(states))
    assert ev.min() >= -1e-10


def test_orthonormalize_single_state():
    basis = orthonormalize([GaussianState(0.0, 1.0, 0.0)])
    assert basis.rank == 1
    assert np.allclose(np.abs(basis.coords), [[1.0]])


def test_orthonormalize_identical_states_rank_one():
    g = GaussianState(0.5, 1.0, 0.0)
    basis = orthonormalize([g, g])
    assert basis.rank == 1
    assert basis.rank_deficient


def test_orthonormalize_reconstructs_gram():
    a = GaussianState(0.0, 1.0, 0.0)
    b = GaussianState(0.0, 1.0, 1.1)
    basis = orthonormalize([a, b])
    assert basis.rank == 2
    rebuilt = basis.coords.conj().T @ basis.coords
    assert np.allclose(rebuilt, basis.gram, atol=1e-10)


def test_orthonormalize_finite_rank_reexpression():
    a = GaussianState(0.0, 1.0, 0.0)
    b = GaussianState(0.0, 1.0, 0.9)
    basis = orthonormalize([a, b])
    re_expressed = basis.as_finite_rank()
    assert all(isinstance(s, FiniteRankState) for s in re_expressed)
    rebuilt = np.array([[np.vdot(x.coeffs, y.coeffs) for y in re_expressed]
                        for x in re_expressed])
    assert np.allclose(rebuilt, basis.gram, atol=1e-10)


def test_orthonormalize_weighted_kernel():
    det = DetectorModel.gaussian_band(0.2, 1.2, 0.8)
    states = [GaussianState(0.0, 1.0, 0.0), GaussianState(0.4, 1.3, 0.6)]
    basis = orthonormalize(states, kernel=det)
    rebuilt = basis.coords.conj().T @ basis.coords
    assert np.allclose(rebuilt, gram_matrix(states, det), atol=1e-10)


def test_detector_sqrt_squares_back():
    states = [GaussianState(0.0, 1.0, 0.0), GaussianState(0.3, 0.9, 0.8),
              GaussianState(-0.4, 1.1, -0.5)]
    basis = orthonormalize(states)
    det = DetectorModel.gaussian_band(0.1, 2.0, 0.95)
    sq = basis.detector_sqrt(det)
    assert np.allclose(sq @ sq, basis.detector_matrix(det), atol=1e-12)
    # one basis insertion reproduces the exact detector-weighted overlaps
    probe = sq @ basis.coords
    assert np.allclose(probe.conj().T @ probe, gram_matrix(states, det), atol=1e-10)


def test_mixed_state_weight_validation():
    g = GaussianState(0.0, 1.0)
    with pytest.raises(ValidationError):
        MixedState([(0.6, g), (0.5, g)])


def test_zero_spread_jitter_is_pure():
    m = MixedState.gaussian_time_jitter(0.0, 1.0, 0.0, mean_time=0.4)
    assert len(m.components) == 1
    assert pure_components(m)[0][1] == GaussianState(0.0, 1.0, 0.4)


def test_jitter_weights_sum_to_one():
    m = MixedState.gaussian_time_jitter(0.0, 1.0, 0.7, nodes=32)
    assert sum(w for w, _ in m.components) == pytest.approx(1.0, abs=1e-12)


def test_gk_trace_pure_ideal_is_one():
    g = GaussianState(0.3, 1.0, 0.2)
    for k in (1, 2, 3, 5):
        assert gk_trace(g, IDEAL, k) == pytest.approx(1.0, abs=1e-12)


def test_gk_trace_any_state_k1_ideal():
    m = MixedState.gaussian_time_jitter(0.0, 1.0, 1.3)
    assert gk_trace(m, IDEAL, 1) == pytest.approx(1.0, abs=1e-12)


def test_gk_trace_matches_closed_form_gamma_half():
    # gamma = 0.5 -> eta^2 = 0.5, time spread = sqrt(0.5) at unit width
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, math.sqrt(0.5))
    g2 = gk_trace(rho, IDEAL, 2)
    assert g2 == pytest.approx(0.5773502691896258, abs=1e-8)


def test_gk_quadrature_node_convergence():
    rho32 = MixedState.gaussian_time_jitter(0.0, 1.0, 1.0, nodes=32)
    rho64 = MixedState.gaussian_time_jitter(0.0, 1.0, 1.0, nodes=64)
    for k in (2, 3, 4):
        a, b = gk_trace(rho32, IDEAL, k), gk_trace(rho64, IDEAL, k)
        assert abs(a - b) < 1e-8 * max(abs(b), 1.0)


def test_gk_submultiplicative():
    rho = MixedState.gaussian_time_jitter(0.0, 1.0, 0.9)
    det = DetectorModel.flat(0.8)
    gk = {k: gk_trace(rho, det, k) for k in range(1, 7)}
    for k in range(1, 4):
        for m in range(1, 4):
            assert gk[k + m] <= gk[k] * gk[m] + 1e-10


def test_photon_json_forms(tmp_path):
    entries = [
        {"gaussian": {"omega": 1.0, "delta": 0.5, "t": 0.2, "pol": 1}},
        {"coeffs": [[0.6, 0.0], [0.0, 0.8]]},
    ]
    path = tmp_path / "photons.json"
    path.write_text(json.dumps(entries))
    photons = load_photons(str(path))
    assert photons[0] == GaussianState(1.0, 0.5, 0.2, 1)
    assert isinstance(photons[1], FiniteRankState)
    with pytest.raises(ValidationError):
        photon_from_dict({"nope": 1})


def test_detector_json_forms(tmp_path):
    entries = [
        {"kind": "ideal"},
        {"kind": "flat", "eta": 0.8},
        {"kind": "gaussianBand", "center": 0.1, "width": 2.0, "peak": 0.9},
        {"kind": "matrix", "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    ]
    path = tmp_path / "dets.json"
    path.write_text(json.dumps(entries))
    dets = load_detectors(str(path))
    assert [d.kind for d in dets] == ["ideal", "flat", "gaussianBand", "matrix"]
    with pytest.raises(ValidationError):
        detector_from_dict({"kind": "bogus"})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: GaussianState(0.0, NAN),
    lambda: GaussianState(NAN, 1.0),
    lambda: GaussianState(0.0, 1.0, INF),
    lambda: MixedState([(NAN, GaussianState(0.0, 1.0))]),
    lambda: MixedState([(0.5, GaussianState(0.0, 1.0)), (NAN, GaussianState(0.0, 1.0, 1.0))]),
    lambda: DetectorModel.gaussian_band(NAN, 1.0),
    lambda: DetectorModel.operator(np.full((2, 2), NAN)),
    lambda: DetectorModel("flat", eta=NAN),
    lambda: DetectorModel("gaussianBand", width=INF),
    lambda: DetectorModel("matrix", entries=((1.0, 0.0), (0.0, NAN))),
], ids=["gaussian-width", "gaussian-omega", "gaussian-time", "mixed-weight",
        "mixed-second-weight", "band-factory", "operator-factory", "flat-direct",
        "band-direct", "matrix-direct"])
def test_non_finite_spectral_input_is_refused(build):
    with pytest.raises(ValidationError, match="finite"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: DetectorModel("flat", eta=2.0), "flat efficiency"),
    (lambda: DetectorModel("bogus"), "unknown detector kind"),
    (lambda: DetectorModel("gaussianBand", width=0.0), "band width"),
    (lambda: DetectorModel("gaussianBand", peak=1.5), "band peak"),
    (lambda: DetectorModel("matrix"), "square matrix"),
    (lambda: DetectorModel("matrix", entries=((0.5, 1.0), (0.0, 0.5))), "Hermitian"),
    (lambda: DetectorModel("matrix", entries=((1.5, 0.0), (0.0, 0.5))), "eigenvalues"),
    (lambda: DetectorModel.operator(np.ones(2)), "square matrix"),
], ids=["flat-eta", "unknown-kind", "band-width", "band-peak", "matrix-none",
        "matrix-not-hermitian", "matrix-eigenvalue", "operator-vector"])
def test_detector_model_checks_itself(build, message):
    """A model built directly is checked like one from its factory: a flat
    eta of 2 would double every probability, an unknown kind would read as
    ideal, and a zero band width would divide by zero."""
    with pytest.raises(ValidationError, match=message):
        build()


def test_gram_factor_refuses_a_non_finite_gram():
    g = gram_matrix([GaussianState(0.0, 1.0), GaussianState(0.0, 1.0, 0.5)])
    g[0, 1] = NAN
    with pytest.raises(ValidationError, match="non-finite"):
        gram_factor(g)
