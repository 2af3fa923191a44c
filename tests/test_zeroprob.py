import itertools
import math

import numpy as np
import pytest

from multiphoton.errors import SizeLimitError, ValidationError
from multiphoton.jmatrix import build_pure
from multiphoton.network import enumerate_outputs, fourier, mode_list, random_unitary
from multiphoton.permanent import permanent_naive
from multiphoton.probability import prob_ideal_indistinguishable, prob_jmatrix
from multiphoton.spectral import IDEAL, FiniteRankState, GaussianState
from multiphoton.zeroprob import (
    GroupSpec,
    PhotonGroup,
    VERDICT_NOT,
    VERDICT_SUPPRESSED,
    _dial_states,
    group_amplitudes,
    group_patterns,
    prob_group_factorized,
    suppression_scan,
    three_photon_incompatibility,
    vanishing_smatrix_filter,
)


def frs(vec):
    v = np.asarray(vec, dtype=complex)
    return FiniteRankState(v / np.linalg.norm(v))


def single_group_spec(m, n, state=None):
    state = state or GaussianState(0.0, 1.0, 0.0)
    return GroupSpec((PhotonGroup(state=state, modes=tuple(range(n))),))


def two_group_spec(modes1, modes2, overlap=0.5):
    s1 = frs([1.0, 0.0])
    s2 = frs([overlap, math.sqrt(1 - overlap**2)])
    return GroupSpec((
        PhotonGroup(state=s1, modes=tuple(modes1)),
        PhotonGroup(state=s2, modes=tuple(modes2)),
    ))


def test_group_spec_validation():
    s = GaussianState(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        GroupSpec((PhotonGroup(state=s, modes=(0, 1)), PhotonGroup(state=s, modes=(1,))))
    with pytest.raises(SizeLimitError, match="capped at N <= 8"):
        prob_group_factorized(np.eye(9), single_group_spec(9, 9), (1,) * 9)


def test_group_patterns_count():
    spec = two_group_spec((0, 1), (2,))
    patterns = group_patterns(spec)
    assert len(patterns) == 3  # 3!/2!
    assert all(sorted(w) == [0, 0, 1] for w in patterns)


def test_q1_equals_ideal_indistinguishable():
    u = fourier(3)
    spec = single_group_spec(3, 3)
    for m_occ in enumerate_outputs(3, 3):
        res, amps = prob_group_factorized(u, spec, m_occ)
        assert len(amps) == 1
        assert res.p == pytest.approx(
            prob_ideal_indistinguishable(u, (1, 1, 1), m_occ).p, abs=1e-12
        )


def test_group_factorized_matches_jmatrix(rng):
    u = random_unitary(4, 18)
    spec = two_group_spec((0, 1), (3,), overlap=0.6)
    n_occ = spec.occupation(4)
    states = [spec.groups[q].state for q in spec.slot_groups(4)]
    total = 0.0
    for m_occ in enumerate_outputs(4, 3):
        res, _ = prob_group_factorized(u, spec, m_occ)
        jm = build_pure(states, (IDEAL,) * 3, output_modes=mode_list(m_occ),
                        input_modes=mode_list(n_occ))
        expected = prob_jmatrix(jm, u, n_occ, m_occ).p
        assert res.p == pytest.approx(expected, abs=1e-10)
        total += res.p
    assert total == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_groups_cross_jr_vanishes():
    spec = two_group_spec((0, 1), (2,), overlap=0.0)
    gram = spec.gram()
    assert abs(gram[0, 1]) < 1e-14


def test_full_j_tensor_factorizes_over_patterns():
    """J(s1, s2) from the full build equals J_R evaluated at the group
    patterns of s1, s2: the tensor-product structure of the group case."""
    from multiphoton.symgroup import permutation_array

    spec = two_group_spec((0, 1), (2,), overlap=0.45)
    states = [spec.groups[q].state for q in spec.slot_groups(3)]
    jm = build_pure(states, (IDEAL,) * 3, output_modes=(0, 1, 2))
    gram = spec.gram()
    slot_groups = spec.slot_groups(3)
    perms = permutation_array(3)
    for i in range(6):
        for j in range(6):
            w1 = tuple(slot_groups[perms[i, a]] for a in range(3))
            w2 = tuple(slot_groups[perms[j, a]] for a in range(3))
            jr = 1.0 + 0.0j
            for a in range(3):
                jr *= gram[w1[a], w2[a]]
            assert abs(jm.entry(perms[i], perms[j]) - jr) < 1e-12


def test_degenerate_group_gram_falls_back():
    # three "groups" whose states span only rank 2
    s1 = frs([1.0, 0.0])
    s2 = frs([0.0, 1.0])
    s3 = frs([1.0, 1.0])
    spec = GroupSpec((
        PhotonGroup(state=s1, modes=(0,)),
        PhotonGroup(state=s2, modes=(1,)),
        PhotonGroup(state=s3, modes=(2,)),
    ))
    assert spec.independence_rank() == 2
    u = random_unitary(3, 5)
    res, amps = prob_group_factorized(u, spec, (1, 1, 1))
    assert res.engine == "group-factorized-fallback"
    states = [s1, s2, s3]
    jm = build_pure(states, (IDEAL,) * 3, output_modes=(0, 1, 2))
    assert res.p == pytest.approx(prob_jmatrix(jm, u, (1, 1, 1), (1, 1, 1)).p, abs=1e-12)
    records = suppression_scan(u, spec)
    assert records and all("linearly dependent" in r.diagnostic for r in records)


def test_dial_states_exact_overlaps():
    for x in (0.9, 0.5, 0.1, 0.0):
        states = _dial_states(3, x)
        for a, b in itertools.combinations(states, 2):
            assert np.vdot(a.coeffs, b.coeffs).real == pytest.approx(x, abs=1e-14)


def test_suppression_scan_fourier3_indistinguishable():
    u = fourier(3)
    spec = single_group_spec(3, 3)
    records = {r.m: r for r in suppression_scan(u, spec)}
    assert records[(2, 1, 0)].verdict == VERDICT_SUPPRESSED
    assert not records[(2, 1, 0)].violation
    assert records[(1, 1, 1)].verdict == VERDICT_NOT
    # frozen from the naive-permanent oracle
    p111 = prob_ideal_indistinguishable(u, (1, 1, 1), (1, 1, 1)).p
    assert p111 == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_suppression_scan_identity_network_empty():
    # zeros of the identity network are trivial routing zeros, not
    # interference cancellations: nothing is flagged
    u = np.eye(3, dtype=complex)
    spec = single_group_spec(3, 3)
    records = suppression_scan(u, spec)
    assert all(r.verdict == VERDICT_NOT for r in records)
    assert any(r.classically_forbidden for r in records)


@pytest.mark.parametrize("m,groups,expect_flags", [
    # Fourier-3 admits no two-group suppression (its 2x2 minors never vanish);
    # the scan must come back clean but consistent
    (3, ((0, 1), (2,)), False),
    # even/odd sublattices of Fourier-4: a genuinely suppressed family
    (4, ((0, 2), (1, 3)), True),
    # period-2 cyclic triple plus one extra photon on Fourier-6
    (6, ((0, 2, 4), (1,)), True),
])
def test_fourier_group_scans_delay_independent(m, groups, expect_flags):
    """Every flagged output keeps P < 1e-12 at the instance states and across
    the whole distinguishability grid (conjecture consistency)."""
    u = fourier(m)
    spec = two_group_spec(*groups, overlap=0.35)
    records = suppression_scan(u, spec)
    flagged = [r for r in records if r.verdict == VERDICT_SUPPRESSED]
    assert bool(flagged) == expect_flags
    for r in flagged:
        assert not r.violation
        assert all(p < 1e-12 for p in r.probabilities.values())


def test_n_minus_one_plus_one_zero_for_every_overlap():
    """(N-1)+1 case with all Y_alpha = 0: P stays zero for any overlap value."""
    u = fourier(6)
    spec = two_group_spec((0, 2, 4), (1,), overlap=0.5)
    records = [r for r in suppression_scan(u, spec) if r.verdict == VERDICT_SUPPRESSED]
    assert records
    for r in records:
        for x in (0.85, 0.33, 0.05):
            from multiphoton.zeroprob import _probability_at_dial

            assert _probability_at_dial(u, spec, r.m, x) < 1e-12


def test_suppressed_verdict_implies_small_amplitudes():
    u = fourier(3)
    spec = single_group_spec(3, 3)
    for r in suppression_scan(u, spec):
        if r.verdict == VERDICT_SUPPRESSED:
            assert r.max_amplitude < r.amplitude_threshold


def test_group_amplitudes_match_naive_permanents():
    u = fourier(3)
    spec = two_group_spec((0, 1), (2,), overlap=0.4)
    patterns, amps, _ = group_amplitudes(u, spec, (1, 1, 1))
    ls = (0, 1, 2)
    for w, amp in zip(patterns, amps):
        cols_a = [ls[a] for a in range(3) if w[a] == 0]
        cols_b = [ls[a] for a in range(3) if w[a] == 1]
        expected = permanent_naive(u[np.ix_((0, 1), cols_a)]) * permanent_naive(
            u[np.ix_((2,), cols_b)]
        )
        assert amp == pytest.approx(expected, abs=1e-12)


# -- vanishing S-matrix filter --------------------------------------------------------


def test_filter_permutation_of_group_pattern_contributes():
    assert vanishing_smatrix_filter((0, 1, 0), (2, 1)) is False


def test_filter_overfilled_group_vanishes():
    assert vanishing_smatrix_filter((0, 0, 0), (2, 1)) is True
    assert vanishing_smatrix_filter((1, 1, 0), (2, 1)) is True


def test_filter_q1():
    assert vanishing_smatrix_filter((0, 0, 0), (3,)) is False
    with pytest.raises(ValidationError):
        vanishing_smatrix_filter((0, 1, 0), (3,))


def test_filter_agrees_with_laplace_vanishing(rng):
    """Filtered-out tuples give per(U[n|m] . S(j)) = 0 for any network."""
    group_sizes = (2, 1)
    duals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # rows: photons (g1,g1,g2)
    for _ in range(20):
        jt = tuple(rng.integers(0, 2, size=3))
        u = random_unitary(3, int(rng.integers(0, 10**6)))
        s = np.array([[duals[beta, jt[alpha]] for alpha in range(3)] for beta in range(3)])
        per = permanent_naive(u * s)
        if vanishing_smatrix_filter(jt, group_sizes):
            assert abs(per) < 1e-12
        else:
            assert abs(per) > 1e-8  # generically nonzero


# -- three-photon incompatibility ------------------------------------------------------


def test_fourier3_residuals_nonzero_each_set():
    rep = three_photon_incompatibility(fourier(3), 0.7, 0.4)
    assert max(rep.residuals_set1) > 1e-6
    assert max(rep.residuals_set2) > 1e-6
    assert rep.incompatible


def test_equations_match_contributing_permanents(rng):
    """The six closed-form equations are exactly the permanents of the
    contributing dual-basis tuples."""
    u = random_unitary(3, 61)
    c1, c2 = 0.8 + 0.2j, 0.5 - 0.4j
    coeff = np.array([[1.0, 0.0], [0.0, 1.0], [c1, c2]], dtype=complex)

    def per_v(jt):
        s = np.array([[coeff[beta, jt[alpha]] for alpha in range(3)] for beta in range(3)])
        return permanent_naive(u * s)

    rep = three_photon_incompatibility(u, c1, c2)
    set1_tuples = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
    set2_tuples = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    for res, jt in zip(rep.residuals_set1, set1_tuples):
        t = per_v(jt)
        parts = sum(
            abs(np.prod([u[s_, a] * coeff[s_, jt[a]] for a, s_ in enumerate(sigma)]))
            for sigma in itertools.permutations(range(3))
        )
        assert res == pytest.approx(abs(t) / parts, abs=1e-12)
    for res, jt in zip(rep.residuals_set2, set2_tuples):
        t = per_v(jt)
        parts = sum(
            abs(np.prod([u[s_, a] * coeff[s_, jt[a]] for a, s_ in enumerate(sigma)]))
            for sigma in itertools.permutations(range(3))
        )
        assert res == pytest.approx(abs(t) / parts, abs=1e-12)


def test_witness_identities():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = random_unitary(3, int(rng.integers(0, 10**6)))
        rep = three_photon_incompatibility(u, 1.0, 1.0)
        assert rep.witness_set1 == pytest.approx(-1.0, abs=1e-12)
        assert rep.witness_set2 == pytest.approx(-1.0, abs=1e-12)
        assert rep.pair_product_pairwise == pytest.approx(-1.0, abs=1e-12)
        assert rep.pair_product_cyclic == pytest.approx(1.0, abs=1e-12)


def test_haar_sampling_study():
    rng = np.random.default_rng(12)
    count = 0
    min_max_residual = np.inf
    while count < 100:
        u = random_unitary(3, int(rng.integers(0, 10**9)))
        if np.min(np.abs(u)) <= 1e-3:
            continue
        count += 1
        rep = three_photon_incompatibility(u, 0.6, 0.8)
        min_max_residual = min(min_max_residual, rep.max_residual)
    assert min_max_residual > 1e-6


def test_trivial_zero_branch():
    u = np.eye(3, dtype=complex)
    rep = three_photon_incompatibility(u, 1.0, 1.0)
    assert rep.trivial_zero_branch
    with pytest.raises(ValidationError):
        three_photon_incompatibility(fourier(3), 0.0, 1.0)


def test_zero_probability_never_reached_with_dependent_states(rng):
    """Direct check through the J-matrix engine: three photons with
    phi3 = c1 phi1 + c2 phi2 never give an exact zero on a Haar unitary."""
    c1 = 0.6
    c2 = math.sqrt(1 - c1**2)
    phi1, phi2 = np.eye(2)
    phi3 = c1 * phi1 + c2 * phi2
    states = [frs(phi1), frs(phi2), frs(phi3)]
    for seed in range(6):
        u = random_unitary(3, seed)
        if np.min(np.abs(u)) <= 1e-3:
            continue
        jm = build_pure(states, (IDEAL,) * 3, output_modes=(0, 1, 2))
        p = prob_jmatrix(jm, u, (1, 1, 1), (1, 1, 1)).p
        assert p > 1e-10
