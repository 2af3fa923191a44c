"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 7 compares the g_k quadrature of the Gaussian arrival-time
ensemble with the closed forms at 1e-8, each where it holds: the exact
ensemble trace ``gk_gaussian_model`` on the whole grid, and the closed
coefficient law ``gk_closed`` for k <= 2. Beyond k = 2 the closed law agrees
with the ensemble only to first order in eta^2 (it replaces cos(2 pi j/k) by
exp(2 pi i j/k) in the exact circulant product; see the module docstring of
multiphoton.bosonsampling), so for k >= 3 the criterion checks that
first-order agreement at small gamma instead.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import markov_distribution
from multiphoton.bosonsampling import (
    BSParams,
    gk_closed,
    gk_gaussian_model,
    purity_closed,
    purity_curve,
    purity_direct,
)
from multiphoton.jmatrix import (
    build_mixed,
    build_pure,
    mandel_visibility,
    min_eigenvalue,
    purity,
    reduce_jmatrix,
)
from multiphoton.network import enumerate_outputs, fourier, mode_list, mu, random_unitary
from multiphoton.permanent import permanent_naive, permanent_ryser
from multiphoton.probability import (
    normalization_report,
    output_distribution,
    prob_classical,
    prob_ideal_indistinguishable,
    prob_jmatrix,
    prob_permanent_basis,
)
from multiphoton.spectral import (
    IDEAL,
    DetectorModel,
    FiniteRankState,
    GaussianState,
    gk_trace,
)
from multiphoton.symgroup import enumerate_permutations, permutation_array, permutation_index, subgroup_members
from multiphoton.verify import engine_discrepancy, random_instance
from multiphoton.zeroprob import (
    GroupSpec,
    PhotonGroup,
    VERDICT_SUPPRESSED,
    suppression_scan,
    three_photon_incompatibility,
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:02d} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num:02d} ({name}): PASS")


def test_criterion_01_hom_dip():
    with criterion(1, "HOM dip"):
        u = fourier(2)
        g = GaussianState(0.0, 1.0, 0.0)
        assert prob_permanent_basis([g, g], None, u, (1, 1), (1, 1)).p < 1e-12
        delta = 1.0
        for tau in np.linspace(0.0, 4.0, 50):
            pair = [g, GaussianState(0.0, delta, float(tau))]
            p = prob_permanent_basis(pair, None, u, (1, 1), (1, 1)).p
            expected = (1.0 - math.exp(-(delta * tau) ** 2)) / 2.0
            assert abs(p - expected) < 1e-8


def _criterion2_instances():
    rng = np.random.default_rng(2024)
    kinds = ["gaussian"] * 20 + ["finite"] * 15 + ["mixed"] * 15
    return [(kind, random_instance(rng, kind)) for kind in kinds]


def test_criterion_02_engine_equivalence():
    with criterion(2, "engine equivalence, 50 random instances"):
        worst = 0.0
        for kind, (u, n_occ, photons, detectors) in _criterion2_instances():
            disc, _ = engine_discrepancy(u, n_occ, photons, detectors)
            worst = max(worst, disc)
        assert worst < 1e-9


def test_criterion_03_normalization():
    with criterion(3, "normalization: ideal sums to 1, flat to eta^N"):
        rng = np.random.default_rng(30)
        for kind in ("gaussian", "finite", "mixed"):
            for _ in range(4):
                u, n_occ, photons, _ = random_instance(rng, kind)
                total = normalization_report("jmatrix", u, n_occ, photons=photons)
                assert abs(total - 1.0) < 1e-9
        # flat detectors with identical photons: sum = eta^N
        for eta, m, n in ((0.9, 4, 3), (0.6, 3, 2), (0.75, 5, 4)):
            u = random_unitary(m, 7 * m + n)
            g = GaussianState(0.0, 1.0, 0.0)
            dets = tuple(DetectorModel.flat(eta) for _ in range(m))
            n_occ = (1,) * n + (0,) * (m - n)
            total = normalization_report("jmatrix", u, n_occ, photons=[g] * n,
                                         detectors=dets)
            assert abs(total - eta**n) < 1e-9


def test_criterion_04_classical_limit():
    with criterion(4, "classical limit and Markov oracle"):
        # pairwise delays of 12 inverse widths
        u = random_unitary(4, 44)
        photons = [GaussianState(0.0, 1.0, 12.0 * i) for i in range(3)]
        n_occ = (1, 1, 1, 0)
        for m_occ in enumerate_outputs(4, 3):
            slot = mode_list(m_occ)
            jm = build_pure(photons, (IDEAL,) * 3, output_modes=slot,
                            input_modes=mode_list(n_occ))
            assert abs(prob_jmatrix(jm, u, n_occ, m_occ).p
                       - prob_classical(u, n_occ, m_occ).p) < 1e-6
        # classical engine vs independent Markov enumeration, exact
        rng = np.random.default_rng(41)
        for _ in range(3):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, min(3, m) + 1))
            occupied = sorted(rng.choice(m, size=n, replace=False).tolist())
            n_occ = tuple(1 if k in occupied else 0 for k in range(m))
            u = random_unitary(m, int(rng.integers(0, 10**6)))
            oracle = markov_distribution(u, n_occ)
            for m_occ in enumerate_outputs(m, n):
                assert abs(prob_classical(u, n_occ, m_occ).p - oracle[m_occ]) < 1e-12


def test_criterion_05_permanents():
    with criterion(5, "permanents: Ryser vs naive, anchors"):
        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            pn, pr = permanent_naive(a), permanent_ryser(a)
            assert abs(pn - pr) <= 1e-10 * max(abs(pn), 1e-300)
        for n in range(1, 7):
            assert permanent_ryser(np.ones((n, n))) == pytest.approx(
                math.factorial(n), rel=1e-12
            )
        from multiphoton.network import submatrix

        hom = submatrix(fourier(2), (1, 1), (1, 1))
        assert abs(permanent_ryser(hom)) < 1e-12
        assert permanent_ryser(fourier(3)) == pytest.approx(
            -1.0 / math.sqrt(3.0), abs=1e-12
        )


def test_criterion_06_purity_law():
    with criterion(6, "purity law: closed vs cycle index, Fig. 1 shape"):
        for n in range(2, 11):
            for gamma in np.arange(0.1, 0.95, 0.1):
                params = BSParams.from_gamma(n, float(gamma))
                a, b = purity_closed(params), purity_direct(params)
                assert abs(a.trace2 - b.trace2) < 1e-10
                assert abs(a.purity - b.purity) < 1e-10
        assert purity_closed(BSParams.from_gamma(2, 0.5)).trace2 == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )
        gammas = np.linspace(0.0, 0.95, 12)
        n_list = [2, 4, 10, 20, 30]
        rows = purity_curve(n_list, gammas)
        for n in n_list:
            vals = [r["purity"] for r in rows if r["N"] == n]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
        for g in gammas[1:]:
            by_n = [r["purity"] for r in rows if r["gamma"] == g]
            assert all(x >= y - 1e-12 for x, y in zip(by_n, by_n[1:]))


def test_criterion_07_gk_consistency():
    """Quadrature of the arrival-time ensemble (nodes=96) against
    (a) the exact ensemble trace gk_gaussian_model at 1e-8 for every
    (gamma, k) on the grid; (b) the closed law gk_closed at 1e-8 for k <= 2,
    where the two laws coincide; (c) gk_closed for k = 3..5 at small gamma,
    to the first order in eta^2 that the law claims: the gap is (k/2) eta^4
    to leading order, so it stays below k eta^4, while a first-order mismatch
    would be of size eta^2. Clause 2 checks submultiplicativity of gk_closed.
    """
    with criterion(7, "g_k: closed form vs quadrature, submultiplicativity"):
        rng = np.random.default_rng(77)
        # clause 2: g_{k+m} <= g_k g_m on a 100-point sample
        for _ in range(100):
            gamma = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            assert gk_closed(gamma, k + m) <= gk_closed(gamma, k) * gk_closed(gamma, m) + 1e-10
        # clause 1 (a), (b): closed forms vs quadrature at 1e-8
        for gamma in (0.1, 0.5, 0.9):
            rho = BSParams.from_gamma(2, gamma).jitter_state(nodes=96)
            for k in range(1, 6):
                g = gk_trace(rho, IDEAL, k)
                assert abs(g - gk_gaussian_model(gamma, k)) < 1e-8
                if k <= 2:
                    assert abs(g - gk_closed(gamma, k)) < 1e-8
        # clause 1 (c): gk_closed is the ensemble trace to first order in eta^2
        for gamma in (1e-3, 1e-4):
            rho = BSParams.from_gamma(2, gamma).jitter_state(nodes=96)
            eta_sq = gamma / (2.0 * (1.0 - gamma))
            for k in range(3, 6):
                assert abs(gk_trace(rho, IDEAL, k) - gk_closed(gamma, k)) <= k * eta_sq**2


def test_criterion_08_jmatrix_properties():
    with criterion(8, "J-matrix: Hermitian, PSD, subgroup symmetry, cycle identity"):
        rng = np.random.default_rng(88)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            states = [
                GaussianState(float(rng.normal(0, 0.6)), 1.0, float(rng.normal(0, 0.8)))
                for _ in range(n)
            ]
            dets = tuple(
                DetectorModel.gaussian_band(float(rng.normal(0, 0.3)),
                                            float(rng.uniform(1.5, 4.0)),
                                            float(rng.uniform(0.6, 1.0)))
                for _ in range(n)
            )
            jm = build_pure(states, dets)
            dense = jm.as_dense()
            assert np.array_equal(dense, dense.conj().T)  # exact by construction
            assert min_eigenvalue(jm) >= -1e-9
        # subgroup symmetry on a multi-occupancy instance
        g = GaussianState(0.0, 1.0, 0.0)
        h = GaussianState(0.0, 1.0, 0.9)
        jm = build_pure([g, g, h], (IDEAL,) * 3, input_modes=(0, 0, 1))
        dense = jm.as_dense()
        perms = enumerate_permutations(3)
        for pi1 in subgroup_members((2, 1)):
            for pi2 in subgroup_members((2, 1)):
                for i, s1 in enumerate(perms):
                    for j, s2 in enumerate(perms):
                        a = permutation_index(pi1 * s1)
                        b = permutation_index(pi2 * s2)
                        assert abs(dense[a, b] - dense[i, j]) < 1e-12
        # factorized-input cycle identity: the per-slot product of a pure
        # build and the cycle traces of a mixed build agree
        rng2 = np.random.default_rng(89)
        for n in (2, 3, 4):
            states = [
                GaussianState(float(rng2.normal(0, 0.5)), 1.0, float(rng2.normal(0, 0.7)))
                for _ in range(n)
            ]
            dets = tuple(DetectorModel.flat(float(rng2.uniform(0.5, 1.0))) for _ in range(n))
            jm, traced = build_pure(states, dets), build_mixed(states, dets)
            perms_arr = permutation_array(n)
            for i in range(min(len(perms_arr), 6)):
                for j in range(min(len(perms_arr), 6)):
                    direct = jm.entry(perms_arr[i], perms_arr[j])
                    cyc = traced.entry(perms_arr[i], perms_arr[j])
                    assert abs(direct - cyc) < 1e-10


def _dial_group_spec(groups_modes, x=0.35):
    states = []
    q = len(groups_modes)
    for i in range(q):
        v = np.zeros(q + 1, dtype=complex)
        v[0] = math.sqrt(x)
        v[i + 1] = math.sqrt(1 - x)
        states.append(FiniteRankState(v))
    return GroupSpec(tuple(
        PhotonGroup(state=s, modes=tuple(m)) for s, m in zip(states, groups_modes)
    ))


def test_criterion_09_suppression_conjecture(monkeypatch, tmp_path):
    with criterion(9, "suppression scan and zero-probability conjecture"):
        u3 = fourier(3)
        spec3 = GroupSpec((PhotonGroup(state=GaussianState(0.0, 1.0, 0.0),
                                       modes=(0, 1, 2)),))
        records = {r.m: r for r in suppression_scan(u3, spec3)}
        assert records[(2, 1, 0)].verdict == VERDICT_SUPPRESSED
        assert records[(2, 1, 0)].probabilities["input"] < 1e-12
        assert prob_ideal_indistinguishable(u3, (1, 1, 1), (1, 1, 1)).p == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )
        # group instances on Fourier-3/4/6: all flagged outputs stay below
        # 1e-12 across the 4-point distinguishability grid
        cases = [
            (3, GroupSpec((PhotonGroup(state=GaussianState(0.0, 1.0, 0.0),
                                       modes=(0, 1, 2)),))),
            (4, _dial_group_spec(((0, 2), (1, 3)))),
            (6, _dial_group_spec(((0, 2, 4), (1,)))),
        ]
        total_flagged = 0
        for m, spec in cases:
            for rec in suppression_scan(fourier(m), spec):
                if rec.verdict == VERDICT_SUPPRESSED:
                    total_flagged += 1
                    assert not rec.violation
                    assert all(p < 1e-12 for p in rec.probabilities.values())
        assert total_flagged > 0
        # a conjecture violation is a reportable outcome: CLI exit code 4
        import json as _json

        from multiphoton import cli, zeroprob

        def fake_scan(u, spec, grid=zeroprob.DISTINGUISHABILITY_GRID, threads=1):
            rec = zeroprob.SuppressionRecord(
                m=(1, 1, 1), amplitudes=[0j], amplitude_threshold=1e-12,
                verdict=VERDICT_SUPPRESSED,
                probabilities={"overlap=0.5": 0.25}, violation=True,
            )
            return [rec]

        monkeypatch.setattr(zeroprob, "suppression_scan", fake_scan)
        groups_file = tmp_path / "groups.json"
        groups_file.write_text(_json.dumps({
            "groups": [{"state": {"gaussian": {"omega": 0, "delta": 1, "t": 0}},
                        "modes": [0, 1, 2]}]
        }))
        code = cli.main(["suppress", "--network", "fourier:3",
                         "--groups", str(groups_file),
                         "--out", str(tmp_path / "r.json")])
        assert code == 4


def test_criterion_10_three_photon_incompatibility():
    with criterion(10, "three-photon incompatibility"):
        rng = np.random.default_rng(1010)
        count = 0
        min_max_residual = np.inf
        while count < 100:
            u = random_unitary(3, int(rng.integers(0, 10**9)))
            if np.min(np.abs(u)) <= 1e-3:
                continue
            count += 1
            rep = three_photon_incompatibility(u, 0.7, 0.5)
            min_max_residual = min(min_max_residual, rep.max_residual)
            assert rep.witness_set1 == pytest.approx(-1.0, abs=1e-12)
            assert rep.witness_set2 == pytest.approx(-1.0, abs=1e-12)
            assert rep.pair_product_pairwise == pytest.approx(-1.0, abs=1e-12)
            assert rep.pair_product_cyclic == pytest.approx(1.0, abs=1e-12)
        assert min_max_residual > 1e-6


def test_criterion_11_monochromatic_limits():
    with criterion(11, "monochromatic limits"):
        eps = 1e-4
        width = math.sqrt(eps)
        bands = (
            DetectorModel.gaussian_band(55.0, 200.0, 0.9),
            DetectorModel.gaussian_band(45.0, 180.0, 0.8),
            DetectorModel.gaussian_band(60.0, 220.0, 0.95),
        )
        # distinct frequencies: J effectively diagonal
        distinct = [GaussianState(4.0, width, 0.0), GaussianState(5.0, width, 0.3),
                    GaussianState(6.5, width, -0.2)]
        red = reduce_jmatrix(build_pure(distinct, bands))
        off = red.dense - np.diag(np.diagonal(red.dense))
        assert np.max(np.abs(off)) < 1e-3
        # equal frequencies: reduced J is all ones and P = D |per|^2 / mu
        omega = 5.0
        equal = [GaussianState(omega, width, 0.0), GaussianState(omega, width, 0.01),
                 GaussianState(omega, width, 0.02)]
        u = random_unitary(3, 111)
        n_occ = (1, 1, 1)
        for m_occ in enumerate_outputs(3, 3):
            slot_modes = mode_list(m_occ)
            slot_dets = tuple(bands[l] for l in slot_modes)
            jm = build_pure(equal, slot_dets, output_modes=slot_modes)
            red = reduce_jmatrix(jm)
            assert np.max(np.abs(red.dense - 1.0)) < 1e-6
            p = prob_jmatrix(jm, u, n_occ, m_occ).p
            detection = 1.0
            for l in slot_modes:
                b = bands[l]
                detection *= b.peak * math.exp(-((omega - b.center) ** 2) / (2 * b.width**2))
            per = permanent_ryser(np.asarray([[u[k, l] for l in slot_modes] for k in (0, 1, 2)]))
            assert abs(p - detection * abs(per) ** 2 / mu(m_occ)) < 1e-8


def test_criterion_12_mandel_visibility():
    with criterion(12, "Mandel visibility and two-photon purity"):
        rng = np.random.default_rng(1212)
        # identical pure states, arbitrary detectors: V = 1
        g = GaussianState(0.4, 1.0, 0.2)
        for det_pair in [
            (IDEAL, IDEAL),
            (DetectorModel.flat(0.7), DetectorModel.flat(0.4)),
            (DetectorModel.flat(0.8), DetectorModel.gaussian_band(0.2, 2.5, 0.9)),
        ]:
            assert mandel_visibility(g, g, *det_pair) == pytest.approx(1.0, abs=1e-10)
        # P = |V|^2 for N = 2
        for _ in range(5):
            a = GaussianState(float(rng.normal(0, 0.5)), 1.0, float(rng.normal(0, 0.8)))
            b = GaussianState(float(rng.normal(0, 0.5)), 1.0, float(rng.normal(0, 0.8)))
            d1 = DetectorModel.flat(float(rng.uniform(0.5, 1.0)))
            d2 = DetectorModel.gaussian_band(0.0, float(rng.uniform(2.0, 4.0)),
                                             float(rng.uniform(0.7, 1.0)))
            v = mandel_visibility(a, b, d1, d2)
            jm = build_pure([a, b], (d1, d2))
            assert purity(jm).purity == pytest.approx(abs(v) ** 2, abs=1e-12)
