"""Self-verification: cross-engine agreement, J-matrix properties,
normalization, and purity cross-checks on seeded random instances.

Backs the `multiphoton verify` subcommand; the test suite runs the same
checks at larger sample counts.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import bosonsampling
from .jmatrix import build_pure, min_eigenvalue
from .network import mode_list, random_unitary
from .permanent import (
    permanent_gather_batch,
    permanent_naive,
    permanent_ryser,
    permanent_ryser_batch,
)
from .probability import (ORACLE_MAX_N, GeneralEnsemble, output_distribution, prob_jmatrix,
                          prob_permanent_basis)
from .spectral import IDEAL, DetectorModel, FiniteRankState, GaussianState, MixedState
from .symgroup import _lehmer_rank, inverse_pairs, permutation_array, permutation_index


def random_instance(rng: np.random.Generator, kind: str = "gaussian",
                    max_modes: int = 5, max_photons: int = 4):
    """One random engine-equivalence instance: Haar network, single photon
    per occupied mode, photons and detectors of the requested flavor."""
    n = int(rng.integers(2, max_photons + 1))
    if kind == "mixed":
        n = min(n, 3)
    m = int(rng.integers(n, max_modes + 1))
    u = random_unitary(m, int(rng.integers(0, 2**31)))
    modes = sorted(rng.choice(m, size=n, replace=False).tolist())
    n_occ = tuple(1 if k in modes else 0 for k in range(m))

    if kind == "gaussian":
        photons = [
            GaussianState(omega=float(rng.normal(0.0, 0.5)), delta=1.0,
                          t=float(rng.normal(0.0, 0.8)),
                          pol=int(rng.integers(0, 2)) if rng.random() < 0.3 else 0)
            for _ in range(n)
        ]
        det_kinds = ["ideal", "flat", "band"]
    elif kind == "finite":
        photons = []
        for _ in range(n):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            photons.append(FiniteRankState(v / np.linalg.norm(v)))
        det_kinds = ["ideal", "flat", "matrix"]
    elif kind == "mixed":
        photons = []
        for _ in range(n):
            k = int(rng.integers(2, 4))
            w = rng.dirichlet(np.ones(k))
            comps = [
                (float(wi), GaussianState(omega=0.0, delta=1.0,
                                          t=float(rng.normal(0.0, 2.2))))
                for wi in w
            ]
            photons.append(MixedState(comps))
        det_kinds = ["ideal", "flat", "band"]
    else:
        raise ValueError(kind)

    detectors = []
    for _ in range(m):
        choice = det_kinds[int(rng.integers(0, len(det_kinds)))]
        if choice == "ideal":
            detectors.append(IDEAL)
        elif choice == "flat":
            detectors.append(DetectorModel.flat(float(rng.uniform(0.5, 1.0))))
        elif choice == "band":
            detectors.append(DetectorModel.gaussian_band(
                center=float(rng.normal(0.0, 0.5)), width=float(rng.uniform(2.0, 6.0)),
                peak=float(rng.uniform(0.7, 1.0))))
        else:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(z)
            ev = rng.uniform(0.3, 1.0, n)
            detectors.append(DetectorModel.operator((q * ev) @ q.conj().T))
    return u, n_occ, photons, detectors


def engine_discrepancy(u, n_occ, photons, detectors, engines=("jmatrix", "permanent", "general", "oracle")):
    """Max pairwise |P_a - P_b| over all outputs, plus the per-engine sums."""
    dists = {
        e: output_distribution(e, u, n_occ, photons=photons, detectors=detectors)
        for e in engines
    }
    worst = 0.0
    for a, b in itertools.combinations(engines, 2):
        for ra, rb in zip(dists[a].results, dists[b].results):
            worst = max(worst, abs(ra.p - rb.p))
    return worst, {e: d.total for e, d in dists.items()}


def run_checks(seed: int = 7, inject_fault: bool = False) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    # engine equivalence + normalization, one instance per photon flavor
    for kind in ("gaussian", "finite", "mixed"):
        u, n_occ, photons, detectors = random_instance(rng, kind)
        worst, sums = engine_discrepancy(u, n_occ, photons, detectors)
        checks.append({
            "name": f"engine-equivalence-{kind}",
            "pass": bool(worst < 1e-9),
            "max_discrepancy": worst,
        })
        ideal_sum = output_distribution("jmatrix", u, n_occ, photons=photons).total
        checks.append({
            "name": f"normalization-ideal-{kind}",
            "pass": bool(abs(ideal_sum - 1.0) < 1e-9),
            "sum": ideal_sum,
        })

    # J-matrix Hermiticity/PSD on random dense builds
    worst_eig = 0.0
    for _ in range(5):
        u, n_occ, photons, detectors = random_instance(rng, "gaussian", max_photons=4)
        slot_dets = tuple(detectors[l] for l in mode_list(n_occ))
        jm = build_pure(photons, slot_dets, output_modes=mode_list(n_occ))
        if inject_fault:
            dense = jm.as_dense()
            dense[0, 1] = -dense[0, 1]  # break Hermiticity/PSD on purpose
            dense[1, 0] = dense[0, 1]
        worst_eig = min(worst_eig, min_eigenvalue(jm))
        herm = float(np.max(np.abs(jm.as_dense() - jm.as_dense().conj().T)))
        if herm > 0.0 and not inject_fault:
            worst_eig = -1.0
    checks.append({
        "name": "jmatrix-psd",
        "pass": bool(worst_eig >= -1e-9),
        "min_eigenvalue": worst_eig,
    })

    # purity closed form vs cycle-index route
    worst_gap = 0.0
    for n in (2, 3, 5, 8):
        for gamma in (0.1, 0.5, 0.9):
            params = bosonsampling.BSParams.from_gamma(n, gamma)
            a = bosonsampling.purity_closed(params).trace2
            b = bosonsampling.purity_direct(params).trace2
            worst_gap = max(worst_gap, abs(a - b))
    checks.append({
        "name": "purity-closed-vs-direct",
        "pass": bool(worst_gap < 1e-10),
        "max_gap": worst_gap,
    })

    # permanents: Ryser against the naive oracle
    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pn, pr = permanent_naive(a), permanent_ryser(a)
        worst_rel = max(worst_rel, abs(pn - pr) / max(abs(pn), 1e-30))
    checks.append({
        "name": "permanent-ryser-vs-naive",
        "pass": bool(worst_rel < 1e-10),
        "max_relative_error": worst_rel,
    })

    def gather_error(w, images, offsets=(0,), mult=None) -> float:
        """Largest relative gap between the permanents gathered from W and
        those of the materialised stack. With column multiplicities
        ``mult``, the stack repeats column a of W m_a times, and the gap is
        taken relative to per(|A|): the kernel then groups the terms of the
        sum, so it rounds differently from the stack, and a random complex
        permanent can cancel far below per(|A|), the scale of the
        kernel's rounding error."""
        n, offsets = len(w), np.asarray(offsets)
        gathered = permanent_gather_batch(w, images, offsets, mult=mult)
        rows = (offsets[:, None, None] + images).reshape(-1, n)
        stack = w[np.arange(n), rows]
        if mult is not None:
            stack = stack[:, :, np.repeat(np.arange(len(mult)), mult)]
        stacked = permanent_ryser_batch(stack)
        scale = np.abs(stacked if mult is None else permanent_ryser_batch(np.abs(stack)))
        return float(np.max(np.abs(gathered - stacked) / np.maximum(scale, 1e-300)))

    # permanents of the tau route: gathered from W against the materialised
    # stack, with n distinct columns and with the columns repeated by one
    # random composition of n, drawn from a generator of its own so that the
    # checks after it draw as before
    own_rng = np.random.default_rng([seed, 2])
    worst_rel = 0.0
    for n in range(1, 8):
        images = inverse_pairs(n).images
        w = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        worst_rel = max(worst_rel, gather_error(w, images))
        cuts = np.flatnonzero(own_rng.random(n - 1) < 0.5) + 1
        mult = tuple(np.diff(np.concatenate(([0], cuts, [n]))).tolist())
        shape = (n, n, len(mult))
        w = own_rng.standard_normal(shape) + 1j * own_rng.standard_normal(shape)
        worst_rel = max(worst_rel, gather_error(w, images, mult=mult))
    checks.append({
        "name": "tau-gather-vs-stack",
        "pass": bool(worst_rel < 1e-13),
        "max_relative_error": worst_rel,
    })

    # above the oracle's cap the product fold's arbiter is the tau route: one
    # collision-free N = ORACLE_MAX_N + 1 output, a different band detector
    # on every mode, drawn from a generator of its own so that the checks
    # after it draw as before
    own = np.random.default_rng([seed, 1])
    n, m = ORACLE_MAX_N + 1, ORACLE_MAX_N + 2
    u = random_unitary(m, int(own.integers(0, 2**31)))
    n_occ, m_occ = (tuple(int(c) for c in np.bincount(own.choice(m, n, replace=False),
                                                       minlength=m)) for _ in range(2))
    photons = [GaussianState(omega=float(own.normal(0.0, 0.5)), delta=1.0,
                             t=float(own.normal(0.0, 0.8))) for _ in range(n)]
    detectors = [DetectorModel.gaussian_band(center=float(own.normal(0.0, 0.5)),
                                             width=float(own.uniform(2.0, 6.0)),
                                             peak=float(own.uniform(0.7, 1.0)))
                 for _ in range(m)]
    ls = mode_list(m_occ)
    jm = build_pure(photons, tuple(detectors[l] for l in ls), output_modes=ls,
                    input_modes=mode_list(n_occ))
    gap = abs(prob_permanent_basis(photons, detectors, u, n_occ, m_occ).p
              - prob_jmatrix(jm, u, n_occ, m_occ).p)
    checks.append({
        "name": "permanent-vs-jmatrix-above-oracle-cap",
        "pass": bool(gap < 1e-12),
        "max_discrepancy": gap,
    })

    # a from_photons ensemble against its photons, and the photons' mixed J
    # sweep, mixed and multi-occupancy
    u = random_unitary(3, int(rng.integers(0, 2**31)))
    rho, other = (MixedState.gaussian_time_jitter(0.0, 1.0, 0.5, mean_time=float(t), nodes=3)
                  for t in rng.normal(0.0, 0.8, 2))
    photons, n_occ = [rho, rho, other], (2, 1, 0)
    detectors = [DetectorModel.gaussian_band(center=float(rng.normal(0.0, 0.5)),
                                             width=float(rng.uniform(2.0, 6.0)),
                                             peak=float(rng.uniform(0.7, 1.0)))
                 for _ in range(3)]
    sources = ({"photons": photons}, {"ensemble": GeneralEnsemble.from_photons(photons, n_occ)})
    dists = [output_distribution(engine, u, n_occ, detectors=detectors, **source)
             for engine in ("oracle", "general") for source in sources]
    dists.append(output_distribution("jmatrix", u, n_occ, photons=photons, detectors=detectors))
    worst = max(abs(a.p - b.p) for d in dists[1:] for a, b in zip(dists[0].results, d.results))
    checks.append({
        "name": "product-ensemble-vs-photons",
        "pass": bool(worst < 1e-12),
        "max_discrepancy": worst,
    })

    # S_N tables: the array in itertools order, every row ranked at its
    # position (all rows through the Lehmer rank, one through
    # permutation_index), every inverse-pair representative at or below its
    # inverse, whose position is looked up in the itertools order
    mismatches = 0
    for n in range(9):
        perms = permutation_array(n)
        reference = list(itertools.permutations(range(n)))
        mismatches += perms.tolist() != [list(t) for t in reference]
        mismatches += int(np.count_nonzero(_lehmer_rank(perms) != np.arange(len(perms))))
        mismatches += permutation_index(reference[-1]) != len(reference) - 1
        position = {t: i for i, t in enumerate(reference)}
        pairs = inverse_pairs(n)
        for pos, inverse, own in zip(pairs.positions.tolist(),
                                     np.argsort(pairs.images, axis=1).tolist(),
                                     pairs.involution.tolist()):
            rank = position[tuple(inverse)]
            mismatches += rank < pos or (rank == pos) != own
    checks.append({
        "name": "permutation-tables",
        "pass": bool(mismatches == 0),
        "mismatches": int(mismatches),
    })

    # permanents of the product fold: basis tuples of rank r gathered at the
    # offsets d r of D > 1 draws from one W of K = D r > n rows, against the
    # materialised stack
    worst_rel = 0.0
    for n in range(1, 7):
        r = int(rng.integers(1, n + 1))
        offsets = np.arange(n // r + 1) * r
        shape = (n, len(offsets) * r, n)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        images = rng.integers(0, r, (int(rng.integers(1, 50)), n))
        worst_rel = max(worst_rel, gather_error(w, images, offsets))
    checks.append({
        "name": "fold-gather-vs-stack",
        "pass": bool(worst_rel < 1e-13),
        "max_relative_error": worst_rel,
    })
    return checks
