"""The five benchmark workloads: seeded inputs, one timed unit of work, and the
reference probabilities each unit is checked against.

Every timed call goes through the package's exported names with default
arguments. Inputs are generated here from the seed, so the program receives
only unitaries, photons, detectors and output occupations.
"""

from __future__ import annotations

import itertools
import math
import sys
import traceback

import numpy as np

import reference

OMEGA, DELTA = 0.0, 1.0       # common photon centre frequency and width
FLAT_ETA = 0.9
DELAY_STEP, DELAY_JITTER = 0.6, 0.15
ATOL = 1e-9                   # absolute agreement required of every probability
RTOL_RYSER = 1e-6             # N = 16 probabilities lie far below ATOL
TAU_ROUTE = "tau-sum of Glynn permanents over closed-form overlaps (perfbench/reference.py)"
ORACLE_ROUTE = "multiphoton.prob_oracle (permutation-sum expansion, no permanents)"


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def photon_times(n: int, rng: np.random.Generator) -> list[float]:
    """Distinct arrival times: neighbours overlap by about 0.85, so the photons
    are partially distinguishable and their span is well conditioned."""
    return [float(DELAY_STEP * i + rng.uniform(-DELAY_JITTER, DELAY_JITTER)) for i in range(n)]


def band_params(m: int, rng: np.random.Generator) -> list[tuple[float, float, float]]:
    return [(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 2.0)),
             float(rng.uniform(0.75, 1.0))) for _ in range(m)]


def compositions(m: int, n: int) -> list[tuple[int, ...]]:
    """Every occupation of m modes by n photons."""
    return [tuple(int(x) for x in np.bincount(c, minlength=m))
            for c in itertools.combinations_with_replacement(range(m), n)]


def _failure(exc: Exception, label: str) -> Exception:
    print(f"perfbench: {label} raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)
    return exc


# A job is one public-API call pattern: ``run`` maps each output key to its
# probability, or to the exception that replaced it; ``reference`` maps the
# same keys to reference probabilities; ``provenance`` names the reference.


class DistributionJob:
    """``output_distribution`` over every output of one input."""

    def __init__(self, engine, u, n_occ, times, photons, detectors, reference_route):
        self.engine, self.u, self.n_occ = engine, u, tuple(n_occ)
        self.times, self.photons, self.detectors = times, photons, detectors
        self.route = reference_route
        self.label = f"{engine}{self.n_occ}"
        self.keys = [(self.label, m) for m in compositions(len(n_occ), sum(n_occ))]
        self.provenance = ORACLE_ROUTE if reference_route == "oracle" else TAU_ROUTE

    def run(self, mp) -> dict:
        try:
            dist = mp.output_distribution(self.engine, self.u, self.n_occ,
                                          photons=self.photons, detectors=self.detectors)
        except Exception as exc:  # every output of the call is lost
            exc = _failure(exc, self.label)
            return {key: exc for key in self.keys}
        return {(self.label, tuple(r.m)): r.p for r in dist.results}

    def reference(self, mp) -> dict:
        if self.route == "oracle":
            return {(self.label, m): mp.prob_oracle(self.photons, self.detectors, self.u,
                                                    self.n_occ, m).p
                    for _, m in self.keys}
        grams = reference.detector_grams(self.times, OMEGA, DELTA, self.detectors)
        return {(self.label, m): reference.tau_sum_probability(self.u, self.n_occ, m, grams)
                for _, m in self.keys}


class JmatrixPointsJob:
    """``build_pure`` then ``prob_jmatrix`` for a fixed set of outputs."""

    def __init__(self, u, n_occ, times, photons, detectors, outputs):
        self.u, self.n_occ = u, tuple(n_occ)
        self.times, self.photons, self.detectors = times, photons, detectors
        self.label = "jmatrix"
        self.keys = [(self.label, m) for m in outputs]
        self.provenance = TAU_ROUTE

    def run(self, mp) -> dict:
        out = {}
        for key in self.keys:
            m = key[1]
            try:
                ls = reference.occupation_modes(m)
                jm = mp.build_pure(self.photons, [self.detectors[l] for l in ls], output_modes=ls)
                out[key] = mp.prob_jmatrix(jm, self.u, self.n_occ, m).p
            except Exception as exc:
                out[key] = _failure(exc, f"{self.label}{m}")
        return out

    def reference(self, mp) -> dict:
        grams = reference.detector_grams(self.times, OMEGA, DELTA, self.detectors)
        return {key: reference.tau_sum_probability(self.u, self.n_occ, key[1], grams)
                for key in self.keys}


class RyserPointsJob:
    """``prob_ideal_indistinguishable`` and ``prob_classical`` for a fixed set
    of collision-free outputs."""

    def __init__(self, u, n_occ, outputs):
        self.u, self.n_occ = u, tuple(n_occ)
        self.label = "ryser"
        self.keys = [(kind, m) for m in outputs for kind in ("ideal", "classical")]
        self.provenance = "Glynn permanent of U[n|m] and |U[n|m]|^2 (perfbench/reference.py)"

    def run(self, mp) -> dict:
        calls = {"ideal": mp.prob_ideal_indistinguishable, "classical": mp.prob_classical}
        out = {}
        for kind, m in self.keys:
            try:
                out[(kind, m)] = calls[kind](self.u, self.n_occ, m).p
            except Exception as exc:
                out[(kind, m)] = _failure(exc, f"{kind}{m}")
        return out

    def reference(self, mp) -> dict:
        ks = reference.occupation_modes(self.n_occ)
        out = {}
        for kind, m in self.keys:
            sub = self.u[np.ix_(ks, reference.occupation_modes(m))]
            if kind == "ideal":
                out[(kind, m)] = abs(reference.glynn(sub[None])[0]) ** 2
            else:
                out[(kind, m)] = reference.glynn(np.abs(sub[None]) ** 2)[0].real
        return out


class Instance:
    """A workload's jobs for one seed; one unit runs every job once."""

    def __init__(self, n_max, jobs, rtol=None, expected_total=None):
        self.n_max, self.jobs, self.rtol = n_max, jobs, rtol
        self.expected_total = expected_total  # exact sum of the whole unit, if known

    @property
    def keys(self) -> list:
        return [key for job in self.jobs for key in job.keys]

    def warm(self, mp) -> None:
        """Fill the package's lazy permutation tables for this workload's N."""
        table = getattr(getattr(mp, "symgroup", None), "permutation_array", None)
        if table is not None and self.n_max <= 10:
            table(self.n_max)

    def solve(self, mp) -> dict:
        out = {}
        for job in self.jobs:
            out.update(job.run(mp))
        return out

    def reference(self, mp) -> dict:
        out = {}
        for job in self.jobs:
            out.update(job.reference(mp))
        return out

    def check(self, results: dict, ref: dict) -> tuple[int, list[str]]:
        """Number of failed probabilities in one unit, and the problems found."""
        failed, problems = 0, []
        for key in self.keys:
            got, want = results.get(key), ref[key]
            bad = not isinstance(got, float) or abs(got - want) > ATOL or (
                self.rtol is not None and abs(got - want) > self.rtol * abs(want))
            if bad:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{key}: got {got!r}, reference {want!r}")
        extra = set(results) - set(ref)
        if extra:
            problems.append(f"{len(extra)} unexpected outputs")
        if self.expected_total is not None:
            total = sum(p for p in results.values() if isinstance(p, float))
            if abs(total - self.expected_total) > ATOL:
                problems.append(f"sum {total!r} != {self.expected_total!r}")
        return failed, problems

    def provenance(self) -> dict:
        return {job.label: job.provenance for job in self.jobs}


def _single_photon_input(n: int, m: int) -> tuple[int, ...]:
    return (1,) * n + (0,) * (m - n)


def _sweep6(rng, mp, kind: str) -> Instance:
    u = haar_unitary(6, rng)
    times = photon_times(6, rng)
    photons = [mp.GaussianState(OMEGA, DELTA, t) for t in times]
    if kind == "flat":
        detectors = [mp.DetectorModel.flat(FLAT_ETA)] * 6
    else:
        detectors = [mp.DetectorModel.gaussian_band(*p) for p in band_params(6, rng)]
    job = DistributionJob("jmatrix", u, (1,) * 6, times, photons, detectors, "tau")
    return Instance(6, [job], expected_total=FLAT_ETA**6 if kind == "flat" else None)


def _sample_stream7(rng, mp) -> Instance:
    n, m, samples = 7, 9, 3
    u = haar_unitary(m, rng)
    times = photon_times(n, rng)
    photons = [mp.GaussianState(OMEGA, DELTA, t) for t in times]
    detectors = [mp.DetectorModel.gaussian_band(*p) for p in band_params(m, rng)]
    outputs: list[tuple[int, ...]] = []
    while len(outputs) < samples:
        occ = tuple(int(c) for c in np.bincount(rng.integers(0, m, n), minlength=m))
        if occ not in outputs:
            outputs.append(occ)
    job = JmatrixPointsJob(u, _single_photon_input(n, m), times, photons, detectors, outputs)
    return Instance(n, [job])


def _sweep_span(rng, mp) -> Instance:
    u = haar_unitary(6, rng)
    times = photon_times(5, rng)
    photons = [mp.GaussianState(OMEGA, DELTA, t) for t in times]
    detectors = [mp.DetectorModel.gaussian_band(*p) for p in band_params(6, rng)]
    a, b, c = photons[:3]
    jobs = [
        DistributionJob("permanent", u, (1, 1, 1, 1, 1, 0), times, photons, detectors, "oracle"),
        DistributionJob("general", u, (1, 1, 1, 1, 0, 0), times[:4], photons[:4], detectors,
                        "oracle"),
        DistributionJob("general", u, (2, 1, 1, 0, 0, 0), None, [a, a, b, c], detectors,
                        "oracle"),
    ]
    return Instance(5, jobs)


def _sample_ryser16(rng, mp) -> Instance:
    n, m, samples = 16, 32, 4
    u = haar_unitary(m, rng)
    outputs = []
    while len(outputs) < samples:
        occ = np.zeros(m, dtype=int)
        occ[rng.choice(m, n, replace=False)] = 1
        if tuple(occ) not in outputs:
            outputs.append(tuple(int(c) for c in occ))
    return Instance(n, [RyserPointsJob(u, _single_photon_input(n, m), outputs)], rtol=RTOL_RYSER)


BUILDERS = {
    "sweep_flat6": lambda rng, mp: _sweep6(rng, mp, "flat"),
    "sweep_band6": lambda rng, mp: _sweep6(rng, mp, "band"),
    "sample_stream7": _sample_stream7,
    "sweep_span": _sweep_span,
    "sample_ryser16": _sample_ryser16,
}


def make(name: str, seed: int, mp) -> Instance:
    """The workload's inputs for this seed; the same seed gives the same inputs."""
    return BUILDERS[name](np.random.default_rng(seed), mp)
