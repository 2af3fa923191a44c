"""Self-checks of the benchmark: reference routes, tracer, repeatable counts.

    python3 -m pytest perfbench -q

The count test runs every workload twice through run.py and takes a few
minutes; select workloads with -k.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import tracer
from workloads import BUILDERS

COUNT_SUFFIXES = (".calls", ".perms", ".ops", ".bytes", ".distinct_frac", ".absent_targets")


def naive_permanent(a: np.ndarray) -> complex:
    n = a.shape[0]
    return sum(np.prod([a[p[j], j] for j in range(n)]) for p in itertools.permutations(range(n)))


def test_glynn_matches_permutation_sum():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        stack = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        want = [naive_permanent(a) for a in stack]
        assert np.allclose(reference.glynn(stack), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("det", [
    types.SimpleNamespace(kind="flat", eta=0.9),
    types.SimpleNamespace(kind="gaussianBand", center=0.3, width=1.4, peak=0.8),
])
def test_gaussian_overlap_matches_quadrature(det):
    omega, delta, t_a, t_b = 0.2, 1.1, -0.4, 0.9
    w = np.linspace(omega - 14 * delta, omega + 14 * delta, 20001)

    def phi(t):
        return (2 * np.pi * delta**2) ** -0.25 * np.exp(1j * w * t - (w - omega) ** 2 / (4 * delta**2))

    gamma = (np.full_like(w, det.eta) if det.kind == "flat"
             else det.peak * np.exp(-((w - det.center) ** 2) / (2 * det.width**2)))
    want = np.trapezoid(np.conj(phi(t_a)) * gamma * phi(t_b), w)
    assert abs(reference.gaussian_overlap(t_a, t_b, omega, delta, det) - want) < 1e-12


def _fake_package() -> dict:
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    def middle(x):
        return inner.leaf(x) + outer.leaf(x)

    inner.leaf, outer.leaf, outer.middle = leaf, leaf, middle
    return {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.inner": inner,
            "fakepkg.outer": outer}


def test_tracer_nests_spans_and_reports_absent_targets(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    inner, outer = modules["fakepkg.inner"], modules["fakepkg.outer"]
    original = inner.leaf
    tr = tracer.Tracer("fakepkg", (tracer.Target("inner", "leaf"),
                                   tracer.Target("outer", "middle"),
                                   tracer.Target("inner", "gone")))
    tr.install()
    try:
        tr.begin_unit()
        assert outer.middle(1) == 4
    finally:
        tr.uninstall()
    assert inner.leaf is original and outer.leaf is original
    assert tr.absent == ["inner.gone"]
    metrics = tr.summary()
    assert metrics["inner.leaf.calls"] == 2 and metrics["outer.middle.calls"] == 1
    parent = next(i for i, s in enumerate(tr.spans) if s[0] == 1)
    leaves = [s for s in tr.spans if s[0] == 0]
    assert all(s[1] == parent for s in leaves)
    children = sum(s[4] - s[3] for s in leaves)
    whole = tr.spans[parent][4] - tr.spans[parent][3]
    assert metrics["outer.middle.self_s"] == pytest.approx(whole - children)


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_count_metrics_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "sample_ryser16", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
