import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiphoton.bosonsampling import (
    BSParams,
    ExpansionReport,
    build_bs_jmatrix,
    gk_closed,
    gk_gaussian_model,
    j_entry,
    purity_closed,
    purity_curve,
    purity_direct,
    small_gamma_expansion_check,
    trace2_closed,
)
from multiphoton.errors import SizeLimitError, ValidationError
from multiphoton.jmatrix import min_eigenvalue, purity
from multiphoton.spectral import IDEAL, gk_trace
from multiphoton.symgroup import cycle_index, cycle_types


def test_gamma_from_eta():
    p = BSParams(3, spectral_width=2.0, time_spread=0.5)
    assert p.eta == pytest.approx(1.0)
    assert p.gamma == pytest.approx(2.0 / 3.0)
    assert BSParams(3, time_spread=0.0).gamma == 0.0


@pytest.mark.parametrize("args", [
    (2.5,), (0,), (-1,), ("3",), (3.0,),
    (3, math.nan), (3, math.inf), (3, 0.0), (3, -1.0),
    (3, 1.0, math.nan), (3, 1.0, math.inf), (3, 1.0, -0.1),
])
def test_bsparams_refuses_what_its_formulas_cannot_use(args):
    """An integral photon count >= 1, a finite width > 0 and a finite spread
    >= 0: BSParams(2.5, nan, inf) used to be accepted with a NaN gamma."""
    with pytest.raises(ValidationError):
        BSParams(*args)


def test_from_gamma_roundtrip():
    for gamma in (0.0, 0.1, 0.5, 0.9):
        assert BSParams.from_gamma(4, gamma).gamma == pytest.approx(gamma, abs=1e-14)


def test_gk_closed_gamma_zero():
    assert all(gk_closed(0.0, k) == 1.0 for k in range(1, 8))


def test_gk_closed_k1_always_one():
    for gamma in (0.0, 0.3, 0.77, 0.99):
        assert gk_closed(gamma, 1) == pytest.approx(1.0)


def test_gk_closed_reference_value():
    assert gk_closed(0.5, 2) == pytest.approx(0.5 / math.sqrt(0.75), abs=1e-15)


def test_gk_closed_domain_error():
    with pytest.raises(ValidationError):
        gk_closed(1.0, 2)


def test_gk_quadrature_matches_exact_ensemble_trace():
    """The quadrature machinery reproduces the exact cyclic-integral values of
    the arrival-time ensemble to 1e-8 for k <= 5 (wide jitter needs more
    Hermite nodes; gamma = 0.9 means a time spread of 2.1 widths)."""
    for gamma, nodes in ((0.1, 32), (0.5, 48), (0.9, 96)):
        rho = BSParams.from_gamma(2, gamma).jitter_state(nodes=nodes)
        for k in range(1, 6):
            assert gk_trace(rho, IDEAL, k) == pytest.approx(
                gk_gaussian_model(gamma, k), abs=1e-8
            )


def test_gk_closed_equals_ensemble_trace_up_to_k2():
    for gamma in (0.1, 0.5, 0.9):
        for k in (1, 2):
            assert gk_closed(gamma, k) == pytest.approx(
                gk_gaussian_model(gamma, k), abs=1e-12
            )


def test_gk_closed_diverges_from_ensemble_trace_beyond_k2():
    """Documented model caveat: the coefficient law is not the exact ensemble
    trace for k >= 3 (they differ at order eta^4), so a quadrature check of
    gk_closed cannot pass; see the module docstring."""
    assert abs(gk_closed(0.5, 3) - gk_gaussian_model(0.5, 3)) > 1e-2
    # exact ensemble value for gamma = 0.5 (eta^2 = 1/2): 1/(1 + 3 eta^2)
    assert gk_gaussian_model(0.5, 3) == pytest.approx(0.4, abs=1e-14)


@given(st.floats(0.01, 0.95), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=60)
def test_gk_submultiplicative_constraint(gamma, k, m):
    assert gk_closed(gamma, k + m) <= gk_closed(gamma, k) * gk_closed(gamma, m) + 1e-10


def test_j_entry_identity_cycle_type():
    assert j_entry(0.6, (4, 0, 0, 0)) == pytest.approx(1.0)


def test_j_entry_transposition():
    gamma = 0.4
    assert j_entry(gamma, (0, 1)) == pytest.approx(gk_closed(gamma, 2))


def test_j_entry_double_transposition_product_rule():
    gamma = 0.35
    direct = (1 - gamma) ** 2 * (1 - gamma**2) ** -1.0
    assert j_entry(gamma, (0, 2, 0, 0)) == pytest.approx(gk_closed(gamma, 2) ** 2)
    assert j_entry(gamma, (0, 2, 0, 0)) == pytest.approx(direct, abs=1e-12)


def test_cycle_j_entry_beyond_enumeration_cap():
    """A cycle J's entry at N = 12 is the value of the cycle type of
    s2 s1^-1, here a 3-cycle and a transposition beside seven fixed points."""
    n = 12
    params = BSParams.from_gamma(n, 0.3)
    jm = build_bs_jmatrix(params)
    tau = np.arange(n)
    tau[[0, 1, 2, 3, 4]] = (1, 2, 0, 4, 3)
    s1 = np.random.default_rng(5).permutation(n)
    ct = (7, 1, 1) + (0,) * 9
    assert jm.entry(s1, tau[s1]) == jm.cycle_values[ct]
    assert jm.entry(s1, tau[s1]).real == pytest.approx(j_entry(params, ct), rel=1e-14)


def test_bs_jmatrix_values_are_j_entry():
    """The cycle J holds j_entry exactly, one value for every cycle type."""
    for gamma in (0.0, 0.3, 0.9):
        params = BSParams.from_gamma(6, gamma)
        values = build_bs_jmatrix(params).cycle_values
        assert values.keys() == {ct for ct, _ in cycle_types(6)}
        for ct, value in values.items():
            assert value == complex(j_entry(params, ct))


def test_cycle_index_beyond_enumeration_cap():
    """The cycle index sums over partitions, so it needs no cap: at N = 12,
    (1 - g)^N Z_N(1/(1 - g^k)) is the closed-form Tr{(J/N!)^2}."""
    n, gamma = 12, 0.4
    z = cycle_index(n, [1.0 / (1.0 - gamma**k) for k in range(1, n + 1)])
    assert (1.0 - gamma) ** n * z.real == pytest.approx(trace2_closed(n, gamma), rel=1e-12)


def test_ensemble_jmatrix_psd():
    """J built from the actual jitter ensemble is PSD, as any physical J
    must be."""
    from multiphoton.jmatrix import build_cycle_compressed

    for n in (2, 3, 4, 5):
        rho = BSParams.from_gamma(n, 0.6).jitter_state(nodes=24)
        jm = build_cycle_compressed(rho, IDEAL, n)
        assert min_eigenvalue(jm) >= -1e-9


def test_coefficient_law_jmatrix_psd_caveat():
    """The closed coefficient law stays PSD at N = 2 (where it is exact) but
    loses positivity at small gamma for N >= 3: it is not the trace sequence
    of any density operator."""
    assert min_eigenvalue(build_bs_jmatrix(BSParams.from_gamma(2, 0.2))) >= -1e-12
    assert min_eigenvalue(build_bs_jmatrix(BSParams.from_gamma(3, 0.2))) < -1e-3


def test_trace2_n2_half():
    assert trace2_closed(2, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_purity_n2_gamma_half():
    res = purity_closed(BSParams.from_gamma(2, 0.5))
    assert res.trace2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert res.purity == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_purity_n3_gamma_02():
    res = purity_closed(BSParams.from_gamma(3, 0.2))
    expected = 0.8**3 / (0.8 * 0.96 * 0.992)
    assert res.trace2 == pytest.approx(expected, abs=1e-10)
    assert res.trace2 == pytest.approx(0.67204, abs=5e-6)


def test_purity_gamma_zero_is_one():
    for n in (2, 5, 9):
        assert purity_closed(BSParams.from_gamma(n, 0.0)).purity == pytest.approx(1.0)
        assert purity_direct(BSParams.from_gamma(n, 0.0)).trace2 == pytest.approx(1.0)


def test_purity_closed_vs_direct_grid():
    # the module's own cross-check: q-Pochhammer closed form vs cycle index
    for n in range(2, 11):
        for gamma in np.arange(0.1, 0.95, 0.1):
            a = purity_closed(BSParams.from_gamma(n, float(gamma)))
            b = purity_direct(BSParams.from_gamma(n, float(gamma)))
            assert abs(a.trace2 - b.trace2) < 1e-10
            assert abs(a.purity - b.purity) < 1e-10


def test_purity_direct_cap():
    with pytest.raises(SizeLimitError):
        purity_direct(BSParams.from_gamma(11, 0.5))


def test_purity_n1_degenerate():
    res = purity_direct(BSParams.from_gamma(1, 0.5))
    assert res.degenerate and res.purity is None
    assert res.trace2 == pytest.approx(1.0)


def test_purity_matches_generic_jmatrix_machinery():
    for n in (3, 4):
        for gamma in (0.25, 0.7):
            params = BSParams.from_gamma(n, gamma)
            via_matrix = purity(build_bs_jmatrix(params))
            assert via_matrix.purity == pytest.approx(
                purity_closed(params).purity, abs=1e-12
            )


def test_quadrature_jmatrix_matches_exact_cycle_products():
    """Cycle-compressed J from the jitter ensemble equals the product of the
    exact per-cycle traces."""
    from multiphoton.jmatrix import build_cycle_compressed
    from multiphoton.symgroup import cycle_types

    gamma = 0.5
    params = BSParams.from_gamma(4, gamma)
    jm = build_cycle_compressed(params.jitter_state(nodes=48), IDEAL, 4)
    for ct, _ in cycle_types(4):
        expected = 1.0
        for k, c in enumerate(ct, start=1):
            expected *= gk_gaussian_model(gamma, k) ** c
        assert jm.cycle_values[ct].real == pytest.approx(expected, abs=1e-8)


def test_small_gamma_expansion():
    assert small_gamma_expansion_check(BSParams(4, 1.0, 0.0)).deviation == 0.0
    rep4 = small_gamma_expansion_check(BSParams(4, 1.0, 0.01))  # eta^2 = 1e-4
    assert rep4.deviation < 1e-6
    rep10 = small_gamma_expansion_check(BSParams(10, 1.0, 0.01))
    assert rep10.deviation < 1e-5
    with pytest.raises(ValidationError):
        small_gamma_expansion_check(BSParams(4, 1.0, 1.0))


def test_purity_curve_structure_and_monotonicity():
    gammas = np.linspace(0.0, 0.9, 10)
    n_list = [2, 4, 10, 20, 30]
    rows = purity_curve(n_list, gammas)
    assert len(rows) == len(gammas) * len(n_list)
    # endpoints: purity 1 at gamma = 0
    for row in rows:
        if row["gamma"] == 0.0:
            assert row["purity"] == pytest.approx(1.0)
    # monotone decreasing along gamma for each N
    for n in n_list:
        vals = [r["purity"] for r in rows if r["N"] == n]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    # pointwise decreasing in N
    for g in gammas[1:]:
        by_n = [r["purity"] for r in rows if r["gamma"] == g]
        assert all(a >= b - 1e-12 for a, b in zip(by_n, by_n[1:]))


def test_purity_approaches_zero_near_one():
    res = purity_closed(BSParams.from_gamma(4, 0.999))
    assert res.purity < 1e-2


def test_purity_curve_rejects_n1():
    with pytest.raises(ValidationError):
        purity_curve([1, 2], [0.1])
