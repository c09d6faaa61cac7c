"""Closed-form evaluators: exact fixtures, algebraic identities, monotonicity."""

import math

import numpy as np
import pytest

from kolmonet import bounds

P1 = bounds.RegularityParams(T=1.0, kappa=1.0, eta=1.0, p=2.0)


# ---------------------------------------------------------------------------
# moment and scheme bounds


def test_gaussian_moment_values():
    assert bounds.gaussian_moment_bound(2.0, 4.0) == 2.0
    assert bounds.gaussian_moment_bound(1.0, 9.0) == 3.0


def test_gaussian_moment_dominates_monte_carlo():
    gen = np.random.default_rng(0)
    z = gen.standard_normal((1_000_000, 2))
    emp = ((z**2).sum(axis=1) ** 2).mean() ** 0.25
    assert emp <= bounds.gaussian_moment_bound(4.0, 2.0)


def test_apriori_bound_values():
    assert bounds.apriori_sde_bound(1.3, 0.0, 0.0, 2.0, 0.0) == 1.3
    assert bounds.apriori_sde_bound(1.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(2 * math.e, rel=1e-15)


def test_noise_moment_factor():
    assert bounds.noise_moment_factor(2.0, 0.0) == 1.0
    assert bounds.noise_moment_factor(2.0, 4.0) == 2.0
    vals = [bounds.noise_moment_factor(q, 3.0) for q in (2.0, 3.0, 5.0, 9.0)]
    assert vals == sorted(vals)


def test_interp_bound_values():
    assert bounds.interp_error_bound(2.0, 0.0, 5.0) == 0.0
    assert bounds.interp_error_bound(2.0, 1.0, 1.0) == 0.5


# ---------------------------------------------------------------------------
# weak error bound


def _weak_params(**kw):
    base = dict(
        T=1.0, kappa=1.0, eta=1.0, p=2.0, c=1.0, C=0.0,
        varsigma0=1.0, varsigma1=1.0, varsigma2=1.0, ell=0.0, L0=1.0, L1=1.0,
    )
    base.update(kw)
    return bounds.RegularityParams(**base)


def test_weak_error_zero_sources():
    assert bounds.weak_error_bound(_weak_params(), 1.0, 0.0, 0.0, 1.0) == 0.0


def test_weak_error_monotone_in_sources():
    prev = 0.0
    for h in (0.0, 0.01, 0.1, 0.5):
        v = bounds.weak_error_bound(_weak_params(), 1.0, 0.0, h, 1.0)
        assert v >= prev
        prev = v
    for name in ("eps0", "eps1", "eps2"):
        lo = bounds.weak_error_bound(_weak_params(**{name: 0.01}), 1.0, 0.0, 0.1, 1.0)
        hi = bounds.weak_error_bound(_weak_params(**{name: 0.1}), 1.0, 0.0, 0.1, 1.0)
        assert hi > lo


# ---------------------------------------------------------------------------
# Monte Carlo Euler constants


def test_mc_lp_constants_positive_and_ordered():
    c, c1, c2, cf = bounds.mc_lp_constants(P1)
    assert min(c, c1, c2, cf) > 0
    assert cf >= c1 + c2
    assert cf >= 8 * 1.0 * (1 + c) * math.sqrt(1.0)


def test_mc_lp_constants_regression_fixture():
    # frozen from a one-time evaluation of the displays at (kappa, eta, p, T) = (1, 1, 2, 1)
    c, c1, c2, cf = bounds.mc_lp_constants(P1)
    assert c == pytest.approx(9.280794685077206, rel=1e-12)
    assert c1 == pytest.approx(181207.75311796437, rel=1e-12)
    assert c2 == pytest.approx(16.969256741395437, rel=1e-12)
    assert cf == pytest.approx(c1 + c2, rel=1e-15)


def test_mc_lp_error_bound_limits_and_scaling():
    big = 10**40
    assert bounds.mc_lp_error_bound(P1, 2, big, big, 1.0) <= 1e-10
    r = bounds.mc_lp_error_bound(P1, 2, 16, big, 1.0) / bounds.mc_lp_error_bound(P1, 2, 64, big, 1.0)
    assert r == pytest.approx(2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# size budgets


def test_product_size_budget_exact_value():
    assert bounds.product_size_budget(1.0, 3.0) == 8136.0


def test_product_size_budget_q3_specialization():
    gen = np.random.default_rng(1)
    for eps in gen.uniform(0.001, 1.0, size=20):
        a = bounds.product_size_budget(eps, 3.0)
        b = 2160.0 * (math.log2(1.0 / eps) + 4.0) - 504.0
        assert a == pytest.approx(b, rel=1e-12)


def test_product_size_budget_slope_per_doubling():
    for q in (2.5, 3.0, 4.0):
        delta = bounds.product_size_budget(0.25, q) - bounds.product_size_budget(0.5, q)
        assert delta == pytest.approx(720.0 * q / (q - 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# emulation and averaging bounds


def test_euler_emulation_bound_values():
    assert bounds.euler_emulation_error_bound(0.0, 3, 3.0, 1.0, 2.0) == 0.0
    assert bounds.euler_emulation_error_bound(0.1, 4, 3.0, 0.0, 0.0) == pytest.approx(0.1 * 2 * 2.0)


def test_drift_growth_envelope_values():
    assert bounds.drift_growth_envelope(1.0, 0.0, 0.0, 0.5, 0.0) == 1.0
    v = bounds.drift_growth_envelope(1.0, 2.0, 1.0, 0.5, 0.25)
    assert v == pytest.approx((1.0 + 1.0 + 0.25) * math.exp(0.5), rel=1e-15)


def test_mc_sum_bound_values():
    assert bounds.mc_sum_error_bound(0.0, 2, 1.0, 1.0, 2, [1, 1], [1, 1]) == 0.0
    v = bounds.mc_sum_error_bound(0.25, 1, 0.0, 2.0, 1, [1.0], [1.0])
    assert v == pytest.approx(6 * 0.25 * 2.0, rel=1e-15)


def test_path_growth_factor_value():
    v = bounds.path_growth_factor(1.0, 0.5, 0.2, 2.0, 0.3, 3.0)
    assert v == pytest.approx(1.0 + (1.0 + 1.0 + 0.3) ** 3 * math.exp(3 * 0.2 * 2.0), rel=1e-15)


def test_growth_evaluators_on_arrays_equal_their_scalar_and_list_calls():
    gen = np.random.default_rng(10)
    xn = gen.uniform(0.0, 3.0, size=(7, 1))
    taus = gen.uniform(0.0, 1.0, size=5)
    walk = gen.uniform(0.0, 2.0, size=5)
    g = bounds.drift_growth_envelope(xn, 0.5, 1.0, taus, walk)
    h2, h3 = (bounds.path_growth_factor(xn, 0.5, 1.0, 1.0, walk, r) for r in (2.0, 3.0))
    assert g.shape == h2.shape == h3.shape == (7, 5)
    # computed in place, with the bits of the expression written out
    for r, h in ((2.0, h2), (3.0, h3)):
        assert np.array_equal(h, 1.0 + (xn + 0.5 * 1.0 + walk) ** r * np.exp(r * 1.0 * 1.0))
    caps = bounds.mc_sum_error_bound(0.01, 2, 1.5, 1.0, 5, h2, h3)
    assert caps.shape == (7,)
    for i in range(7):
        x = float(xn[i, 0])
        for j in range(5):
            assert g[i, j] == bounds.drift_growth_envelope(x, 0.5, 1.0, float(taus[j]), float(walk[j]))
            assert h2[i, j] == bounds.path_growth_factor(x, 0.5, 1.0, 1.0, float(walk[j]), 2.0)
            assert h3[i, j] == bounds.path_growth_factor(x, 0.5, 1.0, 1.0, float(walk[j]), 3.0)
        assert caps[i] == bounds.mc_sum_error_bound(0.01, 2, 1.5, 1.0, 5, h2[i].tolist(), h3[i].tolist())
    with pytest.raises(ValueError, match="one growth factor pair per path"):
        bounds.mc_sum_error_bound(0.01, 2, 1.5, 1.0, 4, h2, h3)


@pytest.mark.parametrize("T, N", [(1.0, 16), (0.7, 16), (3.0, 5)])
def test_drift_growth_envelope_per_step_is_the_grid_call_bitwise(T, N):
    # the moment rows call it on one grid column at a time, with the time as a one-value slice
    gen = np.random.default_rng(N)
    grid = np.arange(N + 1) * (T / N)
    walk = gen.exponential(size=(300, N + 1)) * np.exp(gen.uniform(-9.0, 9.0, size=(300, 1)))
    running_max = np.maximum.accumulate(walk, axis=1)
    for x_norm in (np.linalg.norm(np.full(5, 0.5)), 0.0, 2.75):
        for C, c in ((0.0, 0.0), (0.0, 1.0), (2.5, 0.37), (1e-3, 7.0)):
            whole = bounds.drift_growth_envelope(x_norm, C, c, grid[None, :], running_max)
            for n in range(N + 1):
                step = bounds.drift_growth_envelope(x_norm, C, c, grid[n : n + 1], running_max[:, n].copy())
                assert step.tobytes() == whole[:, n].tobytes()


# ---------------------------------------------------------------------------
# solution-network bounds and planner


def test_solution_param_bound_m_quadratic():
    a = bounds.solution_param_bound(P1, 2, 4, 8, 0.5)
    b = bounds.solution_param_bound(P1, 2, 4, 16, 0.5)
    assert b == pytest.approx(4 * a, rel=1e-12)


def test_solution_param_bound_delta_one_log_factor():
    v = bounds.solution_param_bound(P1, 1, 1, 1, 1.0)
    assert v == pytest.approx(2.0**57, rel=1e-12)


def test_solution_error_bound_monotone():
    lo = bounds.solution_error_bound(P1, 1, 64, 64, 2.0**-8, 1.0)
    assert bounds.solution_error_bound(P1, 1, 16, 64, 2.0**-8, 1.0) > lo
    assert bounds.solution_error_bound(P1, 1, 64, 16, 2.0**-8, 1.0) > lo
    assert bounds.solution_error_bound(P1, 1, 64, 64, 2.0**-2, 1.0) > lo


def _bounds_at_100_digits(params, d, N, M, delta):
    """(solution_error_bound, mc_lp_error_bound) at unit mass, from the displays at 100 digits."""
    import mpmath

    with mpmath.workdps(100):
        k, eta, p, T = (mpmath.mpf(v) for v in (params.kappa, params.eta, params.p, params.T))
        iota, root = max(k, 1), max(1, mpmath.sqrt(2 * max(1, 2 * k - 1) * k))
        c = mpmath.exp(k * k * T) * 2 ** max(0, k - 1) * (
            eta + (k * T + max(1, mpmath.sqrt(2 * (p * iota - 1) * k)) * mpmath.sqrt(T)) ** k
        )
        c1 = (
            iota**2 * 2**iota * (k + 1) * root ** (2 * iota) * mpmath.exp((3 * iota**2 + 0.5) * T)
            * max(T, 1) ** (k + iota + 1.5) * max(2 * k * (k + 1), 1)
            * (1 + 5 * eta * 2 ** (k + iota - 1) + 5 * (4 * iota) ** (k + iota) * 2 ** (k + iota - 1))
        )
        c2 = (
            k**1.5 * mpmath.exp(k * k * T) * 2**iota * max(T, 1) ** (k + 0.5) * (eta + 1 + (k + root) ** k)
            / mpmath.sqrt(2)
        )
        c_final = max(c1 + c2, 8 * k * (1 + c) * mpmath.sqrt(p - 1))
        c_solution = max(
            c_final,
            (2 * p * max(eta, k) * max(T, 1) * iota * (1 + mpmath.sqrt(2 * k))) ** (2 * k + 3)
            * k * mpmath.exp((2 * k + 3) * k * T) * 2 ** (2 * k + 4) * 3**k,
        )
        d = mpmath.mpf(d)
        rate = d ** (k * (k + 4) + max(eta, k * (2 * k + 1))) / mpmath.sqrt(N) + d ** (k + max(eta, k * k)) / mpmath.sqrt(M)
        grid = delta * d ** ((2 * k + 3) * max(eta, k) + k * k + (7 * k + 1) / 2)
        return c_solution * (rate + grid), c_final * rate


@pytest.mark.parametrize("kappa, d", [(8.0, 10), (6.0, 100), (8.0, 100)])
def test_error_bounds_beyond_float_range_raise_with_their_log10(kappa, d):
    import mpmath

    params = bounds.RegularityParams(T=1.0, kappa=kappa)
    want = _bounds_at_100_digits(params, d, 8, 64, 2.0**-8)
    calls = (
        ("solution_error_bound", lambda: bounds.solution_error_bound(params, d, 8, 64, 2.0**-8, 1.0)),
        ("mc_lp_error_bound", lambda: bounds.mc_lp_error_bound(params, d, 8, 64, 1.0)),
    )
    for (name, call), exact in zip(calls, want):
        with pytest.raises(OverflowError, match="^%s exceeds float range: log10 = " % name) as info:
            call()
        got = float(str(info.value).rsplit("= ", 1)[1])
        assert abs(got - float(mpmath.log10(exact))) <= 1e-6


_BRACKET = (24.0 + 6.0 * 3 + 14.0**2) ** 2  # (24 + 6L + (4 + P)^2)^2 at drift depth L = 3, P = 10 parameters
_K8 = bounds.RegularityParams(T=1, kappa=8)


@pytest.mark.parametrize(
    "name, args, log10",
    [
        # float products give inf at these two
        ("solution_param_bound", (_K8, 100, 10**6, 10**6, 1e-9),
         57 * math.log10(2) + 8 * math.log10(8) + 12 + 6 * 38 + 2 * math.log10(math.log2(1e9) + 1) + 2 * 80),
        ("mc_sum_param_bound", (10**150, 10**30, 1000, 1.0, 3, 10, 5),
         math.log10(9) + 300 + 180 + 48 + 2 * math.log10(6 + 1 + _BRACKET)),
        # float powers raise a bare OverflowError at these three
        ("solution_param_bound", (_K8, 10, 10**17, 10**17, 1e-300),
         57 * math.log10(2) + 8 * math.log10(8) + 34 + 17 * 38 + 2 * math.log10(math.log2(1e300) + 1) + 80),
        ("euler_net_param_bound", (10**60, 1000, 1.0, 3, 10),
         math.log10(4.5) + 360 + 48 + 2 * math.log10(4 + 1 + _BRACKET)),
        ("mc_sum_param_bound", (10**6, 10**60, 1000, 1.0, 3, 10, 5),
         math.log10(9) + 12 + 360 + 48 + 2 * math.log10(6 + 1 + _BRACKET)),
    ],
)
def test_size_bounds_beyond_float_range_raise_with_their_log10(name, args, log10):
    with pytest.raises(OverflowError, match="^%s exceeds float range: log10 = " % name) as info:
        getattr(bounds, name)(*args)
    assert abs(float(str(info.value).rsplit("= ", 1)[1]) - log10) <= 1e-6


def test_size_bounds_below_float_range_are_their_float_formulas():
    # near the top of the float range, each bound is still its float expression, bit for bit
    assert bounds.euler_net_param_bound(10**40, 10, 1.0, 3, 10) == 4.5 * 1e40**6 * 10.0**16 * (4 + 1 + _BRACKET) ** 2
    assert bounds.mc_sum_param_bound(10**100, 10**10, 10, 1.0, 3, 10, 5) == (
        2.0 * 10**200 * 5 + 9.0 * 10**200 * 1e10**6 * 10.0**16 * (6 + 1 + _BRACKET) ** 2
    )
    params = bounds.RegularityParams(T=1.0, kappa=2.0)
    # M^2 is squared as an integer and rounded once; float(M) ** 2 would round M first
    M = 2**53 + 1
    assert bounds.solution_param_bound(params, 10, 10**10, M, 0.5) == (
        2.0**57 * 2.0**8 * M**2 * 1e10**14.0 * 2.0**2 * 10.0**32.0
    )


@pytest.mark.parametrize(
    "kappa, eta, d, N, M, delta",
    [
        (6.0, 1.0, 10, 8, 64, 2.0**-8),
        (1.0, 1.0, 1, 8, 64, 2.0**-8),
        (1.0, 3.0, 1, 8, 64, 2.0**-8),  # the heat reference build
        (1.0, 3.0, 1, 2, 2, 2.0**-4),  # criterion 9's OU build
        (2.5, 1.0, 3, 5, 7, 0.3),
        (1.0, 1.0, 2, 10**40, 10**40, 1.0),
    ],
)
def test_error_bounds_are_the_nearest_float_to_the_displays(kappa, eta, d, N, M, delta):
    params = bounds.RegularityParams(T=1.0, kappa=kappa, eta=eta)
    sol, mc = _bounds_at_100_digits(params, d, N, M, delta)
    assert bounds.solution_error_bound(params, d, N, M, delta, 1.0) == float(sol)
    assert bounds.mc_lp_error_bound(params, d, N, M, 1.0) == float(mc)


def test_error_bounds_at_kappa_6_d_10_stay_finite():
    # the values that float arithmetic gave for these displays
    params = bounds.RegularityParams(T=1.0, kappa=6.0)
    assert bounds.solution_error_bound(params, 10, 8, 64, 2.0**-8, 1.0) == pytest.approx(5.715715264208706e234, rel=1e-12)
    assert bounds.mc_lp_error_bound(params, 10, 8, 64, 1.0) == pytest.approx(1.251827645263219e224, rel=1e-12)


def test_plan_budget_minimums_and_scaling():
    plan = bounds.plan_budget(P1, 1, 1.0)
    budget = bounds.plan_budget(bounds.RegularityParams(T=1.0, kappa=0.5), 1, 1.0).budget()
    assert budget.N >= 1 and budget.M >= 1 and 0 < budget.delta <= 1
    half = bounds.plan_budget(P1, 1, 0.5)
    assert half.log10_N - plan.log10_N == pytest.approx(math.log10(4.0), abs=1e-9)


def test_plan_budget_delta_below_float_range_raises():
    plan = bounds.plan_budget(bounds.RegularityParams(T=1.0, kappa=1.0, eta=10.0), 50_000, 1.0)
    assert plan.log10_delta == pytest.approx(-321.29, abs=0.01)
    with pytest.raises(OverflowError, match="astronomically large"):
        plan.budget()


def test_plan_budget_fixture_d10():
    # independent evaluation of the displays in plain float arithmetic
    k = eta = 1.0
    c1_def = (
        (2 * 2.0 * 1.0 * 1.0 * 1.0) ** 5
        * (1 + math.sqrt(2.0)) ** 5
        * 1.0
        * math.exp(5.0)
        * 2.0**6
        * 3.0
    )
    c_mc = bounds.mc_lp_constants(P1).C_final
    c1 = max(c1_def, c_mc)
    exp_n = 2 * k * (k + 4) + 2 * max(eta, k * (2 * k + 1)) + 2 * eta
    want = 2 * math.log10(3 * c1 * eta) + 2 * math.log10(10.0) + exp_n * math.log10(10.0)
    plan = bounds.plan_budget(P1, 10, 0.1)
    assert plan.log10_N == pytest.approx(want, rel=1e-9)
    assert plan.cost_exponent == pytest.approx(
        18 + 12 + 4 * 1 + 4 * 1 + (2 * 5 + 2 * 3 + 2) * 10, rel=1e-12
    )


def test_plan_budget_overflow_guard():
    plan = bounds.plan_budget(P1, 10, 0.1)
    assert not plan.representable
    with pytest.raises(OverflowError):
        plan.budget()


# ---------------------------------------------------------------------------
# specialization adapters


def test_lebesgue_eta_values():
    q, eta, scale = bounds.lebesgue_eta(1.0, 1.0, 2.0, -1.0, 1.0)
    assert q == 2.0
    assert scale == 1.0  # T <= 1 and p >= 2
    assert eta == pytest.approx(6.0 + 1.0, rel=1e-15)  # max{6k, 2k+2, 3} = 6 at k = 1
    for kappa in (0.3, 1.0, 2.5):
        assert bounds.lebesgue_eta(2.0, kappa, 4.0, -2.0, 3.0).eta >= 1.0


def test_kappa_remaps():
    assert bounds.cor_kappa_remap(1.0) == 3.0
    assert bounds.cor_kappa_remap(0.3) == 1.3
    assert bounds.laplace_kappa_remap(1.0) == 4.0
    assert bounds.laplace_kappa_remap(3.0) == 9.0


# ---------------------------------------------------------------------------
# gronwall moment bounds


def test_gronwall_moment_bound_limit_factor():
    for q in (1.5, 2.0, 4.0):
        v = bounds.gronwall_moment_bound(2.0, q, 0.0, 0.0, 1.0, 0.0, 1.0)
        assert v == pytest.approx(2.0 * max(2.0 ** (1.0 / q - 1.0), 1.0), rel=1e-15)


def test_gronwall_moment_bound_rejects_degenerate():
    with pytest.raises(ValueError):
        bounds.gronwall_moment_bound(0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bounds.gronwall_moment_bound(0.25, 2.0, 0.0, 0.0, 1.0, 0.0, 1.0)


def test_gronwall_product_bound_value():
    alpha, p = 1.0, 2.0
    Q = max(4 * p * alpha, 6 * p)
    v = bounds.gronwall_moment_product_bound(alpha, p, 0.5, 0.1, 1.2, 0.3, 4.0)
    want = 2.0**2 * math.exp(5 * 0.5) * (1.2 + 0.1 + Q / (Q - 1) * 0.3) ** 5 * 2.0
    assert v == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    with pytest.raises(ValueError):
        bounds.RegularityParams(T=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        bounds.RegularityParams(T=1.0, kappa=1.0, eta=0.5)
    with pytest.raises(ValueError):
        bounds.RegularityParams(T=1.0, kappa=1.0, p=1.0)
    with pytest.raises(ValueError):
        bounds.Budget(N=0, M=1, delta=0.5)
    with pytest.raises(ValueError):
        bounds.Budget(N=1, M=1, delta=1.5)


def test_evaluators_nonnegative_and_monotone_matrix():
    # the blanket invariant: nonnegative everywhere, monotone in the
    # explicitly monotone arguments (delta, 1/eps, h, 1/M, 1/N)
    assert bounds.product_size_budget(0.5, 3.0) > bounds.product_size_budget(1.0, 3.0) > 0
    assert bounds.euler_emulation_error_bound(0.2, 2, 3.0, 1.0, 1.5) > bounds.euler_emulation_error_bound(
        0.1, 2, 3.0, 1.0, 1.5
    ) > 0
    assert bounds.mc_sum_error_bound(0.2, 1, 0.0, 1.0, 1, [1.0], [1.0]) > bounds.mc_sum_error_bound(
        0.1, 1, 0.0, 1.0, 1, [1.0], [1.0]
    ) > 0
    assert bounds.mc_lp_error_bound(P1, 1, 16, 16, 1.0) > bounds.mc_lp_error_bound(P1, 1, 64, 16, 1.0) > 0
    assert bounds.mc_lp_error_bound(P1, 1, 16, 16, 1.0) > bounds.mc_lp_error_bound(P1, 1, 16, 64, 1.0)
    assert bounds.solution_param_bound(P1, 1, 2, 2, 0.25) > bounds.solution_param_bound(P1, 1, 2, 2, 0.5) > 0
    assert bounds.interp_error_bound(2.0, 0.5, 1.0) > bounds.interp_error_bound(2.0, 0.25, 1.0) >= 0
    assert bounds.gronwall_moment_bound(2.0, 2.0, 0.0, 0.0, 1.0, 0.5, 1.0) > bounds.gronwall_moment_bound(
        2.0, 2.0, 0.0, 0.0, 1.0, 0.1, 1.0
    ) > 0
    assert bounds.gaussian_moment_bound(4.0, 1.0) >= 0
    assert bounds.apriori_sde_bound(0.0, 0.0, 0.0, 1.0, 0.0) >= 0
