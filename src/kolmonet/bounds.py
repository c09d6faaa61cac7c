"""Closed-form constants, error bounds, size bounds, and budget planning.

Every evaluator here is a pure function of its inputs and mirrors one
closed-form display from the error analysis; the simulation and builder
modules are tested against these as the dominating side of each check.
Values can be astronomically large for realistic inputs, so the planner
works in log10 space and only materializes integer budgets when they are
representable.  The constants of the error bounds have one evaluation, in
mpmath; each float bound rounds once, at the end, and raises OverflowError
with its log10 when the value is beyond the float range.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class RegularityParams:
    """Coefficient regularity and perturbation constants.

    kappa/eta/p/T parameterize the growth and measure assumptions of the
    error analysis; the remaining fields feed the weak-error bound
    (perturbation sizes eps*, growth exponents varsigma*, Lipschitz data
    L0/L1/ell) and the scheme growth envelope (C, c).
    """

    T: float
    kappa: float
    eta: float = 1.0
    p: float = 2.0
    alpha: float = 0.0
    c: float = 0.0
    C: float = 0.0
    q: float = 3.0
    varsigma0: float = 1.0
    varsigma1: float = 0.0
    varsigma2: float = 0.0
    ell: float = 0.0
    L0: float = 1.0
    L1: float = 0.0
    eps0: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0

    def __post_init__(self):
        for field in fields(self):  # NaN would pass every comparison below
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError("%s must be finite, got %r" % (field.name, getattr(self, field.name)))
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if not self.q > 2:
            raise ValueError("size-budget exponent q must exceed 2")
        for name in ("alpha", "c", "C", "ell", "L0", "L1", "eps0", "eps1", "eps2"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be nonnegative" % name)


@dataclass(frozen=True)
class Budget:
    """One constructed solution network: Euler steps, MC samples, product accuracy."""

    N: int
    M: int
    delta: float

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise ValueError("N and M must be >= 1")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")


def gaussian_moment_bound(p: float, cov_trace: float) -> float:
    """sqrt(max(1, p-1) * Trace(Cov))  (L^p moment of a centered Gaussian)."""
    if cov_trace < 0:
        raise ValueError("covariance trace must be nonnegative")
    return math.sqrt(max(1.0, p - 1.0) * cov_trace)


def apriori_sde_bound(x_norm: float, C: float, c: float, T: float, beta_sup: float) -> float:
    """(||xi|| + C T + sup_t E||beta_t||_p) * e^{cT}."""
    return (x_norm + C * T + beta_sup) * math.exp(c * T)


def noise_moment_factor(r: float, trace_bstar_b: float) -> float:
    """max(1, sqrt(max(1, r-1) * Trace(B* B)))."""
    return max(1.0, math.sqrt(max(1.0, r - 1.0) * trace_bstar_b))


def interp_error_bound(p: float, h: float, trace_bbstar: float) -> float:
    """Half the Gaussian moment of one step: (1/2) sqrt(max(1,p-1) h Trace(B B*))."""
    if h < 0:
        raise ValueError("step must be nonnegative")
    return 0.5 * math.sqrt(max(1.0, p - 1.0) * h * trace_bbstar)


def weak_error_bound(
    params: RegularityParams, xi_norm: float, f1_at_0_norm: float, h: float, trace_bstar_b: float
) -> float:
    """Weak error of the perturbed linearly-interpolated Euler scheme.

    Bounds |E f0(X_t) - E g0(Y_t)| uniformly over t in [0, T] for a scheme
    with perturbed initial point (eps2), initial-value function (eps0),
    and drift (eps1), run at step size h.  q = p / (p - 1) is the
    conjugate of params.p.
    """
    p = params.p
    q = p / (p - 1.0)
    if not (0.0 <= h <= params.T):
        raise ValueError("step h must lie in [0, T]")
    s0, s1, s2 = params.varsigma0, params.varsigma1, params.varsigma2
    ell, L0, L1 = params.ell, params.L0, params.L1
    c, C, T = params.c, params.C, params.T
    sources = (
        params.eps2 * (1.0 + xi_norm**s2)
        + params.eps0
        + params.eps1
        + h
        + math.sqrt(h)
    )
    rate = max(s0, 1.0) * L1 + 1.0 - 1.0 / p + ell * max(L1, c) + max(s1, 1.0) * c
    varpi = noise_moment_factor(max(s0, ell * q, p * s1, p), trace_bstar_b)
    growth = (
        xi_norm
        + params.eps2 * (1.0 + xi_norm**s2)
        + 2.0 * max(f1_at_0_norm, C, 1.0)
    )
    return (
        sources
        * math.exp(rate * T)
        * varpi ** max(s0, ell + max(1.0, s1))
        * max(T, 1.0) ** max(s0, ell + max(s1, 1.0) + 1.0 / p)
        * max(L0, 1.0)
        * max(L1, 1.0)
        * 2.0 ** max(ell - 1.0, 0.0)
        * (max(C, 1.0) + 5.0 * max(C, c, 1.0) * growth ** max(s0, ell + max(s1, 1.0)))
    )


class McLpConstants(NamedTuple):
    C: float
    C1: float
    C2: float
    C_final: float


# c1 is the solution error constant: the max of its own display and C_final
_ErrorConstants = namedtuple("_ErrorConstants", "C C1 C2 C_final c1")
_DPS = 60  # decimal digits of every constant and error-bound evaluation


def _error_constants(params: RegularityParams) -> _ErrorConstants:
    """C, C1, C2, C_final of the Monte Carlo Euler L^p estimate and the
    solution error constant c1, as mpmath numbers.

    The one evaluation of these displays; call it inside
    ``mpmath.workdps(_DPS)``.
    """
    import mpmath

    k, eta, p, T = map(mpmath.mpf, (params.kappa, params.eta, params.p, params.T))
    one = mpmath.mpf(1)
    iota = max(k, one)
    root = max(one, mpmath.sqrt(2 * max(one, 2 * k - 1) * k))
    C = (
        mpmath.e ** (k * k * T)
        * mpmath.mpf(2) ** max(mpmath.mpf(0), k - 1)
        * (eta + (k * T + max(one, mpmath.sqrt(2 * (p * iota - 1) * k)) * mpmath.sqrt(T)) ** k)
    )
    C1 = (
        iota**2
        * mpmath.mpf(2) ** iota
        * (k + 1)
        * root ** (2 * iota)
        * mpmath.e ** ((3 * iota**2 + mpmath.mpf(1) / 2) * T)
        * max(T, one) ** (k + iota + mpmath.mpf(3) / 2)
        * max(2 * k * (k + 1), one)
        * (1 + 5 * eta * mpmath.mpf(2) ** (k + iota - 1) + 5 * (4 * iota) ** (k + iota) * mpmath.mpf(2) ** (k + iota - 1))
    )
    C2 = (
        mpmath.mpf(1) / mpmath.sqrt(2)
        * k ** mpmath.mpf(1.5)
        * mpmath.e ** (k * k * T)
        * mpmath.mpf(2) ** iota
        * max(T, one) ** (k + mpmath.mpf(1) / 2)
        * (eta + 1 + (k + root) ** k)
    )
    C_final = max(C1 + C2, 8 * k * (1 + C) * mpmath.sqrt(p - 1))
    c1 = (
        (2 * p * max(eta, k) * max(T, one) * iota) ** (2 * k + 3)
        * (1 + mpmath.sqrt(2 * k)) ** (2 * k + 3)
        * k
        * mpmath.e ** ((2 * k + 3) * k * T)
        * mpmath.mpf(2) ** (2 * k + 4)
        * mpmath.mpf(3) ** k
    )
    return _ErrorConstants(C, C1, C2, C_final, max(c1, C_final))


def _to_float(name: str, value) -> float:
    """Round an mpmath value to the nearest float, or raise OverflowError with its log10."""
    import mpmath

    out = float(value)
    if math.isinf(out):
        raise OverflowError("%s exceeds float range: log10 = %.6f" % (name, mpmath.log10(value)))
    return out


def mc_lp_constants(params: RegularityParams) -> McLpConstants:
    """The four constants of the Monte Carlo Euler L^p error estimate."""
    import mpmath

    with mpmath.workdps(_DPS):
        return McLpConstants(*(_to_float("mc_lp_constants", v) for v in _error_constants(params)[:4]))


def mc_lp_error_bound(params: RegularityParams, d: int, N: int, M: int, mass: float) -> float:
    """L^p(nu (x) P) error bound for the Monte Carlo Euler functional."""
    import mpmath

    with mpmath.workdps(_DPS):
        mass_factor = mpmath.mpf(max(1.0, mass)) ** (1 / mpmath.mpf(params.p))
        value = _error_constants(params).C_final * _mc_rate(params, d, N, M) * mass_factor
    return _to_float("mc_lp_error_bound", value)


def _mc_rate(params: RegularityParams, d: int, N: int, M: int):
    """The Euler and Monte Carlo terms d^a / sqrt(N) + d^b / sqrt(M) shared by both error bounds."""
    import mpmath

    k, eta, d = mpmath.mpf(params.kappa), mpmath.mpf(params.eta), mpmath.mpf(d)
    return (
        d ** (k * (k + 4) + max(eta, k * (2 * k + 1))) / mpmath.sqrt(N)
        + d ** (k + max(eta, k * k)) / mpmath.sqrt(M)
    )


def product_size_budget(eps: float, q: float) -> float:
    """Size budget [720 q / (q - 2)] (log2(1/eps) + q + 1) - 504 of the product blocks."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if q <= 2.0:
        raise ValueError("q must exceed 2")
    return (720.0 * q / (q - 2.0)) * (math.log2(1.0 / eps) + q + 1.0) - 504.0


def drift_growth_envelope(x_norm, C: float, c: float, tau_n, max_partial_sum):
    """Gronwall envelope g_n = (||x|| + C tau_n + max_m ||sum_{k<=m} y_k||) e^{c tau_n}, elementwise."""
    return (x_norm + C * tau_n + max_partial_sum) * np.exp(c * tau_n)


def euler_emulation_error_bound(eps: float, d: int, q: float, g_n: float, g_n1: float) -> float:
    """eps * (2 sqrt(d) + g_n^q + g_{n+1}^q)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return eps * (2.0 * math.sqrt(d) + g_n**q + g_n1**q)


def path_growth_factor(x_norm, C: float, c: float, T: float, max_noise_norm, r: float):
    """h_{m,r} = 1 + (||x|| + C T + max_n ||B W_n||)^r e^{r c T}, elementwise.

    The power is numpy's on scalars too, so a scalar call gives the bits
    of the array call (Python's float power rounds some values apart).
    An array result is computed in place, one array of the broadcast shape.
    """
    v = np.asarray(x_norm + C * T + max_noise_norm, dtype=np.float64)  # a fresh array
    v **= r
    v *= np.exp(r * c * T)
    v += 1.0
    return v if v.ndim else v[()]


def mc_sum_error_bound(eps: float, d: int, alpha: float, lip: float, M: int, h2, h3):
    """Deviation bound of the averaged scheme network from the direct MC average.

    (2 eps lip sqrt(d) / M) * sum_m (1 + 2 d^{alpha/2} 6^alpha h2[m]^alpha) h3[m],
    with h2/h3 the per-path growth factors at orders 2 and q.  The paths
    run along the last axis of h2 and h3 (sequences or arrays of shape
    (..., M)); the result holds one bound per leading index.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    h2 = np.asarray(h2, dtype=np.float64)
    h3 = np.asarray(h3, dtype=np.float64)
    if h2.shape[-1:] != (M,) or h3.shape[-1:] != (M,):
        raise ValueError("need one growth factor pair per path")
    terms = (1.0 + 2.0 * d ** (alpha / 2.0) * 6.0**alpha * h2**alpha) * h3
    return 2.0 * eps * lip * math.sqrt(d) / M * terms.sum(axis=-1)


def solution_error_bound(params: RegularityParams, d: int, N: int, M: int, delta: float, mass: float) -> float:
    """L^p(nu) error bound for the built space-time network at budget (N, M, delta)."""
    import mpmath

    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    with mpmath.workdps(_DPS):
        k, eta = mpmath.mpf(params.kappa), mpmath.mpf(params.eta)
        value = (
            _error_constants(params).c1
            * mpmath.mpf(max(1.0, mass)) ** (1 / mpmath.mpf(params.p))
            * (
                _mc_rate(params, d, N, M)
                + mpmath.mpf(delta) * mpmath.mpf(d) ** ((2 * k + 3) * max(eta, k) + k * k + (7 * k + 1) / 2)
            )
        )
    return _to_float("solution_error_bound", value)


def _float_bound(name: str, value) -> float:
    """``value(float)``: a size bound, a product of factors >= 1, evaluated in floats.

    Where floats overflow (a power raises, a product gives inf), the bound
    is evaluated again in mpmath and raises OverflowError with its log10.
    """
    try:
        out = value(float)
        if not math.isinf(out):
            return out
    except OverflowError:
        pass
    import mpmath

    with mpmath.workdps(_DPS):
        return _to_float(name, value(mpmath.mpf))


def solution_param_bound(params: RegularityParams, d: int, N: int, M: int, delta: float) -> float:
    """Parameter bound 2^57 max(k,1)^8 max(T^{-k/2},1)^8 M^2 N^{6+4k} (log2(1/delta)+1)^2 d^{16+8k}."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    k, T = params.kappa, params.T
    return _float_bound("solution_param_bound", lambda num: (
        2.0**57 * max(k, 1.0) ** 8 * max(num(T) ** (-k / 2.0), 1.0) ** 8 * num(M**2) * num(N) ** (6.0 + 4.0 * k)
        * (math.log2(1.0 / delta) + 1.0) ** 2 * num(d) ** (16.0 + 8.0 * k)
    ))


def _path_bracket(num, depth_term: float, frak_d: float, drift_depth: int, drift_params: int):
    """[depth_term + D + (24 + 6L + (4 + P)^2)^2]^2, shared by the two path-size bounds."""
    return (depth_term + frak_d + (24.0 + 6.0 * drift_depth + (4.0 + num(drift_params)) ** 2) ** 2) ** 2


def euler_net_param_bound(N: int, d: int, frak_d: float, drift_depth: int, drift_params: int) -> float:
    """(9/2) N^6 d^16 [2(L-1) + D + (24 + 6L + (4 + P)^2)^2]^2 for one emulated path."""
    return _float_bound("euler_net_param_bound", lambda num: (
        4.5 * num(N) ** 6 * num(d) ** 16
        * _path_bracket(num, 2.0 * (drift_depth - 1), frak_d, drift_depth, drift_params)
    ))


def mc_sum_param_bound(
    M: int, N: int, d: int, frak_d: float, drift_depth: int, drift_params: int, init_params: int
) -> float:
    """2 M^2 P(init) + 9 M^2 N^6 d^16 [2L + D + (24 + 6L + (4 + P)^2)^2]^2."""
    return _float_bound("mc_sum_param_bound", lambda num: (
        2.0 * num(M**2) * init_params
        + 9.0 * num(M**2) * num(N) ** 6 * num(d) ** 16
        * _path_bracket(num, 2.0 * drift_depth, frak_d, drift_depth, drift_params)
    ))


def cor_kappa_remap(kappa: float) -> float:
    """Exponent remap for the general-measure specialization: max(3k, k + 1)."""
    return max(3.0 * kappa, kappa + 1.0)


def laplace_kappa_remap(kappa: float) -> float:
    """Exponent remap for the Laplace specialization: max(3k, 2(k + 1))."""
    return max(3.0 * kappa, 2.0 * (kappa + 1.0))


class LebesgueAdapter(NamedTuple):
    q: float
    eta: float
    delta_scale: float  # target accuracy rescaling: delta(eps) = eps * delta_scale


def lebesgue_eta(T: float, kappa: float, p: float, alpha: float, beta: float) -> LebesgueAdapter:
    """Measure exponent and accuracy rescaling for the uniform-box specialization.

    q = max(p, 2); eta covers the moment integral of the normalized
    Lebesgue measure on [0,T] x [alpha, beta]^d for every d; the returned
    scale turns a target accuracy eps for L^p into the L^q accuracy
    delta(eps) = eps * max(T,1)^(1/q - 1/p) to request upstream.
    """
    if beta <= alpha:
        raise ValueError("need beta > alpha")
    q = max(p, 2.0)
    m = max(6.0 * kappa, 2.0 * kappa + 2.0, 3.0)
    eta = m + max(1.0, T) ** (1.0 / q) * max(
        1.0, abs(alpha) ** (2.0 * m), abs(beta) ** (2.0 * m)
    )
    return LebesgueAdapter(q, eta, max(T, 1.0) ** (1.0 / q - 1.0 / p))


def gronwall_moment_bound(
    r: float, q: float, c: float, C: float, cal_c: float, mart_qr_norm: float, mass: float
) -> float:
    """Integrated moment bound for the path growth factor h_r.

    2 e^{rc} max(2^{1/q-1}, 1) [calC + C + (qr/(qr-1)) |E|M_N|^{qr}|^{1/qr}]^r
    max(1, mass^{1/q}), valid for qr > 1.
    """
    if r <= 0:
        raise ValueError("order r must be positive")
    if q * r <= 1.0:
        raise ValueError("need q * r > 1")
    doob = q * r / (q * r - 1.0)
    return (
        2.0
        * math.exp(r * c)
        * max(2.0 ** (1.0 / q - 1.0), 1.0)
        * (cal_c + C + doob * mart_qr_norm) ** r
        * max(1.0, mass ** (1.0 / q))
    )


def gronwall_moment_product_bound(
    alpha: float, p: float, c: float, C: float, cal_c: float, mart_norm: float, mass: float
) -> float:
    """Integrated bound for the mixed factor h_2^alpha h_3 at order p.

    2^{alpha+1} e^{(2 alpha + 3) c} [calC + C + (Q/(Q-1)) mart]^{2 alpha + 3}
    max(1, mass^{1/p}) with Q = max(4 p alpha, 6 p).
    """
    Q = max(4.0 * p * alpha, 6.0 * p)
    return (
        2.0 ** (alpha + 1.0)
        * math.exp((2.0 * alpha + 3.0) * c)
        * (cal_c + C + Q / (Q - 1.0) * mart_norm) ** (2.0 * alpha + 3.0)
        * max(1.0, mass ** (1.0 / p))
    )


@dataclass(frozen=True)
class BudgetPlan:
    """Planner output in log10 space, with materialization when representable.

    The guaranteed-cost value is c_total * eps^-(18+8k) * d^cost_exponent,
    also reported as log10.
    """

    log10_N: float
    log10_M: float
    log10_delta: float
    cost_exponent: float
    log10_cost: float
    eps: float
    d: int

    @property
    def representable(self) -> bool:
        return max(self.log10_N, self.log10_M) < 18.0

    def budget(self) -> Budget:
        """Materialize integer N, M and the float delta; refuse budgets beyond any practical build size.

        log10 N < 18 keeps log10 delta above -150 (c1 >= 2^(6 kappa + 10) bounds kappa below 3.05).
        """
        if not self.representable:
            raise OverflowError(
                "planned budget is astronomically large "
                "(log10 N = %.3g, log10 M = %.3g); build with an explicit budget"
                % (self.log10_N, self.log10_M)
            )
        n = max(1, math.ceil(10.0**self.log10_N))
        m = max(1, math.ceil(10.0**self.log10_M))
        return Budget(N=n, M=m, delta=min(1.0, 10.0**self.log10_delta))


def plan_budget(params: RegularityParams, d: int, eps: float) -> BudgetPlan:
    """Budget (N, M, delta) guaranteeing L^p error <= eps per the cost analysis.

    Uses the error constant of ``solution_error_bound``.  All arithmetic
    is in log10, so the planner never overflows; materialize with
    ``.budget()`` (raises when the integers are not representable).
    """
    import mpmath

    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    k, eta = params.kappa, params.eta
    with mpmath.workdps(_DPS):
        c1 = _error_constants(params).c1
        base = 3 * c1 * eta
        log10_d = mpmath.log10(d)
        log10_eps_inv = -mpmath.log10(eps)
        exp_n = 2.0 * k * (k + 4.0) + 2.0 * max(eta, k * (2.0 * k + 1.0)) + 2.0 * eta
        exp_m = 2.0 * k + 2.0 * max(eta, k * k) + 2.0 * eta
        exp_delta = 2.0 * (k + 2.0) * max(eta, k) + k * k + (7.0 * k + 1.0) / 2.0
        log10_n = 2 * mpmath.log10(base) + 2 * log10_eps_inv + exp_n * log10_d
        log10_m = 2 * mpmath.log10(base) + 2 * log10_eps_inv + exp_m * log10_d
        log10_delta = min(
            mpmath.mpf(0), -mpmath.log10(base) - log10_eps_inv - exp_delta * log10_d
        )
        cost_exp = 18.0 + 12.0 * k + 4.0 * max(eta, k * k) + 4.0 * eta + exp_n * (6.0 + 4.0 * k)
        c2 = (
            mpmath.mpf(max(0.0, float(mpmath.log(base, 2))))
            + 1.0 / mpmath.ln(2)
            + (1.0 / mpmath.ln(2)) * exp_delta
        )
        frak_c = c1 * mpmath.mpf(2) ** (8.0 + 4.0 * k) * base ** (16.0 + 8.0 * k) * (c2 + 1) ** 2
        log10_cost = (
            mpmath.log10(frak_c) + (18.0 + 8.0 * k) * log10_eps_inv + cost_exp * log10_d
        )
        return BudgetPlan(
            log10_N=float(log10_n),
            log10_M=float(log10_m),
            log10_delta=float(log10_delta),
            cost_exponent=float(cost_exp),
            log10_cost=float(log10_cost),
            eps=eps,
            d=d,
        )

