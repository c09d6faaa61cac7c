"""Benchmark problems with exact solutions and exact-ReLU coefficient networks.

Each problem packages the drift and initial-value networks, the diffusion
matrix, regularity constants that are computed (not guessed) from the
coefficients, a sampling measure, and the closed-form solution used as
the oracle in verification runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from . import nets
from .bounds import RegularityParams
from .build import PdeProblem
from .sde import UniformSpaceTimeMeasure

_SQRT2PI = np.sqrt(2.0 * np.pi)
T = 1.0  # the horizon of every problem; heat and OU are measured on [0, T] x [-1, 1]^d


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT2PI


@dataclass(frozen=True)
class TestProblem:
    """A PDE problem together with its closed-form solution.

    ``init_accuracy`` is the sup-norm error of the initial-value network
    against the ideal initial condition on the measure's box; tolerances
    in verification runs must include it.
    """

    name: str
    problem: PdeProblem
    exact_solution: Callable
    measure: UniformSpaceTimeMeasure
    init_accuracy: float = 0.0


def _zero_drift_net(d):
    return nets.affine_net(np.zeros((d, d)), np.zeros(d))


def heat_relu_problem(d: int) -> TestProblem:
    """Heat equation with rectifier initial data: u_t = Lap u, u(0,x) = sum_i max(x_i, 0).

    Zero drift, A = I.  The initial condition is an exact two-layer
    rectifier network, and the solution has the Gaussian closed form
    u(t,x) = sum_i [x_i Phi(x_i / sqrt(2t)) + sqrt(2t) phi(x_i / sqrt(2t))].
    """
    init = nets.Network(
        (
            nets.Layer(np.eye(d), np.zeros(d)),
            nets.Layer(np.ones((1, d)), np.zeros(1)),
        )
    )
    params = RegularityParams(
        T=T, kappa=1.0, eta=3.0, p=2.0, alpha=0.0, c=0.0, C=0.0,
        varsigma0=1.0, varsigma1=0.0, varsigma2=0.0, ell=0.0,
        L0=float(np.sqrt(d)), L1=0.0,
    )
    problem = PdeProblem(
        drift_net=_zero_drift_net(d),
        init_net=init,
        A=np.eye(d),
        T=T,
        params=params,
    )

    def exact(t, x):
        t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
        x = np.asarray(x, dtype=np.float64)
        s = np.sqrt(2.0 * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(s > 0, x / np.where(s > 0, s, 1.0), 0.0)
        smooth = x * ndtr(z) + s * _phi(z)
        flat = np.maximum(x, 0.0)
        return np.where(s > 0, smooth, flat).sum(axis=1)

    return TestProblem(
        name="heat_relu",
        problem=problem,
        exact_solution=exact,
        measure=UniformSpaceTimeMeasure(T, -1.0, 1.0, d),
    )


def ou_linear_problem(d: int) -> TestProblem:
    """Ornstein-Uhlenbeck drift with a linear functional initial condition.

    drift(x) = -x (exact affine network routed through an identity block
    so it has a hidden layer), f0(x) = sum_i x_i, A = I / 2.  The linear
    functional kills the diffusion contribution: u(t, x) = e^{-t} sum_i x_i.
    """
    drift = nets.compose(nets.identity_net(d), nets.affine_net(-np.eye(d), np.zeros(d)))
    init = nets.affine_net(np.ones((1, d)), np.zeros(1))
    params = RegularityParams(
        T=T, kappa=1.0, eta=3.0, p=2.0, alpha=0.0, c=1.0, C=0.0,
        varsigma0=1.0, varsigma1=1.0, varsigma2=1.0, ell=0.0,
        L0=float(np.sqrt(d)), L1=1.0,
    )
    problem = PdeProblem(
        drift_net=drift,
        init_net=init,
        A=0.5 * np.eye(d),
        T=T,
        params=params,
    )

    def exact(t, x):
        t = np.asarray(t, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-t) * x.sum(axis=1)

    return TestProblem(
        name="ou_linear",
        problem=problem,
        exact_solution=exact,
        measure=UniformSpaceTimeMeasure(T, -1.0, 1.0, d),
    )


def quadratic_heat_problem(d: int, R: float = 8.0) -> TestProblem:
    """Heat equation with squared-norm initial data, approximated by product blocks.

    ||x||^2 is not exactly rectifier-representable, so f0 is a sum of d
    square networks on [-R, R], each accurate to 2^-12; the per-problem
    initial accuracy d 2^-12 is recorded on the TestProblem.
    u(t, x) = ||x||^2 + 2 d t.  The default range keeps the Gaussian mass
    seen by the Feynman-Kac representation inside [-R, R]^d up to
    negligible tails for the default box and horizon.
    """
    dup = nets.affine_net(np.array([[1.0], [1.0]]))
    squares = [
        nets.select_inputs(nets.compose(nets.product_net(2.0**-12, R), dup), [i], d)
        for i in range(d)
    ]
    init = nets.average_nets(squares, [1.0] * d)
    params = RegularityParams(
        T=T, kappa=2.0, eta=3.0, p=2.0, alpha=1.0, c=0.0, C=0.0,
        varsigma0=2.0, varsigma1=0.0, varsigma2=0.0, ell=1.0,
        L0=float(2.0 * R * np.sqrt(d) + 1.0), L1=0.0,
    )
    problem = PdeProblem(
        drift_net=_zero_drift_net(d),
        init_net=init,
        A=np.eye(d),
        T=T,
        params=params,
    )

    def exact(t, x):
        t = np.asarray(t, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        return (x**2).sum(axis=1) + 2.0 * d * t

    bound = min(R / 2.0, 1.0)
    return TestProblem(
        name="quadratic_heat",
        problem=problem,
        exact_solution=exact,
        measure=UniformSpaceTimeMeasure(T, -bound, bound, d),
        init_accuracy=float(d) * 2.0**-12,
    )


_REGISTRY = {
    "heat_relu": heat_relu_problem,
    "ou_linear": ou_linear_problem,
    "quadratic_heat": quadratic_heat_problem,
}


def problem_names():
    return sorted(_REGISTRY)


def get_problem(name: str, d: int) -> TestProblem:
    if name not in _REGISTRY:
        raise KeyError(
            "unknown problem %r (available: %s)" % (name, ", ".join(problem_names()))
        )
    if d < 1:
        raise ValueError("dimension d must be at least 1, got %d" % d)
    return _REGISTRY[name](d)
