"""Additive-noise SDE simulation and Monte Carlo oracles.

Implements the uniform-grid Euler scheme with piecewise-linear time
interpolation, Brownian increment sampling on counter-based substreams,
a Feynman-Kac Monte Carlo evaluator for the associated Kolmogorov PDE,
and sampled L^p distances over a uniform space-time box.

Randomness is reproducible and order independent: path ``m`` of a grid
draws from a Philox4x64-10 stream keyed by (seed mod 2^64, purpose << 48 | m),
and step ``n`` consumes the fixed words [n*k, (n+1)*k) of that stream, so
the same (seed, m, n) always yields the same increment no matter how paths
are scheduled or chunked.  Normals come from 53-bit uniforms through the
inverse normal CDF, which keeps the consumption per step constant.

Counter layout (numpy's ``Philox``): the 256-bit counter starts at 1 and
word ``w`` of a stream is lane ``w % 4`` of the block at counter
``w // 4 + 1``; the uniform is ``((word >> 11) + 0.5) 2^-53``, which is
``Generator.integers(0, 2**53)`` exactly (no rejection).  Short streams
run the 10-round bijection for all paths at once in uint64 numpy code;
streams of at least 512 words use numpy's C generator per path.  Both
give the same bits, and the tests compare them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .nets import Network, realize

_U53 = float(2.0 ** -53)

# purpose tags for substream derivation
_TAG_INCREMENTS = 1
_TAG_MEASURE = 2
_TAG_POINT_PATHS = 7  # per-sample-point paths of the MC Euler functional study

# Philox4x64-10 constants (Salmon et al., "Parallel random numbers: as easy
# as 1, 2, 3", SC'11): round multipliers and Weyl key increments.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_MASK64 = 2**64 - 1

# Philox blocks per vectorized chunk: keeps the uint64 temporaries in cache.
_CHUNK_BLOCKS = 1 << 14
# From this many words per stream on, numpy's per-stream C generator is faster.
_ROW_STREAM_WORDS = 512


def _stream(seed: int, tag: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & _MASK64), np.uint64((tag << 48) | index)])
    return np.random.Generator(np.random.Philox(key=key))


def _u53_normals(bits) -> np.ndarray:
    """Normals from integers in [0, 2^53) through the midpoint uniform."""
    return ndtri((bits.astype(np.float64) + 0.5) * _U53)


def _normals(gen: np.random.Generator, shape) -> np.ndarray:
    return _u53_normals(gen.integers(0, 2**53, size=shape))


def _mulhilo(a: np.uint64, b: np.ndarray):
    """High and low 64-bit halves of the 128-bit products a * b, via 32-bit limbs."""
    a_lo, a_hi = a & _LO32, a >> np.uint64(32)
    b_lo, b_hi = b & _LO32, b >> 32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (ll >> 32) + (lh & _LO32) + (hl & _LO32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), a * b


def _philox_words(seed: int, key1: np.ndarray, blocks: int) -> np.ndarray:
    """Words of blocks 1..``blocks`` of the streams keyed (seed, key1[i]): shape (rows, 4 * blocks)."""
    c0 = np.arange(1, blocks + 1, dtype=np.uint64) + np.zeros_like(key1)
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = seed & _MASK64, key1
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        # one round, as numpy's Philox: two 64x64->128 products, then the lane shuffle
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(key1), 4 * blocks)


def _philox_normals(seed: int, tag: int, index, n: int) -> np.ndarray:
    """First n normals of the streams keyed (seed, tag << 48 | index[i]), shape (len(index), n).

    Row i equals ``_normals(_stream(seed, tag, index[i]), n)`` bitwise.
    """
    index = np.asarray(index, dtype=np.uint64).reshape(-1)
    out = np.empty((len(index), n))
    if n >= _ROW_STREAM_WORDS:
        for i, m in enumerate(index.tolist()):
            out[i] = _normals(_stream(seed, tag, m), n)
        return out
    blocks = -(-n // 4)
    rows = max(1, _CHUNK_BLOCKS // blocks)
    key1 = (np.uint64(tag << 48) | index)[:, None]
    for lo in range(0, len(index), rows):
        words = _philox_words(seed, key1[lo : lo + rows], blocks)[:, :n]
        out[lo : lo + rows] = _u53_normals(words >> 11)
    return out


def sqrtm_psd(a) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Eigenvalues below 1e-12 * trace are clamped to zero (PSD inputs may
    carry rounding noise); clearly negative spectra raise.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix must be symmetric")
    lam, vec = np.linalg.eigh(a)
    tol = 1e-12 * max(np.trace(a), 0.0)
    if lam.min() < -1e-8 * max(1.0, np.trace(a)):
        raise ValueError("matrix is not positive semidefinite (min eig %g)" % lam.min())
    lam = np.where(lam < tol, 0.0, lam)
    return (vec * np.sqrt(lam)) @ vec.T


@dataclass(frozen=True)
class UniformSpaceTimeMeasure:
    """Uniform measure on [0, T] x [alpha, beta]^d, space box normalized.

    ``mass`` follows the Lebesgue normalization used by the error
    functionals (time is not normalized), so the total mass is T.
    Sampling draws from the normalized probability version.
    """

    T: float
    alpha: float
    beta: float
    d: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if self.beta <= self.alpha:
            raise ValueError("need beta > alpha")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def mass(self) -> float:
        return float(self.T)

    def sample(self, n: int, seed: int):
        """Draw n points (t, x); deterministic per seed."""
        gen = _stream(seed, _TAG_MEASURE, 0)
        u = gen.random((n, self.d + 1))
        t = u[:, 0] * self.T
        x = self.alpha + u[:, 1:] * (self.beta - self.alpha)
        return t, x


@dataclass(frozen=True)
class BrownianGrid:
    """Per-path, per-step increments B(W_{(n+1)T/N} - W_{nT/N}) on a uniform grid."""

    seed: int
    N: int
    M: int
    d: int
    T: float
    increments: np.ndarray  # (M, N, d)
    diffusion: np.ndarray  # the matrix B, (d, k)

    @property
    def step(self) -> float:
        return self.T / self.N

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.N + 1) * (self.T / self.N)

    def path(self, m: int) -> np.ndarray:
        return self.increments[m]


def sample_brownian(seed: int, N: int, M: int, d: int, T: float, B=None) -> BrownianGrid:
    """Sample Brownian increments for M paths of an N-step grid on [0, T].

    ``B`` is the d x k diffusion matrix (identity by default); the stored
    increments are B(W_{tau_{n+1}} - W_{tau_n}) with W a standard k-dim
    Brownian motion, i.e. centered Gaussians with covariance (T/N) B B^*.
    """
    if min(N, M, d) < 1 or T <= 0:
        raise ValueError("need N, M, d >= 1 and T > 0")
    if B is None:
        B = np.eye(d)
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if B.shape[0] != d:
        raise ValueError("diffusion matrix must have %d rows" % d)
    k = B.shape[1]
    scale = np.sqrt(T / N)
    increments = np.empty((M, N, d))
    rows = max(1, 4 * _CHUNK_BLOCKS // (N * k))  # paths per chunk: small normals temporaries
    for lo in range(0, M, rows):
        hi = min(lo + rows, M)
        z = _philox_normals(seed, _TAG_INCREMENTS, np.arange(lo, hi), N * k)
        increments[lo:hi] = scale * (z.reshape(hi - lo, N, k) @ B.T)
    increments.flags.writeable = False
    return BrownianGrid(seed=seed, N=N, M=M, d=d, T=float(T), increments=increments, diffusion=B)


def _drift_fn(drift):
    if drift is None:
        return lambda y: np.zeros_like(y)
    if isinstance(drift, Network):
        return lambda y: realize(drift, y)
    return drift


@dataclass(frozen=True)
class SchemeState:
    """Euler grid values for all paths, plus the cached drift evaluations."""

    grid_values: np.ndarray  # (M, N+1, d)
    drift_values: np.ndarray  # (M, N, d)
    noise: BrownianGrid
    x0: np.ndarray

    @property
    def N(self) -> int:
        return self.noise.N

    @property
    def T(self) -> float:
        return self.noise.T

    def path(self, m: int) -> np.ndarray:
        return self.grid_values[m]


def euler_grid(x, drift, noise: BrownianGrid) -> SchemeState:
    """Run the Euler recursion Y_{n+1} = Y_n + (T/N) mu(Y_n) + dW_n for all paths.

    ``drift`` may be a callable on (batch, d) arrays, a Network, or None
    for zero drift.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (noise.d,):
        raise ValueError("start value must have shape (%d,)" % noise.d)
    mu = _drift_fn(drift)
    h = noise.step
    M, N, d = noise.increments.shape
    y = np.empty((M, N + 1, d))
    dv = np.empty((M, N, d))
    y[:, 0] = x
    for n in range(N):
        dv[:, n] = np.asarray(mu(y[:, n]), dtype=np.float64).reshape(M, d)
        y[:, n + 1] = y[:, n] + h * dv[:, n] + noise.increments[:, n]
    y.flags.writeable = False
    dv.flags.writeable = False
    return SchemeState(grid_values=y, drift_values=dv, noise=noise, x0=x)


def interpolate(state: SchemeState, t: float) -> np.ndarray:
    """Piecewise-linear value Y_t = (1 - rho) Y_{tau_n} + rho Y_{tau_{n+1}}.

    Returns shape (M, d).  At grid times the stored grid value is
    returned bitwise.
    """
    T, N = state.T, state.N
    if not (0.0 <= t <= T):
        raise ValueError("time %g outside [0, %g]" % (t, T))
    n = min(int(np.floor(t * N / T)), N - 1)
    grid = state.noise.grid
    # exact grid hits bypass the convex combination
    if t == grid[n]:
        return state.grid_values[:, n]
    if t == grid[n + 1]:
        return state.grid_values[:, n + 1]
    rho = t * N / T - n
    return (1.0 - rho) * state.grid_values[:, n] + rho * state.grid_values[:, n + 1]


def feynman_kac(f0, drift, A, t: float, x, paths: int, steps: int, seed: int):
    """Monte Carlo estimate of u(t, x) = E[f0(X^x_t)] for the Kolmogorov PDE.

    X solves dX = mu(X) ds + sqrt(2A) dW.  Returns (estimate, std_error);
    assertions against the estimate should allow a few std errors.  With
    A = 0 and zero drift the estimate is f0(x) exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        v = float(np.asarray(f0(x[None, :])).ravel()[0])
        return v, 0.0
    B = sqrtm_psd(2.0 * np.asarray(A, dtype=np.float64)) if np.ndim(A) else sqrtm_psd(
        2.0 * A * np.eye(d)
    )
    noise = sample_brownian(seed, steps, paths, d, t, B)
    state = euler_grid(x, drift, noise)
    vals = np.asarray(f0(state.grid_values[:, -1])).ravel()
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(paths)) if paths > 1 else float("inf")
    return est, se


def lp_error(fn_a, fn_b, measure: UniformSpaceTimeMeasure, p: float, samples: int, seed: int) -> float:
    """Sampled L^p distance of two space-time functions under ``measure``.

    Functions are called as f(t, x) with t of shape (K,) and x of shape
    (K, d) and must return shape (K,).  The estimate uses the normalized
    (probability) version of the measure; multiply by mass**(1/p) for the
    unnormalized functional.  Deterministic per seed.
    """
    t, x = measure.sample(samples, seed)
    return lp_distance(fn_a(t, x), fn_b(t, x), p)


def lp_distance(va, vb, p: float) -> float:
    """Empirical L^p distance (mean |va - vb|^p)^(1/p) of two value arrays at the same points."""
    if p <= 0:
        raise ValueError("order p must be positive")
    va = np.asarray(va, dtype=np.float64).ravel()
    vb = np.asarray(vb, dtype=np.float64).ravel()
    return float(np.mean(np.abs(va - vb) ** p) ** (1.0 / p))


def write_convergence_csv(path, rows, header=("N", "M", "estimate", "std_error", "bound")):
    """Write a convergence table; rows are iterables matching the header."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)
