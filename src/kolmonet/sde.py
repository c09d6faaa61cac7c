"""Additive-noise SDE simulation and Monte Carlo oracles.

Implements the uniform-grid Euler scheme with piecewise-linear time
interpolation, Brownian increment sampling on counter-based substreams,
the one Monte Carlo evaluator of the interpolated scheme (``mc_values``)
and the Feynman-Kac estimator built on it, and sampled L^p distances
over a uniform space-time box.

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

from dataclasses import dataclass, replace

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
# Grid values (points x paths x (steps + 1) x d) that ``mc_values`` holds per chunk.
_MC_CHUNK_ELEMENTS = 1 << 22


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
    """Per-path, per-step increments B(W_{(n+1)T/N} - W_{nT/N}) on a uniform grid.

    ``seed`` and ``diffusion`` are None on a grid assembled from given increments.
    """

    seed: int | None
    N: int
    M: int
    d: int
    T: float
    increments: np.ndarray  # (M, N, d)
    diffusion: np.ndarray | None  # the matrix B, (d, k)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.N + 1) * (self.T / self.N)

    def coarsen(self, factor: int) -> BrownianGrid:
        """The grid of every ``factor``-th node: each increment sums ``factor`` consecutive ones."""
        inc = self.increments.reshape(self.M, self.N // factor, factor, self.d).sum(axis=2)
        return replace(self, N=self.N // factor, increments=inc)


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


def _as_fn(fn):
    """A callable on (batch, d) arrays from a Network, a callable, or None (zero)."""
    if fn is None:
        return lambda y: np.zeros_like(y)
    if isinstance(fn, Network):
        return lambda y: realize(fn, y)
    return fn


@dataclass(frozen=True)
class SchemeState:
    """Euler grid values for all paths."""

    grid_values: np.ndarray  # (M, N+1, d)
    noise: BrownianGrid


def euler_grid(x, drift, noise: BrownianGrid) -> SchemeState:
    """Run the Euler recursion Y_{n+1} = Y_n + (T/N) mu(Y_n) + dW_n for all paths.

    ``x`` is one start value of shape (d,) for all paths, or one per path,
    shape (M, d).  ``drift`` may be a callable on (batch, d) arrays, a
    Network, or None for zero drift.
    """
    x = np.asarray(x, dtype=np.float64)
    M, N, d = noise.increments.shape
    if x.shape not in ((d,), (M, d)):
        raise ValueError("start value must have shape (%d,) or (%d, %d)" % (d, M, d))
    mu = _as_fn(drift)
    h = noise.T / noise.N
    y = np.empty((M, N + 1, d))
    y[:, 0] = x
    for n in range(N):
        drift_n = np.asarray(mu(y[:, n]), dtype=np.float64).reshape(M, d)
        y[:, n + 1] = y[:, n] + h * drift_n + noise.increments[:, n]
    y.flags.writeable = False
    return SchemeState(grid_values=y, noise=noise)


def interpolate(state: SchemeState, t) -> np.ndarray:
    """Piecewise-linear value Y_t = (1 - rho) Y_{tau_n} + rho Y_{tau_{n+1}}.

    ``t`` is one time for all paths or one time per path, shape (M,).
    Returns shape (M, d).  At grid times, and at t = T, the stored grid
    value is returned bitwise.
    """
    T, N = state.noise.T, state.noise.N
    y = state.grid_values
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), y.shape[:1])
    inside = (0.0 <= t) & (t <= T)
    if not inside.all():
        raise ValueError("time %g outside [0, %g]" % (t[~inside][0], T))
    n = np.minimum(np.floor(t * N / T).astype(np.intp), N - 1)
    rows = np.arange(len(t))
    lo, hi = y[rows, n], y[rows, n + 1]
    rho = (t * N / T - n)[:, None]
    out = (1.0 - rho) * lo + rho * hi
    # exact grid hits bypass the convex combination
    grid = state.noise.grid
    out = np.where((t == grid[n])[:, None], lo, out)
    return np.where(((t == grid[n + 1]) | (t == T))[:, None], hi, out)


def _point_chunks(K: int, M: int, N: int, d: int):
    """Slices over K points of at most _MC_CHUNK_ELEMENTS grid values each (at least one point)."""
    step = max(1, _MC_CHUNK_ELEMENTS // (M * (N + 1) * d))
    return [slice(lo, min(lo + step, K)) for lo in range(0, K, step)]


def mc_values(f0, drift, increments, T: float, t, x) -> np.ndarray:
    """Values f0(Y_t^{m, x_i}) of the interpolated Euler scheme, shape (K, M).

    Point i starts the scheme at x[i] (x has shape (K, d)) and reads it at
    time t[i].  ``increments`` are shared by all points, shape (M, N, d),
    or drawn per point, shape (K, M, N, d).  ``f0`` and ``drift`` may be
    Networks or callables on (batch, d) arrays.  Row i of ``.mean(1)`` is
    the Monte Carlo average (1/M) sum_m f0(Y_t^{m, x_i}).  Points are run
    in chunks of at most _MC_CHUNK_ELEMENTS grid values; every value is
    bitwise the one a single-point ``euler_grid`` and ``interpolate`` give.
    """
    x = np.asarray(x, dtype=np.float64)
    K = len(x)
    t = np.asarray(t, dtype=np.float64).reshape(K)
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim == 3:
        increments = np.broadcast_to(increments, (K,) + increments.shape)
    if increments.ndim != 4 or len(increments) != K or x.shape != (K, increments.shape[3]):
        raise ValueError("need x of shape (K, d) and increments of shape (M, N, d) or (K, M, N, d)")
    _, M, N, d = increments.shape
    f = _as_fn(f0)
    out = np.empty((K, M))
    for s in _point_chunks(K, M, N, d):
        k = len(x[s])
        inc = increments[s].reshape(k * M, N, d)
        noise = BrownianGrid(seed=None, N=N, M=k * M, d=d, T=float(T), increments=inc, diffusion=None)
        state = euler_grid(np.repeat(x[s], M, axis=0), drift, noise)
        out[s] = np.asarray(f(interpolate(state, np.repeat(t[s], M)))).reshape(k, M)
    return out


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
    vals = mc_values(f0, drift, noise.increments, t, [t], x[None, :])[0]
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(paths)) if paths > 1 else float("inf")
    return est, se


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
