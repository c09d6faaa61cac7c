"""Additive-noise SDE simulation and Monte Carlo oracles.

Implements the uniform-grid Euler scheme as one recursion (``euler_states``
yields each step's state), Brownian increment sampling on counter-based
substreams, the one evaluator of the piecewise-linearly interpolated
scheme and of its Monte Carlo averages (``mc_values``, which keeps two
states per path) and the Feynman-Kac estimator built on it, and sampled
L^p distances over a uniform space-time box.

Randomness is reproducible and order independent: path ``m`` of a grid
draws from a Philox4x64-10 stream keyed by (seed mod 2^64, purpose << 48 | m),
and step ``n`` consumes the fixed words [n*k, (n+1)*k) of that stream, so
the same (seed, m, n) always yields the same increment no matter how paths
are scheduled or chunked (``first`` picks the paths of a chunk).  Normals
come from 53-bit uniforms through the inverse normal CDF, which keeps the
consumption per step constant.

Counter layout (numpy's ``Philox``): the 256-bit counter starts at 1 and
word ``w`` of a stream is lane ``w % 4`` of the block at counter
``w // 4 + 1``; the uniform is ``((word >> 11) + 0.5) 2^-53``, which is
``Generator.integers(0, 2**53)`` exactly (Lemire's method never rejects
at a range of 2^53).  Short streams run the 10-round bijection for all
paths at once in uint64 numpy code: a 64x64->128 high half takes 14
passes over 32-bit limbs, and as every stream starts at counter (block,
0, 0, 0), the first two rounds run one product of the lanes' size
instead of four.  Streams of at least 512 words fill each row with
``Generator.random``, (word >> 11) 2^-53, of one numpy C ``Philox``
re-keyed per path from one key array per chunk.  Both convert in place,
adding 2^-54, and give the same bits; the tests compare them with the
``Generator.integers`` path.  Path indices stay below 2^48, so they never reach the purpose tag.

Threads: the paths of a draw run in chunks of max(1, _CHUNK_BLOCKS //
ceil(N k / 4)) paths, so a chunk of short streams is one Philox pass of
at most _CHUNK_BLOCKS blocks.  A draw of one chunk runs inline, and so
does a draw of short streams (fewer than _ROW_STREAM_WORDS words): its
vectorized rounds are hundreds of short numpy calls that release the GIL
only briefly, so a second thread adds CPU time but no speed.  A draw of
more chunks of long streams, whose C ``Philox`` and ``ndtri`` release the
GIL in large pieces, starts its own pool, one thread per CPU of the
process capped by KOLMONET_THREADS and by the chunk count, and joins it
before it returns: no thread outlives a draw.  A draw may fill several
outputs, one per diffusion factor: a chunk's normals are drawn once and
feed every factor, each through one batched product of the same shape on
any thread, so the bits depend neither on the thread count nor on the
other outputs.  The calling thread allocates each thread's normals, products and
Philox state, and the threads allocate nothing large: glibc keeps a
thread's freed blocks in that thread's heap, so temporaries made on two
threads would raise the peak memory.

Memory layout: a path of at least 512 increment values is one row of a
buffer whose row stride is one 64-byte cache line longer than the row.
Contiguous power-of-two rows of 4 KiB or more would put the column that
the Euler recursion reads each step (``increments[:, n]``) into the same
few cache sets for every path; the padded stride is an odd number of
lines.  Shorter rows stay contiguous.  Shapes, values and ``tobytes()``
are those of the contiguous array.  ``_path_rows`` lays the rows out, in a
fresh array or in the leading values of a caller's flat buffer, and
``sample_brownian(out=)`` fills any writable (M, N, d) array: a study
that draws its paths in chunks allocates one buffer for all of them.
The moment study lays its short paths out step-major instead: a chunk
of M paths fills two (M, N, d) views of one (N, 2M, d) block, one per
row of the study, and a view's ``[:, n]`` is contiguous
(``studies.moment_study``).
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from . import _thread_cap
from .nets import Network, realize

_U53 = float(2.0 ** -53)
_U54 = float(2.0 ** -54)  # half of _U53: ((w >> 11) + 0.5) 2^-53 is (w >> 11) 2^-53 + 2^-54, rounded once

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
# From this many words per stream on, numpy's per-stream C Philox is faster.
_ROW_STREAM_WORDS = 512
# Path indices occupy the low 48 bits of a stream's key; the purpose tag sits above.
_PATH_LIMIT = 1 << 48
# From this many values per path on, each row is followed by one 64-byte line (8 floats).
_PADDED_ROW_VALUES = 512
_ROW_PAD = 8
# Grid values (points x paths x (steps + 1) x d) per chunk of ``mc_values``: the chunks set the
# batch shapes of the drift, and so its bits.
_MC_CHUNK_ELEMENTS = 1 << 22


def _key(seed: int, tag: int, index: int) -> np.ndarray:
    return np.array([np.uint64(seed & _MASK64), np.uint64((tag << 48) | index)])


def _stream(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, tag, index)))


def _mulhi_into(a: np.uint64, b: np.ndarray, hi, blo, bhi, u):
    """hi = the high half of the 128-bit products a * b, from 32-bit limbs, in place: 14 passes.

    u = a_hi b_lo + (a_lo b_lo >> 32), t = a_lo b_hi + (u mod 2^32) and
    hi = a_hi b_hi + (u >> 32) + (t >> 32); no partial sum reaches 2^64.
    """
    a_lo, a_hi = a & _LO32, a >> np.uint64(32)
    np.bitwise_and(b, _LO32, out=blo)
    np.right_shift(b, 32, out=bhi)
    np.multiply(blo, a_lo, out=u)
    u >>= 32
    blo *= a_hi
    u += blo
    np.multiply(bhi, a_hi, out=hi)
    bhi *= a_lo  # t
    np.bitwise_and(u, _LO32, out=blo)
    bhi += blo
    u >>= 32
    hi += u
    bhi >>= 32
    hi += bhi


def _philox_lanes(seed: int, key1: np.ndarray, blocks: int, work: np.ndarray):
    """The four lanes of the words of blocks 1..``blocks`` of the streams keyed (seed, key1[i]),
    each (rows, blocks), computed in place.

    ``work`` is a (10, n) uint64 array with n >= rows * blocks; the lanes are
    views of it.  Every round is numpy's Philox round, two 64x64->128
    products and the lane shuffle, through ``out=`` ufuncs, so no array of
    the lanes' size is allocated.  Every stream starts at counter (block,
    0, 0, 0), so round 0's products depend on the block alone and leave
    the lanes (k0, 0, ., .) in every stream; round 1 then multiplies one
    number, m0 k0, and runs one product of the lanes' size instead of two.
    """
    rows = len(key1)
    c0, c1, c2, c3, h0, h1, blo, bhi, u = (w[: rows * blocks].reshape(rows, blocks) for w in work[:9])
    k1 = work[9, :rows].reshape(rows, 1)
    k1[:] = key1
    k0 = seed & _MASK64
    m0 = int(_PHILOX_M[0])
    # round 0 on (block, 0, 0, 0): lanes (k0, 0, hi(m0 block) ^ k1, lo(m0 block))
    block = [m0 * b for b in range(1, blocks + 1)]
    np.bitwise_xor(k1, np.array([p >> 64 for p in block], dtype=np.uint64), out=c2)
    lo0 = np.array([p & _MASK64 for p in block], dtype=np.uint64)
    # round 1: lane 0 is k0 and lane 1 is 0 in every stream
    key = m0 * k0
    k0 = (k0 + _PHILOX_W[0]) & _MASK64
    k1 += np.uint64(_PHILOX_W[1])
    _mulhi_into(_PHILOX_M[1], c2, h1, blo, bhi, u)
    c2 *= _PHILOX_M[1]  # lo1
    h1 ^= np.uint64(k0)
    np.bitwise_xor(k1, lo0 ^ np.uint64(key >> 64), out=h0)
    c0.fill(key & _MASK64)  # lo0
    c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c1, c3
    for _ in range(2, _PHILOX_ROUNDS):
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 += np.uint64(_PHILOX_W[1])
        _mulhi_into(_PHILOX_M[0], c0, h0, blo, bhi, u)
        c0 *= _PHILOX_M[0]  # lo0
        _mulhi_into(_PHILOX_M[1], c2, h1, blo, bhi, u)
        c2 *= _PHILOX_M[1]  # lo1
        h1 ^= c1
        h1 ^= np.uint64(k0)
        h0 ^= c3
        h0 ^= k1
        c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c1, c3
    return c0, c1, c2, c3


def _normals_into(z: np.ndarray, seed: int, tag: int, index: np.ndarray, scratch) -> np.ndarray:
    """Fill row i of z, shape (rows, n), with the first n normals of the stream (seed, tag << 48 | index[i]).

    In place: ``scratch`` is what ``_scratch(seed, tag, n, rows)`` returns,
    and nothing else of size n is allocated.  Streams of at least 512
    words fill each row with ``Generator.random``, which is (word >> 11)
    2^-53; shorter ones run one ``_philox_lanes`` pass over all rows and
    shift and scale its words.  Adding 2^-54 then gives the midpoint
    uniform ((word >> 11) + 0.5) 2^-53 with its one rounding, and ``ndtri``
    runs in place.
    """
    rows, n = z.shape
    if rows and index.max() >= _PATH_LIMIT:
        raise ValueError("path index %d reaches 2^48" % index.max())
    if n >= _ROW_STREAM_WORDS:
        gen, fresh = scratch
        keys = np.empty((rows, 2), dtype=np.uint64)  # the rows of _key(seed, tag, index[i])
        keys[:, 0] = seed & _MASK64
        np.bitwise_or(np.uint64(tag << 48), index, out=keys[:, 1])
        for i in range(rows):
            # re-key through the fresh state (counter 0, empty buffer)
            fresh["state"]["key"] = keys[i]
            gen.bit_generator.state = fresh
            gen.random(out=z[i])
    else:
        for j, lane in enumerate(_philox_lanes(seed, np.uint64(tag << 48) | index[:, None], -(-n // 4), scratch)):
            lane >>= 11
            z[:, j::4] = lane[:, : (n - j + 3) // 4]
        z *= _U53
    z += _U54
    return ndtri(z, out=z)


def _scratch(seed: int, tag: int, n: int, rows: int):
    """The Philox state ``_normals_into`` works in for ``rows`` streams of n words.

    A generator and its fresh state for long streams, re-keyed per path
    (constructing one per path would gather OS entropy each time); the
    uint64 lanes of one ``_philox_lanes`` pass over all rows for short ones.
    """
    if n >= _ROW_STREAM_WORDS:
        gen = np.random.Generator(np.random.Philox(key=_key(seed, tag, 0)))
        return gen, gen.bit_generator.state
    return np.empty((10, rows * -(-n // 4)), dtype=np.uint64)


def _workers() -> int:
    """Sampler threads: one per CPU this process may run on, capped by KOLMONET_THREADS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cap = _thread_cap()
    return min(cpus, cap) if cap else cpus


def _fill_increments(outs, seed: int, tag: int, index: np.ndarray, Bs, scale):
    """Set out[i] = scale * (z_i @ B.T) for each pair (out, B) of ``zip(outs, Bs)``, where z_i are the
    normals of the stream (seed, tag << 48 | index[i]).

    The outputs share one shape (rows, ..., d) and may have any strides,
    padded rows and step-major views included; the factors are d x k matrices of one k (ValueError otherwise,
    before anything is drawn).  z_i is the stream's first n = out[i].size
    // d * k normals, shaped out[i].shape[:-1] + (k,).  Each chunk's normals
    are drawn once and feed every pair through the product a one-pair draw
    runs, so each output has the bits of its own draw.  The streams run in
    chunks of max(1, _CHUNK_BLOCKS // ceil(n / 4)), each one Philox pass.
    A draw of more than one chunk of long streams (n >= _ROW_STREAM_WORDS)
    runs them on a pool of at most ``_workers()`` threads that it starts
    and joins; short streams run inline on this thread (see the module
    docstring).  The threads call only private functions, and write into
    buffers this thread allocates.  A 1 x 1 matrix B scales elementwise
    instead of the matmul, with the same bits.  Returns ``outs``.
    """
    shape, k = outs[0].shape, Bs[0].shape[1]
    if len(outs) != len(Bs) or any(o.shape != shape for o in outs) or any(B.shape != (shape[-1], k) for B in Bs):
        raise ValueError(
            "need outputs of one shape and d x k factors of one k, got shapes %s and factors %s"
            % ([o.shape for o in outs], [B.shape for B in Bs])
        )
    count, d, inner = shape[0], shape[-1], shape[1:-1]
    n = int(np.prod(inner, dtype=np.int64)) * k
    rows = min(count, max(1, _CHUNK_BLOCKS // -(-n // 4)))
    starts = range(0, count, rows)
    size = 1 if len(starts) == 1 or n < _ROW_STREAM_WORDS else min(_workers(), len(starts))
    buffers = queue.SimpleQueue()
    for _ in range(size):
        buffers.put((np.empty((rows, n)), np.empty((rows, *inner, d)), _scratch(seed, tag, n, rows)))

    def chunk(lo):
        z, prod, scratch = buf = buffers.get()
        try:
            hi = min(lo + rows, count)
            z, prod = z[: hi - lo], prod[: hi - lo]
            _normals_into(z, seed, tag, index[lo:hi], scratch)
            z = z.reshape(hi - lo, *inner, k)
            for out, B in zip(outs, Bs):
                if B.shape == (1, 1):
                    # the matmul's bits without its overhead: its sum starts at +0.0, so -0.0 becomes +0.0
                    np.multiply(z, B[0, 0], out=prod)
                    prod += 0.0
                else:
                    np.matmul(z, B.T, out=prod)
                np.multiply(prod, scale, out=out[lo:hi])
        finally:
            buffers.put(buf)

    if size == 1:
        for lo in starts:
            chunk(lo)
    else:
        with ThreadPoolExecutor(size, thread_name_prefix="kolmonet-sampler") as pool:
            list(pool.map(chunk, starts))  # the first chunk's error, in chunk order
    return outs


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
    def grid(self) -> np.ndarray:
        return np.arange(self.N + 1) * (self.T / self.N)

    def coarsen(self, factor: int) -> BrownianGrid:
        """The grid of every ``factor``-th node: each increment sums ``factor`` consecutive ones."""
        inc = self.increments.reshape(self.M, self.N // factor, factor, self.d).sum(axis=2)
        return replace(self, N=self.N // factor, increments=inc)


def _row_values(N: int, d: int) -> int:
    """Values between the starts of two stored paths of N d increments: N d, plus one
    64-byte line (8 values) from 512 values on (see the module docstring)."""
    return N * d + (_ROW_PAD if N * d >= _PADDED_ROW_VALUES else 0)


def _path_rows(M: int, N: int, d: int, buffer=None) -> np.ndarray:
    """An (M, N, d) array of M paths, laid out as ``sample_brownian`` stores them.

    Row m starts at value m * _row_values(N, d).  With ``buffer``, a flat
    float64 array of at least M * _row_values(N, d) values, the array is a
    view of its leading values; otherwise it is fresh.
    """
    stride = _row_values(N, d)
    if buffer is None:
        buffer = np.empty(M * stride)
    return buffer[: M * stride].reshape(M, stride)[:, : N * d].reshape(M, N, d)


def sample_brownian(
    seed: int, N: int, M: int, d: int, T: float, B=None, *, first: int = 0, out=None
) -> BrownianGrid:
    """Sample Brownian increments for paths [first, first + M) of an N-step grid on [0, T].

    ``B`` is the d x k diffusion matrix (identity by default); the stored
    increments are B(W_{tau_{n+1}} - W_{tau_n}) with W a standard k-dim
    Brownian motion, i.e. centered Gaussians with covariance (T/N) B B^*.
    Row i is path first + i of every draw that contains it, bitwise; path
    indices must stay below 2^48 (ValueError).  The draw fills ``out``, a
    writable float64 (M, N, d) array of any strides (ValueError otherwise,
    before anything is drawn), or else a fresh ``_path_rows(M, N, d)``, whose
    paths of at least 512 values are rows padded by one cache line (see the
    module docstring).  The grid holds a read-only view of the filled array.
    """
    if min(N, M, d) < 1 or T <= 0 or first < 0:
        raise ValueError("need N, M, d >= 1, T > 0 and first >= 0")
    if B is None:
        B = np.eye(d)
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if B.shape[0] != d:
        raise ValueError("diffusion matrix must have %d rows" % d)
    if out is None:
        out = _path_rows(M, N, d)
    elif not (
        isinstance(out, np.ndarray) and out.shape == (M, N, d) and out.dtype == np.float64 and out.flags.writeable
    ):
        raise ValueError("out must be a writable float64 array of shape (%d, %d, %d)" % (M, N, d))
    index = np.arange(first, first + M, dtype=np.uint64)
    _fill_increments((out,), seed, _TAG_INCREMENTS, index, (B,), np.sqrt(T / N))
    increments = out.view()
    increments.flags.writeable = False
    return BrownianGrid(seed=seed, N=N, M=M, d=d, T=float(T), increments=increments, diffusion=B)


def walk_norms(increments) -> np.ndarray:
    """Norms ||sum_{k<n} y_k|| of the partial sums of the increments, n = 0..N.

    ``increments`` has shape (..., N, d); the result has shape (..., N+1)
    and starts with the empty sum's 0.
    """
    increments = np.asarray(increments, dtype=np.float64)
    *lead, N, d = increments.shape
    walk = np.zeros((*lead, N + 1, d))
    np.cumsum(increments, axis=-2, out=walk[..., 1:, :])
    # np.linalg.norm(walk, axis=-1)'s operations on real input, squaring in place
    np.multiply(walk, walk, out=walk)
    return np.sqrt(np.add.reduce(walk, axis=-1))


def _as_fn(fn):
    """A callable on (batch, d) arrays from a Network, a callable, or None (zero).
    An all-zero Network (heat's drift) gives zeros, the bits of its ``realize``."""
    if fn is None:
        return lambda y: np.zeros_like(y)
    if isinstance(fn, Network):
        if not any(l.weight.any() or l.bias.any() for l in fn.layers):
            return lambda y: np.zeros((len(y), fn.out_dim))
        return lambda y: realize(fn, y)
    return fn


def euler_states(x, drift, increments, T: float):
    """Yield Y_0, ..., Y_N of Y_{n+1} = Y_n + (T/N) mu(Y_n) + dW_n, each of shape (M, d).

    The one Euler recursion.  ``increments`` has shape (M, N, d); ``x`` is
    one start value, shape (d,), or one per path, (M, d); ``drift`` is a
    callable on (batch, d) arrays, a Network, or None (zero).  Each state is
    a fresh array that no later step changes, so callers keep what they read.
    """
    x = np.asarray(x, dtype=np.float64)
    M, N, d = increments.shape
    if x.shape not in ((d,), (M, d)):
        raise ValueError("start value must have shape (%d,) or (%d, %d)" % (d, M, d))
    y = np.array(np.broadcast_to(x, (M, d)))
    mu = _as_fn(drift)
    h = T / N
    yield y
    for n in range(N):
        y = y + h * np.asarray(mu(y), dtype=np.float64).reshape(M, d)
        y += increments[:, n]
        yield y


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
    the Monte Carlo average (1/M) sum_m f0(Y_t^{m, x_i}).

    Y_t = (1 - rho) Y_{tau_n} + rho Y_{tau_{n+1}} with n = min(floor(t N / T),
    N - 1) and rho = t N / T - n; at grid times, and at t = T, Y_t is the
    grid state bitwise.  A time outside [0, T], NaN included, raises
    ValueError naming the first one.  Points run in chunks of at most
    _MC_CHUNK_ELEMENTS grid values, which set the batch shapes of ``drift``;
    each path keeps only its two states around its time, and the recursion
    stops at the last state a chunk reads.
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
    T = float(T)
    inside = (0.0 <= t) & (t <= T)
    if not inside.all():
        raise ValueError("time %g outside [0, %g]" % (t[~inside][0], T))
    n = np.minimum(np.floor(t * N / T).astype(np.intp), N - 1)
    rho = (t * N / T - n)[:, None, None]
    grid = np.arange(N + 1) * (T / N)
    at_lo = (t == grid[n])[:, None, None]
    at_hi = ((t == grid[n + 1]) | (t == T))[:, None, None]
    f = _as_fn(f0)
    out = np.empty((K, M))
    for s in _point_chunks(K, M, N, d):
        k, n_s = len(x[s]), n[s]
        last = n_s.max() + 1
        lo, hi = np.empty((k, M, d)), np.empty((k, M, d))
        states = euler_states(np.repeat(x[s], M, axis=0), drift, increments[s].reshape(k * M, N, d), T)
        for j, y in enumerate(states):
            y = y.reshape(k, M, d)
            lo[n_s == j] = y[n_s == j]
            hi[n_s == j - 1] = y[n_s == j - 1]
            if j == last:
                break
        y_t = np.where(at_lo[s], lo, (1.0 - rho[s]) * lo + rho[s] * hi)
        y_t = np.where(at_hi[s], hi, y_t)
        out[s] = np.asarray(f(y_t.reshape(k * M, d))).reshape(k, M)
    return out


def feynman_kac(f0, drift, A, t: float, x, paths: int, steps: int, seed: int):
    """Monte Carlo estimate of u(t, x) = E[f0(X^x_t)] for the Kolmogorov PDE.

    X solves dX = mu(X) ds + sqrt(2A) dW for the d x d matrix A.  Returns
    (estimate, std_error); assertions against the estimate should allow a
    few std errors.  With A = 0 and zero drift the estimate is f0(x) exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        v = float(np.asarray(f0(x[None, :])).ravel()[0])
        return v, 0.0
    B = sqrtm_psd(2.0 * np.asarray(A, dtype=np.float64))
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


def write_convergence_csv(path, rows, header):
    """Write a convergence table; rows are iterables matching the header."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)
