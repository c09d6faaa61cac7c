"""Assembly of the space-time solution network.

Given drift / initial-value networks, a diffusion matrix, a budget
(N Euler steps, M Monte Carlo paths, product accuracy delta) and one
sampled Brownian realization, ``build_mc_average_net`` constructs a
single rectifier network in (t, x) whose realization tracks the Monte
Carlo average (1/M) sum_m f0(Y_t^{m,x}) of the linearly interpolated
Euler scheme, and hence the PDE solution.

Construction of one path network: the scheme value is written as the
telescoping sum

    Y_t = x + sum_n ramp_n(t) * [ (T/N) drift(Y_{tau_n}) + y_{n+1} ]

where ramp_n is the clipped interpolation ramp of cell n.  Grid values
Y_{tau_n} are exact subnetworks (iterated affine/drift steps); only the
ramp-times-increment couplings need approximate multiplication, realized
by ``product_net`` blocks whose accuracy is split as delta / (N d) and
whose range is sized from the Gronwall growth envelope so the emulation
error contract holds for every (t, x).  Ramps vanish identically left of
their cell and products annihilate zero factors exactly, which makes the
network depend on increments y_k, k > n, only through exact zeros for
t <= tau_n (adaptedness).

The M path networks share one architecture and one set of weights: the
increments reach a path network only through the biases of its affine
layers.  So the paths are built once, as one template network whose
biases carry a member axis where the noise reaches them, and every
member bias is bitwise the one a build of that path alone gives.

The M-path average is ``nets.pipeline_average`` of the template: path
blocks run one after another over carried (t, x) channels while a running
accumulator collects the outputs.  The pipeline weight of each template
layer is formed once and shared by all M blocks; only their biases
differ.  The realization equals the weighted average of the member
realizations; parameters grow linearly in M, comfortably inside the
quadratic parameter budget.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import stat
from dataclasses import dataclass
from functools import cached_property
from json.decoder import JSONArray
from json.scanner import py_make_scanner

import numpy as np

from . import nets
from .bounds import Budget, RegularityParams, solution_error_bound, solution_param_bound
from .nets import Network
from .sde import BrownianGrid, sample_brownian, sqrtm_psd


class SolutionNetFormatError(ValueError):
    """Raised when a serialized solution network cannot be parsed."""


@dataclass(frozen=True)
class PdeProblem:
    """Kolmogorov PDE data: drift network, initial-value network, diffusion, horizon."""

    drift_net: Network
    init_net: Network
    A: np.ndarray
    T: float
    params: RegularityParams

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=np.float64))
        d = self.drift_net.in_dim
        if self.drift_net.out_dim != d:
            raise ValueError("drift network must map R^d to R^d")
        if self.init_net.in_dim != d or self.init_net.out_dim != 1:
            raise ValueError("initial-value network must map R^d to R")
        if self.A.shape != (d, d):
            raise ValueError("diffusion matrix must be d x d")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        self._spot_check_growth()

    @property
    def d(self) -> int:
        return self.drift_net.in_dim

    @cached_property
    def B(self) -> np.ndarray:
        """The diffusion factor sqrtm_psd(2 A), which scales the Brownian increments."""
        return sqrtm_psd(2.0 * self.A)

    def _spot_check_growth(self):
        # the drift growth hypothesis ||drift(x)|| <= kappa (d^kappa + ||x||)
        # is relied on by every bound; sample it rather than trusting the caller
        k = self.params.kappa
        gen = np.random.Generator(np.random.Philox(key=1))
        x = gen.normal(scale=3.0, size=(256, self.d))
        vals = np.linalg.norm(nets.realize(self.drift_net, x), axis=1)
        cap = k * (self.d**k + np.linalg.norm(x, axis=1))
        if not np.all(vals <= cap * (1.0 + 1e-9) + 1e-12):
            raise ValueError("drift network violates the growth hypothesis for kappa=%g" % k)

    def hash(self) -> str:
        h = hashlib.sha256()
        for net in (self.drift_net, self.init_net):
            h.update(repr(net.dims).encode())
            for layer in net.layers:
                h.update(layer.weight.tobytes())
                h.update(layer.bias.tobytes())
        h.update(self.A.tobytes())
        h.update(repr((self.T, self.params)).encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class SolutionNet:
    """A built space-time network with its build provenance."""

    net: Network
    provenance: dict


def _product_range(N: int, d: int, delta: float, C: float, c: float) -> float:
    """Range bound for the ramp-times-increment product blocks.

    Sized so that whenever any product runs outside its accurate range,
    the growth envelope G = g_{n+1}(x, y) is already so large that the
    quadratic out-of-range error N d (1 + a + b G)^2 / 2 is below
    delta * G^3, keeping the total within the emulation error contract.
    Callers pass step-scaled growth constants (a = C T / N, b = c T / N + 2).
    """
    a = C
    b = c + 2.0
    g_star = max(
        1.0,
        (2.0 * N * d * (1.0 + a) ** 2 / delta) ** (1.0 / 3.0),
        2.0 * N * d * b * b / delta,
    )
    return max(1.0, (1.0 + a + b * g_star) / 2.0)


def build_euler_net(
    drift_net: Network,
    increments: np.ndarray,
    grid: np.ndarray,
    delta: float,
    growth=(0.0, 0.0),
) -> Network:
    """Space-time network emulating one linearly interpolated Euler path.

    ``increments`` has shape (N, d) (one noise vector per step), or
    (M, N, d) for M paths at once: the result is then one network whose
    biases carry a member axis where the increments reach them, and member
    m is bitwise the network built from ``increments[m]``.  ``grid``
    is the uniform grid n T / N, and ``growth`` = (C, c) bounds the drift
    by ||drift(x)|| <= C + c ||x||.  The result maps (t, x) in R^{d+1} to
    an approximation of Y_t^{x,y} with error at most
    delta (2 sqrt(d) + g_n^3 + g_{n+1}^3) on cell n, with g_n the Gronwall
    envelope of ``bounds.drift_growth_envelope``.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    increments = np.asarray(increments, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    N = len(grid) - 1
    d = drift_net.in_dim
    if increments.ndim not in (2, 3) or increments.shape[-2:] != (N, d):
        raise ValueError(
            "increments must have shape (N, d) or (M, N, d) with (N, d) = (%d, %d)" % (N, d)
        )
    T = grid[-1]
    if T <= 0 or not np.array_equal(grid, np.arange(N + 1) * (T / N)):
        raise ValueError("grid must be the uniform grid n T / N")
    C, c = growth
    h = T / N
    delta_step = delta / (N * d)
    R = _product_range(N, d, delta, h * C, h * c)
    prod = nets.product_net(delta_step, R)

    id_aff = nets.affine_net(np.eye(d))
    step_base = nets.average_nets(
        [nets.extend_length(id_aff, drift_net.depth), drift_net], [1.0, h]
    )
    coords = list(range(1, d + 1))
    grid_value_net = id_aff  # realizes Y_{tau_n} exactly; starts at Y_0 = x
    branches = []
    for n in range(N):
        # (T/N) drift(Y_{tau_n}) + y_{n+1}, as a function of x
        delta_net = nets.compose(
            nets.affine_net(h * np.eye(d), increments[..., n, :]),
            nets.compose(drift_net, grid_value_net),
        )
        ramp = nets.select_inputs(nets.hat_time_net(grid, n), [0], d + 1)
        feed = nets.parallel_stack([ramp, nets.select_inputs(delta_net, coords, d + 1)])
        prods = nets.parallel_stack(
            [nets.select_inputs(prod, [0, 1 + i], 1 + d) for i in range(d)]
        )
        # identity boundary keeps the ramp value materialized, so products
        # see an exact zero left of the cell
        branches.append(nets.concat_with_identity(prods, feed))
        if n < N - 1:
            grid_value_net = nets.compose(
                nets.compose(nets.affine_net(np.eye(d), increments[..., n, :]), step_base),
                grid_value_net,
            )
    passthrough = nets.select_inputs(id_aff, coords, d + 1)
    return nets.average_nets([passthrough] + branches, [1.0] * (N + 1))


def build_mc_average_net(problem: PdeProblem, budget: Budget, noise: BrownianGrid) -> SolutionNet:
    """Assemble the full solution network for one Brownian realization.

    The realization approximates (1/M) sum_m f0(Y_t^{m,x}); the parameter
    count is asserted against the closed-form budget bound at build time.
    """
    d, T = problem.d, problem.T
    if noise.d != d or noise.N != budget.N or noise.M < budget.M:
        raise ValueError("noise grid does not match the budget/problem")
    if abs(noise.T - T) > 0:
        raise ValueError("noise horizon differs from the problem horizon")
    growth = (problem.params.C, problem.params.c)
    increments = noise.increments[0] if budget.M == 1 else noise.increments[: budget.M]
    template = nets.compose(
        problem.init_net,
        build_euler_net(problem.drift_net, increments, noise.grid, budget.delta, growth),
    )
    net = template if budget.M == 1 else nets.pipeline_average(template, budget.M)
    p_count = nets.param_count(net)
    p_bound = solution_param_bound(problem.params, d, budget.N, budget.M, budget.delta)
    if p_count > p_bound:
        raise AssertionError(
            "built network exceeds the parameter budget: %d > %g" % (p_count, p_bound)
        )
    provenance = {
        "problem_hash": problem.hash(),
        "seed": int(noise.seed),
        "N": int(budget.N),
        "M": int(budget.M),
        "delta": float(budget.delta),
        "bound_values": {
            "param_count": int(p_count),
            "param_bound": float(p_bound),
            "error_bound_unit_mass": float(
                solution_error_bound(problem.params, d, budget.N, budget.M, budget.delta, 1.0)
            ),
        },
    }
    return SolutionNet(net=net, provenance=provenance)


def solve(problem: PdeProblem, budget: Budget, seed: int) -> SolutionNet:
    """Sample one Brownian realization and build the solution network at ``budget``.

    Only the computable bounds for that budget are guaranteed: the budgets
    that ``bounds.plan_budget`` gives for an accuracy are astronomically
    large for realistic inputs.
    """
    noise = sample_brownian(seed, budget.N, budget.M, problem.d, problem.T, problem.B)
    return build_mc_average_net(problem, budget, noise)


def _header(solution: SolutionNet) -> str:
    """The document up to its network; ValueError where the reader would
    reject a provenance value."""
    try:
        # the reader rejects NaN and +-inf, so the writer refuses them too
        provenance = json.dumps(solution.provenance, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError("provenance holds a value the reader rejects: %s" % exc) from None
    return '{"format": "kolmonet-solution", "version": 1, "provenance": %s, "network": ' % provenance


def _write_solution(fh, header: str, net: Network):
    fh.write(header)
    nets.write_network(fh, net)
    fh.write("}")


def serialize(solution: SolutionNet) -> bytes:
    """Versioned text form: provenance block plus the network document.

    Reals carry 17 significant digits so deserialization is bit-exact;
    identical builds serialize to identical bytes.  A non-finite value in
    the provenance raises ValueError, as it would on reading.
    """
    header = _header(solution)
    fh = io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="")
    _write_solution(fh, header, solution.net)
    return fh.detach().getvalue()


def _reject_constant(name):
    raise SolutionNetFormatError("non-finite value %s in the document" % name)


# An array of numbers alone, whose value is a function of its text.
_NUMBER_ARRAY = re.compile(rb'\[[-+.0-9eE, \t\n\r]*\]')
# Text up to the next "[" outside strings; it stops short of a string that does not end.
_GAP = re.compile(rb'(?:[^"\[]+|"(?:[^"\\]|\\[\s\S])*")*')
_CHUNK = 1 << 18  # bytes read at a time
_KEY = 16  # bytes of each end of an array text in its lookup key


def _load(read):
    """``json.loads(text, parse_constant=_reject_constant)`` of the UTF-8
    text that ``read(n)`` returns, at most n bytes a call and b"" at its
    end, holding a chunk of it at a time and parsing each distinct text of
    an array of numbers once.

    The M path networks share their weights, so a solution file repeats
    few distinct arrays (the reference build's 3,461 hold 102 texts).  An
    array with no nested array runs from its "[" to the first "]".  Each
    such text outside strings that ``_NUMBER_ARRAY`` accepts becomes the
    placeholder "[]" in a small skeleton of the document; the text is kept
    once, looked up by its length and ends.  A chunk hands the string or
    array it cuts to the next read, which is at least as long, so the scan
    stays linear.  The bytes scanned are never decoded: ASCII bytes stand
    for ASCII characters alone in UTF-8, and the skeleton, decoded whole,
    holds every other byte.  json parses the skeleton, and a placeholder
    gives the list json parses from its text on the text's first
    occurrence: equal texts yield one shared list.  A JSONDecodeError
    carries the original text up to the error, and a UnicodeDecodeError
    the position in the document, so each reads as on the whole text.
    """
    pieces, size, carry = [], 0, b""
    leaves = {}  # skeleton offset of a placeholder -> index of its text
    texts, known = [], {}  # the distinct texts; (length, head, tail) -> their indices
    while chunk := read(max(_CHUNK, len(carry))):
        buf, pos, at, close = carry + chunk, 0, 0, -1
        while True:
            at = _GAP.match(buf, at).end()
            if at == len(buf):
                carry = b""
                break
            if close < at:
                close = buf.find(b"]", at)
            if buf.startswith(b'"', at) or close < 0:
                carry = buf[at:]  # a string or an array that the next chunk ends
                break
            n = close + 1 - at
            k = min(n, _KEY)
            key = (n, buf[at : at + k], buf[close + 1 - k : close + 1])
            for index in known.get(key, ()):
                if buf.startswith(texts[index], at):
                    break
            else:
                if _NUMBER_ARRAY.fullmatch(buf, at, close + 1) is None:
                    at += 1
                    continue
                index = len(texts)
                texts.append(buf[at : close + 1])
                known.setdefault(key, []).append(index)
            pieces += (buf[pos:at], b"[]")
            size += at - pos
            leaves[size] = index
            size += 2
            pos = at = close + 1
        pieces.append(buf[pos : len(buf) - len(carry)])
        size += len(pieces[-1])
    pieces.append(carry)
    raw = b"".join(pieces)
    try:
        skeleton = raw.decode()
    except UnicodeDecodeError as exc:  # raised at its position in the document
        shift = sum(len(texts[i]) - 2 for offset, i in leaves.items() if offset < exc.start)
        bad = bytes(shift) + raw[: exc.end]
        raise UnicodeDecodeError(exc.encoding, bad, exc.start + shift, exc.end + shift, exc.reason) from None
    if len(skeleton) < len(raw):  # the offsets count bytes; count characters
        chars, last, moved = 0, 0, {}
        for offset, index in leaves.items():
            chars += len(raw[last:offset].decode())
            moved[chars], last = index, offset
        leaves = moved
    texts = [text.decode() for text in texts]
    values = [None] * len(texts)

    def error(msg, upto, tail=""):
        # json's error at skeleton offset upto (and tail into a leaf), on the original text
        parts, last = [], 0
        for offset, index in leaves.items():
            if offset >= upto:
                break
            parts += (skeleton[last:offset], texts[index])
            last = offset + 2
        parts += (skeleton[last:upto], tail)
        prefix = "".join(parts)
        return json.JSONDecodeError(msg, prefix, len(prefix))

    def parse_array(s_and_end, scan_once):
        end = s_and_end[1]
        index = leaves.get(end - 1)
        if index is None:
            return JSONArray(s_and_end, scan_once)
        value = values[index]
        if value is None:
            try:
                value = values[index] = json.loads(texts[index], parse_constant=_reject_constant)
            except json.JSONDecodeError as exc:
                raise error(exc.msg, end - 1, texts[index][: exc.pos]) from None
        return value, end + 1

    decoder = json.JSONDecoder(parse_constant=_reject_constant)
    decoder.parse_array = parse_array
    decoder.scan_once = py_make_scanner(decoder)
    try:
        return decoder.decode(skeleton)
    except json.JSONDecodeError as exc:
        if exc.doc is not skeleton:
            raise
        raise error(exc.msg, exc.pos) from None


def _loads(text: str):
    return _load(io.BytesIO(text.encode()).read)


def _unshared(value):
    # the caller owns the provenance, so no two of its lists may be one object
    if isinstance(value, list):
        return [_unshared(v) for v in value]
    if isinstance(value, dict):
        return {k: _unshared(v) for k, v in value.items()}
    return value


def _read(fh) -> SolutionNet:
    try:
        doc = _load(fh.read)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SolutionNetFormatError("not a solution-network document: %s" % exc) from None
    if not isinstance(doc, dict) or doc.get("format") != "kolmonet-solution":
        raise SolutionNetFormatError("missing solution-network header")
    if doc.get("version") != 1:
        raise SolutionNetFormatError("unsupported version %r" % doc.get("version"))
    try:
        net = nets.network_from_doc(doc["network"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SolutionNetFormatError("bad network block: %s" % exc) from None
    prov = doc.get("provenance")
    if not isinstance(prov, dict):
        raise SolutionNetFormatError("missing provenance block")
    return SolutionNet(net=net, provenance=_unshared(prov))


def deserialize(data: bytes) -> SolutionNet:
    return _read(io.BytesIO(data))


def save_solution(solution: SolutionNet, path):
    """Write the bytes of ``serialize(solution)`` to ``path``, streamed.

    The provenance and every distinct array of the network are checked
    before the file is opened, so a solution the writer refuses leaves the
    target as it was.  An existing regular file is rewritten in place and
    then truncated to the new length, which is much cheaper than
    truncating it first on filesystems that discard freed blocks; the file
    ends up holding exactly the new bytes.  A new file gets the mode
    ``open(path, "wb")`` gives it, and other targets (``/dev/null``, a
    pipe) are written as that would.
    """
    header = _header(solution)
    nets.check_writable(solution.net)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="ascii", newline="") as fh:
        _write_solution(fh, header, solution.net)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(fh.tell())


def load_solution(path) -> SolutionNet:
    with open(path, "rb") as fh:
        return _read(fh)
