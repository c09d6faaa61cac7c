"""ReLU network calculus.

Networks are plain tuples of (weight, bias) layers, realized with the
rectifier on hidden layers and an affine output layer.  All operations
here are pure and return new immutable networks, so values can be shared
freely across threads.

The two nonstandard constructions are ``product_net`` (an accuracy
controlled two-input multiplier built from the sawtooth approximation of
the square function) and ``hat_time_net`` (the clipped interpolation ramp
used when a scheme is emulated in a single space-time network).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


def relu(x):
    return np.maximum(x, 0.0)


def _freeze(a):
    # adding 0.0 canonicalizes -0.0 entries, keeping serialization stable
    a = np.asarray(a, dtype=np.float64) + 0.0
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Layer:
    """One affine layer: ``z -> weight @ z + bias``.

    weight has shape (out, in), bias has shape (out,).
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", _freeze(self.weight))
        object.__setattr__(self, "bias", _freeze(self.bias))
        if self.weight.ndim != 2:
            raise ValueError("layer weight must be a matrix")
        if self.bias.ndim != 1:
            raise ValueError("layer bias must be a vector")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError(
                "weight rows (%d) != bias length (%d)"
                % (self.weight.shape[0], self.bias.shape[0])
            )
        if self.weight.shape[0] < 1 or self.weight.shape[1] < 1:
            raise ValueError("layer dimensions must be >= 1")

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1]


@dataclass(frozen=True)
class Network:
    """A nonempty stack of layers with matching inner dimensions."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    "layer dimension mismatch: %d -> %d" % (a.out_dim, b.in_dim)
                )

    @property
    def depth(self):
        """Number of affine layers (the last one is unactivated)."""
        return len(self.layers)

    @property
    def dims(self):
        return (self.layers[0].in_dim,) + tuple(l.out_dim for l in self.layers)

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim


def param_count(net: Network) -> int:
    """Parameter count sum_k l_k * (l_{k-1} + 1) over the dims of ``net``."""
    dims = net.dims
    return int(sum(dims[k] * (dims[k - 1] + 1) for k in range(1, len(dims))))


def realize(net: Network, x):
    """Evaluate ``net`` on ``x``.

    ``x`` may be a single input of shape (in_dim,) or a batch of shape
    (n, in_dim).  Hidden layers apply the rectifier componentwise; the
    final layer is affine.  Single inputs are evaluated as a batch of one
    so that batched and pointwise calls agree bitwise.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != net.in_dim:
        raise ValueError(
            "input length %d does not match network input dimension %d"
            % (x.shape[1], net.in_dim)
        )
    for layer in net.layers[:-1]:
        x = relu(x @ layer.weight.T + layer.bias)
    last = net.layers[-1]
    x = x @ last.weight.T + last.bias
    return x[0] if single else x


def affine_net(weight, bias=None) -> Network:
    weight = np.asarray(weight, dtype=np.float64)
    if bias is None:
        bias = np.zeros(weight.shape[0])
    return Network((Layer(weight, bias),))


def compose(f: Network, g: Network) -> Network:
    """Standard composition: ``realize(compose(f, g), x) == realize(f, realize(g, x))``.

    The last layer of ``g`` is fused with the first layer of ``f`` into
    ``(W1_f @ WL_g, W1_f @ BL_g + B1_f)``; depth is depth(f) + depth(g) - 1.
    The four depth cases of the definition collapse to the same slicing.
    """
    if f.in_dim != g.out_dim:
        raise ValueError(
            "cannot compose: inner dimensions %d != %d" % (f.in_dim, g.out_dim)
        )
    w1, b1 = f.layers[0].weight, f.layers[0].bias
    wl, bl = g.layers[-1].weight, g.layers[-1].bias
    fused = Layer(w1 @ wl, w1 @ bl + b1)
    return Network(g.layers[:-1] + (fused,) + f.layers[1:])


def identity_net(d: int) -> Network:
    """Exact identity on R^d with dims (d, 2d, d).

    The hidden layer stacks (x, -x); the output computes
    relu(x) - relu(-x) = x, exactly in floating point.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    eye = np.eye(d)
    return Network(
        (
            Layer(np.vstack([eye, -eye]), np.zeros(2 * d)),
            Layer(np.hstack([eye, -eye]), np.zeros(d)),
        )
    )


def concat_with_identity(f: Network, g: Network) -> Network:
    """Composition through an explicit identity block: ``f . (I . g)``.

    Realizes the same function as ``compose(f, g)`` but keeps the layer
    structure of both factors intact (depth(f) + depth(g) + 1) and
    materializes the intermediate value as a (positive, negative) pair.
    Used to equalize depths and to protect exactness properties across a
    boundary that plain composition would fuse away.
    """
    if f.in_dim != g.out_dim:
        raise ValueError(
            "cannot concatenate: inner dimensions %d != %d" % (f.in_dim, g.out_dim)
        )
    return compose(f, compose(identity_net(g.out_dim), g))


def extend_length(net: Network, target_depth: int) -> Network:
    """Pad ``net`` to ``target_depth`` layers by identity blocks on the input side."""
    if target_depth < net.depth:
        raise ValueError(
            "target depth %d below current depth %d" % (target_depth, net.depth)
        )
    while net.depth < target_depth:
        net = compose(net, identity_net(net.in_dim))
    return net


def select_inputs(net: Network, indices, in_dim: int) -> Network:
    """Rewire ``net`` to read coordinates ``indices`` of an R^in_dim input."""
    return compose(net, affine_net(np.eye(in_dim)[list(indices)]))


def _block_diag(mats):
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def _padded_group(nets):
    nets = list(nets)
    if not nets:
        raise ValueError("need at least one network")
    in_dim = nets[0].in_dim
    for n in nets:
        if n.in_dim != in_dim:
            raise ValueError("networks must share the input dimension")
    depth = max(n.depth for n in nets)
    return [extend_length(n, depth) for n in nets], depth


def _stacked_layers(nets, depth: int) -> list:
    """First ``depth`` layers of equal-depth nets run side by side on a shared input.

    The first layers stack vertically (they read the same input); later
    layers are block diagonal, so each block only sees its own net.
    """
    layers = [
        Layer(
            np.vstack([n.layers[0].weight for n in nets]),
            np.concatenate([n.layers[0].bias for n in nets]),
        )
    ]
    for k in range(1, depth):
        layers.append(
            Layer(
                _block_diag([n.layers[k].weight for n in nets]),
                np.concatenate([n.layers[k].bias for n in nets]),
            )
        )
    return layers


def average_nets(nets, weights) -> Network:
    """Single network realizing ``sum_m weights[m] * realize(nets[m], x)``.

    All nets must share input and output dimensions; depths are equalized
    by identity padding first.  Hidden layers are block diagonal, so the
    parameter count of the result is at most M^2 times the padded
    per-net count when the padded dims agree.
    """
    nets = list(nets)
    weights = [float(w) for w in weights]
    if len(nets) != len(weights):
        raise ValueError("one weight per network required")
    nets, depth = _padded_group(nets)
    out_dim = nets[0].out_dim
    for n in nets:
        if n.out_dim != out_dim:
            raise ValueError("networks must share the output dimension")
    if len(nets) == 1 and weights[0] == 1.0:
        return nets[0]
    if depth == 1:
        w = sum(wt * n.layers[0].weight for wt, n in zip(weights, nets))
        b = sum(wt * n.layers[0].bias for wt, n in zip(weights, nets))
        return Network((Layer(w, b),))
    layers = _stacked_layers(nets, depth - 1)
    layers.append(
        Layer(
            np.hstack([wt * n.layers[-1].weight for wt, n in zip(weights, nets)]),
            sum(wt * n.layers[-1].bias for wt, n in zip(weights, nets)),
        )
    )
    return Network(tuple(layers))


def parallel_stack(nets) -> Network:
    """Single network whose output concatenates the outputs of ``nets``.

    The nets share the input; depths are equalized by identity padding.
    """
    nets, depth = _padded_group(nets)
    if len(nets) == 1:
        return nets[0]
    return Network(tuple(_stacked_layers(nets, depth)))


def product_depth_stages(eps: float, R: float) -> int:
    """Number of sawtooth refinement stages needed for accuracy ``eps`` on [-R, R]^2."""
    return max(1, math.ceil(math.log2(R * R / eps) / 2.0))


def product_net(eps: float, R: float = 1.0) -> Network:
    """Network Pi: R^2 -> R with ``|Pi(a, b) - a*b| <= eps`` for |a|, |b| <= R.

    Uses the polarization identity a*b = ((a+b)/2)^2 - ((a-b)/2)^2 with
    both squares approximated by the piecewise-linear sawtooth refinement
    of u^2 on [0, 1] after rescaling by R.  The two square branches are
    carried as nonnegative running values and subtracted through a final
    pair of rectifier neurons, so inputs with a zero factor give output
    exactly 0.0: both branches then see bitwise identical values and the
    final difference cancels exactly.

    The number of stages grows like log2(1/eps) + 2*log2(R).
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if R < 1.0:
        raise ValueError("range bound R must be >= 1")
    K = product_depth_stages(eps, R)
    s = 1.0 / (2.0 * R)
    layers = []
    # (a, b) -> rectified halves of (a+b)/2R and (a-b)/2R
    layers.append(
        Layer(np.array([[s, s], [-s, -s], [s, -s], [-s, s]]), np.zeros(4))
    )
    # reassemble u = |.| per branch and take the sawtooth basis of u
    basis = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    shift = np.array([0.0, -0.5, -1.0])
    layers.append(
        Layer(
            _block_diag([basis, basis]),
            np.concatenate([shift, shift]),
        )
    )
    # each stage k maps (basis of t_{k-1}, F_{k-1}) -> (basis of t_k, F_k)
    # with t_k = 2 r1 - 4 r2 + 2 r3 and F_k = relu(F_{k-1} - 4^{-k} t_k)
    saw = np.array([2.0, -4.0, 2.0])
    for k in range(1, K):
        if k == 1:
            # F_0 equals the first basis channel (u itself)
            blk = np.vstack([saw, saw, saw, np.array([1.0, 0.0, 0.0]) - 0.25 * saw])
        else:
            blk = np.zeros((4, 4))
            blk[:3, :3] = np.vstack([saw, saw, saw])
            blk[3, :3] = -(4.0 ** -k) * saw
            blk[3, 3] = 1.0
        bias = np.array([0.0, -0.5, -1.0, 0.0])
        layers.append(Layer(_block_diag([blk, blk]), np.concatenate([bias, bias])))
    # final stage keeps only the running values F_K
    if K == 1:
        fin = (np.array([1.0, 0.0, 0.0]) - 0.25 * saw)[None, :]
    else:
        fin = np.zeros((1, 4))
        fin[0, :3] = -(4.0 ** -K) * saw
        fin[0, 3] = 1.0
    layers.append(Layer(_block_diag([fin, fin]), np.zeros(2)))
    # signed difference of the two branches through a rectifier pair
    layers.append(Layer(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2)))
    layers.append(Layer(np.array([[R * R, -R * R]]), np.zeros(1)))
    return Network(tuple(layers))


def hat_time_net(grid, n: int) -> Network:
    """Scalar ramp for grid cell ``n``: 0 before tau_n, linear on the cell, 1 after.

    Realized as the difference of two rectifier ramps divided by the cell
    width, so the value is exactly 0 for t <= tau_n.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if not (0 <= n < len(grid) - 1):
        raise ValueError("cell index out of range")
    step = grid[n + 1] - grid[n]
    if step <= 0.0:
        raise ValueError("degenerate grid cell: tau_%d >= tau_%d" % (n, n + 1))
    return Network(
        (
            Layer(np.array([[1.0], [1.0]]), np.array([-grid[n], -grid[n + 1]])),
            Layer(np.array([[1.0 / step, -1.0 / step]]), np.zeros(1)),
        )
    )


NETWORK_FORMAT_VERSION = 1


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("cannot serialize non-finite value %r" % v)
    return format(v, ".17g")


def _fmt_values(a: np.ndarray) -> str:
    # Layers share few distinct values, so each is formatted once.  unique
    # merges -0.0 with 0.0, which is safe because Layer stores no -0.0;
    # NaN and +-inf stay among the distinct values, so _fmt still raises.
    distinct, inverse = np.unique(a, return_inverse=True)
    tokens = np.array([_fmt(v) for v in distinct.tolist()], dtype=object)
    return ", ".join(tokens[inverse.ravel()].tolist())


def write_network(fh, net: Network):
    """Write the versioned text form of ``net`` to the text stream ``fh``.

    Reals carry 17 significant digits, so ``network_from_doc`` of the
    parsed document is bit-exact; non-finite values raise ValueError.
    Each distinct weight or bias array of the network is formatted once,
    and each distinct value within it once; the bytes are those of
    formatting every entry in row-major order.
    """
    # Keyed by the array's bytes alone (Layer stores float64): the text is
    # the flat row-major join, so arrays with equal bytes write equal text
    # whatever their shapes.  A failed format raises before it is stored.
    texts = {}

    def text(a):
        key = a.tobytes()
        if key not in texts:
            texts[key] = _fmt_values(a)
        return texts[key]

    fh.write('{"version": %d, "dims": %s, "layers": [' % (
        NETWORK_FORMAT_VERSION, json.dumps(list(net.dims))))
    for k, layer in enumerate(net.layers):
        if k:
            fh.write(", ")
        fh.write('{"weight": [')
        fh.write(text(layer.weight))
        fh.write('], "bias": [')
        fh.write(text(layer.bias))
        fh.write("]}")
    fh.write("]}")


def network_from_doc(doc: dict) -> Network:
    if not isinstance(doc, dict) or "dims" not in doc or "layers" not in doc:
        raise ValueError("not a network document")
    if doc.get("version") != NETWORK_FORMAT_VERSION:
        raise ValueError("unsupported network format version %r" % (doc.get("version"),))
    dims = [int(v) for v in doc["dims"]]
    if len(dims) < 2 or len(doc["layers"]) != len(dims) - 1:
        raise ValueError("dims header inconsistent with layer count")
    # A reader may hand equal arrays as one list (build.deserialize does), so
    # each distinct list is converted once, keyed by identity: the document
    # keeps every list alive for the length of the call.
    arrays = {}

    def array(value):
        hit = arrays.get(id(value))
        if hit is None:
            hit = arrays[id(value)] = np.asarray(value, dtype=np.float64)
        return hit

    layers = []
    for k, entry in enumerate(doc["layers"]):
        rows, cols = dims[k + 1], dims[k]
        weight = array(entry["weight"])
        if weight.size != rows * cols:
            raise ValueError("layer %d weight size mismatch" % k)
        bias = array(entry["bias"])
        if bias.size != rows:
            raise ValueError("layer %d bias size mismatch" % k)
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise ValueError("layer %d holds a non-finite value" % k)
        layers.append(Layer(weight.reshape(rows, cols), bias))
    return Network(tuple(layers))
