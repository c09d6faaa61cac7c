"""ReLU network calculus.

Networks are plain tuples of (weight, bias) layers, realized with the
rectifier on hidden layers and an affine output layer.  All operations
here are pure and return new immutable networks, so values can be shared
freely across threads.  Where any weight splits into the independent
blocks of its nonzero pattern, ``realize`` runs every layer as bins of
blocks, a weight that does not split as one bin; each network works out
that plan (numpy alone) on its first ``realize`` and keeps it.

The nonstandard constructions are ``product_net`` (an accuracy
controlled two-input multiplier built from the sawtooth approximation of
the square function), ``hat_time_net`` (the clipped interpolation ramp
used when a scheme is emulated in a single space-time network) and
``pipeline_average`` (the Monte Carlo average of weight-sharing members).
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np


# The arrays _own froze, by id; an entry dies with its array.  Each owns its
# data and is read-only, so it and its float64 views are shared, not copied.
_frozen = weakref.WeakValueDictionary()


def _own(a):
    """Freeze ``a``, a fresh float64 array that nothing else holds, in place."""
    a += 0.0  # makes -0.0 entries +0.0, keeping serialization stable
    a.flags.writeable = False
    _frozen[id(a)] = a
    return a


def _freeze(a):
    """``a`` itself if it is float64 and ``_own`` froze it or its ``base`` (a
    view, such as a member's row of a bias table); else a frozen float64 copy."""
    owner = a if getattr(a, "base", None) is None else a.base
    return a if _frozen.get(id(owner)) is owner and a.dtype == np.float64 else _own(np.array(a, dtype=np.float64))


def _assemble(shape, tiles):
    """The frozen weight of ``shape`` holding each (row, column, array) tile
    at that offset, zeros elsewhere: every weight made of parts is written
    here, each tile once, into one fresh array that a ``Layer`` shares."""
    out = np.zeros(shape)
    for r, c, a in tiles:
        a = np.asarray(a)
        out[r : r + a.shape[0], c : c + a.shape[1]] = a
    return _own(out)


def _join(parts, lead=()):
    """The frozen bias joining ``parts`` along their last axis, each repeated over
    the member axis ``lead`` or a part's: every bias made of parts is written here,
    into one fresh array, an (M, rows) table of member rows where it has M members."""
    lead = np.broadcast_shapes(lead, *(np.shape(b)[:-1] for b in parts))
    return _own(np.concatenate([np.broadcast_to(b, lead + np.shape(b)[-1:]) for b in parts], axis=-1))


@dataclass(frozen=True)
class Layer:
    """One affine layer: ``z -> weight @ z + bias``.

    weight has shape (out, in), bias has shape (out,), or (M, out) for one
    layer shared by M members that have the same weight and differ only
    in their biases.  Arrays from ``_assemble``, ``_join``, ``compose`` or
    another layer, and float64 views of them such as a member's row of a
    bias table, are shared as they are; others are copied, -0.0 made +0.0.
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", _freeze(self.weight))
        object.__setattr__(self, "bias", _freeze(self.bias))
        if self.weight.ndim != 2:
            raise ValueError("layer weight must be a matrix")
        if self.bias.ndim not in (1, 2):
            raise ValueError("layer bias must be a vector or a table of member vectors")
        if self.weight.shape[0] != self.bias.shape[-1]:
            raise ValueError(
                "weight rows (%d) != bias length (%d)"
                % (self.weight.shape[0], self.bias.shape[-1])
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

    @cached_property
    def _plan(self):
        # how realize runs each layer, made on its first call
        return _realize_plan(self)


def param_count(net: Network) -> int:
    """Parameter count sum_k l_k * (l_{k-1} + 1) over the dims of ``net``."""
    dims = net.dims
    return int(sum(dims[k] * (dims[k - 1] + 1) for k in range(1, len(dims))))


def _require_single(net: Network, action: str):
    if any(layer.bias.ndim != 1 for layer in net.layers):
        raise ValueError("cannot %s a network whose biases carry a member axis" % action)


# A weight with fewer entries than this stays dense: the gather of a block
# layer would cost more than the products it saves.  The drift nets that
# an Euler loop realizes once per step are this small.
_BLOCK_MIN_SIZE = 256


@dataclass(frozen=True)
class _Blocks:
    """A weight as the independent blocks of its nonzero pattern.

    The blocks are packed along the diagonals of B equal bins, so one
    batched product ``stack @ x[cols]`` gives every output.  Each block
    keeps its rows and columns in ascending order.
    """

    stack: np.ndarray  # (B, rb, cb) bin weights
    cols: np.ndarray  # (B * cb,) input feature read by each bin column
    src: np.ndarray  # (B * rb,) output feature of each bin row, out for padding
    position: np.ndarray  # (out,) bin row of each output feature


def _rank(labels, count):
    """Index of each entry among the entries of its label, in ascending order."""
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    starts = np.cumsum(sizes) - sizes
    rank = np.empty_like(order)
    rank[order] = np.arange(labels.size) - starts[labels[order]]
    return rank


def _split(weight):
    """The blocks of ``weight``, or None where the dense product is cheaper.

    The blocks are the connected components of the bipartite graph of
    ``weight != 0``, numbered by their first node, rows before columns: a
    zero row is a block without columns, and a zero column is read by no
    block.  The bins have the largest block height and width, and the
    blocks fill them by next fit, tallest first.  The weight stays dense
    when it is small or when the bins would take more than half the dense
    multiply-adds.
    """
    out, inp = weight.shape
    if weight.size < _BLOCK_MIN_SIZE:
        return None
    i, j = np.nonzero(weight)
    # Nodes are the rows, then out + the columns.  Each node takes the least
    # label among its edges, then the label that one points at, until nothing
    # changes: each component ends up labelled by its smallest node.
    label, last = np.arange(out + inp), None
    while not np.array_equal(label, last):
        last, edge = label, np.minimum(label[i], label[out + j])
        label = label.copy()
        np.minimum.at(label, i, edge)
        np.minimum.at(label, out + j, edge)
        label = label[label]
    roots, label = np.unique(label, return_inverse=True)
    count = roots.size
    row_label, col_label = label[:out], label[out:]
    heights = np.bincount(row_label, minlength=count)
    widths = np.bincount(col_label, minlength=count)
    rb, cb = int(heights.max()), int(widths.max())
    bin_of, row_off, col_off = (np.zeros(count, dtype=np.intp) for _ in range(3))
    b, rows, cols = -1, rb, cb
    for k in sorted(np.flatnonzero(heights), key=lambda k: (-heights[k], -widths[k])):
        if rows + heights[k] > rb or cols + widths[k] > cb:
            b, rows, cols = b + 1, 0, 0
        bin_of[k], row_off[k], col_off[k] = b, rows, cols
        rows += heights[k]
        cols += widths[k]
    bins = b + 1
    if 2 * bins * rb * cb > weight.size:
        return None
    row_slot = bin_of[row_label] * rb + row_off[row_label] + _rank(row_label, count)
    col_at = col_off[col_label] + _rank(col_label, count)
    read = heights[col_label] > 0
    gather = np.zeros(bins * cb, dtype=np.intp)
    gather[(bin_of[col_label] * cb + col_at)[read]] = np.flatnonzero(read)
    src = np.full(bins * rb, out, dtype=np.intp)
    src[row_slot] = np.arange(out)
    stack = np.zeros((bins * rb, cb))
    stack[row_slot[i], col_at[j]] = weight[i, j]
    return _Blocks(stack.reshape(bins, rb, cb), gather, src, row_slot)


def _realize_plan(net):
    """Per layer: (gather, bin stack); then the output gather, the height R
    of the activation buffers and the longest gather.  None where no layer
    splits: ``realize`` then runs the dense loop.

    Each distinct weight is split once, and one that stays dense becomes a
    single bin.  Each stack carries its layer's bias as one more column (0
    on padding rows), formed once per distinct pair of bias bytes and
    blocks, and its gather reads that column's input from row R, the ones
    row that sits below the input and the tallest activation.  A layer
    leaves its outputs in bin order: the next layer folds that order into
    its gather, and the output gather puts the features back in order.
    """
    weights = {id(layer.weight): layer.weight for layer in net.layers}
    splits = {key: _split(w) for key, w in weights.items()}
    if all(b is None for b in splits.values()):
        return None
    for key, w in weights.items():
        if splits[key] is None:
            out, inp = w.shape
            splits[key] = _Blocks(w[None], np.arange(inp), np.arange(out), np.arange(out))
    blocks = [splits[id(layer.weight)] for layer in net.layers]
    height = max([net.in_dim] + [len(b.src) for b in blocks])
    gathers, stacks, steps = {}, {}, []
    for layer, prev, b in zip(net.layers, [None] + blocks, blocks):
        bins, rb, cb = b.stack.shape
        pair = (id(prev), id(b))
        if pair not in gathers:
            cols = b.cols if prev is None else prev.position[b.cols]
            gathers[pair] = np.column_stack([cols.reshape(bins, cb), np.full(bins, height)]).ravel()
        key = (layer.bias.tobytes(), id(b))
        if key not in stacks:
            column = np.append(layer.bias, 0.0)[b.src].reshape(bins, rb, 1)
            stacks[key] = np.concatenate([b.stack, column], axis=2)
        steps.append((gathers[pair], stacks[key]))
    return steps, blocks[-1].position, height, max(len(gather) for gather, _ in steps)


def realize(net: Network, x):
    """Evaluate ``net`` on ``x``.

    ``x`` may be a single input of shape (in_dim,) or a batch of shape
    (n, in_dim).  Hidden layers apply the rectifier componentwise; the
    final layer is affine.  Where any layer's weight splits into
    independent blocks, every layer runs as bins in one batched product
    (see ``_split``), a dense weight as a single bin; a network in which no
    layer splits runs the dense loop.  A single input is evaluated as a
    batch of one and gives its bits, and a repeated call on the same batch
    gives the same bits; a row may differ in its last bits between batches
    of other sizes, as BLAS picks its kernels by shape.
    """
    _require_single(net, "realize")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("input must be a vector or a batch of vectors, got shape %s" % (x.shape,))
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != net.in_dim:
        raise ValueError(
            "input length %d does not match network input dimension %d"
            % (x.shape[1], net.in_dim)
        )
    n, last = x.shape[0], net.depth - 1
    if net._plan is None:
        # the drift nets an Euler loop realizes once per step allocate no buffers
        z = x
        for k, layer in enumerate(net.layers):
            z = z @ layer.weight.T
            z += layer.bias
            if k < last:
                np.maximum(z, 0.0, out=z)
        return z[0] if single else z
    steps, final, height, width = net._plan
    # Activations run as (features, n), so each bin gathers whole rows.  A
    # layer reads one of two buffers and writes into the other, and they
    # swap; their row R = height stays 1 for the bias column of each stack.
    # The rectifier runs about 3x faster against an array of zeros than
    # against 0.0.
    src, dst = np.empty((2, height + 1, n))
    src[height] = dst[height] = 1.0
    src[: net.in_dim] = x.T
    gathered = np.empty(width * n)
    zeros = np.zeros((height, n))
    for k, (gather, stack) in enumerate(steps):
        bins, rb, cb = stack.shape
        g = gathered[: bins * cb * n].reshape(bins * cb, n)
        np.take(src, gather, axis=0, out=g, mode="clip")
        z = dst[: bins * rb]
        # the bias column meets the ones row as the last term of each sum
        np.matmul(stack, g.reshape(bins, cb, n), out=z.reshape(bins, rb, n))
        if k < last:
            np.maximum(z, zeros[: len(z)], out=z)
            src, dst = dst, src
    z = z.take(final, axis=0).T
    return z[0] if single else z


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
    A bias with a member axis stays one: each member's fused bias is the
    matrix-vector product ``W1_f @ b`` of its own row b, bit for bit.
    """
    if f.in_dim != g.out_dim:
        raise ValueError(
            "cannot compose: inner dimensions %d != %d" % (f.in_dim, g.out_dim)
        )
    w1, b1 = f.layers[0].weight, f.layers[0].bias
    wl, bl = g.layers[-1].weight, g.layers[-1].bias
    # a batch of matrix-vector products; bl @ w1.T would round differently
    fused = Layer(_own(w1 @ wl), _own(np.matmul(w1, bl[..., None])[..., 0] + b1))
    return Network(g.layers[:-1] + (fused,) + f.layers[1:])


def identity_net(d: int) -> Network:
    """Exact identity on R^d with dims (d, 2d, d).

    The hidden layer stacks (x, -x); the output computes
    relu(x) - relu(-x) = x, exactly in floating point.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    eye = np.eye(d)
    pairs = Layer(_assemble((2 * d, d), [(0, 0, eye), (d, 0, -eye)]), np.zeros(2 * d))
    return Network((pairs, Layer(_assemble((d, 2 * d), [(0, 0, eye), (0, d, -eye)]), np.zeros(d))))


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
    pad = identity_net(net.in_dim)
    while net.depth < target_depth:
        net = compose(net, pad)
    return net


def select_inputs(net: Network, indices, in_dim: int) -> Network:
    """Rewire ``net`` to read coordinates ``indices`` of an R^in_dim input."""
    return compose(net, affine_net(np.eye(in_dim)[list(indices)]))


def average_nets(nets, weights) -> Network:
    """Single network realizing ``sum_m weights[m] * realize(nets[m], x)``.

    The nets must share input and output dimensions.  The result is the
    mixing layer ``[w_0 I, ..., w_{M-1} I]`` composed onto
    ``parallel_stack(nets)``; its parameter count is at most M^2 times the
    padded per-net count when the padded dims agree.  Where the deepest net
    has depth 2 or more, each entry of the fused last weight has one nonzero
    term, w_m times an entry of net m's last weight, so it is that product
    bit for bit.  Nonzero last biases of two or more nets add in
    ``compose``'s matrix-vector order.
    """
    nets = list(nets)
    weights = [float(w) for w in weights]
    if len(nets) != len(weights):
        raise ValueError("one weight per network required")
    if not nets:
        raise ValueError("need at least one network")
    d = nets[0].out_dim
    if any(n.out_dim != d for n in nets):
        raise ValueError("networks must share the output dimension")
    mix = _assemble((d, d * len(nets)), [(0, m * d, w * np.eye(d)) for m, w in enumerate(weights)])
    return compose(affine_net(mix), parallel_stack(nets))


def pipeline_average(template: Network, M: int) -> Network:
    """Network realizing (1/M) sum_m realize(member m, .) as a depth pipeline.

    Member m of the scalar ``template`` (of depth >= 2, as every built path
    network is) has its weights and row m of each bias that carries a
    member axis.  The member blocks run one after another over the inputs,
    carried as rectified (positive, negative) pairs, and a running
    accumulator pair.  Each block weight is formed once and shared by all
    M blocks, so the parameter count is linear in M.
    """
    P = template.in_dim
    if template.out_dim != 1:
        raise ValueError("pipeline members must be scalar")
    if any(l.bias.ndim == 2 and len(l.bias) != M for l in template.layers):
        raise ValueError("template biases must carry %d members" % M)
    pairs = 2 * P
    A = pairs + 2  # the carried pairs, then the accumulator pair
    carry, quiet = np.eye(A), np.zeros(A)
    first, *hidden, out = template.layers
    # Each block's bias is an (M, rows) table, and member m's layer holds its row m.  The first block
    # reads the pairs: first.weight @ [I, -I] is [W, -W], bit for bit.
    W = first.weight
    weight = _assemble((A + first.out_dim, A), [(0, 0, carry), (A, 0, W), (A, P, -W)])
    blocks = [(weight, _join([quiet, first.bias], (M,)))]
    for l in hidden:
        weight = _assemble((A + l.out_dim, A + l.in_dim), [(0, 0, carry), (A, A, l.weight)])
        blocks.append((weight, _join([quiet, l.bias], (M,))))
    # the pairs pass on, and the accumulator pair adds the member's signed output
    W = out.weight
    tiles = [(0, 0, carry[:pairs, :pairs]), (pairs, pairs, [[1.0, -1.0], [-1.0, 1.0]])]
    weight = _assemble((A, A + out.in_dim), tiles + [(pairs, A, W), (pairs + 1, A, -W)])
    blocks.append((weight, _join([np.zeros(pairs), out.bias, -out.bias], (M,))))
    layers = [Layer(_assemble((A, P), [(0, 0, np.eye(P)), (P, 0, -np.eye(P))]), _join([quiet]))]
    for m in range(M):
        layers.extend(Layer(w, b[m]) for w, b in blocks)
    layers.append(Layer(_assemble((1, A), [(0, pairs, [[1.0 / M, -1.0 / M]])]), np.zeros(1)))
    return Network(tuple(layers))


def parallel_stack(nets) -> Network:
    """Single network whose output concatenates the outputs of ``nets``.

    The nets share the input; depths are equalized by identity padding.
    The first layers stack vertically (they read the same input); later
    layers are block diagonal, so each block only sees its own net.  Biases
    are joined along their last axis, a vector repeated for every member
    where another bias carries a member axis.
    """
    nets = list(nets)
    if not nets:
        raise ValueError("need at least one network")
    if any(n.in_dim != nets[0].in_dim for n in nets):
        raise ValueError("networks must share the input dimension")
    depth = max(n.depth for n in nets)
    nets = [extend_length(n, depth) for n in nets]
    if len(nets) == 1:
        return nets[0]
    layers = []
    for k in range(depth):
        ws = [n.layers[k].weight for n in nets]
        rows = np.cumsum([0] + [len(w) for w in ws])
        # the first layers all read the shared input, each later one its own net's features
        cols = np.cumsum([0] + [w.shape[1] for w in ws]) if k else [0] * len(ws) + [nets[0].in_dim]
        weight = _assemble((rows[-1], cols[-1]), zip(rows, cols, ws))
        layers.append(Layer(weight, _join([n.layers[k].bias for n in nets])))
    return Network(tuple(layers))


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

    The number of stages grows like log2(1/eps) + 2*log2(R); a ratio R^2 / eps
    beyond the float range raises ValueError with its log10.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if R < 1.0:
        raise ValueError("range bound R must be >= 1")
    if not math.isfinite(float(R) * float(R) / eps):
        raise ValueError(
            "product range R^2 / eps beyond the float range: eps = %g, R = %g, log10(R^2 / eps) = %.6g"
            % (eps, R, 2.0 * math.log10(R) - math.log10(eps))
        )
    K = product_depth_stages(eps, R)
    s = 1.0 / (2.0 * R)
    # (a, b) -> rectified halves of (a+b)/2R and (a-b)/2R
    layers = [Layer(np.array([[s, s], [-s, -s], [s, -s], [-s, s]]), np.zeros(4))]
    saw = np.array([2.0, -4.0, 2.0])

    def branches(blk):  # one block per square branch, side by side on the diagonal
        r, c = blk.shape
        return _assemble((2 * r, 2 * c), [(0, 0, blk), (r, c, blk)])

    def stage(k):  # (basis of t_{k-1}, F_{k-1}) -> (basis of t_k, F_k) of one branch
        if k == 1:  # F_0 equals the first basis channel (u itself)
            return np.array([saw, saw, saw, np.array([1.0, 0.0, 0.0]) - 0.25 * saw])
        blk = np.zeros((4, 4))
        blk[:3, :3] = saw
        blk[3, :3] = -(4.0 ** -k) * saw
        blk[3, 3] = 1.0
        return blk

    # reassemble u = |.| per branch and take the sawtooth basis of u
    layers.append(Layer(branches(np.ones((3, 2))), _join([[0.0, -0.5, -1.0]] * 2)))
    # t_k = 2 r1 - 4 r2 + 2 r3 and F_k = relu(F_{k-1} - 4^{-k} t_k); the stages share one bias
    shift = _join([[0.0, -0.5, -1.0, 0.0]] * 2)
    for k in range(1, K):
        layers.append(Layer(branches(stage(k)), shift))
    # final stage keeps only the running values F_K
    layers.append(Layer(branches(stage(K)[3:]), np.zeros(2)))
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
    ramps = Layer(np.array([[1.0], [1.0]]), np.array([-grid[n], -grid[n + 1]]))
    return Network((ramps, Layer(np.array([[1.0 / step, -1.0 / step]]), np.zeros(1))))


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


def check_writable(net: Network):
    """Raise the ValueError ``write_network`` would raise on ``net``, before
    anything is written: a bias with a member axis or a non-finite value."""
    _require_single(net, "write")
    arrays = {id(a): a for layer in net.layers for a in (layer.weight, layer.bias)}
    for a in arrays.values():
        if not np.isfinite(a).all():
            raise ValueError("cannot serialize non-finite value %r" % a[~np.isfinite(a)][0].item())


def write_network(fh, net: Network):
    """Write the versioned text form of ``net`` to the text stream ``fh``.

    Reals carry 17 significant digits, so ``network_from_doc`` of the
    parsed document is bit-exact; non-finite values raise ValueError.
    Each distinct weight or bias array of the network is formatted once,
    and each distinct value within it once; the bytes are those of
    formatting every entry in row-major order.
    """
    _require_single(net, "write")
    # Keyed by the array's identity, then by its bytes (Layer stores
    # float64): the text is the flat row-major join, so arrays with equal
    # bytes write equal text whatever their shapes.  The network holds every
    # array for the length of the call, so no two of them share an id.  A
    # failed format raises before it is stored.
    texts, by_id = {}, {}

    def text(a):
        hit = by_id.get(id(a))
        if hit is None:
            key = a.tobytes()
            hit = texts.get(key)
            if hit is None:
                hit = texts[key] = _fmt_values(a)
            by_id[id(a)] = hit
        return hit

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
    # A reader may hand equal arrays as one list (build.deserialize does), so each distinct
    # list is checked and frozen once per shape, keyed by identity, and the layers that repeat
    # it share one array: the document keeps every list alive for the length of the call.  Each
    # is converted into a fresh array, as a caller's document may hold numpy arrays of its own.
    arrays = {}

    def array(value, shape, k, what):
        key = (id(value), shape)
        hit = arrays.get(key)
        if hit is None:
            hit = np.array(value, dtype=np.float64)
            if hit.size != math.prod(shape):
                raise ValueError("layer %d %s size mismatch" % (k, what))
            if not np.isfinite(hit).all():
                raise ValueError("layer %d holds a non-finite value" % k)
            hit = arrays[key] = _own(hit).reshape(shape)
        return hit

    layers = []
    for k, entry in enumerate(doc["layers"]):
        rows, cols = dims[k + 1], dims[k]
        weight = array(entry["weight"], (rows, cols), k, "weight")
        bias = array(entry["bias"], (rows,), k, "bias")
        layers.append(Layer(weight, bias))
    return Network(tuple(layers))
