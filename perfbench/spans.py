"""Outside-in span tracing of kolmonet's public functions.

``Tracer.install()`` replaces every public module-level function of the
traced modules with a wrapper, at every name that binds it: the defining
module and each kolmonet module that imported it by name (``build``
binds ``sample_brownian``, ``sde`` binds ``realize``, and so on).  Each
call records a span (id, parent id, name, start, end) in memory, plus
counts computed from the call's arguments or result.  ``uninstall()``
puts the original functions back.  Nothing inside kolmonet changes.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("sde", "nets", "build", "bounds", "problems", "studies", "cli")

# The elementwise rectifier runs once per layer inside ``realize``; a span
# there would split realize's own time and cost a span per layer.
UNTRACED = {"nets.relu"}

# Per-layer metrics reported by the traced run, in BENCHMARK.json order.
LAYER_METRICS = [
    ("sde.sample_brownian.self_s", "s"),
    ("sde.sample_brownian.normals", "count"),
    ("sde.sample_brownian.streams", "count"),
    ("sde.euler_grid.self_s", "s"),
    ("sde.euler_grid.calls", "count"),
    ("sde.euler_grid.path_steps", "count"),
    ("sde.interpolate.self_s", "s"),
    ("sde.lp_error.self_s", "s"),
    ("nets.realize.self_s", "s"),
    ("nets.realize.calls", "count"),
    ("nets.realize.rows", "count"),
    ("nets.realize.dense_macs", "count"),
    ("nets.realize.nonzero_macs", "count"),
    ("nets.realize.weight_bytes", "bytes"),
    ("nets.compose.self_s", "s"),
    ("nets.compose.calls", "count"),
    ("nets.average_nets.self_s", "s"),
    ("nets.parallel_stack.self_s", "s"),
    ("nets.product_net.self_s", "s"),
    ("build.build_euler_net.self_s", "s"),
    ("build.build_euler_net.calls", "count"),
    ("build.build_mc_average_net.self_s", "s"),
    ("build.serialize.self_s", "s"),
    ("build.serialize.bytes", "bytes"),
    ("build.deserialize.self_s", "s"),
    ("build.load_solution.self_s", "s"),
    ("build.save_solution.self_s", "s"),
    ("build.net.layers", "count"),
    ("build.net.params", "count"),
    ("build.net.nonzero_weights", "count"),
    ("bounds.plan_budget.self_s", "s"),
    ("bounds.plan_budget.calls", "count"),
    ("bounds.solution_error_bound.self_s", "s"),
    ("bounds.solution_param_bound.self_s", "s"),
    ("problems.get_problem.self_s", "s"),
    ("problems.exact_solution.self_s", "s"),
    ("studies.strong_interp_study.self_s", "s"),
    ("studies.moment_study.self_s", "s"),
    ("studies.weak_error_study.self_s", "s"),
    ("cli.cmd_plan.self_s", "s"),
    ("cli.cmd_build.self_s", "s"),
    ("cli.cmd_build.total_s", "s"),
    ("cli.cmd_verify.self_s", "s"),
    ("cli.cmd_verify.total_s", "s"),
    ("cli.cmd_study.self_s", "s"),
    ("cli.cmd_study.total_s", "s"),
    ("trace.spans", "count"),
    ("trace_overhead.round_s", "s"),
    ("trace_overhead.build_s", "s"),
    ("trace_overhead.verify_s", "s"),
    ("trace_overhead.study_s", "s"),
]


class NetStats:
    """Weight count, nonzero count and bytes of a Network, cached per object."""

    def __init__(self):
        self._cache = {}

    def __call__(self, net):
        hit = self._cache.get(id(net))
        if hit is not None and hit[0]() is net:
            return hit[1]
        dense = sum(layer.weight.size for layer in net.layers)
        nonzero = sum(int(np.count_nonzero(layer.weight)) for layer in net.layers)
        nbytes = sum(layer.weight.nbytes + layer.bias.nbytes for layer in net.layers)
        stats = (dense, nonzero, nbytes)
        self._cache[id(net)] = (weakref.ref(net), stats)
        return stats


def _counts(name, args, result, net_stats):
    """Counts computed from a call's arguments or result, outside the span."""
    if name == "sde.sample_brownian":
        M, N, _ = result.increments.shape
        return {"normals": M * N * result.diffusion.shape[1], "streams": M}
    if name == "sde.euler_grid":
        M, n_points, _ = result.grid_values.shape
        return {"path_steps": M * (n_points - 1)}
    if name == "nets.realize":
        net, x = args[0], np.asarray(args[1])
        rows = 1 if x.ndim == 1 else x.shape[0]
        dense, nonzero, nbytes = net_stats(net)
        return {"rows": rows, "dense_macs": rows * dense, "nonzero_macs": rows * nonzero, "weight_bytes": nbytes}
    if name == "build.serialize":
        return {"bytes": len(result)}
    return None


class Tracer:
    """Installs span-recording wrappers; spans stay in memory until ``write``."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end)
        self.counts = []  # (span id, {count: value})
        self._stack = []
        self._next_id = 0
        self._patched = []  # (module or registry dict, name, original function)
        self._net_stats = NetStats()

    # -- installation ---------------------------------------------------------

    def install(self):
        prefix = "kolmonet."
        mods = {n[len(prefix):]: m for n, m in sys.modules.items() if n.startswith(prefix) and m is not None}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = mods[short]
            for attr, fn in vars(mod).items():
                name = "%s.%s" % (short, attr)
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or name in UNTRACED
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, dict) and not attr.startswith("__"):
                    # registries bind functions too (problems._REGISTRY)
                    targets = [(value, key, item) for key, item in value.items()]
                else:
                    targets = [(mod, attr, value)]
                for target, key, item in targets:
                    hit = wrappers.get(id(item))
                    if hit is not None and hit[0] is item:
                        self._set(target, key, hit[1])
                        self._patched.append((target, key, item))

    @staticmethod
    def _set(target, key, value):
        if isinstance(target, dict):
            target[key] = value
        else:
            setattr(target, key, value)

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            self._set(target, key, original)
        self._patched.clear()

    # -- spans ----------------------------------------------------------------

    def _enter(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _leave(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(sid, parent, name, start)
            extra = _counts(name, args, result, tracer._net_stats)
            if extra:
                tracer.counts.append((sid, extra))
            if name.startswith("problems.") and hasattr(result, "exact_solution"):
                result = tracer._wrap_exact(result)
            return result

        return traced

    def _wrap_exact(self, tp):
        fn = tp.exact_solution
        if getattr(fn, "_traced", False):
            return tp
        wrapped = self._wrap("problems.exact_solution", fn)
        wrapped._traced = True
        return dataclasses.replace(tp, exact_solution=wrapped)

    def mark(self):
        """Position in the span list, so a round's spans can be cut out."""
        return len(self.spans), len(self.counts)

    def summarize(self, since=(0, 0)):
        """Per-name self time, total time, call count and summed counts."""
        spans = self.spans[since[0]:]
        child_time = defaultdict(float)
        for _sid, parent, _name, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, _parent, name, start, end in spans:
            dur = end - start
            out[name + ".self_s"] += dur - child_time.get(sid, 0.0)
            out[name + ".total_s"] += dur
            out[name + ".calls"] += 1
        names = {sid: name for sid, _p, name, _s, _e in spans}
        for sid, extra in self.counts[since[1]:]:
            for key, value in extra.items():
                out["%s.%s" % (names[sid], key)] += value
        out["trace.spans"] = len(spans)
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")


def anatomy(net):
    """Per-layer dims, nonzero weights, and computed MACs and bytes of ``realize``.

    MACs and activation bytes (input read plus output written, float64) are
    per realized row; weight bytes are read once per ``realize`` call.
    """
    rows = []
    for k, layer in enumerate(net.layers):
        n_in, n_out = int(layer.in_dim), int(layer.out_dim)
        nonzero = int(np.count_nonzero(layer.weight))
        rows.append(
            {
                "layer": k,
                "in": n_in,
                "out": n_out,
                "nonzero_weights": nonzero,
                "macs_per_row": n_in * n_out,
                "nonzero_macs_per_row": nonzero,
                "activation_bytes_per_row": 8 * (n_in + n_out),
                "weight_bytes": int(layer.weight.nbytes + layer.bias.nbytes),
            }
        )
    return rows
