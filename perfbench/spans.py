"""Spans around the calls into each wsvie layer, recorded from outside.

``Tracer.install`` replaces module-level functions and methods of a freshly
imported ``wsvie`` (and ``numpy.linalg.solve``, which only the solver calls)
by wrappers that record a span per call: name, parent span, start and end.
Every module that imported a function by name gets the wrapper too, so calls
are seen wherever they come from. Spans stay in memory; ``write`` stores them
when the run ends. ``layer_metrics`` derives the per-layer metrics.

A span name is ``<layer>.<function>``; the layer is a wsvie module, or
``bench`` for the benchmark's own set-up, sweep and rung spans.
``preset_1d``/``preset_2d`` live in ``solver`` but only build meshes and
coverings, so their spans count as ``mesh``. The per-layer metrics cover one
traced set-up and one traced sweep; counts are summed over the rungs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

import numpy as np

# per-layer metric -> (unit, better, what it should move)
LAYER_METRICS = {
    "mesh.build_s": ("s", "lower", "setup_s on qstar-2d and bstar-2d"),
    "mesh.causal_s": ("s", "lower", "setup_s on qstar-2d and bstar-2d"),
    "mesh.cells": ("count", "lower", "none (fixed by the workload)"),
    "mesh.pairs": ("count", "lower", "solve_top_s on qstar-2d"),
    "quad.moment_calls": ("count", "lower", "solve_top_s on all, most on qstar-2d"),
    "quad.moment_rows": ("count", "lower", "solve_top_s on all"),
    "quad.moment_s": ("s", "lower", "solve_top_s on all"),
    "quad.rule_s": ("s", "lower", "solve_top_s, most on abel-1d"),
    "quad.points": ("count", "lower", "solve_top_s, most on abel-1d"),
    "quad.useful_frac": ("ratio", "higher", "solve_top_s, most on abel-1d"),
    "quad.far_rows": ("count", "lower", "solve_top_s on all"),
    "quad.near_rows": ("count", "lower", "solve_top_s on all"),
    "quad.singular_rows": ("count", "lower", "solve_top_s on all"),
    "quad.flops": ("flop", "lower", "solve_top_s on all"),
    "quad.self_s": ("s", "lower", "solve_top_s on all"),
    "interp.basis_calls": ("count", "lower", "solve_top_s on abel-1d and bstar-2d"),
    "interp.basis_evals": ("count", "lower", "solve_top_s on abel-1d and bstar-2d, "
                           "sweep_s on qstar-2d"),
    "interp.basis_s": ("s", "lower", "solve_top_s on abel-1d and bstar-2d, "
                       "sweep_s on qstar-2d"),
    "solver.solve_s": ("s", "lower", "solve_top_s on all"),
    "solver.self_s": ("s", "lower", "solve_top_s, most on qstar-2d"),
    "solver.lu_calls": ("count", "lower", "none predicted (LU < 2% of every workload)"),
    "solver.lu_s": ("s", "lower", "none predicted (LU < 2% of every workload)"),
    "solver.lu_flops": ("flop", "lower", "none predicted (LU < 2% of every workload)"),
    "solver.inherit_nodes": ("count", "lower", "solve_top_s on qstar-2d and bstar-2d"),
    "solver.inherit_s": ("s", "lower", "solve_top_s on qstar-2d and bstar-2d"),
    "spline.eval_s": ("s", "lower", "sweep_s on qstar-2d; nothing on abel-1d"),
    "spline.cell_of_s": ("s", "lower", "sweep_s on qstar-2d; nothing on abel-1d"),
    "spline.eval_points": ("count", "lower", "none (fixed by the sample grid)"),
    "spline.node_error_s": ("s", "lower", "sweep_s on qstar-2d"),
    "spline.self_s": ("s", "lower", "sweep_s on qstar-2d"),
    "trace.spans": ("count", "lower", "none (what the tracing cost scales with)"),
    "trace.overhead_s": ("s", "lower", "none (traced minus untraced sweep CPU s)"),
}

# counters that must repeat exactly across runs and seeds
DETERMINISTIC = ("mesh.cells", "mesh.pairs", "quad.moment_calls", "quad.moment_rows",
                 "quad.points", "interp.basis_evals", "solver.inherit_nodes",
                 "solver.lu_calls")

SOLVE_SPANS = ("solver.solve_1d", "solver.solve_2d")


class Tracer:
    """In-memory span recorder plus the counters that the wrappers add up."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.last_rule_points = 0  # points of the rule built inside the open moment call
        self.unwrapped: list[str] = []
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def parent_name(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, span_name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return wrapper

    def _replace_everywhere(self, pkg, fn, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == pkg.__name__
                                   or mod_name.startswith(pkg.__name__ + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def install(self, ws) -> None:
        """Wrap the layer entry points of the imported package ``ws``."""
        # a name that a later version of the package drops is reported, not fatal
        functions = [
            (ws.solver, "preset_1d", "mesh.preset_1d", None),
            (ws.solver, "preset_2d", "mesh.preset_2d", None),
            (ws.mesh, "causal_order", "mesh.causal_order", None),
            (ws.quad, "kernel_moments", "quad.kernel_moments", _moments_hook),
            (ws.quad, "axis_kernel_quadrature", "quad.axis_kernel_quadrature", _rule_hook),
            (ws.interp, "lagrange_basis_matrix", "interp.lagrange_basis_matrix", _basis_hook),
            (ws.solver, "solve_1d", "solver.solve_1d", None),
            (ws.solver, "solve_2d", "solver.solve_2d", None),
            (ws.spline, "sup_error", "spline.sup_error", None),
            (ws.spline, "max_node_error", "spline.max_node_error", None),
            (ws.spline, "n_functionals", "spline.n_functionals", None),
        ]
        for mod, attr, span_name, hook in functions:
            fn = getattr(mod, attr, None)
            if fn is None:
                self.unwrapped.append(span_name)
            else:
                self._replace_everywhere(ws, fn, self._wrap(fn, span_name, hook))
        methods = [
            (ws.mesh.Covering, "causal_rank", "mesh.causal_rank", None),
            (ws.spline.TensorSpline, "cell_of", "spline.cell_of", None),
            (ws.spline.TensorSpline, "eval_cell", "spline.eval_cell", _eval_cell_hook),
            (ws.spline.TensorSpline, "eval", "spline.eval", _eval_hook),
            (ws.spline.LocalSpline, "eval", "spline.eval", _eval_hook),
        ]
        for cls, attr, span_name, hook in methods:
            fn = cls.__dict__.get(attr)
            if fn is None:
                self.unwrapped.append(span_name)
                continue
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, span_name, hook))
        self._restore.append((np.linalg, "solve", np.linalg.solve))
        np.linalg.solve = self._wrap(np.linalg.solve, "solver.lu", _lu_hook)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts from the spans and the counters."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        by_name: dict[str, float] = {}
        self_by_name: dict[str, float] = {}
        inherit_s = 0.0
        for i in range(n):
            name = self.names[self.name[i]]
            by_name[name] = by_name.get(name, 0.0) + dur[i]
            self_by_name[name] = self_by_name.get(name, 0.0) + dur[i] - child[i]
            p = self.parent[i]
            if name == "spline.eval_cell" and p >= 0 and self.names[self.name[p]] in SOLVE_SPANS:
                inherit_s += dur[i]
        self_by_layer: dict[str, float] = {}
        for name, value in self_by_name.items():
            layer = name.split(".", 1)[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + value
        t = by_name.get
        c = self.counts.get
        points = c("quad.points", 0)
        return {
            "mesh.build_s": t("mesh.preset_1d", 0.0) + t("mesh.preset_2d", 0.0),
            "mesh.causal_s": t("mesh.causal_order", 0.0) + t("mesh.causal_rank", 0.0),
            "mesh.cells": c("mesh.cells", 0),
            "mesh.pairs": c("mesh.pairs", 0),
            "quad.moment_calls": c("quad.moment_calls", 0),
            "quad.moment_rows": c("quad.moment_rows", 0),
            "quad.moment_s": t("quad.kernel_moments", 0.0),
            "quad.rule_s": t("quad.axis_kernel_quadrature", 0.0),
            "quad.points": points,
            "quad.useful_frac": c("quad.useful", 0) / points if points else 0.0,
            "quad.far_rows": c("quad.far_rows", 0),
            "quad.near_rows": c("quad.near_rows", 0),
            "quad.singular_rows": c("quad.singular_rows", 0),
            "quad.flops": c("quad.flops", 0),
            "quad.self_s": self_by_layer.get("quad", 0.0),
            "interp.basis_calls": c("interp.basis_calls", 0),
            "interp.basis_evals": c("interp.basis_evals", 0),
            "interp.basis_s": t("interp.lagrange_basis_matrix", 0.0),
            "solver.solve_s": sum(t(s, 0.0) for s in SOLVE_SPANS),
            "solver.self_s": sum(self_by_name.get(s, 0.0) for s in SOLVE_SPANS),
            "solver.lu_calls": c("solver.lu_calls", 0),
            "solver.lu_s": t("solver.lu", 0.0),
            "solver.lu_flops": c("solver.lu_flops", 0),
            "solver.inherit_nodes": c("solver.inherit_nodes", 0),
            "solver.inherit_s": inherit_s,
            "spline.eval_s": t("spline.sup_error", 0.0),
            "spline.cell_of_s": t("spline.cell_of", 0.0),
            "spline.eval_points": c("spline.eval_points", 0),
            "spline.node_error_s": (t("spline.max_node_error", 0.0)
                                    + t("spline.n_functionals", 0.0)),
            "spline.self_s": self_by_layer.get("spline", 0.0),
            "trace.spans": n,
        }

    def write(self, path) -> None:
        """Spans as columns; times in ns from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [round((s - t0) * 1e9) for s in self.start],
            "end_ns": [round((e - t0) * 1e9) for e in self.end],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


# -- counter hooks: (tracer, args, kwargs, result) --------------------------

def _moments_hook(tr: Tracer, args, kwargs, out) -> None:
    # kernel_moments(x, p, a, b, nodeset, n, rule=..., depth=...)
    x = np.atleast_1d(np.asarray(args[0], dtype=float))
    a, b = float(args[2]), float(args[3])
    R, m = out.shape
    u = np.minimum(x, b)
    active = u > a
    singular = active & (x <= b)
    far = active & (x > b) & (x - b >= b - a)
    tr.add("quad.moment_calls", 1)
    tr.add("quad.moment_rows", R)
    tr.add("quad.singular_rows", int(singular.sum()))
    tr.add("quad.far_rows", int(far.sum()))
    tr.add("quad.near_rows", int((active & ~far & ~singular).sum()))
    tr.add("quad.flops", 2 * tr.last_rule_points * m)
    tr.last_rule_points = 0


def _rule_hook(tr: Tracer, args, kwargs, out) -> None:
    T, W = out
    tr.add("quad.points", T.size)
    tr.add("quad.useful", int(np.count_nonzero(W)))
    tr.last_rule_points += T.size


def _basis_hook(tr: Tracer, args, kwargs, out) -> None:
    tr.add("interp.basis_calls", 1)
    tr.add("interp.basis_evals", out.size)


def _eval_cell_hook(tr: Tracer, args, kwargs, out) -> None:
    if tr.parent_name() in SOLVE_SPANS:
        tr.add("solver.inherit_nodes", len(out))


def _eval_hook(tr: Tracer, args, kwargs, out) -> None:
    tr.add("spline.eval_points", np.size(out))


def _lu_hook(tr: Tracer, args, kwargs, out) -> None:
    n = np.shape(args[0])[0]
    tr.add("solver.lu_calls", 1)
    tr.add("solver.lu_flops", 2.0 * n ** 3 / 3.0)
