"""Step-by-step spline-collocation solvers for weakly singular Volterra equations.

Equations have the second-kind form

    x(t) - int_0^{t_l} ... int_0^{t_1} h(t, tau) g(t - tau) x(tau) dtau = f(t)

on [0, T]^l, l in {1, 2}, with the product kernel g(u) = prod_i u_i^{p_i}.
The approximate solution is a local spline whose nodal values are determined
cell by cell in a causal order: inside the current cell the integral is
expressed in the cell's tensor Lagrange basis, while the part over
already-processed cells is evaluated with the known spline and moved to the
right-hand side. A 1D graded mesh is solved as its one-axis covering, and
each step loops over the l axes, so every dimension runs the same march.

With no smooth factor (h absent) both pieces factorize per axis, because the
kernel is a product and the spline is a tensor polynomial: the history
contribution of a processed cell D is X_D contracted on each axis with one
moment matrix, which depends only on D's range and node count on that axis.
One generator, ``_cell_moments``, walks a sequence of target grids in chunks.
Per axis a target's moments are one take from the walk's row arena: the rows of
the walk's far classes (rows shared by interval pairs of one geometry, once per
walk), read in place and scaled by their source's h^(p + 1), and the chunk's
own rows, which ``stacked_kernel_moments`` computes for the pairs the chunk
reads that no class serves, each row at the rule of its source's node count,
its singular and near rows from the thread's row store (``quad._STORE``, kept
for the process). A chunk's index table maps each pair of its source intervals
and grid coordinates to an arena row. The targets are the
cells' node grids in causal order for the march and the collocation residual
check, sample grids for ``residual`` and the uniform grid for the oracle. The
moment matrices are padded like the spline's value table (``TensorSpline.tables``)
to the largest node count per axis, so a target's history is one batched
contraction per block of sources, summed in source-index order. A chunk's index
entries and own rows with the walk's rows in the store, and each block of
sources, hold about ``_TABLE_BUDGET`` doubles (1 MB) at most, the store half that.
The class rows come beside them and grow with the far geometries of the covering.

A general h(t, tau) couples the axes. The generator then weights the same
tables by product integration: h(t, .) x is interpolated at each source
cell's nodes, so node j's weight is its h == 1 moment times h(t, tau_j),
exact when h(t, .) is constant in tau and of the same order otherwise. The
weights are flattened to one axis, which the consumers treat as l = 1.

What a solve derives from its geometry alone is built once per solve, in
vector steps: the node sets of all distinct (interval, node count) pairs
(``spline._unfilled``), the right side at all nodes and the donors of all
boundary nodes, in flat arrays sliced per cell (``_nodal``), the reference
self-moments per (family, m, p) (``_shape_matrix``), the Gauss-Legendre rules
of all its node counts (one Newton iteration, ``interp.legendre_table``) and
the chunk plan of ``_cell_moments`` on integer ids, the check of the order against the
shadow relation and the numbers of the cell shapes. Donor basis rows come per block of
cells. The cell loop keeps the history (one gather per block, the cell's own weights
with the last), inherited values, local solve (one inverse per cell shape) and residual
check, per axis where the inverse is shared. Cells whose predecessors are complete
could be solved concurrently; this implementation is the single-threaded reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .interp import build_nodes, legendre_table
from .interp import geometric_degree_schedule, power_degree_schedule
from .mesh import (Covering, GradedMesh, boundary_layer_covering, corner_layer_covering,
                   geometric_covering, geometric_mesh, power_graded_mesh, shadow_matrix)
from . import quad
from .quad import _TABLE_BUDGET, _reference_nodes, kernel_moments, stacked_kernel_moments
from .spline import LocalSpline, TensorSpline, _inherited, _nodal, _unfilled


@dataclass
class KernelSpec:
    """Product kernel h(t, tau) * prod_i (t_i - tau_i)^{p_i}.

    ``exponents`` lists p_i per axis (each > -1). ``smooth_factor`` is an
    optional vectorized callable taking 2l coordinate arrays
    (t_1, ..., t_l, tau_1, ..., tau_l), whose output, a scalar or any shape,
    broadcasts with them; absent means h == 1 and enables the fast per-axis
    factorized path. With h the solver applies the product-integration
    operator (see ``_cell_moments``).
    """

    exponents: tuple
    smooth_factor: object = None

    def __post_init__(self):
        self.exponents = tuple(float(p) for p in np.atleast_1d(self.exponents))
        if not all(-1 < p < math.inf for p in self.exponents):
            raise ValueError(f"kernel exponents must be > -1 and finite, got {self.exponents}")


@dataclass
class VieProblem:
    """Equation definition: dimension, domain edge, kernel, rhs, optional exact solution."""

    l: int
    T: float
    kernel: KernelSpec | None
    rhs: object
    exact: object = None

    def __post_init__(self):
        if self.l not in (1, 2):
            raise ValueError(f"l must be 1 or 2, got {self.l}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be > 0 and finite, got {self.T}")
        if self.kernel is not None and len(self.kernel.exponents) != self.l:
            raise ValueError("kernel exponent count does not match the dimension")


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def preset_1d(params, N: int):
    """(mesh, schedule, family) for solving/approximating on [0, T] at level N."""
    if params.kind in ("q_star", "q_double_star"):
        mesh = power_graded_mesh(N, params.T, params.grading_exponent)
        schedule = power_degree_schedule(mesh.nsegments, params.r, params.s)
        family = "legendre_closed"
    else:
        mesh = geometric_mesh(N, params.T)
        schedule = geometric_degree_schedule(mesh.nsegments, params.r, params.gamma,
                                             params.bound_constant, params.T)
        family = "chebyshev1_closed"
    return mesh, schedule, family


def preset_2d(params, N: int):
    """(covering, per-axis node count, family) for the plane at level N."""
    if params.kind in ("q_star", "q_double_star"):
        build = boundary_layer_covering if params.kind == "q_star" else corner_layer_covering
        return build(N, params.T, 2, params.grading_exponent), max(params.s, 2), "legendre_closed"
    if params.kind == "b_star":   # every cell takes the node count of 1D segment N
        degree = geometric_degree_schedule(N + 1, params.r, params.gamma, params.bound_constant,
                                           params.T)[N]
        return geometric_covering(N, params.T, 2), degree, "chebyshev1_closed"
    raise ValueError(f"no covering construction for kind {params.kind!r}")


# ---------------------------------------------------------------------------
# the integral over source cells
# ---------------------------------------------------------------------------

def _cell_moments(kern: KernelSpec | None, nodesets, targets, sources):
    """Weights of the kernel integrals over source cells at target grids.

    ``targets`` yields (key, grid) pairs, where grid holds one coordinate
    array per axis, and ``sources(key)`` gives the index array of the source
    cells whose integrals, clipped at each grid point, the target needs; it is
    asked once per target, when the walk starts.
    Yields (key, srcs, moments) per target, in order; ``moments(lo, hi)``
    returns the weights of the sources srcs[lo:hi] at the grid, per axis:

    * for h == 1, the ``kernel_moments`` of axis a: one array of shape
      (hi - lo, grid[a].size, M_a), each source's in its leading m columns
      and zero past them, M_a the largest node count of ``nodesets`` on the
      axis: one take per axis from the walk's row arena, through an index table
      built per chunk of consecutive targets. The arena is flat: a row is as wide
      as its source's m and read as a window of the largest M_a zeroed past m, or
      taken whole when every row has that width, as in every 2D preset. A
      chunk's table has one entry per pair of its source intervals (a, b, m,
      family) and the sorted union of its grid coordinates.
      The arena holds the rows of the walk's kept far classes, a zero row and
      the chunk's own rows: the rows of the pairs it reads that no class serves,
      singular, near and far, one ``stacked_kernel_moments`` call per axis, each
      at the rule of its source's node count (``quad._rule_points``), its
      singular and near rows and far rule bases from the thread's ``_RowStore``
      of ``_TABLE_BUDGET / 2`` doubles, which serves the rows of earlier walks.
      A class row is read in place and multiplied by its source's h^(p + 1),
      the product that makes an own row; a pair before its interval, or one
      that no target of the walk reads, points at the zero row. The walk's
      rules are built when it starts. A chunk grows while its index entries
      and own rows, with the walk's own rows in the store, hold at most
      ``_TABLE_BUDGET`` doubles, and takes at least one target. It is planned
      on integer ids, of the distinct coordinates of all targets (one
      ``np.unique`` per axis) and of the source intervals: a target's and a
      chunk's ids are ``_bitsets``, and each new coordinate or interval adds
      the own pairs it makes with the chunk's (``_own_bitsets``). Sources are
      asked for once per walk; a target's table rows are a lookup of its
      coordinate ids. The last chunk's rows are replaced in place when the next
      chunk's are built and its tables go; moments drawn later raise.
      Far rows come in classes (``_far_classes``) when the walk's largest
      rule has at least ``_CLASS_POINTS`` points and some target grid is the
      node array of an interval t. Node j of t and a source interval s with
      b_t - b_s >= b_s - a_s key their far row by r1 = (mid_t - b_s) / h_s,
      r2 = h_t / h_s, the (m, family) of t and of s and p; equal keys are a
      class, numbered once per walk by one sort, whose row j is the far row
      at X = r1 + r2 y_j, y_j node j of t's reference node set. Every class
      that a target reads is kept, beside the chunk's budget, each row
      computed once when the walk starts. Any other far pair (at a coordinate
      of no interval, or in a walk without classes) is a class of its own, at
      X = (x - b_s) / h_s, the rows of ``kernel_moments``.
    * with a smooth factor, one array of shape (hi - lo, grid size,
      M_1 * ... * M_l): the product-integration weights of ``_product``, exact
      for the spline when h(t, .) is constant in tau; zero without a kernel.
    """
    widths = [max(ns.m for ns in sets) for sets in zip(*nodesets)]   # M_a
    targets = list(targets)
    if not targets:
        return
    if kern is None:   # zero weights, as one axis, and no tables
        for key, grid in targets:
            size = (math.prod(x.size for x in grid), math.prod(widths))
            yield key, sources(key), lambda lo, hi, size=size: [np.zeros((hi - lo,) + size)]
        return
    h = kern.smooth_factor
    if h is not None:   # per axis, every cell's nodes, padded with its last (h stays finite)
        nodes = [np.array([np.pad(n[a].nodes, (0, M - n[a].m), mode="edge") for n in nodesets])
                 for a, M in enumerate(widths)]
    srcs = [sources(key) for key, _ in targets]   # once per walk, then slices of one array
    cut = np.append(0, np.cumsum([s.size for s in srcs]))
    cat = np.concatenate(srcs + [np.empty(0, int)]).astype(np.min_scalar_type(len(nodesets)))
    del srcs
    axes = []   # per axis: the integer ids that chunks are planned on
    for a, p in enumerate(kern.exponents):
        keys = [(n[a].m, n[a].family, n[a].a, n[a].b) for n in nodesets]   # a source interval
        index = {key: i for i, key in enumerate(sorted(set(keys)))}   # ids in order of m
        kid, reps = np.array([index[key] for key in keys]), np.empty(len(index), dtype=object)
        reps[kid] = [n[a] for n in nodesets]   # one NodeSet per id
        x, cid = np.unique(np.concatenate([g[a] for _, g in targets]), return_inverse=True)
        ends = np.array([key[2:] for key in index])
        axes.append(SimpleNamespace(
            p=p, kid=kid, reps=reps, ends=ends, scale=(0.5 * (ends[:, 1] - ends[:, 0])) ** (p + 1),
            ms=np.array([key[0] for key in index], dtype=np.int16),   # int16: j * m stays small
            x=x, cid=cid.ravel(), off=np.append(0, np.cumsum([g[a].size for _, g in targets])),
            cls=None))
    legendre_table({quad._rule_points(ns.m) for ax in axes for ns in ax.reps})   # one batch
    store = quad._STORE.walk(   # this thread's store, kept for the process
        {(ns.family, ns.m, ax.p) for ax in axes for ns in ax.reps}, _TABLE_BUDGET // 2)
    width = max(widths)   # of the arena's rows; an index counts rows if all have it
    arena, C = _far_classes(axes, cat, cut, store, width)
    unit = width if all(ns.m == width for ax in axes for ns in ax.reps) else 1
    # an index entry, in doubles: a chunk of several targets holds at most this many rows
    isz = np.min_scalar_type((C + _TABLE_BUDGET) // unit + 1).itemsize / 8
    for ax in axes:
        _own_bitsets(ax)
    bits, tables, pos = [], [], 0   # per target until yielded: its id bitsets per axis
    while pos < len(targets):
        end, chunk = pos, [(0, 0, 0)] * len(axes)   # per axis: coordinates, intervals, own rows
        while end < len(targets):
            if end == len(bits):   # the bitsets of the next 64 targets
                nxt = min(end + 64, len(targets))
                bits += zip(*[zip(_bitsets(ax.off[end:nxt + 1], ax.cid, ax.x.size),
                                  _bitsets(cut[end:nxt + 1] - cut[end],
                                           ax.kid[cat[cut[end]:cut[nxt]]], len(ax.reps)))
                              for ax in axes])
            grown, size = [], 0
            for (c, i, n), (bc, bi), ax in zip(chunk, bits[end], axes):
                # the own pairs of the new coordinates and of the new intervals
                for ids, by, other in ((bc & ~c, ax.by_x, i | bi), (bi & ~i, ax.by_k, c)):
                    while ids:
                        low = ids & -ids
                        ids ^= low
                        n += (by[low.bit_length() - 1] & other).bit_count()
                c, i = c | bc, i | bi
                size += c.bit_count() * i.bit_count() * isz + n * width
                grown.append((c, i, n))
            if end > pos and size > _TABLE_BUDGET - store.own:
                break
            chunk, end = grown, end + 1
        tables.clear()   # free the last chunk's tables first; a late gather of them raises
        tables, rows, sel, kinds = [], [], [], []
        first, srcs = cut[pos:end + 1] - cut[pos], cat[cut[pos]:cut[end]]
        for ax in axes:   # the ids of the chunk's coordinates and intervals, as masks
            near, used = np.zeros(ax.x.size, dtype=bool), np.zeros(len(ax.reps), dtype=bool)
            near[ax.cid[ax.off[pos]:ax.off[end]]] = used[ax.kid[srcs]] = True
            U, R = np.flatnonzero(used), np.flatnonzero(near)
            kinds.append((U, R, *_pair_kinds(ax, U, R)))
            rows.append(np.cumsum(near) - 1)   # a coordinate id's row in the chunk's tables
            sel.append((np.cumsum(used) - 1).astype(np.min_scalar_type(U.size))[ax.kid[srcs]])
        free = C + width   # the chunk's own rows replace the last chunk's, in place
        arena.resize(free + width * sum(np.count_nonzero(k[2]) for k in kinds), refcheck=False)
        arena[free:] = 0.0
        for ax, (U, R, own, served, cls) in zip(axes, kinds):
            s, r = np.nonzero(own)
            stacked_kernel_moments(ax.x[R], ax.p, *ax.ends[U].T, ax.reps[U], store, (s, r),
                                   arena[free:free + s.size * width].reshape(-1, width))
            # a served pair reads its class row, one not read the zero row at C; in rows of
            # ``unit`` doubles when they are all as wide, else in doubles
            index = np.full(own.shape, C // unit, dtype=np.min_scalar_type(len(arena) // unit))
            if served is not None:
                index[served] = (cls + ax.j[R] * ax.ms[U, None])[served] // unit
            index[s, r] = np.arange(free, free + s.size * width, width) // unit
            tables.append((arena, C, unit, index, ax.scale[U], ax.ms[U]))
            free += s.size * width
            del s, r
        del kinds
        for t in range(pos, end):
            lo, hi = first[t - pos], first[t - pos + 1]
            moments = partial(
                _gather, tables, [r[ax.cid[ax.off[t]:ax.off[t + 1]]] for r, ax in zip(rows, axes)],
                [s[lo:hi] for s in sel], widths)
            if h is not None:
                moments = partial(_product, h, moments, targets[t][1],
                                  [n[srcs[lo:hi]] for n in nodes])
            yield targets[t][0], srcs[lo:hi], moments
            bits[t] = None
        pos = end


def _bitsets(off, ids, n: int) -> list:
    """Per group ids[off[g]:off[g + 1]] of ids below n, an int with those bits set."""
    held = np.zeros((len(off) - 1, n), dtype=bool)
    flat = np.repeat(np.arange(0, held.size, n), np.diff(off)) + ids[off[0]:off[-1]]
    held.reshape(-1)[flat] = True
    return _row_ints(held)


def _row_ints(held) -> list:
    """Per row of the boolean matrix ``held``, an int with bit j set where the row is."""
    packed = np.packbits(held, axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[g * w:g * w + w], "little") for g in range(len(held))]


def _node_intervals(ax) -> np.ndarray:
    """Per target, the source interval whose node array its grid is (K: none): one
    ``np.unique`` over the rows of the targets' coordinate ids and the intervals' node ids."""
    K, sizes = len(ax.reps), np.diff(ax.off)
    nodes = np.concatenate([ns.nodes for ns in ax.reps])
    ms = np.array([ns.m for ns in ax.reps])
    at = np.minimum(np.searchsorted(ax.x, nodes), ax.x.size - 1)
    whole = np.logical_and.reduceat(ax.x[at] == nodes, np.append(0, np.cumsum(ms)[:-1]))
    ids = np.full((sizes.size + K, max(sizes.max(), ms.max())), -1)
    for n, off, k in ((sizes, ax.off[:-1], ax.cid), (ms, np.append(0, np.cumsum(ms)[:-1]), at)):
        row = np.repeat(np.arange(n.size), n) + (0 if n is sizes else sizes.size)
        ids[row, np.arange(k.size) - np.repeat(off, n)] = k
    ids[sizes.size:][~whole] = -2   # an interval of nodes that no target has
    _, inverse = np.unique(ids, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    last = np.full(inverse.max() + 1, -1)
    np.maximum.at(last, inverse[sizes.size:], np.arange(K))   # the last of equal intervals
    return np.where(last < 0, K, last)[inverse[:sizes.size]]


# far rules of fewer Gauss points give rows about as cheap to compute as to look up
_CLASS_POINTS = 16


def _far_classes(axes, cat, cut, store, width: int):
    """Number a walk's far classes (see ``_cell_moments``); returns (arena, C): the walk's flat
    row arena, whose first C doubles are the rows of every class that a target reads, from
    ``store.far``, each as wide as its source's m (NaN in the rows a class never serves),
    then a zero row of ``width``. The sources of target t are cat[cut[t]:cut[t + 1]].
    Sets per axis each coordinate id's interval ``tgt`` (K: none) and node ``j``, ``cls``:
    per (interval, source interval) its class's offset in the arena, or -1, and ``read``:
    whether a target reads the source interval at a coordinate of that interval; ``cls``
    stays None if no class is numbered."""
    if quad._rule_points(max(ns.m for ax in axes for ns in ax.reps)) < _CLASS_POINTS:
        return np.zeros(width), 0
    keys, pairs = [], []
    for ax in axes:
        (lo, hi), K = ax.ends.T, len(ax.reps)
        at = np.repeat(_node_intervals(ax), np.diff(ax.off))   # per target
        first = np.lexsort((at, ax.cid))
        first = first[np.append(True, np.diff(ax.cid[first]) > 0)]   # per coordinate id
        ax.tgt = at[first]
        ax.j = (first - np.repeat(ax.off[:-1], np.diff(ax.off))[first]).astype(np.int16)
        held = np.zeros(K + 1, dtype=bool)
        held[ax.tgt] = True
        pairs.append(held[:, None] & (np.append(hi, -np.inf)[:, None] - hi >= hi - lo))
    if not any(mask.any() for mask in pairs):   # no far pair of an interval that is a grid
        return np.zeros(width), 0
    groups = sorted({(ns.m, ns.family) for ax in axes for ns in ax.reps})
    ms, ps = np.array([m for m, _ in groups]), sorted({ax.p for ax in axes})
    Y = np.array([np.pad(_reference_nodes((-1.0, 1.0), f, m).nodes, (0, ms[-1] - m))
                  for m, f in groups])
    for mask, ax in zip(pairs, axes):
        (lo, hi), K = ax.ends.T, len(ax.reps)
        # a read: each interval of a target's coordinates with each interval of its sources
        tt, tk = np.divmod(np.unique(np.repeat(np.arange(len(ax.off) - 1), np.diff(ax.off))
                                     * (K + 1) + ax.tgt[ax.cid]), K + 1)
        n = np.diff(cut)[tt]
        at = np.arange(n.sum()) + np.repeat(cut[tt] - np.cumsum(n) + n, n)
        ax.read = np.zeros((K + 1, K), dtype=bool)
        ax.read[np.repeat(tk, n), ax.kid[cat[at]]] = True
        t, s = np.nonzero(mask)
        gid, h = np.array([groups.index((ns.m, ns.family)) for ns in ax.reps]), 0.5 * (hi - lo)
        keys.append([(0.5 * (lo + hi)[t] - hi[s]) / h[s], h[t] / h[s], gid[t],
                     gid[s] * len(ps) + ps.index(ax.p), ax.read[t, s]])
    keys = [np.concatenate(k) for k in zip(*keys)]   # r1, r2, group of t, of s and p, read
    read, order = keys.pop(), np.lexsort(keys)
    new = np.ones(order.size + 1, dtype=bool)   # where a class starts, and the end
    new[1:-1] = np.any([k[order][1:] != k[order][:-1] for k in keys], axis=0)
    size, head = np.diff(np.flatnonzero(new)), order[new[:-1]]   # its pairs, and one of them
    r1, r2, tg, (sg, e) = *(k[head] for k in keys[:3]), np.divmod(keys[3][head], len(ps))
    kept = np.logical_or.reduceat(read[order], np.flatnonzero(new[:-1]))   # a target reads it
    C = int((ms[tg] * ms[sg])[kept].sum())   # doubles: each row as wide as its source's m
    start, arena, top = np.full(size.size, -1), np.zeros(C + width), 0
    for g in np.unique(sg[kept]):   # rows j where X_j > 1.9: a far row has X >= 2
        c = np.flatnonzero(kept & (sg == g))
        first = np.cumsum(ms[tg[c]]) - ms[tg[c]]   # a class's first row in the group's rows
        start[c] = top + first * ms[g]   # its offset in the arena
        rows = arena[top:top + ms[tg[c]].sum() * ms[g]].reshape(-1, ms[g])
        rows[...] = np.nan   # rows never read
        top += rows.size
        X = r1[c, None] + r2[c, None] * Y[tg[c]]
        X[np.arange(ms[-1]) >= ms[tg[c], None]] = 0   # past t's nodes
        for pe in np.unique(e[c]):
            far = (X > 1.9) & (e[c, None] == pe)
            Xu, inv = np.unique(X[far], return_inverse=True)   # each X once
            rows[(first[:, None] + np.arange(ms[-1]))[far]] = store.far(
                _reference_nodes((-1.0, 1.0), groups[g][1], ms[g]), ps[pe], Xu)[inv]
    ids = np.empty(order.size, dtype=np.min_scalar_type(-2 - start.max()))
    ids[order] = np.repeat(start, size)
    for ax, mask, lo in zip(axes, pairs, np.cumsum([0] + [np.count_nonzero(m) for m in pairs])):
        ax.cls = np.full(mask.shape, -1, dtype=ids.dtype)
        ax.cls[mask] = ids[lo:lo + np.count_nonzero(mask)]
    return arena, C


def _pair_kinds(ax, U, R):
    """The pairs of source intervals U and coordinate ids R: (own, served, cls), (U, R) arrays.
    ``served``: far pairs of a kept class (None without classes), ``cls`` their class's offset
    in the arena; ``own``: the other pairs past their interval's start that a target of the walk
    reads, whose rows a chunk computes. Pairs past a start or far are suffixes of R."""
    x, (lo, hi), R_ = ax.x[R], ax.ends[U].T, np.arange(R.size)
    own = R_ >= np.searchsorted(x, lo, side="right")[:, None]   # x > a
    if ax.cls is None:
        return own, None, None
    k = np.searchsorted(x, hi + (hi - lo))   # then the first x with x - b >= b - a exactly

    def far(k):
        return x[np.minimum(k, x.size - 1)] - hi >= hi - lo
    while (move := (k > 0) & far(k - 1)).any():
        k -= move
    while (move := (k < x.size) & ~far(k)).any():
        k += move
    cls = ax.cls.take(U, axis=1).T.take(ax.tgt[R], axis=1)
    served = (R_ >= k[:, None]) & (cls >= 0)
    own &= ~served & ax.read.take(U, axis=1).T.take(ax.tgt[R], axis=1)
    return own, served, cls


def _own_bitsets(ax) -> None:
    """Set ``ax.by_k``, per source interval the bitset of the coordinate ids whose pair with it
    is own (``_pair_kinds``), and ``ax.by_x``, per coordinate id that of the intervals."""
    own = _pair_kinds(ax, np.arange(len(ax.reps)), np.arange(ax.x.size))[0]
    ax.by_k, ax.by_x = _row_ints(own), _row_ints(own.T)


def _columns(S, own: bool = False):
    """Column j of the (n, n) boolean S -> its True rows, then j if ``own``: one nonzero."""
    col, row = np.nonzero(np.ascontiguousarray(S.T))
    end = np.cumsum(np.bincount(col, minlength=len(S)))
    if own:
        row, end = np.insert(row, end, np.arange(len(S))), end + np.arange(1, len(S) + 1)
    row, start = row.astype(np.min_scalar_type(len(S))), np.append(0, end)
    return lambda ci: row[start[ci]:start[ci + 1]].astype(np.intp)


def _gather(tables, rows, sel, widths, lo: int, hi: int) -> list:
    """Per-axis moments of sources sel[a][lo:hi] at the target ``rows``, padded to ``widths``:
    one take from the row arena per axis, its class rows times their source's h^(p + 1).
    Rows of one width are taken whole; rows of several are windows zeroed past their m."""
    out = []
    for (arena, C, unit, index, scale, ms), r, s, M in zip(tables, rows, sel, widths, strict=True):
        idx, s = index[s[lo:hi, None], r], s[lo:hi]
        if unit > 1:
            W = arena.reshape(-1, unit).take(idx, axis=0)
        else:
            W = sliding_window_view(arena, max(widths))[idx]
            np.copyto(W, 0.0, where=np.arange(W.shape[-1]) >= ms[s, None, None])
        if C:   # the class rows come first, in reference scale
            W *= np.where(idx < C // unit, scale[s, None], 1.0)[..., None]
        out.append(W[..., :M])
    return out


def _product(h, moments, grid, nodes, lo: int, hi: int) -> list:
    """Product-integration weights of sources lo:hi at ``grid``, flattened to one axis.

    The outer product of their per-axis ``moments`` (h == 1) times h at
    (grid point, source node): h takes the axes (source, n_1, ..., n_l,
    M_1, ..., M_l), with nodes[a] the sources' padded nodes (sources, M_a).
    """
    W, l = _dense(moments(lo, hi)), len(grid)
    t = [np.expand_dims(x, [i for i in range(2 * l + 1) if i != a + 1]) for a, x in enumerate(grid)]
    tau = [np.expand_dims(n[lo:hi], [i for i in range(1, 2 * l + 1) if i != l + a + 1])
           for a, n in enumerate(nodes)]
    W *= h(*t, *tau)
    return [W.reshape(hi - lo, math.prod(x.size for x in grid), -1)]


def _dense(weights) -> np.ndarray:
    """The outer product of per-axis weights (..., n_a, m_a), of shape
    (..., n_1, ..., n_l, m_1, ..., m_l): the batch axes broadcast."""
    rows, basis = "abcd"[:len(weights)], "ijkl"[:len(weights)]
    spec = ",".join("..." + r + b for r, b in zip(rows, basis))
    return np.einsum(f"{spec}->...{rows}{basis}", *weights)


def _contract(W, x) -> np.ndarray:
    """x (..., m_1, ..., m_l) with each axis a contracted against W[a] (..., n_a, m_a).

    Batch shapes broadcast. Axis a is swapped to the back, multiplied by
    W[a] transposed and swapped back; the last axis needs no swap.
    """
    for a, w in enumerate(W[:-1], -len(W)):
        x = np.matmul(x.swapaxes(a, -1), w.swapaxes(-1, -2)).swapaxes(a, -1)
    return np.matmul(x, W[-1].swapaxes(-1, -2))


def _history(moments, values, shape, flat: bool = False, own: bool = False):
    """Sum over sources, in their order, of the integrals of their splines.

    ``moments`` is one target's weights from ``_cell_moments``, ``values`` the padded
    nodal values (sources, M_1, ..., M_l) of its first sources and ``shape`` the target
    grid's. Sources are taken in blocks of about ``_TABLE_BUDGET`` doubles of weights:
    the grid size per source, times M_1 * ... * M_l when they are ``flat`` (``_flat``;
    the values are flattened alike). Each block is one batched ``_contract``, summed
    after the sum so far, in source order: numpy reduces the sources of a grid of
    several points one after another, but those of a one-point grid pairwise, so that
    grid accumulates. With ``own`` the source after ``values`` is the target cell: its
    weights come with the last block's gather, and (sum, its weights) is returned.
    """
    out, width = np.zeros(shape), math.prod(shape) * (math.prod(values.shape[1:]) if flat else 1)
    step = max(1, _TABLE_BUDGET // width)   # sources per block
    for lo in range(0, max(len(values), own), step):   # with ``own``, at least one block
        hi = min(lo + step, len(values))
        W = moments(lo, hi + (own and hi == len(values)))   # the target's own weights last
        if len(W[0]) > hi - lo:
            W, mine = [w[:-1] for w in W], [w[-1].copy() for w in W]   # no view keeps W
        if hi > lo:   # else the target is its only source
            block = values[lo:hi].reshape((-1,) + tuple(w.shape[-1] for w in W))
            one = (slice(None),) + (None,) * (len(W) - 1)   # batch (sources, 1): 1D rows
            parts = _contract([w[one] for w in W], block[:, None])[:, 0]
            parts[0] += out.reshape(parts[0].shape)
            out = np.add.reduce(parts) if parts[0].size > 1 else np.add.accumulate(parts)[-1]
    return (out.reshape(shape), mine) if own else out.reshape(shape)


def _flat(kern: KernelSpec | None) -> bool:
    """Whether ``_cell_moments`` flattens the weights to one axis: for h or no kernel."""
    return kern is None or kern.smooth_factor is not None


def _node_grids(nodesets, cells):
    """(cell, node coordinates per axis) for each of ``cells``: march targets."""
    return ((ci, [ns.nodes for ns in nodesets[ci]]) for ci in cells)


# ---------------------------------------------------------------------------
# the causal march
# ---------------------------------------------------------------------------

_RESIDUAL_BOUND = 1e-10   # the largest local-solve residual, for every l


def _local_matrix(W, own) -> np.ndarray:
    """I - W as an (n, n) matrix, with an identity row per inherited node (``own`` False)."""
    eye = np.eye(own.size)
    return np.where(own[:, None], eye - W.reshape(eye.shape), eye)


def _shape_key(nsets, own) -> tuple:
    """Per axis the family, node count and width of a cell, and its owned-node mask."""
    return tuple((ns.family, ns.m, ns.b - ns.a) for ns in nsets), own.tobytes()


def _shape_matrix(kern: KernelSpec, nsets, own, reference) -> np.ndarray:
    """The local matrix, for h == 1, of every cell of one ``_shape_key``: axis a's
    self weights are ((b - a) / 2)^(p_a + 1) times ``reference(family, m, p_a)``,
    the moments of the reference node set on [-1, 1] at its own nodes, which
    ``_march`` computes once per (family, m, p) and solve."""
    weights = [(0.5 * (ns.b - ns.a)) ** (p + 1.0) * reference(ns.family, ns.m, p)
               for p, ns in zip(kern.exponents, nsets)]
    return _local_matrix(_dense(weights), own)


def _march(problem: VieProblem, spl: TensorSpline, order) -> TensorSpline:
    """Fill the unfilled spline ``spl`` with the collocation solution, cell by cell.

    In each cell, nodes lying on the closure of a shadow-predecessor cell are
    knowns inherited from that cell's spline (the one of lowest causal rank);
    all other nodal values are unknowns of the local dense system, solved with
    the inverse of its key (for h == 1 its ``_shape_key``, else the cell): from
    ``_shape_matrix`` if cells share the key, else the cell's own dense matrix.
    An inverse is kept until the last cell of its key in ``order``. The residual against
    the cell's own matrix, which a shared key applies per axis from the cell's self
    weights, must stay below ``_RESIDUAL_BOUND``.
    Histories sum over predecessors in index order, so no value depends on the order.

    Before the loop: one vector test of the shadow matrix against the positions in
    ``order`` (a cell before a predecessor raises, naming the first such cell), the right
    side at all nodes and each node's donor (``_nodal``) and the keys, numbered; donor
    basis rows come per block of cells (``_inherited``). A history gathers its sources'
    rows of the padded value table and their weights per block, the cell's own with the
    last (``_history``); each solution is written in place.
    """
    covering, nodesets, values, owned = spl.covering, spl.nodesets, spl.values, spl.owned
    if (covering.l, covering.T) != (problem.l, problem.T):
        raise ValueError(f"the mesh spans [0, {covering.T}]^{covering.l}, "
                         f"the problem [0, {problem.T}]^{problem.l}")
    kern, tables, inverses = problem.kernel, spl.tables, {}

    @lru_cache(maxsize=None)   # the reference self-moments, once per (family, m, p) and solve
    def reference(family, m, p):
        ref = _reference_nodes((-1.0, 1.0), family, m)
        return kernel_moments(ref.nodes, p, -1.0, 1.0, ref)
    shadow, rank, pos = shadow_matrix(covering), covering.causal_rank(), np.argsort(order)
    late = (shadow & (pos[:, None] > pos)).any(axis=0)[order]   # a predecessor comes later
    if late.any():
        raise RuntimeError(f"order processes cell {order[np.argmax(late)]} before its predecessors")
    nodal = _nodal(spl, problem.rhs, lambda cand, owner: np.where(shadow[cand, owner], rank[cand],
                                                                  covering.ncells))
    flat, index = _flat(kern), {}   # else h == 1; keys are numbered in order of cells
    keys = [index.setdefault(ci if flat else _shape_key(nodesets[ci], nodal.own[c]), len(index))
            for ci, c in enumerate(nodal.cells)]
    repeats, last = np.bincount(keys).tolist(), {keys[ci]: ci for ci in order}   # its last cell
    # a cell's sources are its predecessors, then the cell itself
    cells = _cell_moments(kern, nodesets, _node_grids(nodesets, order),
                          _columns(shadow, own=True))
    inherited = _inherited(tables, nodal, order)
    for ci, srcs, moments in cells:
        shape, key, A = values[ci].shape, keys[ci], None
        f, own = nodal.f[nodal.cells[ci]], nodal.own[nodal.cells[ci]]
        hist, W = _history(moments, tables.values[srcs[:-1]], shape, flat, own=True)
        rhs = f + hist.ravel()
        rhs[~own] = next(inherited)
        if repeats[key] == 1:   # the cell inverts its own matrix
            dense = _dense(W).reshape(shape + tables.values.shape[1:])
            A = _local_matrix(dense[(Ellipsis,) + tuple(map(slice, shape))], own)
        if key not in inverses:
            try:
                inverses[key] = np.linalg.inv(
                    A if A is not None else _shape_matrix(kern, nodesets[ci], own, reference))
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(f"singular local system on cell {ci} "
                                   f"(layer {covering.k[ci]})") from exc
        sol = (inverses.pop(key) if last[key] == ci else inverses[key]) @ rhs
        Ax = A @ sol if A is not None else np.where(own, sol - _contract(   # per axis
            [w[:, :m] for w, m in zip(W, shape)], sol.reshape(shape)).ravel(), sol)
        res = float(np.abs(Ax - rhs).max())
        if not res <= _RESIDUAL_BOUND:   # a NaN residual fails too
            raise RuntimeError(f"local solve residual {res:.2e} > {_RESIDUAL_BOUND:.0e} "
                               f"on cell {ci}")
        values[ci][...] = sol.reshape(shape)
        owned[ci][...] = own.reshape(shape)
    return spl


def solve_1d(problem: VieProblem, mesh: GradedMesh, schedule,
             family: str = "legendre_closed") -> LocalSpline:
    """March the collocation solution segment by segment over a 1D mesh.

    The mesh is solved as its one-axis covering (cell k is segment k, see
    ``solve_2d``): segment k inherits its first node, the breakpoint shared
    with segment k - 1, and each residual must stay below ``_RESIDUAL_BOUND``.
    """
    if problem.l != 1:
        raise ValueError("solve_1d requires a 1-dimensional problem")
    cov = mesh.covering()
    order = np.argsort(cov.causal_rank()).tolist()
    return _march(problem, _unfilled(cov, schedule, family, LocalSpline), order)


def solve_2d(problem: VieProblem, covering: Covering, degree,
             family: str = "legendre_closed", order=None) -> TensorSpline:
    """Solve a 2D equation cell by cell over a covering.

    Nodes on the closure of an already-solved shadow predecessor inherit its
    value; the others are the unknowns of the cell's local dense system,
    solved, as in 1D, with the inverse shared by its cell shape (see
    ``_march``), and its residual must stay below ``_RESIDUAL_BOUND``.
    ``order`` may be any causal order (default: the canonical one, smaller cells
    first); the result does not depend on it, to the bit, nor does the number of
    inversions, one per key: an inverse is kept until its key's last cell, so the live
    inverses of an order that interleaves cell shapes are those of the keys it has begun
    and not finished. A cell before a shadow predecessor raises ``RuntimeError`` first.
    """
    if problem.l != 2:
        raise ValueError("solve_2d requires a 2-dimensional problem")
    # default: the canonical order, cached
    order = np.argsort(covering.causal_rank()).tolist() if order is None else list(order)
    if sorted(order) != list(range(covering.ncells)):
        raise ValueError("order is not a permutation of the covering's cells")
    return _march(problem, _unfilled(covering, degree, family), order)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def residual(problem: VieProblem, solution, samples) -> float:
    """Max |x(t) - (K x)(t) - f(t)| over sample points.

    ``samples`` holds one axis array per dimension, spanning a sample grid;
    for l = 1 it is the one axis array itself. For l = 2 it may also be an
    (n, 2) array of points, each evaluated through its own degenerate grid.
    (K x)(t) integrates over the solution's own cells clipped to [0, t], by
    product integration with a smooth factor (see ``_cell_moments``).
    """
    if problem.l == 1:
        samples = (samples,)
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        if not len(samples):
            raise ValueError("the sample point array is empty")
        grids = [list(pt[:, None]) for pt in samples]   # a 1-element grid per coordinate
    else:
        grids = [[np.atleast_1d(np.asarray(ax, dtype=float)) for ax in samples]]
        for a in [a for a, ax in enumerate(grids[0]) if not ax.size][:1]:
            raise ValueError(f"sample axis {a} is empty")
    values = solution.tables.values
    worst = []
    for i, _, moments in _cell_moments(problem.kernel, solution.nodesets, enumerate(grids),
                                       lambda _: np.arange(len(values))):
        mesh = np.meshgrid(*grids[i], indexing="ij")
        hist = _history(moments, values, mesh[0].shape, _flat(problem.kernel))
        r = solution.eval_grid(grids[i]) - hist - np.asarray(problem.rhs(*mesh), dtype=float)
        worst.append(np.max(np.abs(r)))
    return float(np.max(worst))   # NaN propagates


def collocation_residual(problem: VieProblem, solution) -> float:
    """Max discrete-equation residual over the nodes each cell owns.

    Re-evaluates the collocation equations from the stored nodal values with
    the same quadrature the solver used; inherited (non-owned) nodes belong to
    the cell that first computed them and are checked there.
    """
    nodesets, values, owned = solution.nodesets, solution.values, solution.owned
    padded = solution.tables.values
    # a cell integrates over its shadow predecessors and its own clipped range
    shadow = shadow_matrix(solution.covering) | np.eye(len(values), dtype=bool)
    checked = _node_grids(nodesets, [ci for ci, own in enumerate(owned) if own.any()])
    worst = [0.0]
    for ci, srcs, moments in _cell_moments(problem.kernel, nodesets, checked,
                                           _columns(shadow)):
        lhs = values[ci] - _history(moments, padded[srcs], values[ci].shape, _flat(problem.kernel))
        grids = np.meshgrid(*[ns.nodes for ns in nodesets[ci]], indexing="ij")
        rhs = np.asarray(problem.rhs(*[g.ravel() for g in grids]), dtype=float)
        worst.append(np.max(np.abs((lhs - rhs.reshape(lhs.shape))[owned[ci]])))
    return float(np.max(worst))   # NaN propagates


# ---------------------------------------------------------------------------
# product-integration oracle on uniform grids
# ---------------------------------------------------------------------------

# largest uniform_n of the oracle, per dimension
ORACLE_MAX_N = {1: 400, 2: 100}


@dataclass
class OracleSolution:
    """Uniform-grid solution values from the product-integration oracle."""

    axes: tuple
    values: np.ndarray


def _linear_weight_matrix(t: np.ndarray, kern: KernelSpec) -> np.ndarray:
    """Nodal weights V with (V x)[i] ~= int_0^{t_i} kernel * (linear interp of x).

    ``kern`` is a one-axis kernel; each grid step is a two-node source cell
    whose weights at the grid ``t`` go to the columns of its two nodes.
    """
    steps = [(build_nodes((t[j], t[j + 1]), "legendre_closed", 2),) for j in range(t.size - 1)]
    [(_, _, moments)] = _cell_moments(kern, steps, [(0, (t,))],
                                      lambda _: np.arange(len(steps)))
    M = moments(0, len(steps))[0]
    V = np.zeros((t.size, t.size))
    V[:, :-1] += M[:, :, 0].T
    V[:, 1:] += M[:, :, 1].T
    return V


def oracle_solve(problem: VieProblem, uniform_n: int) -> OracleSolution:
    """Product-integration solution on a uniform grid, advanced causally.

    The solution is represented piecewise linearly (bilinearly in 2D), and
    ``_linear_weight_matrix`` gives the kernel moments of each axis against
    the local linear basis. The discrete equation X - V1 X V2^T = F is lower
    triangular, so it is solved row by row:
    X[i] = solve(I - V1[i, i] V2, F[i] + V2 @ (V1[i, :i] @ X[:i])), where V1
    is the first axis's matrix and V2 the Kronecker product of the others'
    (the 1 x 1 identity in 1D). Accuracy is second order in the mesh width.
    For l = 2 only kernels without a smooth factor are supported.
    """
    kern = problem.kernel
    if not 1 <= uniform_n <= ORACLE_MAX_N[problem.l]:
        raise ValueError(f"uniform_n must be in [1, {ORACLE_MAX_N[problem.l]}] "
                         f"for l = {problem.l}, got {uniform_n}")
    if problem.l > 1 and kern is not None and kern.smooth_factor is not None:
        raise NotImplementedError("2D oracle supports product kernels without a smooth factor")
    axes = (np.linspace(0.0, problem.T, uniform_n + 1),) * problem.l
    F = np.asarray(problem.rhs(*np.meshgrid(*axes, indexing="ij", sparse=True)), dtype=float)
    if kern is None:
        return OracleSolution(axes=axes, values=F.copy())
    V1, *Vs = (_linear_weight_matrix(t, KernelSpec((p,), kern.smooth_factor))
               for t, p in zip(axes, kern.exponents))
    V2 = reduce(np.kron, Vs, np.eye(1))
    F = F.reshape(uniform_n + 1, -1)
    X = np.zeros_like(F)
    for i in range(uniform_n + 1):
        X[i] = np.linalg.solve(np.eye(len(V2)) - V1[i, i] * V2, F[i] + V2 @ (V1[i, :i] @ X[:i]))
    return OracleSolution(axes=axes, values=X.reshape((uniform_n + 1,) * problem.l))
