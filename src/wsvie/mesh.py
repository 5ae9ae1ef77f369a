"""Graded 1D meshes, layered box coverings of [0, T]^l, and causal cell orders.

Coverings tile the cube with axis-aligned boxes organized in layers graded
toward the singular part of the boundary. Layer shells are decomposed into l
slabs (one per axis, keyed by the first axis that falls inside the layer band)
and each slab is tiled by sweeping rows of boxes of the maximal allowed edge,
shrinking or merging the last box of a row to fit. A 1D graded mesh is the
one-axis covering with one cell per segment, so splines and solvers treat
l = 1 and l = 2 alike. A covering is three read-only arrays (``Covering``);
construction is single-threaded, and the results are safe to share across threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GradedMesh:
    """Breakpoints of a graded partition of [0, T].

    ``power`` meshes have N + 1 breakpoints v_k = T (k/N)^q; ``geometric``
    meshes have N + 2 breakpoints 0, 2^(-N) T, ..., T/2, T.
    """

    T: float
    N: int
    kind: str  # "power" | "geometric"
    q: float | None
    breakpoints: np.ndarray

    @property
    def nsegments(self) -> int:
        return len(self.breakpoints) - 1

    def covering(self) -> Covering:
        """The one-axis covering: cell k (and layer k) is segment k, left to right."""
        v = self.breakpoints[:, None]
        return Covering(l=1, T=self.T, N=self.N, style=self.kind, v=self.q,
                        k=np.arange(self.nsegments), lo_array=v[:-1], hi_array=v[1:])


def power_graded_mesh(N: int, T: float, q: float) -> GradedMesh:
    """Power-graded mesh v_k = T (k/N)^q, k = 0..N.

    Computed as T exp(q ln(k/N)) with the endpoints pinned to 0 and T exactly.
    Requires q >= 1; anti-graded meshes are not supported.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    v = np.empty(N + 1)
    v[0] = 0.0
    k = np.arange(1, N + 1, dtype=float)
    v[1:] = T * np.exp(q * np.log(k / N))
    v[-1] = T
    return GradedMesh(T=float(T), N=N, kind="power", q=float(q), breakpoints=v)


def geometric_mesh(N: int, T: float) -> GradedMesh:
    """Geometric mesh 0, 2^(-N) T, 2^(1-N) T, ..., T (N + 2 breakpoints)."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    v = np.empty(N + 2)
    v[0] = 0.0
    k = np.arange(1, N + 2, dtype=float)
    v[1:] = T * 2.0 ** (k - 1 - N)
    v[-1] = T
    return GradedMesh(T=float(T), N=N, kind="geometric", q=None, breakpoints=v)


@dataclass(frozen=True, eq=False)
class Covering:
    """Tiling of [0, T]^l by layered boxes: cell i spans ``lo_array[i]`` to ``hi_array[i]``
    (ncells, l) in layer ``k[i]``. The constructor copies the three arrays read-only: the
    causal rank, shadow matrix and lookup grid are cached from them, so a write raises."""

    l: int
    T: float
    N: int
    style: str  # "boundary" | "corner" | "geometric"; 1D: the mesh kind
    v: float | None
    k: np.ndarray = field(repr=False)
    lo_array: np.ndarray = field(repr=False)
    hi_array: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, dtype in (("k", int), ("lo_array", float), ("hi_array", float)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if not self.lo_array.shape == self.hi_array.shape == (self.k.size, self.l):
            raise ValueError(f"corners {self.lo_array.shape} and {self.hi_array.shape} "
                             f"for {self.k.size} cells, l = {self.l}")

    @property
    def ncells(self) -> int:
        return self.k.size

    def causal_rank(self) -> np.ndarray:
        """Position of each cell in the canonical causal order (cached, read-only).

        Boundary points and inherited nodes resolve to the containing cell of
        minimal rank: the cell that computed the shared values first.
        """
        if not hasattr(self, "_causal_rank"):
            rank = np.argsort(causal_order(self))   # the inverse permutation
            rank.flags.writeable = False
            object.__setattr__(self, "_causal_rank", rank)
        return self._causal_rank

    def candidates(self, pts: np.ndarray) -> np.ndarray:
        """Per point (n, l): the cells whose closure may hold it, shape (n, K), -1 padded.

        Closures allow the slack of ``closure_bounds``. The distinct cell
        edges span an elementary grid, built on first use in one vector pass
        and cached, whose boxes each lie in one cell; the boxes that a point's
        slack box meets are its candidates.
        """
        if not hasattr(self, "_grid"):
            edges = [np.unique(np.concatenate([self.lo_array[:, a], self.hi_array[:, a]]))
                     for a in range(self.l)]
            ends = np.array([[np.searchsorted(e, c[:, a]) for a, e in enumerate(edges)]
                             for c in (self.lo_array, self.hi_array)])   # first box, past last
            # each cell adds its number + 1 at its first box and, signed, at the corners past it
            label, cell = np.zeros([e.size for e in edges], dtype=int), np.arange(self.ncells) + 1
            label[(0,) * self.l] = -1   # and the origin -1
            for past in np.ndindex((2,) * self.l):
                np.add.at(label, tuple(ends[past, range(self.l)]), (-1) ** sum(past) * cell)
            for a in range(self.l):   # the prefix sums: a box's cell, or -1 outside every cell
                np.cumsum(label, axis=a, out=label)
            label = label[(slice(-1),) * self.l]
            object.__setattr__(self, "_grid", (edges, label))
        edges, label = self._grid
        lower, upper = closure_bounds(pts)
        n = pts.shape[0]
        boxes, inside = [], True
        for a, e in enumerate(edges):
            # the first and last elementary interval on axis a that the slack box meets
            first = np.maximum(np.searchsorted(e, lower[:, a]) - 1, 0)
            last = np.minimum(np.searchsorted(e, upper[:, a], side="right") - 1, e.size - 2)
            idx = first[:, None] + np.arange(int(np.max(last - first, initial=0)) + 1)
            shape = (n,) + (1,) * a + (idx.shape[1],) + (1,) * (self.l - 1 - a)
            inside = inside & (idx <= last[:, None]).reshape(shape)
            boxes.append(np.minimum(idx, e.size - 2).reshape(shape))
        return np.where(inside, label[tuple(boxes)], -1).reshape(n, -1 if n else 1)

    def lookup(self, pts: np.ndarray, priority) -> np.ndarray:
        """Per point (n, l): the closure-holding cell of least ``priority`` < ncells, or -1."""
        cand = self.candidates(pts)
        return least(cand, np.asarray(priority)[cand], self.ncells)

    def to_dict(self) -> dict:
        cells = zip(self.k.tolist(), self.lo_array.tolist(), self.hi_array.tolist())
        return {"l": self.l, "T": self.T, "N": self.N, "style": self.style, "v": self.v,
                "cells": [{"k": k, "lo": lo, "hi": hi} for k, lo, hi in cells]}


def least(cand: np.ndarray, priority: np.ndarray, ncells: int) -> np.ndarray:
    """Per row of candidates (n, K), the one of least priority (same shape) below ncells, or -1."""
    priority = np.where(cand < 0, ncells, priority)   # padding never wins
    best = np.arange(cand.shape[0]), np.argmin(priority, axis=1)
    return np.where(priority[best] < ncells, cand[best], -1)


def closure_bounds(pts: np.ndarray):
    """Points (n, l) widened to (x - 1e-12|x|, x + 1e-12|x|) per coordinate.

    This slack is the one containment rule of point lookup and node
    inheritance. It is relative: on a geometric mesh the cells near 0 are
    narrower than any fixed absolute slack (2^-48 at N = 48).
    """
    slack = 1e-12 * np.abs(pts)
    return pts - slack, pts + slack


def covering_from_dict(data: dict) -> Covering:
    """Rebuild a Covering from its to_dict() form."""
    cells = data["cells"]
    return Covering(l=int(data["l"]), T=float(data["T"]), N=int(data["N"]),
                    style=str(data["style"]), v=data.get("v"), k=[c["k"] for c in cells],
                    lo_array=[c["lo"] for c in cells], hi_array=[c["hi"] for c in cells])


def _chop(a: float, b: float, h: float, merge: bool) -> np.ndarray:
    """Edges splitting [a, b] into its full pieces of length h, at least one.

    A remainder is a piece of its own, or with ``merge`` joins the last full
    piece, so that edge lengths stay in [h, 2h).
    """
    length = b - a
    nfull = int(np.floor(length / h + 1e-9))
    extra = not merge and length - nfull * h > 1e-9 * length
    edges = a + h * np.arange(max(nfull + extra, 1) + 1.0)
    edges[0], edges[-1] = a, b
    return edges


def _check_layers(N: int, T: float, l: int, v: float | None = None) -> None:
    """The argument checks of the covering builders; v is None for geometric ones."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    if v is not None and v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")


def _layered(N: int, T: float, l: int, style: str, v: float | None, rows,
             merge: bool = False) -> Covering:
    """Tile each layer shell (k, band, below, above, h) of ``rows``, slab by slab.

    Slab j (the first axis inside the band) spans ``band`` on axis j,
    ``below`` on axes i < j and ``above`` on axes i > j; slabs with an empty
    range are skipped. Non-thin axes are chopped to the edge budget h (see
    ``_chop``); the thin axis is kept whole. A shell with an empty ``below``
    range, such as the top cube of a boundary or geometric covering or the
    first cube of a corner one, is its slab 0, which comes out as one cell.
    """
    k, lo, hi = [], [], []
    for layer, band, below, above, h in rows:
        for j in range(l):
            ranges = [below] * j + [band] + [above] * (l - 1 - j)
            if any(b <= a for a, b in ranges):
                continue
            edges = [np.array(r) if i == j else _chop(*r, h, merge) for i, r in enumerate(ranges)]
            for out, ends in ((lo, slice(None, -1)), (hi, slice(1, None))):   # boxes in C order
                grids = np.meshgrid(*[e[ends] for e in edges], indexing="ij")
                out.append(np.column_stack([g.ravel() for g in grids]))
            k += [layer] * len(lo[-1])
    return Covering(l=l, T=float(T), N=N, style=style, v=v, k=k,
                    lo_array=np.concatenate(lo), hi_array=np.concatenate(hi))


def boundary_layer_covering(N: int, T: float, l: int, v: float) -> Covering:
    """Covering of [0, T]^l layered by the distance min_i t_i to the boundary.

    Layer k holds points with (k/N)^v T <= min_i t_i <= ((k+1)/N)^v T, tiled
    with boxes of edge at most h_k = ((k+1)/N)^v T - (k/N)^v T; the top layer
    N-1 is the single corner cube.
    """
    _check_layers(N, T, l, v)
    b = power_graded_mesh(N, T, v).breakpoints.tolist()
    rows = [(k, (b[k], b[k + 1]), (b[k + 1], b[N]), (b[k], b[N]), b[k + 1] - b[k])
            for k in range(N - 1, -1, -1)]
    return _layered(N, T, l, "boundary", float(v), rows)


def corner_layer_covering(N: int, T: float, l: int, v: float) -> Covering:
    """Covering of [0, T]^l layered by cube shells growing from the origin.

    Layer 1 is the cube [0, (1/N)^v T]^l; layer k >= 2 is the shell between the
    cubes of sizes ((k-1)/N)^v T and (k/N)^v T, tiled with boxes of edge at
    most h_{k-1} (the shell thickness).
    """
    _check_layers(N, T, l, v)
    c = power_graded_mesh(N, T, v).breakpoints.tolist()
    rows = [(k, (c[k - 1], c[k]), (c[0], c[k - 1]), (c[0], c[k]), c[k] - c[k - 1])
            for k in range(1, N + 1)]
    return _layered(N, T, l, "corner", float(v), rows)


def geometric_covering(N: int, T: float, l: int) -> Covering:
    """Covering of [0, T]^l with geometric layers toward the boundary.

    Layer 0 is the near-boundary slab 0 <= min_i t_i <= 2^(-N) T; layer k >= 1
    holds 2^(k-1-N) T <= min_i t_i <= 2^(k-N) T. Cell edges lie in
    [h_k, 2 h_k] with h_k = 2^(k-1-N) T; the top layer is the single cube
    [T/2, T]^l of edge h_N.
    """
    _check_layers(N, T, l)
    g = geometric_mesh(N, T).breakpoints.tolist()
    rows = [(k, (g[k], g[k + 1]), (g[k + 1], g[-1]), (g[k], g[-1]), g[k + 1] / 2)
            for k in range(N, -1, -1)]
    return _layered(N, T, l, "geometric", None, rows, merge=True)


def shadow_matrix(covering: Covering) -> np.ndarray:
    """Boolean matrix S with S[d, c] true iff cell d must precede cell c.

    Cell d precedes c when the interior of d meets the rectangle
    [0, sup(c)], i.e. lo_d < hi_c holds strictly on every axis. Cached, read-only.
    """
    if not hasattr(covering, "_shadow"):
        lo, hi = covering.lo_array, covering.hi_array
        S = lo[:, None, 0] < hi[None, :, 0]
        for a in range(1, covering.l):   # one (n, n) comparison per axis
            S &= lo[:, None, a] < hi[None, :, a]
        np.fill_diagonal(S, False)
        S.flags.writeable = False
        object.__setattr__(covering, "_shadow", S)
    return covering._shadow


def causal_order(covering: Covering) -> list[int]:
    """Total processing order of cells compatible with the shadow relation.

    Cells are emitted by a priority topological sort keyed by edge lengths
    (smaller cells first: a shape's cells stay together), then ascending sum of
    lower-corner coordinates with lexicographic tie-break on the lower corner,
    then index, so the key order is produced verbatim whenever it already
    respects the relation. One ``np.lexsort`` ranks the keys; the heap holds
    integer ranks, and each emitted cell lowers its successors' in-degrees
    with one vector update. A cycle (impossible for boxes with disjoint
    interiors) raises.
    """
    S = shadow_matrix(covering)
    indeg = S.sum(axis=0)
    lo, width = covering.lo_array, covering.hi_array - covering.lo_array
    by_key = np.lexsort([*lo.T[::-1], lo.sum(axis=1), *width.T[::-1]])   # last key first
    prio = np.empty_like(by_key)
    prio[by_key] = np.arange(by_key.size)
    ready = prio[indeg == 0].tolist()
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = int(by_key[heapq.heappop(ready)])
        order.append(i)
        indeg -= S[i]
        for p in prio[S[i] & (indeg == 0)].tolist():
            heapq.heappush(ready, p)
    if len(order) != covering.ncells:
        raise RuntimeError("shadow relation is cyclic; covering cells are inconsistent")
    return order


def verify_causal_order(covering: Covering, order) -> bool:
    """Brute-force check that ``order`` respects the shadow relation."""
    pos = np.empty(covering.ncells, dtype=int)
    pos[np.asarray(order, dtype=int)] = np.arange(covering.ncells)
    S = shadow_matrix(covering)
    d, c = np.nonzero(S)
    return bool(np.all(pos[d] < pos[c]))
