"""Graded 1D meshes, layered box coverings of [0, T]^l, and causal cell orders.

Coverings tile the cube with axis-aligned boxes organized in layers graded
toward the singular part of the boundary. Layer shells are decomposed into l
slabs (one per axis, keyed by the first axis that falls inside the layer band)
and each slab is tiled by sweeping rows of boxes of the maximal allowed edge,
shrinking or merging the last box of a row to fit. A 1D graded mesh is the
one-axis covering with one cell per segment, so splines and solvers treat
l = 1 and l = 2 alike. Construction is single-threaded; the resulting objects
are immutable in practice and safe to share across threads.
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

    def segments(self):
        v = self.breakpoints
        return [(float(v[k]), float(v[k + 1])) for k in range(self.nsegments)]

    def covering(self) -> Covering:
        """The one-axis covering: cell k (and layer k) is segment k, left to right."""
        segs = self.segments()
        layers = [Layer(k=k, inner=a, outer=b, h=b - a, style=self.kind)
                  for k, (a, b) in enumerate(segs)]
        cells = [Cell(k=k, index=(), lo=(a,), hi=(b,)) for k, (a, b) in enumerate(segs)]
        return Covering(l=1, T=self.T, N=self.N, style=self.kind, v=self.q,
                        layers=layers, cells=cells)


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


@dataclass(frozen=True)
class Layer:
    """One layer band: inner/outer distance bounds and its edge budget h."""

    k: int
    inner: float
    outer: float
    h: float
    style: str


@dataclass
class Cell:
    """Axis-aligned box with its layer index and a canonical multi-index."""

    k: int
    index: tuple
    lo: tuple
    hi: tuple


@dataclass
class Covering:
    """Tiling of [0, T]^l by layered axis-aligned cells."""

    l: int
    T: float
    N: int
    style: str  # "boundary" | "corner" | "geometric"; 1D: the mesh kind
    v: float | None
    layers: list
    cells: list

    lo_array: np.ndarray = field(init=False, repr=False)
    hi_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lo_array = np.array([c.lo for c in self.cells], dtype=float)
        self.hi_array = np.array([c.hi for c in self.cells], dtype=float)
        self._assign_indices()

    def _assign_indices(self):
        # canonical multi-index: per-axis rank of the lower corner among all
        # lower-corner coordinates of the covering (unique per cell in a tiling)
        ranks = []
        for a in range(self.l):
            uniq = np.unique(self.lo_array[:, a])
            ranks.append(np.searchsorted(uniq, self.lo_array[:, a]))
        for i, c in enumerate(self.cells):
            c.index = tuple(int(ranks[a][i]) for a in range(self.l))

    @property
    def ncells(self) -> int:
        return len(self.cells)

    def causal_rank(self) -> np.ndarray:
        """Position of each cell in the canonical causal order (cached).

        Boundary points and inherited nodes resolve to the containing cell of
        minimal rank: the cell that computed the shared values first.
        """
        if not hasattr(self, "_causal_rank"):
            rank = np.empty(self.ncells, dtype=int)
            rank[causal_order(self)] = np.arange(self.ncells)
            self._causal_rank = rank
        return self._causal_rank

    def contains(self, bounds, cells) -> np.ndarray:
        """Whether points lie on the closure of cells, up to rounding.

        ``bounds`` is ``closure_bounds(pts)``. For one cell index the result
        has shape (n,); for an index array, (n, len(cells)).
        """
        lower, upper = bounds
        if np.ndim(cells):
            lower, upper = lower[:, None, :], upper[:, None, :]
        return np.all((upper >= self.lo_array[cells]) & (lower <= self.hi_array[cells]), axis=-1)

    def to_dict(self) -> dict:
        return {
            "l": self.l, "T": self.T, "N": self.N, "style": self.style, "v": self.v,
            "cells": [{"k": c.k, "lo": list(c.lo), "hi": list(c.hi)} for c in self.cells],
        }


def closure_bounds(pts: np.ndarray):
    """Points (n, l) widened to (x - 1e-12|x|, x + 1e-12|x|) per coordinate.

    This slack is the one containment rule of point lookup and node
    inheritance. It is relative: on a geometric mesh the cells near 0 are
    narrower than any fixed absolute slack (2^-48 at N = 48).
    """
    slack = 1e-12 * np.abs(pts)
    return pts - slack, pts + slack


def covering_from_dict(data: dict) -> Covering:
    """Rebuild a Covering from its to_dict() form (layer descriptors are rederived as bands)."""
    cells = [Cell(k=int(c["k"]), index=(), lo=tuple(map(float, c["lo"])),
                  hi=tuple(map(float, c["hi"]))) for c in data["cells"]]
    ks = sorted({c.k for c in cells})
    layers = [Layer(k=k, inner=float("nan"), outer=float("nan"), h=float("nan"),
                    style=data["style"]) for k in ks]
    return Covering(l=int(data["l"]), T=float(data["T"]), N=int(data["N"]),
                    style=str(data["style"]), v=data.get("v"), layers=layers, cells=cells)


def _chop(a: float, b: float, h: float, style: str) -> np.ndarray:
    """Edges splitting [a, b] into pieces <= h ("ceil") or within [h, 2h) ("floor")."""
    length = b - a
    if length <= 0:
        raise ValueError(f"degenerate range ({a}, {b})")
    nfull = int(np.floor(length / h + 1e-9))
    rem = length - nfull * h
    exact = rem <= 1e-9 * length
    if style == "ceil":
        if nfull == 0:
            return np.array([a, b])
        if exact:
            edges = a + h * np.arange(nfull + 1.0)
        else:
            edges = np.concatenate([a + h * np.arange(nfull + 1.0), [b]])
    elif style == "floor":
        if nfull <= 1:
            return np.array([a, b])
        if exact:
            edges = a + h * np.arange(nfull + 1.0)
        else:
            # merge the remainder into the final box: edge lengths stay in [h, 2h)
            edges = np.concatenate([a + h * np.arange(float(nfull)), [b]])
    else:
        raise ValueError(f"unknown chop style {style!r}")
    edges[0], edges[-1] = a, b
    return edges


def _tile_slabs(cells: list, k: int, l: int, band: tuple, below: tuple, above: tuple,
                h: float, chop_style: str):
    """Tile one layer shell, slab by slab.

    Slab j (the first axis inside the band) spans ``band`` on axis j,
    ``below`` on axes i < j and ``above`` on axes i > j. Non-thin axes are
    chopped to the edge budget h; the thin axis is kept whole (its width is
    within budget by construction).
    """
    for j in range(l):
        ranges = []
        degenerate = False
        for i in range(l):
            if i == j:
                ranges.append(band)
            elif i < j:
                ranges.append(below)
            else:
                ranges.append(above)
            if ranges[-1][1] <= ranges[-1][0]:
                degenerate = True
        if degenerate:
            continue
        per_axis_edges = []
        for i, (ra, rb) in enumerate(ranges):
            if i == j:
                per_axis_edges.append(np.array([ra, rb]))
            else:
                per_axis_edges.append(_chop(ra, rb, h, chop_style))
        counts = [len(e) - 1 for e in per_axis_edges]
        for flat in np.ndindex(*counts):
            lo = tuple(float(per_axis_edges[i][flat[i]]) for i in range(l))
            hi = tuple(float(per_axis_edges[i][flat[i] + 1]) for i in range(l))
            cells.append(Cell(k=k, index=(), lo=lo, hi=hi))


def boundary_layer_covering(N: int, T: float, l: int, v: float) -> Covering:
    """Covering of [0, T]^l layered by the distance min_i t_i to the boundary.

    Layer k holds points with (k/N)^v T <= min_i t_i <= ((k+1)/N)^v T. The top
    layer N-1 is the single corner cube; every lower shell is tiled with boxes
    of edge at most h_k = ((k+1)/N)^v T - (k/N)^v T.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    b = power_graded_mesh(N, T, v).breakpoints
    layers = [Layer(k=k, inner=float(b[k]), outer=float(b[k + 1]),
                    h=float(b[k + 1] - b[k]), style="boundary") for k in range(N)]
    cells: list[Cell] = []
    top_lo = b[N - 1]
    cells.append(Cell(k=N - 1, index=(), lo=(float(top_lo),) * l, hi=(float(T),) * l))
    for k in range(N - 2, -1, -1):
        h = b[k + 1] - b[k]
        _tile_slabs(cells, k, l, band=(float(b[k]), float(b[k + 1])),
                    below=(float(b[k + 1]), float(T)), above=(float(b[k]), float(T)),
                    h=float(h), chop_style="ceil")
    return Covering(l=l, T=float(T), N=N, style="boundary", v=float(v),
                    layers=layers, cells=cells)


def corner_layer_covering(N: int, T: float, l: int, v: float) -> Covering:
    """Covering of [0, T]^l layered by cube shells growing from the origin.

    Layer 1 is the cube [0, (1/N)^v T]^l; layer k >= 2 is the shell between the
    cubes of sizes ((k-1)/N)^v T and (k/N)^v T, tiled with boxes of edge at
    most h_{k-1} (the shell thickness).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    c = power_graded_mesh(N, T, v).breakpoints
    layers = [Layer(k=k, inner=float(c[k - 1]), outer=float(c[k]),
                    h=float(c[k] - c[k - 1]), style="corner") for k in range(1, N + 1)]
    cells: list[Cell] = [Cell(k=1, index=(), lo=(0.0,) * l, hi=(float(c[1]),) * l)]
    for k in range(2, N + 1):
        h = c[k] - c[k - 1]
        _tile_slabs(cells, k, l, band=(float(c[k - 1]), float(c[k])),
                    below=(0.0, float(c[k - 1])), above=(0.0, float(c[k])),
                    h=float(h), chop_style="ceil")
    return Covering(l=l, T=float(T), N=N, style="corner", v=float(v),
                    layers=layers, cells=cells)


def geometric_covering(N: int, T: float, l: int) -> Covering:
    """Covering of [0, T]^l with geometric layers toward the boundary.

    Layer 0 is the near-boundary slab 0 <= min_i t_i <= 2^(-N) T; layer k >= 1
    holds 2^(k-1-N) T <= min_i t_i <= 2^(k-N) T. Cell edges lie in
    [h_k, 2 h_k] with h_k = 2^(k-1-N) T; the top layer is the single cube
    [T/2, T]^l of edge h_N.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    outer = [T * 2.0 ** (k - N) for k in range(N + 1)]  # outer bound of layer k
    layers = [Layer(k=0, inner=0.0, outer=outer[0], h=T * 2.0 ** (-1 - N), style="geometric")]
    for k in range(1, N + 1):
        layers.append(Layer(k=k, inner=outer[k - 1], outer=outer[k],
                            h=T * 2.0 ** (k - 1 - N), style="geometric"))
    cells: list[Cell] = [Cell(k=N, index=(), lo=(float(T / 2),) * l, hi=(float(T),) * l)]
    for k in range(N - 1, -1, -1):
        h = T * 2.0 ** (k - 1 - N)
        inner = 0.0 if k == 0 else outer[k - 1]
        _tile_slabs(cells, k, l, band=(float(inner), float(outer[k])),
                    below=(float(outer[k]), float(T)), above=(float(inner), float(T)),
                    h=float(h), chop_style="floor")
    return Covering(l=l, T=float(T), N=N, style="geometric", v=None,
                    layers=layers, cells=cells)


def shadow_matrix(covering: Covering) -> np.ndarray:
    """Boolean matrix S with S[d, c] true iff cell d must precede cell c.

    Cell d precedes c when the interior of d meets the rectangle
    [0, sup(c)], i.e. lo_d < hi_c holds strictly on every axis.
    """
    lo, hi = covering.lo_array, covering.hi_array
    S = np.all(lo[:, None, :] < hi[None, :, :], axis=2)
    np.fill_diagonal(S, False)
    return S


def causal_order(covering: Covering) -> list[int]:
    """Total processing order of cells compatible with the shadow relation.

    Cells are emitted by a priority topological sort keyed by ascending sum of
    lower-corner coordinates with lexicographic tie-break on the lower corner,
    so the key order is produced verbatim whenever it already respects the
    relation. A cycle (impossible for boxes with disjoint interiors) raises.
    """
    n = covering.ncells
    S = shadow_matrix(covering)
    indeg = S.sum(axis=0).astype(int)
    lo = covering.lo_array
    keys = [(float(lo[i].sum()), tuple(lo[i]), i) for i in range(n)]
    ready = [keys[i] for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, _, i = heapq.heappop(ready)
        order.append(i)
        for j in np.nonzero(S[i])[0]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, keys[j])
    if len(order) != n:
        raise RuntimeError("shadow relation is cyclic; covering cells are inconsistent")
    return order


def verify_causal_order(covering: Covering, order) -> bool:
    """Brute-force check that ``order`` respects the shadow relation."""
    pos = np.empty(covering.ncells, dtype=int)
    pos[np.asarray(order, dtype=int)] = np.arange(covering.ncells)
    S = shadow_matrix(covering)
    d, c = np.nonzero(S)
    return bool(np.all(pos[d] < pos[c]))
