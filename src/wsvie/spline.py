"""Local polynomial splines over box coverings of [0, T]^l.

One type, ``TensorSpline``, interpolates per cell with a tensor product of
per-axis node sets. A 1D graded mesh enters as its one-axis covering, one cell
per segment, so a 1D spline is the case l = 1. Continuity across cell faces
(breakpoints in 1D) is enforced by node inheritance: whenever a node of a cell
lies on the closure of an already-built cell, the value stored there is the
neighbour spline's evaluation instead of a fresh sample. Built splines are
immutable in practice and thread-safe to evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interp import _CLOSED_FAMILIES, build_nodes, lagrange_basis_matrix
from .mesh import Covering, GradedMesh, causal_order, closure_bounds

# points per block of ``TensorSpline.eval``
_EVAL_BLOCK = 4096


@dataclass
class TensorSpline:
    """Per-cell tensor-product interpolant over a covering."""

    covering: Covering
    nodesets: list   # per cell: tuple of NodeSet, one per axis
    values: list     # per cell: ndarray of shape (m_1, ..., m_l)
    owned: list      # per cell: bool ndarray, False where the value was inherited

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Containing cell per point; -1 when outside.

        Boundary points resolve to the containing cell of lowest canonical
        priority (the cell that owns the shared-face values). Containment
        allows the relative slack of ``closure_bounds``.

        The sorted distinct cell edges of each axis span an elementary grid
        whose boxes each lie in one cell. A point's slack box meets a cell's
        closure exactly when it meets the closure of one of the cell's
        elementary boxes, so every box within the slack is a candidate.
        """
        cov = self.covering
        edges = [np.unique(np.concatenate([cov.lo_array[:, a], cov.hi_array[:, a]]))
                 for a in range(cov.l)]
        label = np.full([e.size - 1 for e in edges], -1)
        for ci in range(cov.ncells):
            label[tuple(slice(np.searchsorted(e, lo), np.searchsorted(e, hi))
                        for e, lo, hi in zip(edges, cov.lo_array[ci], cov.hi_array[ci]))] = ci
        lower, upper = closure_bounds(pts)
        # per axis: the first and last elementary interval that the slack box meets
        first = [np.maximum(np.searchsorted(e, lower[:, a]) - 1, 0) for a, e in enumerate(edges)]
        last = [np.minimum(np.searchsorted(e, upper[:, a], side="right") - 1, e.size - 2)
                for a, e in enumerate(edges)]
        # rank[-1] ranks label -1 (no cell) after every cell
        rank = np.append(cov.causal_rank(), cov.ncells)
        out = np.full(pts.shape[0], -1)
        spans = [int(np.max(hi - lo, initial=0)) + 1 for lo, hi in zip(first, last)]
        for offset in np.ndindex(*spans):
            box = [lo + o for lo, o in zip(first, offset)]
            inside = np.all([b <= hi for b, hi in zip(box, last)], axis=0)
            cand = np.where(inside, label[tuple(np.clip(b, 0, s - 1)
                                                for b, s in zip(box, label.shape))], -1)
            out = np.where(rank[cand] < rank[out], cand, out)
        return out

    def eval_cell(self, ci: int, pts: np.ndarray) -> np.ndarray:
        """Evaluate cell ci's tensor interpolant at points (n, l)."""
        nsets = self.nodesets[ci]
        vals = self.values[ci]
        basis = [lagrange_basis_matrix(ns, pts[:, a]) for a, ns in enumerate(nsets)]
        if len(nsets) == 1:
            return basis[0] @ vals
        if len(nsets) == 2:
            return np.einsum("pi,ij,pj->p", basis[0], vals, basis[1])
        acc = np.broadcast_to(vals, (pts.shape[0],) + vals.shape)
        for B in basis:
            acc = np.einsum("pi,pi...->p...", B, acc)
        return acc

    def eval(self, pts):
        """Spline values at points (n, l); for l = 1 also at a 1-D array or a scalar.

        Points are looked up and evaluated ``_EVAL_BLOCK`` at a time, which
        bounds the temporary memory of a large sample grid.
        """
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 0
        pts = pts.reshape(-1, 1) if self.covering.l == 1 else np.atleast_2d(pts)
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], _EVAL_BLOCK):
            block = pts[start:start + _EVAL_BLOCK]
            cells = self.cell_of(block)
            if np.any(cells < 0):
                raise ValueError("evaluation point outside [0, T]^l")
            out[start:start + _EVAL_BLOCK] = self._eval_in(cells, block)
        return float(out[0]) if scalar else out

    def _eval_in(self, cells: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Value at each point (n, l) of the interpolant of its cell ``cells[i]``."""
        out = np.empty(pts.shape[0])
        for ci in np.unique(cells):
            mask = cells == ci
            out[mask] = self.eval_cell(int(ci), pts[mask])
        return out

    __call__ = eval

    def node_grid(self, ci: int) -> np.ndarray:
        """All tensor node points of cell ci, shape (m_1*...*m_l, l)."""
        nsets = self.nodesets[ci]
        grids = np.meshgrid(*[ns.nodes for ns in nsets], indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def node_points(self) -> np.ndarray:
        """Every cell's node grid, cell after cell: shape (n, l), or (n,) for l = 1."""
        pts = np.vstack([self.node_grid(ci) for ci in range(self.covering.ncells)])
        return pts[:, 0] if self.covering.l == 1 else pts

    def node_values(self) -> np.ndarray:
        """Stored nodal values in the order of ``node_points``."""
        return np.concatenate([v.ravel() for v in self.values])

    def to_dict(self) -> dict:
        return {
            "covering": self.covering.to_dict(),
            "families": [[ns.family for ns in nsets] for nsets in self.nodesets],
            "degrees": [[ns.m for ns in nsets] for nsets in self.nodesets],
            "values": [v.tolist() for v in self.values],
        }


def tensor_spline_from_dict(data: dict) -> TensorSpline:
    from .mesh import covering_from_dict

    cov = covering_from_dict(data["covering"])
    nodesets, values, owned = [], [], []
    for ci, cell in enumerate(cov.cells):
        nsets = tuple(build_nodes((cell.lo[a], cell.hi[a]), data["families"][ci][a],
                                  data["degrees"][ci][a]) for a in range(cov.l))
        nodesets.append(nsets)
        vals = np.asarray(data["values"][ci], dtype=float)
        values.append(vals)
        owned.append(np.ones(vals.shape, dtype=bool))
    return TensorSpline(covering=cov, nodesets=nodesets, values=values, owned=owned)


class LocalSpline(TensorSpline):
    """A TensorSpline over the one-axis covering of a 1D graded mesh.

    It adds nothing to TensorSpline. The 1D entry points return it, and it
    stays a public name because code outside the package looks it up (the
    benchmark's tracer patches methods through it).
    """


def _unfilled(covering: Covering, degrees, family: str) -> TensorSpline:
    """A spline with every cell's nodes and no values yet.

    ``degrees`` is one node count per axis for every cell, or a list with
    one count per cell.
    """
    degrees = [degrees] * covering.ncells if isinstance(degrees, int) else list(degrees)
    if len(degrees) != covering.ncells:
        raise ValueError(f"{len(degrees)} node counts for {covering.ncells} cells")
    nodesets = [tuple(build_nodes((cell.lo[a], cell.hi[a]), family, m) for a in range(covering.l))
                for cell, m in zip(covering.cells, degrees)]
    return TensorSpline(covering=covering, nodesets=nodesets, values=[None] * covering.ncells,
                        owned=[None] * covering.ncells)


def _inherited_values(spline: TensorSpline, pts: np.ndarray, donors):
    """Values that the nodes ``pts`` of a cell inherit from built cells.

    ``donors`` lists the candidate cells in priority order. A node lying on
    the closure of a donor takes the spline value of the first such donor.
    Returns the inherited mask and the values (0 where nothing is inherited).
    """
    mask = np.zeros(pts.shape[0], dtype=bool)
    vals = np.zeros(pts.shape[0])
    donors = np.asarray(donors, dtype=int)
    if donors.size:
        contains = spline.covering.contains(closure_bounds(pts), donors)
        mask = contains.any(axis=1)
        vals[mask] = spline._eval_in(donors[np.argmax(contains[mask], axis=1)], pts[mask])
    return mask, vals


def build_tensor_spline(f, covering: Covering, degrees, order=None,
                        family: str = "legendre_closed") -> TensorSpline:
    """Tensor-product spline of f over a covering, built cell by cell.

    Nodes lying on the closure of an already-built cell inherit that cell's
    spline value (earliest such cell in ``order``); all other nodes sample f.
    ``order`` defaults to the causal order and may be any total order of cells.
    """
    if family not in _CLOSED_FAMILIES:
        raise ValueError(f"continuity requires a closed node family, got {family!r}")
    if order is None:
        order = causal_order(covering)
    order = list(order)
    if sorted(order) != list(range(covering.ncells)):
        raise ValueError("order is not a permutation of the covering's cells")
    spl = _unfilled(covering, degrees, family)
    for pos, ci in enumerate(order):
        pts = spl.node_grid(ci)
        shape = tuple(ns.m for ns in spl.nodesets[ci])
        vals = np.asarray(f(*pts.T), dtype=float)
        inherited, donated = _inherited_values(spl, pts, order[:pos])
        vals[inherited] = donated[inherited]
        spl.values[ci] = vals.reshape(shape)
        spl.owned[ci] = (~inherited).reshape(shape)
    return spl


def build_spline_1d(f, mesh: GradedMesh, schedule, family: str = "legendre_closed") -> LocalSpline:
    """Interpolate f segment by segment over a graded mesh.

    ``schedule`` lists the node count per segment. This is
    ``build_tensor_spline`` on the mesh's one-axis covering: the closed node
    family puts a node on every breakpoint, where segment k inherits the
    value of segment k - 1.
    """
    return LocalSpline(**vars(build_tensor_spline(f, mesh.covering(), schedule, family=family)))


def sup_error(spline, f, samples_per_axis: int = 201) -> float:
    """Max |f - spline| over a uniform dense grid of the domain."""
    if samples_per_axis < 50:
        raise ValueError(f"samples_per_axis must be >= 50, got {samples_per_axis}")
    cov = spline.covering
    axes = [np.linspace(0.0, cov.T, samples_per_axis)] * cov.l
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    exact = np.asarray(f(*[pts[:, a] for a in range(cov.l)]), dtype=float)
    return float(np.max(np.abs(exact - spline.eval(pts))))


def max_node_error(spline, f, owned_only: bool = False) -> float:
    """Max |f - stored value| over the spline's nodes.

    With ``owned_only`` the maximum runs over the nodes each cell computed
    itself (for solver output: its collocation nodes), skipping values that
    were inherited from a neighbour's trace.
    """
    worst = 0.0
    for ci in range(spline.covering.ncells):
        pts = spline.node_grid(ci)
        exact = np.asarray(f(*[pts[:, a] for a in range(spline.covering.l)]),
                           dtype=float).reshape(spline.values[ci].shape)
        err = np.abs(exact - spline.values[ci])
        if owned_only:
            own = spline.owned[ci]
            if not own.any():
                continue
            err = err[own]
        worst = max(worst, float(np.max(err)))
    return worst


def n_functionals(spline) -> int:
    """Number of distinct node points carrying the spline's data.

    Coordinates closer than the relative slack of ``closure_bounds`` count as
    one, so a face node computed in two cells is counted once even when the
    two copies differ in the last bit. Along each axis the sorted coordinates
    form clusters wherever neighbours x < y satisfy y - x <= 1e-12 (|x| + |y|);
    points are counted by their per-axis cluster ids.
    """
    pts = spline.node_points().reshape(-1, spline.covering.l)
    ids = np.empty(pts.shape, dtype=int)
    for a in range(pts.shape[1]):
        x, inverse = np.unique(pts[:, a], return_inverse=True)
        apart = np.diff(x) > 1e-12 * (np.abs(x[1:]) + np.abs(x[:-1]))
        ids[:, a] = np.concatenate([[0], np.cumsum(apart)])[inverse]
    return int(np.unique(ids, axis=0).shape[0])
