"""Local polynomial splines over graded meshes and box coverings.

A 1D local spline interpolates independently on each mesh segment with a
closed node family, so continuity at breakpoints holds by construction. The
tensor spline over a covering interpolates per cell; continuity across cell
faces is enforced by node inheritance: whenever a node of a cell lies on the
closure of an already-built cell, the value stored there is the neighbour
spline's evaluation instead of a fresh sample. Built splines are immutable in
practice and thread-safe to evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interp import NodeSet, _CLOSED_FAMILIES, build_nodes, lagrange_basis_matrix
from .mesh import Covering, GradedMesh, causal_order


@dataclass
class LocalSpline:
    """Piecewise interpolant over a 1D graded mesh, one NodeSet per segment."""

    mesh: GradedMesh
    nodesets: list
    values: list

    def segment_of(self, t: np.ndarray) -> np.ndarray:
        """Containing segment index; breakpoints resolve to the lower segment."""
        v = self.mesh.breakpoints
        idx = np.searchsorted(v, t, side="left") - 1
        return np.clip(idx, 0, self.mesh.nsegments - 1)

    def eval(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        v = self.mesh.breakpoints
        if np.any(t_arr < v[0]) or np.any(t_arr > v[-1]):
            raise ValueError("evaluation point outside [0, T]")
        seg = self.segment_of(t_arr)
        out = np.empty_like(t_arr)
        for k in np.unique(seg):
            mask = seg == k
            out[mask] = lagrange_basis_matrix(self.nodesets[k], t_arr[mask]) @ self.values[k]
        return float(out[0]) if np.asarray(t).ndim == 0 else out

    __call__ = eval

    def node_points(self) -> np.ndarray:
        return np.concatenate([ns.nodes for ns in self.nodesets])

    def node_values(self) -> np.ndarray:
        return np.concatenate(self.values)


def build_spline_1d(f, mesh: GradedMesh, schedule, family: str = "legendre_closed") -> LocalSpline:
    """Interpolate f segment by segment over a graded mesh.

    ``schedule`` lists the node count per segment. Only closed families are
    accepted: they contain the breakpoints, which makes adjacent segments
    agree there by construction.
    """
    if family not in _CLOSED_FAMILIES:
        raise ValueError(f"continuity requires a closed node family, got {family!r}")
    schedule = list(schedule)
    if len(schedule) != mesh.nsegments:
        raise ValueError(f"schedule length {len(schedule)} != segment count {mesh.nsegments}")
    nodesets, values = [], []
    for (a, b), m in zip(mesh.segments(), schedule):
        ns = build_nodes((a, b), family, m)
        nodesets.append(ns)
        values.append(np.asarray(f(ns.nodes), dtype=float))
    return LocalSpline(mesh=mesh, nodesets=nodesets, values=values)


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
        priority (the cell that owns the shared-face values).
        """
        lo, hi = self.covering.lo_array, self.covering.hi_array
        n = pts.shape[0]
        out = np.full(n, -1, dtype=int)
        unassigned = np.ones(n, dtype=bool)
        rank = self.covering.causal_rank()
        for ci in np.argsort(rank):
            if not unassigned.any():
                break
            inside = np.all(pts >= lo[ci] - 1e-12, axis=1) & np.all(pts <= hi[ci] + 1e-12, axis=1)
            take = inside & unassigned
            out[take] = ci
            unassigned &= ~take
        return out

    def eval_cell(self, ci: int, pts: np.ndarray) -> np.ndarray:
        """Evaluate cell ci's tensor interpolant at points (n, l)."""
        nsets = self.nodesets[ci]
        vals = self.values[ci]
        basis = [lagrange_basis_matrix(ns, pts[:, a]) for a, ns in enumerate(nsets)]
        if len(nsets) == 2:
            return np.einsum("pi,ij,pj->p", basis[0], vals, basis[1])
        acc = np.broadcast_to(vals, (pts.shape[0],) + vals.shape)
        for B in basis:
            acc = np.einsum("pi,pi...->p...", B, acc)
        return acc

    def eval(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        cells = self.cell_of(pts)
        if np.any(cells < 0):
            raise ValueError("evaluation point outside [0, T]^l")
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


def _cell_nodesets(covering: Covering, degrees, family: str):
    if isinstance(degrees, int):
        degrees = [degrees] * covering.ncells
    if len(degrees) != covering.ncells:
        raise ValueError("per-cell degree list does not match the covering")
    out = []
    for cell, m in zip(covering.cells, degrees):
        out.append(tuple(build_nodes((cell.lo[a], cell.hi[a]), family, m)
                         for a in range(covering.l)))
    return out


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
        cov = spline.covering
        tol = 1e-12 * cov.T
        contains = (np.all(pts[:, None, :] >= cov.lo_array[donors][None, :, :] - tol, axis=2)
                    & np.all(pts[:, None, :] <= cov.hi_array[donors][None, :, :] + tol, axis=2))
        mask = contains.any(axis=1)
        for p in np.nonzero(mask)[0]:
            donor = donors[np.argmax(contains[p])]
            vals[p] = spline.eval_cell(int(donor), pts[p : p + 1])[0]
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
    nodesets = _cell_nodesets(covering, degrees, family)
    values = [None] * covering.ncells
    owned = [None] * covering.ncells
    spl = TensorSpline(covering=covering, nodesets=nodesets, values=values, owned=owned)
    for pos, ci in enumerate(order):
        pts = spl.node_grid(ci)
        shape = tuple(ns.m for ns in nodesets[ci])
        vals = np.asarray(f(*[pts[:, a] for a in range(covering.l)]), dtype=float)
        inherited, donated = _inherited_values(spl, pts, order[:pos])
        vals[inherited] = donated[inherited]
        values[ci] = vals.reshape(shape)
        owned[ci] = (~inherited).reshape(shape)
    return spl


def sup_error(spline, f, samples_per_axis: int = 201) -> float:
    """Max |f - spline| over a uniform dense grid of the domain."""
    if samples_per_axis < 50:
        raise ValueError(f"samples_per_axis must be >= 50, got {samples_per_axis}")
    if isinstance(spline, LocalSpline):
        t = np.linspace(0.0, spline.mesh.T, samples_per_axis)
        return float(np.max(np.abs(np.asarray(f(t)) - spline.eval(t))))
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
    if isinstance(spline, LocalSpline):
        pts = spline.node_points()
        return float(np.max(np.abs(np.asarray(f(pts)) - spline.node_values())))
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
    """Number of distinct node points carrying the spline's data."""
    if isinstance(spline, LocalSpline):
        pts = spline.node_points()[:, None]
    else:
        pts = np.vstack([spline.node_grid(ci) for ci in range(spline.covering.ncells)])
    scale = max(abs(pts).max(), 1.0)
    return int(np.unique(np.round(pts / scale, 12), axis=0).shape[0])
