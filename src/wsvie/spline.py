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

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .interp import _CLOSED_FAMILIES, NodeSet, build_nodes, lagrange_basis_matrix, node_table
from .mesh import Covering, causal_order, closure_bounds, covering_from_dict, least
from .quad import _TABLE_BUDGET

# fewest samples per axis of ``sup_error``'s dense grid
MIN_SAMPLES = 50


@dataclass
class TensorSpline:
    """Per-cell tensor-product interpolant over a covering.

    The constructor builds the padded ``tables`` once (``_padded``, values 0 when
    absent). ``values`` and ``owned`` become tuples: each ``values[ci]`` is a view of
    its cell's corner there, written in place, and rebinding one raises. An absent
    ``owned`` becomes such views of a copy of ``lead``: every node owned.
    """

    covering: Covering
    nodesets: list        # per cell: tuple of NodeSet, one per axis
    values: tuple = None  # per cell: ndarray of shape (m_1, ..., m_l)
    owned: tuple = None   # per cell: bool ndarray, False where the value was inherited
    tables: SimpleNamespace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = [tuple(ns.m for ns in nsets) for nsets in self.nodesets]
        if len(shapes) != self.covering.ncells:
            raise ValueError(f"{len(shapes)} node sets for {self.covering.ncells} cells")
        if self.values is not None and [np.shape(v) for v in self.values] != shapes:
            raise ValueError("value arrays do not match the cells' node counts")
        self.tables = _padded(self.nodesets, () if self.values is None else self.values)
        corners = [tuple(map(slice, s)) for s in shapes]
        self.values = tuple(v[c] for v, c in zip(self.tables.values, corners))
        self.owned = (tuple(o[c] for o, c in zip(self.tables.lead.copy(), corners))
                      if self.owned is None else tuple(np.array(o, dtype=bool) for o in self.owned))

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Containing cell per point, of lowest causal rank on a shared face; -1 outside."""
        return self.covering.lookup(pts, self.covering.causal_rank())

    def eval_cell(self, ci: int, pts: np.ndarray) -> np.ndarray:
        """Evaluate cell ci's tensor interpolant at points (n, l): one ``_at_points``."""
        basis = [lagrange_basis_matrix(ns, pts[:, a]) for a, ns in enumerate(self.nodesets[ci])]
        return _at_points(basis, self.values[ci][None])

    def eval(self, pts):
        """Spline values at points (n, l); for l = 1 also at a 1-D array or a scalar.

        Points are looked up and evaluated in blocks of about ``_TABLE_BUDGET`` doubles:
        per point its cell's values, and per axis a basis row, its donor's nodes and
        weights and a mask (4 M_a). This bounds the memory of a large sample grid.
        """
        pts = np.asarray(pts, dtype=float)
        scalar, l = pts.ndim == 0, self.covering.l
        pts = pts.reshape(-1, 1) if l == 1 and pts.ndim < 2 else np.atleast_2d(pts)
        if pts.ndim != 2 or pts.shape[1] != l:
            raise ValueError(f"points must have shape (n, {l}), got {np.shape(pts)}")
        values = self.tables.values
        step = max(1, _TABLE_BUDGET // (values[0].size + 4 * sum(values.shape[1:])))
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], step):
            block = pts[start:start + step]
            cells = self.cell_of(block)
            if np.any(cells < 0):
                raise ValueError("evaluation point outside [0, T]^l")
            rows = _donor_rows(self.tables, cells, block)
            out[start:start + step] = _donated(self.tables, cells, rows)
        return float(out[0]) if scalar else out

    __call__ = eval

    def eval_grid(self, axes) -> np.ndarray:
        """Spline values on the tensor grid of one 1-D array per axis, shape (n_1, ..., n_l).

        Each point takes the value of the cell ``cell_of`` picks: cells write their
        sub-grids in descending causal rank. A sub-grid is ``values[ci]`` times per-axis
        basis rows, one matmul per axis. The rows of every distinct (interval, sub-grid)
        come from ``lagrange_basis_matrix`` calls over the padded node table (``_padded``),
        as ``_donor_rows`` does, one per axis and block of about ``_TABLE_BUDGET / 8``
        doubles of rows (a block of one interval takes its own node set): bit-identical
        to one call per interval where no padding enters, as when an axis has one node
        count.
        """
        cov = self.covering
        axes = [np.asarray(x, dtype=float) for x in axes]
        if len(axes) != cov.l or any(x.ndim != 1 for x in axes):
            raise ValueError(f"need {cov.l} 1-D coordinate arrays")
        order = [np.argsort(x, kind="stable") for x in axes]
        xs = [x[o] for x, o in zip(axes, order)]
        # per axis and cell, its sub-grid xs[a][start:stop]: the points its closure holds
        bounds = [closure_bounds(x) for x in xs]
        start = np.array([np.searchsorted(up, lo) for (_, up), lo in zip(bounds, cov.lo_array.T)])
        stop = np.array([np.searchsorted(low, hi, side="right")
                         for (low, _), hi in zip(bounds, cov.hi_array.T)])
        live = np.flatnonzero(np.all(stop > start, axis=0))
        live = live[np.argsort(-cov.causal_rank()[live])]
        rows = []   # per axis: (interval, sub-grid) -> the basis rows, transposed
        for a, (ax, x) in enumerate(zip(self.tables.axes, xs)):
            keys = {}   # the first live cell of each distinct key
            for ci in live:
                ns = self.nodesets[ci][a]
                keys.setdefault((ns.family, ns.a, ns.b, ns.m, start[a, ci], stop[a, ci]), ci)
            keys, cells = list(keys), np.array(list(keys.values()), dtype=int)
            n = stop[a, cells] - start[a, cells]
            cut, rows = np.append(0, np.cumsum(n)), rows + [{}]
            # keys in blocks of about an eighth of _TABLE_BUDGET doubles of basis rows
            block = cut[:-1] // max(1, _TABLE_BUDGET // (8 * ax.nodes.shape[1]))
            for b in np.unique(block):
                at = np.flatnonzero(block == b)
                off = cut[at] - cut[at[0]]   # each key's first row in the block's basis
                owner = np.repeat(cells[at], n[at])
                pts = x[np.arange(owner.size) + np.repeat(start[a, cells[at]] - off, n[at])]
                basis = lagrange_basis_matrix(   # a block of one key takes its own node set
                    self.nodesets[owner[0]][a] if at.size == 1 else
                    SimpleNamespace(nodes=ax.nodes[owner], weights=ax.weights[owner]), pts)
                rows[-1].update((keys[k], basis[lo:lo + n[k], :keys[k][3]].copy().T)
                                for k, lo in zip(at, off))   # no view keeps the block
        out, covered = np.empty([x.size for x in xs]), np.zeros([x.size for x in xs], bool)
        turn = (*range(1, cov.l), 0)   # axis 0 to the back
        for ci in live:
            block, v = tuple(map(slice, start[:, ci], stop[:, ci])), self.values[ci]
            for ns, cut, seen in zip(self.nodesets[ci], block, rows):
                v = v.transpose(turn) @ seen[ns.family, ns.a, ns.b, ns.m, cut.start, cut.stop]
            out[block], covered[block] = v, True
        if not covered.all():
            raise ValueError("evaluation point outside [0, T]^l")
        return out[np.ix_(*map(np.argsort, order))]   # back in the callers' order

    def node_grid(self, ci: int) -> np.ndarray:
        """All tensor node points of cell ci, shape (m_1*...*m_l, l)."""
        nsets = self.nodesets[ci]
        grids = np.meshgrid(*[ns.nodes for ns in nsets], indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def node_points(self) -> np.ndarray:
        """Every cell's node grid, cell after cell: shape (n, l), or (n,) for l = 1."""
        tables = self.tables
        pts = np.column_stack([np.broadcast_to(ax.spread, tables.lead.shape)[tables.lead]
                               for ax in tables.axes])
        return pts[:, 0] if self.covering.l == 1 else pts

    def node_values(self) -> np.ndarray:
        """Stored nodal values in the order of ``node_points``."""
        return self.tables.values[self.tables.lead]

    def to_dict(self) -> dict:
        return {
            "covering": self.covering.to_dict(),
            "families": [[ns.family for ns in nsets] for nsets in self.nodesets],
            "degrees": [[ns.m for ns in nsets] for nsets in self.nodesets],
            "values": [v.tolist() for v in self.values],
        }


def tensor_spline_from_dict(data: dict) -> TensorSpline:
    cov = covering_from_dict(data["covering"])
    nodesets = [tuple(map(build_nodes, zip(lo, hi), fams, ms)) for lo, hi, fams, ms in zip(
        cov.lo_array.tolist(), cov.hi_array.tolist(), data["families"], data["degrees"])]
    return TensorSpline(cov, nodesets, data["values"])


class LocalSpline(TensorSpline):
    """A TensorSpline over the one-axis covering of a 1D graded mesh.

    It adds nothing to TensorSpline. The 1D entry points return it, and it
    stays a public name because code outside the package looks it up (the
    benchmark's tracer patches methods through it).
    """


def _padded(nodesets, values=()) -> SimpleNamespace:
    """Every cell's nodes, barycentric weights and values in zero-padded arrays.

    ``axes[a]`` holds the cells' ``nodes`` and ``weights`` on axis a as rows of
    (ncells, M_a), M_a its largest node count, padded with nodes at +inf of
    weight 0, whose barycentric terms vanish; ``spread`` puts the nodes on axis
    a + 1. ``values`` fill the leading corners ``lead`` of zeros (ncells, M_1, ..., M_l).
    """
    l, axes, lead = len(nodesets[0]), [], True
    for a, sets in enumerate(zip(*nodesets)):
        row = np.arange(max(ns.m for ns in sets)) < np.array([[ns.m] for ns in sets])
        nodes, weights = np.full(row.shape, np.inf), np.zeros(row.shape)
        nodes[row] = np.concatenate([ns.nodes for ns in sets])
        weights[row] = np.concatenate([ns.weights for ns in sets])
        spread = (len(sets),) + (1,) * a + (-1,) + (1,) * (l - 1 - a)
        axes.append(SimpleNamespace(nodes=nodes, weights=weights, spread=nodes.reshape(spread)))
        lead = lead & row.reshape(spread)
    padded = np.zeros(lead.shape)
    padded[lead] = np.concatenate([np.ravel(v) for v in values]) if len(values) else 0.0
    return SimpleNamespace(axes=axes, lead=lead, values=padded)


def _unfilled(covering: Covering, degrees, family: str, kind=TensorSpline):
    """A spline of type ``kind`` with every cell's nodes, zero values and all nodes owned.

    ``degrees`` is one node count per axis for every cell, or a list with
    one count per cell. The cells share a NodeSet per distinct interval and
    node count, of any axis: one ``node_table`` builds them all, once per solve.
    """
    degrees = [degrees] * covering.ncells if isinstance(degrees, int) else list(degrees)
    if len(degrees) != covering.ncells:
        raise ValueError(f"{len(degrees)} node counts for {covering.ncells} cells")
    keys = np.column_stack([covering.lo_array.T.ravel(), covering.hi_array.T.ravel(),
                            np.tile(degrees, covering.l)])   # (a, b, m), axis after axis
    keys, cells = np.unique(keys, axis=0, return_inverse=True)
    lo, hi, ms = keys[:, 0].tolist(), keys[:, 1].tolist(), keys[:, 2].astype(int).tolist()
    sets = [NodeSet(a, b, family, m, n[:m], w[:m])
            for a, b, m, n, w in zip(lo, hi, ms, *node_table(lo, hi, family, ms))]
    cells = cells.reshape(covering.l, -1).tolist()
    return kind(covering, list(zip(*([sets[i] for i in ids] for ids in cells))))


def _nodal(spline: TensorSpline, f, priority) -> SimpleNamespace:
    """f at every node, the owned-node mask, and the donors and points of the others,
    once per solve: flat arrays, with a cell's pieces the slices ``cells[ci]`` of
    ``f`` and ``own`` and ``inherit[ci]`` of ``donors`` and ``pts``.

    Nodes are flattened cell after cell, each as in ``node_grid``. ``priority(cand,
    owner)`` ranks the candidate donors (n, K) of nodes of the cells owner (n, 1),
    ``ncells`` for a non-donor; the least wins. Only boundary nodes (for closed
    families, first or last on an axis) can lie on another cell's closure: they
    are looked up.
    """
    cov = spline.covering
    pts = spline.node_points().reshape(-1, cov.l)
    sizes = np.count_nonzero(spline.tables.lead.reshape(cov.ncells, -1), axis=1)
    owner = np.repeat(np.arange(cov.ncells), sizes)
    face = np.flatnonzero(np.any((pts == cov.lo_array[owner]) | (pts == cov.hi_array[owner]), 1))
    cand = cov.candidates(pts[face])
    donors = least(cand, priority(cand, owner[face, None]), cov.ncells)
    node, start = face[donors >= 0], np.append(0, np.cumsum(sizes))
    cells, inherit = ([*map(slice, o[:-1], o[1:])]
                      for o in (start.tolist(), np.searchsorted(node, start).tolist()))
    return SimpleNamespace(f=np.asarray(f(*pts.T), dtype=float), cells=cells, inherit=inherit,
                           own=np.bincount(node, minlength=pts.shape[0]) == 0,
                           donors=donors[donors >= 0], pts=pts[node])


def _at_points(basis, vals: np.ndarray) -> np.ndarray:
    """Per point p, vals[p] (n or 1, m_1, ..., m_l) contracted with row p of each
    axis's basis (n, m_a): one einsum, "pi,pij,pj->p" for l = 2."""
    axes = "ijklmn"[:len(basis)]
    spec = ",".join(["p" + axes[:1], "p" + axes] + ["p" + c for c in axes[1:]])
    return np.einsum(spec + "->p", basis[0], vals, *basis[1:])


def _donor_rows(tables: SimpleNamespace, donors: np.ndarray, pts: np.ndarray) -> list:
    """Per axis, the barycentric rows (k, M_a) of points (k, l) in their donors' padded nodes."""
    return [lagrange_basis_matrix(SimpleNamespace(nodes=ax.nodes[donors],
                                                  weights=ax.weights[donors]), x)
            for ax, x in zip(tables.axes, pts.T)]


def _donated(tables: SimpleNamespace, donors: np.ndarray, rows: list) -> np.ndarray:
    """Value at each point of the interpolant of its cell ``donors[i]``, from the points'
    ``_donor_rows``: one batched ``_at_points`` over a spline's ``tables``."""
    return _at_points(rows, tables.values[donors])


def _inherited(tables: SimpleNamespace, nodal: SimpleNamespace, order):
    """Yield the values of each cell's inherited nodes, cell after cell of ``order``.

    ``nodal`` is ``_nodal``'s. The donor rows depend on geometry only, so
    one ``_donor_rows`` gives those of a block of consecutive cells: the cells
    whose inherited nodes start in one stretch of about ``_TABLE_BUDGET``
    doubles of rows, with their donors' gathered nodes and weights (3 M_a per
    node and axis). A cell's ``_donated`` reads ``tables`` when the generator
    reaches it, after the cells before it are written.
    """
    pick = nodal.inherit
    sizes = np.array([pick[ci].stop - pick[ci].start for ci in order], dtype=int)
    step = max(1, _TABLE_BUDGET // (3 * sum(ax.nodes.shape[1] for ax in tables.axes)))
    bounds = np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // step)) + 1
    for cells, counts in zip(np.split(order, bounds), np.split(sizes, bounds)):
        rows = _donor_rows(tables, np.concatenate([nodal.donors[pick[ci]] for ci in cells]),
                           np.concatenate([nodal.pts[pick[ci]] for ci in cells]))
        cut = np.cumsum(counts).tolist()   # a cell's rows are a slice of the block's
        for ci, lo, hi in zip(cells, [0] + cut, cut):
            yield _donated(tables, nodal.donors[pick[ci]], [r[lo:hi] for r in rows])


def build_tensor_spline(f, covering: Covering, degrees, order=None,
                        family: str = "legendre_closed") -> TensorSpline:
    """Tensor-product spline of f over a covering, built cell by cell.

    Nodes lying on the closure of an already-built cell inherit that cell's
    spline value (earliest such cell in ``order``); all other nodes sample f.
    ``order`` defaults to the causal order and may be any total order of cells.
    """
    if family not in _CLOSED_FAMILIES:
        raise ValueError(f"continuity requires a closed node family, got {family!r}")
    order = causal_order(covering) if order is None else list(order)
    if sorted(order) != list(range(covering.ncells)):
        raise ValueError("order is not a permutation of the covering's cells")
    spl = _unfilled(covering, degrees, family)
    # a cell's position in ``order``: it may donate to the cells built after it
    pos = np.argsort(order)
    nodal = _nodal(spl, f, lambda cand, owner: np.where(pos[cand] < pos[owner], pos[cand],
                                                        covering.ncells))
    for ci, inherited in zip(order, _inherited(spl.tables, nodal, order)):
        vals, own = nodal.f[nodal.cells[ci]], nodal.own[nodal.cells[ci]]
        vals[~own] = inherited
        spl.values[ci][...] = vals.reshape(spl.values[ci].shape)
        spl.owned[ci][...] = own.reshape(spl.values[ci].shape)
    return spl


def sup_error(spline, f, samples_per_axis: int = 201) -> float:
    """Max |f - spline| over the uniform grid of ``samples_per_axis`` points per axis
    on [0, T]^l, ends included, evaluated by ``eval_grid``; a NaN propagates."""
    if samples_per_axis < MIN_SAMPLES:
        raise ValueError(f"samples_per_axis must be >= {MIN_SAMPLES}, got {samples_per_axis}")
    cov = spline.covering
    axes = [np.linspace(0.0, cov.T, samples_per_axis)] * cov.l
    exact = np.asarray(f(*[g.ravel() for g in np.meshgrid(*axes, indexing="ij")]), dtype=float)
    return float(np.max(np.abs(exact - spline.eval_grid(axes).ravel())))


def max_node_error(spline, f, owned_only: bool = False) -> float:
    """Max |f - stored value| over the spline's nodes.

    With ``owned_only`` the maximum runs over the nodes each cell computed
    itself (for solver output: its collocation nodes), skipping values that
    were inherited from a neighbour's trace.
    """
    pts = spline.node_points().reshape(-1, spline.covering.l)
    err = np.abs(np.asarray(f(*pts.T), dtype=float) - spline.node_values())
    if owned_only:
        err = err[np.concatenate([own.ravel() for own in spline.owned])]
    return float(np.max(err, initial=0.0))


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
    flat = np.sort(np.ravel_multi_index(ids.T, ids.max(axis=0) + 1))
    return int(np.count_nonzero(np.diff(flat))) + 1
