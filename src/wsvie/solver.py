"""Step-by-step spline-collocation solvers for weakly singular Volterra equations.

Equations have the second-kind form

    x(t) - int_0^{t_l} ... int_0^{t_1} h(t, tau) g(t - tau) x(tau) dtau = f(t)

on [0, T]^l, l in {1, 2}, with the product kernel g(u) = prod_i u_i^{p_i}.
The approximate solution is a local spline whose nodal values are determined
cell by cell in a causal order: inside the current cell the integral is
expressed in the cell's tensor Lagrange basis, while the part over
already-processed cells is evaluated with the known spline and moved to the
right-hand side. A 1D graded mesh is solved as its one-axis covering, so both
dimensions share one marching loop.

With no smooth factor (h absent) both pieces factorize per axis, because the
kernel is a product and the spline is a tensor polynomial: the history
contribution of a processed cell D reduces to W1 @ X_D @ W2.T with one moment
matrix per axis. Those matrices depend only on D's range and node count on
each axis, so one generator, ``_cell_moments``, walks a sequence of target
grids in chunks and builds per-axis moment tables per chunk, one per
distinct source interval, evaluated at the sorted union of the chunk's grid
coordinates: per axis, one ``stacked_kernel_moments`` call per node count
fills the tables of all its intervals, with one Lagrange basis on the
reference interval per shared rule. The targets are the cells'
node grids in causal order for the march and the collocation residual check,
sample grids for ``residual`` and the uniform grid for the oracle. A target's
moment matrices are row gathers from these tables, and its 2D history is a
batched contraction over its stacked sources, summed in source-index order.
Each chunk's tables, and each block of stacked sources, hold about
``_TABLE_BUDGET`` doubles (1 MB), which bounds the extra memory of the march.

A general h(t, tau) couples the axes. The generator then yields one
flattened weight matrix per source cell, from tensor Gauss cubature over the
same per-axis rules, and the consumers treat it as the one-axis case.

Cells whose predecessors are complete could be solved concurrently (wavefront
contract); this implementation is the single-threaded reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .interp import build_nodes, lagrange_basis_matrix
from .interp import geometric_degree_schedule, geometric_global_degree, power_degree_schedule
from .mesh import (Covering, GradedMesh, boundary_layer_covering, causal_order,
                   corner_layer_covering, geometric_covering, geometric_mesh,
                   power_graded_mesh, shadow_matrix)
from .quad import _TABLE_BUDGET, _reference_nodes, _rules, stacked_kernel_moments
from .spline import LocalSpline, TensorSpline, _inherited_values, _unfilled


@dataclass
class KernelSpec:
    """Product kernel h(t, tau) * prod_i (t_i - tau_i)^{p_i}.

    ``exponents`` lists p_i per axis (each > -1). ``smooth_factor`` is an
    optional vectorized callable taking 2l coordinate arrays
    (t_1, ..., t_l, tau_1, ..., tau_l); absent means h == 1 and enables the
    fast per-axis factorized path.
    """

    exponents: tuple
    smooth_factor: object = None

    def __post_init__(self):
        self.exponents = tuple(float(p) for p in np.atleast_1d(self.exponents))
        if any(p <= -1 for p in self.exponents):
            raise ValueError(f"kernel exponents must be > -1, got {self.exponents}")


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
        if self.T <= 0:
            raise ValueError(f"T must be > 0, got {self.T}")
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
    if params.kind == "q_star":
        cov = boundary_layer_covering(N, params.T, 2, params.grading_exponent)
        return cov, max(params.s, 2), "legendre_closed"
    if params.kind == "q_double_star":
        cov = corner_layer_covering(N, params.T, 2, params.grading_exponent)
        return cov, max(params.s, 2), "legendre_closed"
    if params.kind == "b_star":
        cov = geometric_covering(N, params.T, 2)
        degree = geometric_global_degree(N, params.r, params.gamma,
                                         params.bound_constant, params.T)
        return cov, degree, "chebyshev1_closed"
    raise ValueError(f"no covering construction for kind {params.kind!r}")


# ---------------------------------------------------------------------------
# the integral over source cells
# ---------------------------------------------------------------------------

def _cell_moments(kern: KernelSpec | None, nodesets, targets, sources):
    """Weights of the kernel integrals over source cells at target grids.

    ``targets`` yields (key, grid) pairs, where grid holds one coordinate
    array per axis, and ``sources(key)`` gives the index array of the source
    cells whose integrals, clipped at each grid point, the target needs.
    Yields (key, srcs, moments) per target, in order; ``moments(lo, hi)``
    returns the weights of the sources srcs[lo:hi] at the grid, per axis:

    * for h == 1, the ``kernel_moments`` of axis a: one array of shape
      (hi - lo, grid[a].size, m) when the sources share the node count m on
      that axis, else a list of 2D arrays. They are row gathers from tables
      built per chunk of consecutive targets, one per distinct source
      interval (a, b, m) of the chunk and axis, evaluated at the sorted
      union of the chunk's grid coordinates: one ``stacked_kernel_moments``
      call per axis and node count m fills them. A chunk grows while its
      tables hold at most ``_TABLE_BUDGET`` doubles (a cell count would not
      do, since the table width grows with m), and takes at least one
      target.
    * with a smooth factor, or without a kernel, a single axis: a list of
      one flattened matrix per source, of shape (grid size, m_1 * ... * m_l)
      (see ``_cubature``).

    Every rule takes ``quad_n`` Gauss points per panel (Gauss-Jacobi points
    on a singular row): the largest per-axis node count of ``nodesets`` plus
    4, at most 64.
    """
    quad_n = min(max(ns.m for nsets in nodesets for ns in nsets) + 4, 64)
    targets = list(targets)
    if kern is None or kern.smooth_factor is not None:
        for key, grid in targets:
            srcs = sources(key)
            yield key, srcs, partial(_cubature, kern, grid, [nodesets[d] for d in srcs], quad_n)
        return
    kid, reps = [], []   # per axis: each cell's interval id, one NodeSet per id
    for a in range(len(kern.exponents)):
        index: dict = {}
        kid.append(np.array([index.setdefault((n[a].a, n[a].b, n[a].m), len(index))
                             for n in nodesets]))
        reps.append([nodesets[ci][a] for ci in np.unique(kid[a], return_index=True)[1]])
    widths = [np.array([ns.m for ns in r]) for r in reps]
    pos = 0
    while pos < len(targets):
        used = [np.zeros(len(r), dtype=bool) for r in reps]
        coords = [set() for _ in reps]
        chunk = []
        for key, grid in targets[pos:]:
            srcs = sources(key)
            grown = [u.copy() for u in used]
            for u, k in zip(grown, kid):
                u[k[srcs]] = True
            wider = [c.union(x.tolist()) for c, x in zip(coords, grid)]
            size = sum(len(c) * int(w[u].sum()) for c, w, u in zip(wider, widths, grown))
            if chunk and size > _TABLE_BUDGET:
                break
            used, coords = grown, wider
            chunk.append((key, grid, srcs))
        pos += len(chunk)
        tables = []
        for p, r, u, c, w in zip(kern.exponents, reps, used, coords, widths):
            x = np.array(sorted(c))
            ids = np.nonzero(u)[0]
            ids = ids[np.argsort(w[ids], kind="stable")]   # by node count
            local = np.zeros(len(r), dtype=int)
            local[ids] = np.arange(ids.size)
            tab = []   # one stacked call per node count
            for g in np.split(ids, np.flatnonzero(np.diff(w[ids])) + 1):
                ns = [r[i] for i in g]
                tab.append(stacked_kernel_moments(x, p, *zip(*[(n.a, n.b) for n in ns]), ns, quad_n))
            # one stacked array when the intervals share their node count
            tables.append((x, local, tab[0] if len(tab) == 1 else [t for st in tab for t in st]))
        for key, grid, srcs in chunk:
            rows = [np.searchsorted(x, g) for (x, _, _), g in zip(tables, grid)]
            sel = [local[k[srcs]] for (_, local, _), k in zip(tables, kid)]
            yield key, srcs, partial(_gather, [tab for _, _, tab in tables], rows, sel)


def _gather(tabs, rows, sel, lo: int, hi: int) -> list:
    """Per-axis moments of sources sel[a][lo:hi] at the target ``rows``."""
    return [tab[s[lo:hi, None], r] if isinstance(tab, np.ndarray)
            else [tab[i][r] for i in s[lo:hi]] for tab, r, s in zip(tabs, rows, sel)]


def _cubature(kern: KernelSpec | None, grid, sources, n: int, lo: int, hi: int) -> list:
    """Flattened weights of the source cells sources[lo:hi] at ``grid``, as one axis.

    ``sources`` holds per-axis NodeSets per cell. Each weight matrix has
    shape (grid size, m_1 * ... * m_l): zero without a kernel, else tensor
    Gauss cubature, n points per panel, of h * g times the cell's tensor
    Lagrange basis, evaluated on the reference interval of each axis. The
    smooth factor couples the axes, so the cubature is summed for every tuple
    of per-axis ``_rules`` blocks, over the rows of those blocks.
    """
    size = math.prod(x.size for x in grid)
    out = []
    for nodesets in sources[lo:hi]:
        if kern is None:
            out.append(np.zeros((size, math.prod(ns.m for ns in nodesets))))
            continue
        rules = []   # per axis: (rows, points, weights times basis) per block of rows
        for x, p, ns in zip(grid, kern.exponents, nodesets):
            ref = _reference_nodes((-1.0, 1.0), ns.family, ns.m)
            rules.append([])
            for _, rows, sigma, w in _rules(x, p, ns.a, ns.b, n, ns.m):
                sigma = np.broadcast_to(sigma, w.shape)
                tau = 0.5 * (ns.a + ns.b) + 0.5 * (ns.b - ns.a) * sigma
                rules[-1].append((rows, tau, w[:, :, None] * lagrange_basis_matrix(ref, sigma)))
        W = np.zeros(tuple(x.size for x in grid) + tuple(ns.m for ns in nodesets))
        if len(grid) == 1:
            for rows, T, C in rules[0]:
                h = kern.smooth_factor(grid[0][rows, None], T)
                W[rows] = np.einsum("rqa,rq->ra", C, h)
        else:
            (x1, x2) = grid
            for (r1, T1, C1), (r2, T2, C2) in itertools.product(*rules):
                h = kern.smooth_factor(x1[r1, None, None, None], x2[None, r2, None, None],
                                       T1[:, None, :, None], T2[None, :, None, :])
                W[np.ix_(r1, r2)] = np.einsum("iqa,ijqp,jpb->ijab", C1, h, C2, optimize=True)
        out.append(W.reshape(size, -1))
    return [out]


def _dense(weights) -> np.ndarray:
    """Per-axis weights as one array of shape (grid sizes..., m_1, ..., m_l)."""
    if len(weights) == 1:
        return weights[0]
    return np.einsum("ia,jb->ijab", *weights)


def _history(moments, values, shape) -> np.ndarray:
    """Sum over sources, in their order, of the integrals of their splines.

    ``moments`` is one target's weights from ``_cell_moments``, ``values``
    the nodal values of its first sources and ``shape`` the target grid's.
    Sources are taken in blocks whose weights hold about ``_TABLE_BUDGET``
    doubles. When both axes of a 2D grid carry stacked moments, a block is
    one batched contraction, still summed in source order: an accumulation,
    since ``sum`` adds pairwise along a contiguous axis.
    """
    out = np.zeros(shape)
    step = max(1, _TABLE_BUDGET // math.prod(shape))
    for lo in range(0, len(values), step):
        block = values[lo:lo + step]
        W = moments(lo, lo + len(block))
        if len(W) == 1:
            for w, v in zip(W[0], block):
                out += (w @ v.ravel()).reshape(shape)
        elif all(isinstance(w, np.ndarray) for w in W):
            part = np.matmul(np.matmul(W[0], np.stack(block)), W[1].transpose(0, 2, 1))
            part[0] += out
            out = np.add.accumulate(part)[-1]   # in order, even for a 1 x 1 grid
        else:
            for w1, w2, v in zip(*W, block):
                out += w1 @ v @ w2.T
    return out


def _node_grids(nodesets, cells):
    """(cell, node coordinates per axis) for each of ``cells``: march targets."""
    return ((ci, [ns.nodes for ns in nodesets[ci]]) for ci in cells)


# ---------------------------------------------------------------------------
# the causal march
# ---------------------------------------------------------------------------

def _march(problem: VieProblem, spl: TensorSpline, order, tol: float) -> TensorSpline:
    """Fill the unfilled spline ``spl`` with the collocation solution, cell by cell.

    In each cell, nodes lying on the closure of a shadow-predecessor cell are
    knowns inherited from that cell's spline (the one of lowest causal rank);
    all other nodal values are unknowns of the local dense system, solved by
    LU with partial pivoting, whose residual must stay below ``tol``. History
    integrals are accumulated over predecessor cells in index order, which
    makes the assembled systems independent of the particular causal order.
    """
    covering, nodesets, values, owned = spl.covering, spl.nodesets, spl.values, spl.owned
    kern = problem.kernel
    shadow = shadow_matrix(covering)
    rank = covering.causal_rank()
    done = np.zeros(covering.ncells, dtype=bool)
    # a cell's sources are its predecessors, then the cell itself
    cells = _cell_moments(kern, nodesets, _node_grids(nodesets, order),
                          lambda ci: np.append(np.nonzero(shadow[:, ci])[0], ci))
    for ci, srcs, moments in cells:
        pred_idx = srcs[:-1]
        if not done[pred_idx].all():
            raise RuntimeError(f"order processes cell {ci} before its predecessors")
        shape = tuple(ns.m for ns in nodesets[ci])
        H = _history(moments, [values[di] for di in pred_idx], shape)
        own = _dense([w[0] for w in moments(len(pred_idx), len(srcs))])
        A = np.eye(H.size) - own.reshape(H.size, H.size)
        pts = spl.node_grid(ci)
        known_mask, known_vals = _inherited_values(spl, pts,
                                                   np.where(shadow[:, ci], rank, covering.ncells))
        rhs = np.asarray(problem.rhs(*pts.T), dtype=float) + H.ravel()
        if known_mask.any():
            rows = np.nonzero(known_mask)[0]
            A[rows, :] = 0.0
            A[rows, rows] = 1.0
            rhs[rows] = known_vals[rows]
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular local system on cell {ci} "
                               f"(layer {covering.cells[ci].k})") from exc
        res = float(np.max(np.abs(A @ sol - rhs)))
        if res > tol:
            raise RuntimeError(f"local solve residual {res:.2e} > {tol:.0e} on cell {ci}")
        values[ci] = sol.reshape(shape)
        owned[ci] = (~known_mask).reshape(shape)
        done[ci] = True
    return spl


def solve_1d(problem: VieProblem, mesh: GradedMesh, schedule,
             family: str = "legendre_closed") -> LocalSpline:
    """March the collocation solution segment by segment over a 1D mesh.

    The mesh is solved as its one-axis covering (cell k is segment k, see
    ``solve_2d``): segment k inherits its first node, the breakpoint shared
    with segment k - 1, and each local residual must stay below 1e-10.
    """
    if problem.l != 1:
        raise ValueError("solve_1d requires a 1-dimensional problem")
    cov = mesh.covering()
    spl = _march(problem, _unfilled(cov, schedule, family), causal_order(cov), 1e-10)
    return LocalSpline(**vars(spl))


def solve_2d(problem: VieProblem, covering: Covering, degree,
             family: str = "legendre_closed", order=None) -> TensorSpline:
    """Solve a 2D equation cell by cell over a covering.

    Nodes on the closure of an already-solved shadow predecessor inherit its
    value; the others are the unknowns of the cell's local dense system,
    whose residual must stay below 1e-9. ``order`` may be any causal order
    (default: the canonical one); the result does not depend on it.
    """
    if problem.l != 2:
        raise ValueError("solve_2d requires a 2-dimensional problem")
    if covering.l != 2:
        raise ValueError("covering dimension != 2")
    if order is None:
        order = np.argsort(covering.causal_rank()).tolist()  # the canonical order, cached
    order = list(order)
    if sorted(order) != list(range(covering.ncells)):
        raise ValueError("order is not a permutation of the covering's cells")
    return _march(problem, _unfilled(covering, degree, family), order, 1e-9)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def residual(problem: VieProblem, solution, samples) -> float:
    """Max |x(t) - (K x)(t) - f(t)| over sample points.

    ``samples`` holds one axis array per dimension, spanning a sample grid;
    for l = 1 it is the one axis array itself. For l = 2 it may also be an
    (n, 2) array of points, each evaluated through its own degenerate grid.
    (K x)(t) integrates over the solution's own cells clipped to [0, t].
    """
    if problem.l == 1:
        samples = (samples,)
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        grids = [(pt[:1], pt[1:]) for pt in samples]
    else:
        grids = [[np.atleast_1d(np.asarray(ax, dtype=float)) for ax in samples]]
    cells = np.arange(len(solution.values))
    worst = []
    for i, _, moments in _cell_moments(problem.kernel, solution.nodesets, enumerate(grids),
                                       lambda _: cells):
        mesh = np.meshgrid(*grids[i], indexing="ij")
        pts = np.column_stack([g.ravel() for g in mesh])
        kx = _history(moments, solution.values, mesh[0].shape)
        r = (solution.eval(pts).reshape(kx.shape) - kx
             - np.asarray(problem.rhs(*mesh), dtype=float))
        worst.append(float(np.max(np.abs(r))))
    return max(worst)


def collocation_residual(problem: VieProblem, solution) -> float:
    """Max discrete-equation residual over the nodes each cell owns.

    Re-evaluates the collocation equations from the stored nodal values with
    the same quadrature the solver used; inherited (non-owned) nodes belong to
    the cell that first computed them and are checked there.
    """
    nodesets, values, owned = solution.nodesets, solution.values, solution.owned
    # a cell integrates over its shadow predecessors and its own clipped range
    shadow = shadow_matrix(solution.covering) | np.eye(len(values), dtype=bool)
    checked = _node_grids(nodesets, [ci for ci, own in enumerate(owned) if own.any()])
    worst = 0.0
    for ci, srcs, moments in _cell_moments(problem.kernel, nodesets, checked,
                                           lambda ci: np.nonzero(shadow[:, ci])[0]):
        lhs = values[ci] - _history(moments, [values[di] for di in srcs], values[ci].shape)
        grids = np.meshgrid(*[ns.nodes for ns in nodesets[ci]], indexing="ij")
        rhs = np.asarray(problem.rhs(*[g.ravel() for g in grids]), dtype=float)
        worst = max(worst, float(np.max(np.abs((lhs - rhs.reshape(lhs.shape))[owned[ci]]))))
    return worst


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
    M = np.asarray(moments(0, len(steps))[0])
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
    X[i] = solve(I - V1[i, i] V2, F[i] + V2 @ (V1[i, :i] @ X[:i])). In 1D,
    V2 is the 1 x 1 identity. Accuracy is second order in the mesh width.
    For l = 2 only kernels without a smooth factor are supported.
    """
    kern = problem.kernel
    if not 1 <= uniform_n <= ORACLE_MAX_N[problem.l]:
        raise ValueError(f"uniform_n must be in [1, {ORACLE_MAX_N[problem.l]}] "
                         f"for l = {problem.l}, got {uniform_n}")
    if problem.l == 2 and kern is not None and kern.smooth_factor is not None:
        raise NotImplementedError("2D oracle supports product kernels without a smooth factor")
    axes = (np.linspace(0.0, problem.T, uniform_n + 1),) * problem.l
    F = np.asarray(problem.rhs(*np.meshgrid(*axes, indexing="ij", sparse=True)), dtype=float)
    if kern is None:
        return OracleSolution(axes=axes, values=F.copy())
    if problem.l == 1:
        V1, V2 = _linear_weight_matrix(axes[0], kern), np.eye(1)
    else:
        V1, V2 = (_linear_weight_matrix(t, KernelSpec(exponents=(p,)))
                  for t, p in zip(axes, kern.exponents))
    F = F.reshape(uniform_n + 1, -1)
    X = np.zeros_like(F)
    for i in range(uniform_n + 1):
        X[i] = np.linalg.solve(np.eye(len(V2)) - V1[i, i] * V2, F[i] + V2 @ (V1[i, :i] @ X[:i]))
    return OracleSolution(axes=axes, values=X.reshape((uniform_n + 1,) * problem.l))
