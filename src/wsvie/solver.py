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
matrix per axis. A general h(t, tau) falls back to tensor Gauss cubature.
Both forms come from one operator for a source cell at a target grid, which
the solvers, the residual checks and the oracle share.

Cells whose predecessors are complete could be solved concurrently (wavefront
contract); this implementation is the single-threaded reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interp import build_nodes, lagrange_basis_matrix
from .interp import geometric_degree_schedule, geometric_global_degree, power_degree_schedule
from .mesh import (Covering, GradedMesh, boundary_layer_covering, causal_order,
                   corner_layer_covering, geometric_covering, geometric_mesh,
                   power_graded_mesh, shadow_matrix)
from .quad import axis_kernel_quadrature, kernel_moments
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

    def g(self, *diffs):
        """Product factor prod_i d_i^{p_i}; zero on the diagonal for p_i > 0."""
        if len(diffs) != len(self.exponents):
            raise ValueError("difference count does not match the exponent count")
        out = np.ones(np.broadcast(*diffs).shape)
        for d, p in zip(diffs, self.exponents):
            d = np.asarray(d, dtype=float)
            if p > 0:
                out = out * np.where(d == 0.0, 0.0, d ** p)
            elif p != 0:
                out = out * d ** p
        return out


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
# the integral over one source cell
# ---------------------------------------------------------------------------

def _cell_weights(kern: KernelSpec, targets, nodesets, quad_n: int, cache=None):
    """Weights of the kernel integral over one source cell at a target grid.

    ``nodesets`` holds the source cell's NodeSet per axis and ``targets`` one
    coordinate array per axis; the integral along axis a is clipped at each
    targets[a][i]. For h == 1 the result is the list of per-axis
    ``kernel_moments`` matrices, shape (targets[a].size, m_a). They are kept
    in ``cache`` under (axis, source range, node count), so one cache may only
    serve calls with the same targets. For a general h the result is one
    dense tensor-cubature array of shape (targets sizes..., m_1, ..., m_l).
    """
    if kern.smooth_factor is None:
        cache = {} if cache is None else cache
        factors = []
        for axis, (x, p, ns) in enumerate(zip(targets, kern.exponents, nodesets)):
            key = (axis, ns.a, ns.b, ns.m)
            if key not in cache:
                cache[key] = kernel_moments(x, p, ns.a, ns.b, ns, quad_n)
            factors.append(cache[key])
        return factors
    rules = [axis_kernel_quadrature(x, p, ns.a, ns.b, quad_n)
             for x, p, ns in zip(targets, kern.exponents, nodesets)]
    C = [W[:, :, None] * lagrange_basis_matrix(ns, T.ravel()).reshape(*T.shape, ns.m)
         for (T, W), ns in zip(rules, nodesets)]
    if len(targets) == 1:
        return np.einsum("rqa,rq->ra", C[0], kern.smooth_factor(targets[0][:, None], rules[0][0]))
    (x1, x2), ((T1, _), (T2, _)) = targets, rules
    h = kern.smooth_factor(x1[:, None, None, None], x2[None, :, None, None],
                           T1[:, None, :, None], T2[None, :, None, :])
    return np.einsum("iqa,ijqp,jpb->ijab", C[0], h, C[1], optimize=True)


def _dense(weights) -> np.ndarray:
    """Cell weights as one array of shape (targets sizes..., m_1, ..., m_l)."""
    if not isinstance(weights, list):
        return weights
    if len(weights) == 1:
        return weights[0]
    return np.einsum("ia,jb->ijab", *weights)


def _apply(weights, values: np.ndarray) -> np.ndarray:
    """Integral of the source cell's spline with nodal ``values`` at the targets."""
    if not isinstance(weights, list):
        return np.tensordot(weights, values, axes=values.ndim)
    if len(weights) == 1:
        return weights[0] @ values
    return weights[0] @ values @ weights[1].T


def _self_matrix(kern: KernelSpec | None, nodesets, quad_n: int) -> np.ndarray:
    """Matrix I - S of a cell's collocation equations at its own tensor nodes."""
    n = math.prod(ns.m for ns in nodesets)
    if kern is None:
        return np.eye(n)
    S = _dense(_cell_weights(kern, [ns.nodes for ns in nodesets], nodesets, quad_n))
    return np.eye(n) - S.reshape(n, n)


def _integral(kern: KernelSpec | None, targets, sources, quad_n: int) -> np.ndarray:
    """Sum of the clipped integrals over ``sources`` at the target grid.

    ``sources`` yields (per-axis NodeSets, nodal values) per source cell.
    Many source cells share per-axis ranges, so moment matrices are cached
    across them.
    """
    out = np.zeros(tuple(x.size for x in targets))
    if kern is not None:
        cache: dict = {}
        for nodesets, values in sources:
            out += _apply(_cell_weights(kern, targets, nodesets, quad_n, cache), values)
    return out


def _default_quad_n(nodesets) -> int:
    """Gauss points per panel: the largest per-axis node count plus 4, at most 64."""
    return min(max(ns.m for nsets in nodesets for ns in nsets) + 4, 64)


# ---------------------------------------------------------------------------
# the causal march
# ---------------------------------------------------------------------------

def _march(problem: VieProblem, spl: TensorSpline, order, quad_n: int | None,
           tol: float) -> TensorSpline:
    """Fill the unfilled spline ``spl`` with the collocation solution, cell by cell.

    In each cell, nodes lying on the closure of a shadow-predecessor cell are
    knowns inherited from that cell's spline (the one of lowest causal rank);
    all other nodal values are unknowns of the local dense system, solved by
    LU with partial pivoting, whose residual must stay below ``tol``. History
    integrals are accumulated over predecessor cells in index order, which
    makes the assembled systems independent of the particular causal order.
    """
    covering, nodesets, values, owned = spl.covering, spl.nodesets, spl.values, spl.owned
    if quad_n is None:
        quad_n = _default_quad_n(nodesets)
    shadow = shadow_matrix(covering)
    rank = covering.causal_rank()
    done = np.zeros(covering.ncells, dtype=bool)
    for ci in order:
        pred_idx = np.nonzero(shadow[:, ci])[0]
        if not done[pred_idx].all():
            raise RuntimeError(f"order processes cell {ci} before its predecessors")
        nsets = nodesets[ci]
        shape = tuple(ns.m for ns in nsets)
        H = _integral(problem.kernel, [ns.nodes for ns in nsets],
                      [(nodesets[di], values[di]) for di in pred_idx], quad_n)
        A = _self_matrix(problem.kernel, nsets, quad_n)
        pts = spl.node_grid(ci)
        known_mask, known_vals = _inherited_values(spl, pts, pred_idx[np.argsort(rank[pred_idx])])
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
             family: str = "legendre_closed", quad_n: int | None = None) -> LocalSpline:
    """March the collocation solution segment by segment over a 1D mesh.

    The mesh is solved as its one-axis covering (cell k is segment k, see
    ``solve_2d``): segment k inherits its first node, the breakpoint shared
    with segment k - 1, and each local residual must stay below 1e-10.
    """
    if problem.l != 1:
        raise ValueError("solve_1d requires a 1-dimensional problem")
    cov = mesh.covering()
    spl = _march(problem, _unfilled(cov, schedule, family), causal_order(cov), quad_n, 1e-10)
    return LocalSpline(**vars(spl))


def solve_2d(problem: VieProblem, covering: Covering, degree,
             family: str = "legendre_closed", quad_n: int | None = None,
             order=None) -> TensorSpline:
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
        order = causal_order(covering)
    order = list(order)
    if sorted(order) != list(range(covering.ncells)):
        raise ValueError("order is not a permutation of the covering's cells")
    return _march(problem, _unfilled(covering, degree, family), order, quad_n, 1e-9)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def residual(problem: VieProblem, solution, samples, quad_n: int = 12) -> float:
    """Max |x(t) - (K x)(t) - f(t)| over sample points.

    ``samples`` holds one axis array per dimension, spanning a sample grid;
    for l = 1 it is the one axis array itself. For l = 2 it may also be an
    (n, 2) array of points, each evaluated through its own degenerate grid.
    (K x)(t) integrates over the solution's own cells clipped to [0, t].
    """
    if problem.l == 1:
        samples = (samples,)
    elif isinstance(samples, np.ndarray) and samples.ndim == 2:
        return max(residual(problem, solution, (samples[i, :1], samples[i, 1:]), quad_n)
                   for i in range(samples.shape[0]))
    axes = [np.atleast_1d(np.asarray(ax, dtype=float)) for ax in samples]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    kx = _integral(problem.kernel, axes, zip(solution.nodesets, solution.values), quad_n)
    r = (solution.eval(pts).reshape(kx.shape) - kx
         - np.asarray(problem.rhs(*grids), dtype=float))
    return float(np.max(np.abs(r)))


def collocation_residual(problem: VieProblem, solution, quad_n: int | None = None) -> float:
    """Max discrete-equation residual over the nodes each cell owns.

    Re-evaluates the collocation equations from the stored nodal values with
    the same quadrature the solver used; inherited (non-owned) nodes belong to
    the cell that first computed them and are checked there.
    """
    kern = problem.kernel
    cells = list(zip(solution.nodesets, solution.values))
    if quad_n is None:
        quad_n = _default_quad_n(solution.nodesets)
    # a cell integrates over its shadow predecessors and its own clipped range
    shadow = shadow_matrix(solution.covering) | np.eye(len(cells), dtype=bool)
    worst = 0.0
    for (nsets, values), col, own in zip(cells, shadow.T, solution.owned):
        if not own.any():
            continue
        src = np.nonzero(col)[0]
        targets = [ns.nodes for ns in nsets]
        lhs = values.copy()
        if kern is not None:
            cache: dict = {}
            for di in src:
                src_nsets, src_values = cells[di]
                lhs -= _apply(_cell_weights(kern, targets, src_nsets, quad_n, cache), src_values)
        grids = np.meshgrid(*targets, indexing="ij")
        rhs = np.asarray(problem.rhs(*[g.ravel() for g in grids]), dtype=float)
        worst = max(worst, float(np.max(np.abs((lhs - rhs.reshape(lhs.shape))[own]))))
    return worst


# ---------------------------------------------------------------------------
# product-integration oracle on uniform grids
# ---------------------------------------------------------------------------

@dataclass
class OracleSolution:
    """Uniform-grid solution values from the product-integration oracle."""

    axes: tuple
    values: np.ndarray


def _linear_weight_matrix(t: np.ndarray, kern: KernelSpec, quad_n: int) -> np.ndarray:
    """Nodal weights V with (V x)[i] ~= int_0^{t_i} kernel * (linear interp of x).

    ``kern`` is a one-axis kernel; each grid step is a two-node source cell.
    """
    n = t.size - 1
    V = np.zeros((n + 1, n + 1))
    for j in range(n):
        lin = build_nodes((t[j], t[j + 1]), "legendre_closed", 2)
        M = _dense(_cell_weights(kern, (t[j + 1:],), (lin,), quad_n))
        V[j + 1:, j] += M[:, 0]
        V[j + 1:, j + 1] += M[:, 1]
    return V


def oracle_solve(problem: VieProblem, uniform_n: int, quad_n: int = 10) -> OracleSolution:
    """Product-integration solution on a uniform grid, advanced causally.

    The solution is represented piecewise linearly; kernel moments against the
    local linear basis are computed per cell by Gauss rules (graded toward the
    singular endpoint). Accuracy is second order in the mesh width. For l = 2
    only kernels without a smooth factor are supported.
    """
    kern = problem.kernel
    if problem.l == 1:
        if uniform_n > 400:
            raise ValueError("uniform_n must be <= 400 for l = 1")
        t = np.linspace(0.0, problem.T, uniform_n + 1)
        f = np.asarray(problem.rhs(t), dtype=float)
        if kern is None:
            return OracleSolution(axes=(t,), values=f.copy())
        V = _linear_weight_matrix(t, kern, quad_n)
        x = np.zeros(uniform_n + 1)
        for i in range(uniform_n + 1):
            acc = V[i, :i] @ x[:i] if i else 0.0
            x[i] = (f[i] + acc) / (1.0 - V[i, i])
        return OracleSolution(axes=(t,), values=x)

    if uniform_n > 100:
        raise ValueError("uniform_n must be <= 100 per axis for l = 2")
    if kern is not None and kern.smooth_factor is not None:
        raise NotImplementedError("2D oracle supports product kernels without a smooth factor")
    t1 = np.linspace(0.0, problem.T, uniform_n + 1)
    t2 = np.linspace(0.0, problem.T, uniform_n + 1)
    F = np.asarray(problem.rhs(t1[:, None], t2[None, :]), dtype=float)
    if kern is None:
        return OracleSolution(axes=(t1, t2), values=F.copy())
    V1, V2 = (_linear_weight_matrix(t, KernelSpec(exponents=(p,)), quad_n)
              for t, p in zip((t1, t2), kern.exponents))
    n = uniform_n
    X = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        G = V2 @ (V1[i, :i] @ X[:i, :]) if i else np.zeros(n + 1)
        vii = V1[i, i]
        for j in range(n + 1):
            cross = vii * (V2[j, :j] @ X[i, :j]) if j else 0.0
            X[i, j] = (F[i, j] + G[j] + cross) / (1.0 - vii * V2[j, j])
    return OracleSolution(axes=(t1, t2), values=X)
