"""Gauss quadrature, tensor cubature over boxes, and weakly singular moments.

The moment helpers integrate products (x - tau)^p * l_j(tau) over a clipped
interval [a, min(b, x)], where l_j are the Lagrange fundamental polynomials of
a NodeSet. Each row x takes one of three fixed rules, chosen by one private
helper from where x lies:

* singular rows (a < x <= b) -- a Gauss-Jacobi rule with the weight
  (x - tau)^p folded in, exact for polynomial factors of degree <= 2n - 1;
* far rows (x - b >= b - a) -- one Gauss-Legendre panel on [a, b], shared by
  every far row;
* near rows (the rest) -- composite Gauss-Legendre with panels graded
  dyadically toward b.

``axis_kernel_quadrature`` pads the branches into one rectangular (point,
weight) table; ``kernel_moments`` contracts each branch on its own and
evaluates the Lagrange basis only where weights are nonzero: once at the
points that all far rows share, once at those that all near rows share and
at n points per singular row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interp import NodeSet, lagrange_basis_matrix, legendre_roots, _legendre_and_derivative

# composite Gauss-Legendre panels of a near row
_NEAR_PANELS = 13


@dataclass(frozen=True)
class QuadRule:
    """Nodes and positive weights of an n-point rule on [-1, 1].

    Instances are cached and shared; the arrays are marked read-only.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule on [-1, 1].

    Weights follow the classical derivative formula 2 / ((1 - x^2) P_n'(x)^2)
    at the Legendre roots. Exact for polynomials of degree <= 2n - 1.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"n must be in [1, 64], got {n}")
    x = legendre_roots(n)
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return QuadRule(n=n, nodes=x, weights=w)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@lru_cache(maxsize=None)
def gauss_jacobi(n: int, alpha: float) -> QuadRule:
    """n-point Gauss rule on [-1, 1] for the weight (1 - x)^alpha, alpha > -1.

    Golub-Welsch: eigen-decomposition of the symmetric Jacobi matrix built
    from the (alpha, 0) Jacobi recurrence coefficients.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"n must be in [1, 64], got {n}")
    if alpha <= -1:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    a, b = alpha, 0.0
    k = np.arange(n, dtype=float)
    diag = np.empty(n)
    denom = (2.0 * k + a + b) * (2.0 * k + a + b + 2.0)
    diag[0] = (b - a) / (a + b + 2.0)
    if n > 1:
        diag[1:] = (b * b - a * a) / denom[1:]
    off = np.empty(max(n - 1, 0))
    if n > 1:
        off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b)
                           / ((2.0 + a + b) ** 2 * (3.0 + a + b)))
    for kk in range(2, n):
        num = 4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
        den = (2.0 * kk + a + b) ** 2 * ((2.0 * kk + a + b) ** 2 - 1.0)
        off[kk - 1] = math.sqrt(num / den)
    jac = np.diag(diag)
    if n > 1:
        jac += np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jac)
    mu0 = 2.0 ** (a + b + 1.0) * math.exp(_log_beta(a + 1.0, b + 1.0))
    w = mu0 * vecs[0, :] ** 2
    idx = np.argsort(vals)
    return QuadRule(n=n, nodes=vals[idx], weights=w[idx])


def integrate_box(f, box, n: int) -> float:
    """Tensor-product Gauss-Legendre integral of f over an axis-aligned box.

    ``box`` is a sequence of (a_i, b_i) pairs; ``f`` is called with one
    coordinate array per axis and must broadcast.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rule = gauss_legendre(n)
    axes_pts, axes_w = [], []
    for a, b in box:
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError(f"degenerate box edge ({a}, {b})")
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        axes_pts.append(mid + half * rule.nodes)
        axes_w.append(half * rule.weights)
    grids = np.meshgrid(*axes_pts, indexing="ij")
    wgrid = axes_w[0]
    for w in axes_w[1:]:
        wgrid = np.multiply.outer(wgrid, w)
    return float(np.sum(wgrid * f(*grids)))


def power_moment(a: float, b: float, t: float) -> float:
    """Closed form of int_0^t (t - tau)^a tau^b dtau = B(a+1, b+1) t^(a+b+1).

    The Beta factor is evaluated through log-gamma for stability. Requires
    a > -1 and b > -1; t >= 0.
    """
    if a <= -1 or b <= -1:
        raise ValueError(f"exponents must be > -1, got a={a}, b={b}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    return math.exp(_log_beta(a + 1.0, b + 1.0)) * t ** (a + b + 1.0)


def _branches(x, p: float, a: float, b: float, n: int):
    """Classify the rows of a clipped moment integral and yield their rules.

    Yields ``(rows, T, W)`` once per non-empty branch, where ``rows`` is a
    boolean mask over ``x`` and W carries the folded factor (x_i - tau)^p:

    * singular rows (x_i <= b): n Gauss-Jacobi points on [a, x_i], so T and
      W have shape (k, n);
    * far rows (x_i - b >= b - a): one Gauss-Legendre panel on [a, b];
    * near rows: ``_NEAR_PANELS`` Gauss-Legendre panels on [a, b], graded
      dyadically toward b.

    Far and near rows share their points, so T has shape (q,) and W shape
    (k, q) there. Rows with x_i <= a belong to no branch.
    """
    active = np.minimum(x, b) > a
    if not active.any():
        return
    singular = active & (x <= b)
    far = active & (x - b >= (b - a))
    near = active & ~singular & ~far

    if singular.any():
        jac = gauss_jacobi(n, p)
        L = (x[singular] - a)[:, None]
        tau = a + 0.5 * L * (jac.nodes[None, :] + 1.0)
        yield singular, tau, (0.5 * L) ** (p + 1.0) * jac.weights[None, :]

    gl = gauss_legendre(n)
    if far.any():
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        tau = mid + half * gl.nodes
        yield far, tau, half * gl.weights[None, :] * (x[far, None] - tau[None, :]) ** p

    if near.any():
        # with L = b - a, panel j spans [b - L 2^-j, b - L 2^-(j+1)]; the last
        # panel reaches b
        los = b - (b - a) * 0.5 ** np.arange(_NEAR_PANELS)
        his = np.append(los[1:], b)
        mid, half = 0.5 * (los + his)[:, None], 0.5 * (his - los)[:, None]
        tau = (mid + half * gl.nodes[None, :]).ravel()
        w = (half * gl.weights[None, :]).ravel()
        yield near, tau, w[None, :] * (x[near, None] - tau[None, :]) ** p


def axis_kernel_quadrature(x, p: float, a: float, b: float, n: int):
    """Quadrature points and kernel-folded weights for clipped moment integrals.

    For each entry x_i of ``x`` produces points T[i, :] and weights W[i, :]
    such that

        int_a^{min(b, x_i)} (x_i - tau)^p F(tau) dtau  ~=  sum_q W[i, q] F(T[i, q]).

    Rows with x_i <= a are identically zero. The factor (x_i - tau)^p is folded
    into W. Rows with x_i <= b use an n-point Gauss-Jacobi rule, exact for
    polynomial F up to degree 2n - 1; rows further than one interval length
    past b use one Gauss-Legendre panel; the rows in between use composite
    Gauss-Legendre panels graded dyadically toward b. Every row is padded to
    ``_NEAR_PANELS * n`` points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    width = _NEAR_PANELS * n
    # unused slots keep weight 0; the pad point is an arbitrary interior value
    # chosen to never coincide with interpolation nodes
    T = np.full((x.size, width), a + 0.43716524 * (b - a), dtype=float)
    W = np.zeros((x.size, width), dtype=float)
    for rows, tau, w in _branches(x, p, a, b, n):
        q = w.shape[1]
        T[rows, :q] = tau
        W[rows, :q] = w
    return T, W


def kernel_moments(x, p: float, a: float, b: float, nodeset: NodeSet, n: int) -> np.ndarray:
    """Moments M[i, j] = int_a^{min(b, x_i)} (x_i - tau)^p l_j(tau) dtau.

    ``l_j`` are the fundamental polynomials of ``nodeset`` (extended as global
    polynomials; the integration range is always inside [a, b]). The rules are
    those of ``axis_kernel_quadrature``, so singular rows are exact for the
    polynomial factor when n >= m / 2. Each branch is contracted on its own,
    without padding: the basis is evaluated at n points per singular row and
    once at the points that all far (or all near) rows share.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    M = np.zeros((x.size, nodeset.m))
    # einsum, not a BLAS matmul, for the shared-point rows too: it sums over q
    # in the same order as a padded contraction, so the moments do not change
    # by a bit
    for rows, tau, w in _branches(x, p, a, b, n):
        if tau.ndim == 1:
            M[rows] = np.einsum("rq,qm->rm", w, lagrange_basis_matrix(nodeset, tau))
        else:
            k, q = tau.shape
            basis = lagrange_basis_matrix(nodeset, tau.ravel()).reshape(k, q, nodeset.m)
            M[rows] = np.einsum("rq,rqm->rm", w, basis)
    return M
