"""Gauss quadrature, tensor cubature over boxes, and weakly singular moments.

The moment helpers integrate products (x - tau)^p * l_j(tau) over a clipped
interval [a, min(b, x)], where l_j are the Lagrange fundamental polynomials of
a NodeSet. Each row x takes one of three fixed rules, chosen by one private
generator, ``_rules``, from where x lies:

* singular rows (a < x <= b) -- a Gauss-Jacobi rule with the weight
  (x - tau)^p folded in, exact for polynomial factors of degree <= 2n - 1;
* far rows (x - b >= b - a) -- one Gauss-Legendre panel on [a, b];
* near rows (the rest) -- composite Gauss-Legendre with panels graded
  dyadically toward b.

The rules are written in the reference coordinate sigma on [-1, 1], where a
NodeSet's l_j is the fundamental polynomial of one reference node set and
the far (or near) rows of every interval share their points.
``stacked_kernel_moments`` takes the moments of many intervals at one
coordinate array, with one reference basis per shared rule; its rows sum in
one fixed order, so stacking changes no bit. ``kernel_moments`` is its
one-interval case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interp import (NodeSet, _legendre_and_derivative, build_nodes, lagrange_basis_matrix,
                     legendre_roots)

# composite Gauss-Legendre panels of a near row
_NEAR_PANELS = 13

# doubles (1 MB) for a chunk's moment tables or a block of history sums; a
# block of moment rows keeps its weights (and per-row basis) to an eighth
_TABLE_BUDGET = 1 << 17


@dataclass(frozen=True)
class QuadRule:
    """Nodes and positive weights of an n-point rule, on [-1, 1] unless stated.

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


@lru_cache(maxsize=None)
def _graded_panels(n: int, panels: int) -> QuadRule:
    """n-point Gauss-Legendre panels on [0, 2], graded toward 0.

    Panel j spans [2^-j, 2^(1-j)], and the last reaches 0. A near (or far)
    row takes this rule in d = 1 - sigma, which keeps its digits near b.
    """
    gl = gauss_legendre(n)
    hi = 2.0 * 0.5 ** np.arange(panels)
    lo = np.append(hi[1:], 0.0)
    return QuadRule(n=n * panels, weights=(0.5 * (hi - lo)[:, None] * gl.weights).ravel(),
                    nodes=(0.5 * (hi + lo)[:, None] - 0.5 * (hi - lo)[:, None] * gl.nodes).ravel())


# the reference NodeSet build_nodes((-1, 1), family, m), built once per family and m
_reference_nodes = lru_cache(maxsize=None)(build_nodes)


def _rules(x, p: float, a, b, n: int, m: int):
    """Classify rows against S intervals [a[s], b[s]]; yield their rules in blocks.

    A row x_i of interval s is

    * singular when a < x_i <= b: n Gauss-Jacobi points on [a, x_i], a rule
      per row;
    * far when x_i - b >= b - a: one Gauss-Legendre panel on [a, b];
    * near otherwise: ``_NEAR_PANELS`` Gauss-Legendre panels on [a, b],
      graded dyadically toward b.

    Rows with x_i <= a belong to no branch. Yields ``(s, rows, sigma, W)``
    per block of (interval, row) pairs: pair c is row rows[c] of interval
    s[c], with weights W[c], (x - tau)^p folded in, at the reference points
    sigma = (2 tau - a - b) / (b - a). Far (and near) blocks share one sigma
    array; a singular block has one row sigma[c] per pair. A block's weights,
    and its basis of m functions at per-row points, hold at most
    ``_TABLE_BUDGET / 8`` doubles, or one pair.
    """
    a, b = np.reshape(a, (-1, 1)).astype(float), np.reshape(b, (-1, 1)).astype(float)
    active = np.minimum(x, b) > a
    singular = active & (x <= b)
    far = active & (x - b >= (b - a))
    jac = gauss_jacobi(n, p)
    for rows, panels in ((singular, 0), (far, 1), (active & ~singular & ~far, _NEAR_PANELS)):
        s, r = np.nonzero(rows)
        step = max(1, _TABLE_BUDGET // (8 * n * (panels or m + 1)))
        if panels:
            rule = _graded_panels(n, panels)
            d, w, sigma = rule.nodes, rule.weights, 1.0 - rule.nodes
        for lo in range(0, s.size, step):
            sb, rb = s[lo:lo + step], r[lo:lo + step]
            half = 0.5 * (b[sb] - a[sb])
            if panels:
                # x - tau = (x - b) + half * d keeps its digits just past b
                yield sb, rb, sigma, half * w * ((x[rb, None] - b[sb]) + half * d) ** p
            else:
                u = 0.5 * (x[rb, None] - a[sb])   # half the length of [a, x]
                yield sb, rb, (jac.nodes + 1.0) * (u / half) - 1.0, u ** (p + 1.0) * jac.weights


def stacked_kernel_moments(x, p: float, a, b, nodesets, n: int) -> np.ndarray:
    """``kernel_moments`` of S intervals at once: an array of shape (S, x.size, m).

    Interval s runs from a[s] to b[s] and carries the fundamental polynomials
    of nodesets[s], built on it by ``build_nodes`` with one family and node
    count m: those of ``build_nodes((-1, 1), family, m)`` in sigma. Each row
    equals that of ``kernel_moments`` on its interval alone, to the bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ref = _reference_nodes((-1.0, 1.0), nodesets[0].family, nodesets[0].m)
    M = np.zeros((len(nodesets), x.size, ref.m))
    shared = {}   # basis at the far (n points) and near (13 n points) rules
    for s, rows, sigma, W in _rules(x, p, a, b, n, ref.m):
        if sigma.ndim == 1:
            if sigma.size not in shared:
                shared[sigma.size] = lagrange_basis_matrix(ref, sigma)
            # einsum, not BLAS: a row sums in one order, whatever the block size
            M[s, rows] = np.einsum("cq,qm->cm", W, shared[sigma.size])
        else:
            M[s, rows] = np.einsum("cq,cqm->cm", W, lagrange_basis_matrix(ref, sigma))
    return M


def kernel_moments(x, p: float, a: float, b: float, nodeset: NodeSet, n: int) -> np.ndarray:
    """Moments M[i, j] = int_a^{min(b, x_i)} (x_i - tau)^p l_j(tau) dtau.

    ``l_j`` are the fundamental polynomials of ``nodeset``, built on [a, b] by
    ``build_nodes``. The rules are those of ``_rules``: singular rows are
    exact for the polynomial factor when n >= m / 2, rows with x_i <= a zero.
    """
    return stacked_kernel_moments(x, p, [a], [b], [nodeset], n)[0]
