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

``stacked_kernel_moments`` takes the moments of many intervals with one
node count at one coordinate array; ``kernel_moments`` is its one-interval
case. The Lagrange basis is evaluated only where weights are nonzero: once
per interval at the points that its far rows share, once at those that its
near rows share and at n points per singular row. One einsum contracts the
rules of many intervals, each summed as if alone, so stacking changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interp import NodeSet, _barycentric, _legendre_and_derivative, legendre_roots

# composite Gauss-Legendre panels of a near row
_NEAR_PANELS = 13

# doubles (1 MB) for a chunk's moment tables or a block of history sums; a
# block of moment rules keeps its weights and basis to an eighth of it
_TABLE_BUDGET = 1 << 17


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


def _branches(x, p: float, a, b, n: int, m: int):
    """Classify rows against S intervals [a[s], b[s]]; yield their rules in blocks.

    * singular rows (a < x_i <= b): n Gauss-Jacobi points on [a, x_i], a rule
      per row;
    * far rows (x_i - b >= b - a): one Gauss-Legendre panel on [a, b];
    * near rows (the rest): ``_NEAR_PANELS`` Gauss-Legendre panels on [a, b],
      graded dyadically toward b.

    Far (and near) rows of an interval share one rule; rows with x_i <= a
    belong to no branch. Yields ``(s, rows, T, W)`` per block: rule u of
    interval s[u] has the points T[u], and W[u, c] are its weights, with
    (x - tau)^p folded in, for row rows[u, c]. A rule with fewer rows than the
    block width repeats its last row, so duplicate weights equal real ones.
    Rules go by row count, so blocks pad little; a block's weights and basis
    of m functions hold at most ``_TABLE_BUDGET / 8`` doubles, or one rule.
    """
    a, b = np.reshape(a, (-1, 1)).astype(float), np.reshape(b, (-1, 1)).astype(float)
    active = np.minimum(x, b) > a
    singular = active & (x <= b)
    far = active & (x - b >= (b - a))
    gl = gauss_legendre(n)
    for rows, panels in ((singular, 0), (far, 1), (active & ~singular & ~far, _NEAR_PANELS)):
        s, r = np.nonzero(rows)   # by interval, then row
        if not s.size:
            continue
        count = np.bincount(s, minlength=len(a)) if panels else np.ones(s.size, int)
        first = np.cumsum(count) - count
        order = np.argsort(count, kind="stable")[count.size - np.count_nonzero(count):]
        q, sizes = n * max(panels, 1), count[order].tolist()
        lo = 0
        while lo < order.size:
            hi = lo + 1
            while hi < order.size and (hi + 1 - lo) * (sizes[hi] + m) * 8 * q <= _TABLE_BUDGET:
                hi += 1
            u, lo = order[lo:hi], hi
            su = s[first[u]]
            ru = r[first[u, None] + np.minimum(np.arange(count[u[-1]]), count[u, None] - 1)]
            if not panels:
                jac = gauss_jacobi(n, p)
                L = x[ru] - a[su]
                tau = a[su] + 0.5 * L * (jac.nodes[None, :] + 1.0)
                yield su, ru, tau, ((0.5 * L) ** (p + 1.0) * jac.weights[None, :])[:, None, :]
                continue
            los, his = a[su], b[su]
            if panels > 1:
                # with L = b - a, panel j spans [b - L 2^-j, b - L 2^-(j+1)];
                # the last panel reaches b
                los = his - (his - los) * 0.5 ** np.arange(panels)
                his = np.concatenate([los[:, 1:], his], axis=1)
            mid, half = 0.5 * (los + his)[:, :, None], 0.5 * (his - los)[:, :, None]
            tau = (mid + half * gl.nodes).reshape(u.size, q)
            w = (half * gl.weights).reshape(u.size, 1, q)
            yield su, ru, tau, w * (x[ru][:, :, None] - tau[:, None, :]) ** p


def stacked_kernel_moments(x, p: float, a, b, nodesets, n: int) -> np.ndarray:
    """``kernel_moments`` of S intervals at once: an array of shape (S, x.size, m).

    Interval s runs from a[s] to b[s] and carries the fundamental polynomials
    of nodesets[s], which share their node count m. Each row equals that of
    ``kernel_moments`` on its interval alone, to the bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = np.array([ns.nodes for ns in nodesets])
    weights = np.array([ns.weights for ns in nodesets])
    M = np.zeros((len(nodesets), x.size, nodes.shape[1]))
    for s, rows, tau, W in _branches(x, p, a, b, n, nodes.shape[1]):
        # einsum, not a BLAS matmul: it sums over q in the order of one
        # interval's contraction, so the moments do not change by a bit
        M[s[:, None], rows] = np.einsum("scq,sqm->scm", W, _barycentric(nodes[s], weights[s], tau))
    return M


def kernel_moments(x, p: float, a: float, b: float, nodeset: NodeSet, n: int) -> np.ndarray:
    """Moments M[i, j] = int_a^{min(b, x_i)} (x_i - tau)^p l_j(tau) dtau.

    ``l_j`` are the fundamental polynomials of ``nodeset`` (extended as global
    polynomials; the integration range is always inside [a, b]). The rules are
    those of ``_branches``, so singular rows are exact for the polynomial
    factor when n >= m / 2, and rows with x_i <= a are zero. This is the
    one-interval case of ``stacked_kernel_moments``: the basis is evaluated at
    n points per singular row and once at the points that all far (or all
    near) rows share.
    """
    return stacked_kernel_moments(x, p, [a], [b], [nodeset], n)[0]
