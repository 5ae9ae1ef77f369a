"""Interpolation node systems, barycentric Lagrange evaluation, Lebesgue constants.

Three node families are supported on a segment [a, b]:

* ``legendre_closed``   -- both endpoints plus the roots of the Legendre
  polynomial of degree m - 2, mapped affinely to [a, b];
* ``chebyshev1_closed`` -- both endpoints plus the roots of the Chebyshev
  polynomial of the first kind of degree m - 2;
* ``chebyshev1_open``   -- the m roots of the first-kind Chebyshev polynomial
  of degree m (no endpoints).

All evaluators are barycentric and vectorized; they are pure and safe to call
from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

FAMILIES = ("legendre_closed", "chebyshev1_closed", "chebyshev1_open")

_CLOSED_FAMILIES = ("legendre_closed", "chebyshev1_closed")


def _legendre_and_derivative(m: int, x: np.ndarray):
    """Evaluate P_m and P_m' by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    if m == 1:
        return p, np.ones_like(x)
    for k in range(1, m):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    # valid for |x| < 1, which holds at and near the roots
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def legendre_roots(m: int) -> np.ndarray:
    """Roots of the degree-m Legendre polynomial, sorted ascending.

    Damped Newton iteration from Chebyshev initial guesses, stopped once
    every step is below 1e-14 (at most 100 steps); the residual |P_m(root)|
    is required to drop below 1e-13 for every root. Results are cached and
    returned as read-only arrays.

    Parameters
    ----------
    m : int
        Polynomial degree, m >= 1.

    Returns
    -------
    ndarray of shape (m,)
        Distinct roots in (-1, 1), symmetric about 0.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    j = np.arange(1, m + 1)
    x = -np.cos((2.0 * j - 1.0) * np.pi / (2.0 * m))  # ascending initial guesses
    max_step = np.pi / (2.0 * m)  # damping: never jump past a neighbouring root
    for _ in range(100):
        p, dp = _legendre_and_derivative(m, x)
        step = p / dp
        step = np.clip(step, -max_step, max_step)
        x = x - step
        if np.max(np.abs(step)) < 1e-14:
            break
    else:
        raise RuntimeError(f"Newton iteration for Legendre roots did not converge (m={m})")
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry about 0
    residual = np.max(np.abs(_legendre_and_derivative(m, x)[0]))
    if residual > 1e-13:
        raise RuntimeError(f"Legendre root residual {residual:.2e} exceeds 1e-13 (m={m})")
    x.setflags(write=False)
    return x


@lru_cache(maxsize=None)
def chebyshev1_roots(m: int) -> np.ndarray:
    """Roots cos((2j-1)pi/(2m)), j=1..m, of the first-kind Chebyshev polynomial."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    j = np.arange(1, m + 1)
    x = np.sort(np.cos((2.0 * j - 1.0) * np.pi / (2.0 * m)))
    x = 0.5 * (x - x[::-1])
    x.setflags(write=False)
    return x


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights w_i = 1 / prod_{j != i}(x_i - x_j), rescaled to max 1.

    ``nodes`` is one array of nodes, or rows of them padded with +inf, of weight 0.
    """
    nodes = np.asarray(nodes, dtype=float)
    valid = nodes != np.inf
    x, n = np.where(valid, nodes, nodes[..., :1]), valid.sum(axis=-1, keepdims=True)
    # scaling by the capacity (b - a)/4 keeps products in range for large m
    scale = 4.0 / np.where(n > 1, np.take_along_axis(x, n - 1, -1) - x[..., :1], 4.0)
    diff = (x[..., :, None] - x[..., None, :]) * scale[..., None]
    diff[~valid[..., None, :] | np.eye(x.shape[-1], dtype=bool)] = 1.0
    w = np.divide(1.0, diff.prod(axis=-1), out=np.zeros(x.shape), where=valid)
    return w / np.max(np.abs(w), axis=-1, keepdims=True)


@dataclass
class NodeSet:
    """Interpolation nodes on a segment, with precomputed barycentric weights.

    Attributes
    ----------
    a, b : float
        Segment endpoints, a < b.
    family : str
        One of ``FAMILIES``.
    m : int
        Node count (>= 2 for closed families, >= 1 for the open one).
    nodes : ndarray
        Strictly increasing nodes in [a, b].
    weights : ndarray
        Barycentric weights matching ``nodes``.
    """

    a: float
    b: float
    family: str
    m: int
    nodes: np.ndarray
    weights: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if (self.nodes[1:] <= self.nodes[:-1]).any():
            raise ValueError("nodes must be strictly increasing (duplicates present)")
        if self.weights is None:
            self.weights = barycentric_weights(self.nodes)


def node_table(a, b, family: str, m):
    """Nodes and barycentric weights on S segments [a[s], b[s]] with m[s] nodes each.

    Two arrays (S, M), M the largest m[s]: row s holds the segment's nodes,
    then +inf, and their weights, then 0. Reference roots y_j are mapped by
    the midpoint form (a + b)/2 + (b - a)/2 * y_j, all rows in one vector step.
    """
    a, b, m = np.asarray(a, float), np.asarray(b, float), np.asarray(m, int)
    for s in np.flatnonzero(~(a < b))[:1]:
        raise ValueError(f"segment must satisfy a < b, got ({a[s]}, {b[s]})")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    closed = int(family in _CLOSED_FAMILIES)
    if np.any(m < 1 + closed):
        raise ValueError(f"family {family!r} needs m >= {1 + closed}, got {m.min()}")
    roots = legendre_roots if family == "legendre_closed" else chebyshev1_roots
    counts, inverse = np.unique(m, return_inverse=True)
    ref = np.full((counts.size, counts[-1]), np.inf)   # per node count: the roots, ends at 0
    for i, k in enumerate(counts.tolist()):
        ref[i, :k] = 0.0
        ref[i, closed:k - closed] = roots(k - 2 * closed) if k > 2 * closed else ()
    nodes = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * ref[inverse.ravel()]
    if closed:
        nodes[:, 0], nodes[np.arange(m.size), m - 1] = a, b
    return nodes, barycentric_weights(nodes)


def build_nodes(segment, family: str, m: int) -> NodeSet:
    """Construct a NodeSet on ``segment`` = (a, b): the one-segment ``node_table``."""
    a, b = float(segment[0]), float(segment[1])
    nodes, weights = node_table([a], [b], family, [m])
    return NodeSet(a=a, b=b, family=family, m=m, nodes=nodes[0], weights=weights[0])


def lagrange_basis_matrix(nodeset: NodeSet, points) -> np.ndarray:
    """Evaluate all fundamental polynomials at ``points``, of any shape.

    Returns an array of shape points.shape + (m,) (a scalar counts as one
    point) of the l_j at the points, with exact unit rows at nodes and at points
    a subnormal distance from one, where the quotients would overflow. Nodes and
    weights of shape (k, m) give each of k points a node set of its own.
    """
    basis = np.atleast_1d(np.asarray(points, float))[..., None] - nodeset.nodes
    hit = np.abs(basis) < np.finfo(float).tiny
    hit_row = hit.any(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(nodeset.weights, basis, out=basis)
        basis /= basis.sum(axis=-1, keepdims=True)
    if hit_row.any():
        basis[hit_row] = hit[hit_row]
    return basis


def lebesgue_constant(nodeset: NodeSet, resolution: int | None = None) -> float:
    """Lower estimate of the Lebesgue constant of ``nodeset``.

    Maximizes sum_i |l_i(t)| over a uniform grid of ``resolution`` points
    (default 50 per node, at least 1000), then refines the best bracket until
    the argmax is resolved to machine precision.
    """
    m = nodeset.m
    if resolution is None:
        resolution = max(50 * m, 1000)
    if resolution < 10 * m:
        raise ValueError(f"resolution must be >= 10*m = {10 * m}, got {resolution}")
    a, b = nodeset.a, nodeset.b
    t = np.linspace(a, b, resolution)
    lam = np.abs(lagrange_basis_matrix(nodeset, t)).sum(axis=1)
    i = int(np.argmax(lam))
    best = float(lam[i])
    lo, hi = t[max(i - 1, 0)], t[min(i + 1, resolution - 1)]
    for _ in range(25):
        tt = np.linspace(lo, hi, 33)
        ll = np.abs(lagrange_basis_matrix(nodeset, tt)).sum(axis=1)
        j = int(np.argmax(ll))
        best = max(best, float(ll[j]))
        lo, hi = tt[max(j - 1, 0)], tt[min(j + 1, 32)]
        if hi - lo <= 1e-15 * (b - a):
            break
    return best


def power_degree_schedule(nsegments: int, r: int, s: int) -> list[int]:
    """Node counts for a power-graded mesh: max(r, 2) on the first segment, s after."""
    if nsegments < 1:
        raise ValueError("nsegments must be >= 1")
    first = max(r, 2)
    return [first] + [max(s, 2)] * (nsegments - 1)


def geometric_degree_schedule(nsegments: int, r: int, gamma: float, bound: float,
                              T: float) -> list[int]:
    """Node counts for a geometric mesh.

    Segment 0 gets max(r, 2) nodes; segment k gets
    floor((10/9) k (r + 1 - gamma) A T) + 1 nodes, clamped to [2, 40].
    The cap guards double-precision interpolation, which degrades beyond
    degree ~40.
    """
    if nsegments < 1:
        raise ValueError("nsegments must be >= 1")
    out = [max(r, 2)]
    for k in range(1, nsegments):
        mk = int(np.floor((10.0 / 9.0) * k * (r + 1 - gamma) * bound * T)) + 1
        out.append(min(max(mk, 2), 40))
    return out
