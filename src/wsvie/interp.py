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


def _legendre_and_derivative(m, x: np.ndarray):
    """Evaluate P_m and P_m' by the three-term recurrence; m an int, or one degree per row of x."""
    p_prev, p = np.ones_like(x), x.copy()
    top, below = p.copy(), p_prev.copy()   # P_m and P_(m-1): so far, those of m = 1
    for k in range(1, np.max(m)):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        np.copyto(top, p, where=m == k + 1)
        np.copyto(below, p_prev, where=m == k + 1)
    # valid for |x| < 1, which holds at and near the roots; exactly 1 for m = 1
    return top, m * (x * top - below) / (x * x - 1.0)


_LEGENDRE = {}   # degree m -> its roots and P_m' at them, read-only


def legendre_table(degrees) -> dict:
    """The dict m -> (roots, P_m' at them) of the Legendre degrees built so far. Those of
    ``degrees`` not built yet are built in one batch, as ``legendre_roots`` says: rows of a
    (degree, root) array, each padded with its last root, one recurrence per Newton step."""
    new = sorted({int(m) for m in degrees} - _LEGENDRE.keys())
    if min(new, default=1) < 1:
        raise ValueError(f"m must be >= 1, got {new[0]}")
    if new:
        m = np.array(new)[:, None]
        j = np.minimum(np.arange(1, new[-1] + 1), m)
        x = -np.cos((2.0 * j - 1.0) * np.pi / (2.0 * m))  # ascending initial guesses
        max_step = np.pi / (2.0 * m)  # damping: never jump past a neighbouring root
        live = np.arange(len(new))   # the rows still moving
        for _ in range(100):
            p, dp = _legendre_and_derivative(m[live], x[live])
            step = np.clip(p / dp, -max_step[live], max_step[live])
            x[live] -= step
            live = live[~(np.max(np.abs(step), axis=1) < 1e-14)]
            if not live.size:
                break
        else:
            raise RuntimeError(f"Legendre Newton iteration did not converge (m={m[live, 0]})")
        # enforce exact symmetry about 0; a row's padding stays its last root
        x = 0.5 * (x - np.take_along_axis(x, np.maximum(m - 1 - np.arange(new[-1]), 0), 1))
        p, dp = _legendre_and_derivative(m, x)
        bad = np.max(np.abs(p), axis=1) > 1e-13
        if bad.any():
            raise RuntimeError(f"Legendre root residual {np.max(np.abs(p)):.2e} exceeds 1e-13 "
                               f"(m={', '.join(map(str, m[bad, 0]))})")
        x.setflags(write=False)
        dp.setflags(write=False)
        _LEGENDRE.update((k, (row[:k], d[:k])) for k, row, d in zip(new, x, dp))
    return _LEGENDRE


def legendre_roots(m: int) -> np.ndarray:
    """Roots of the degree-m Legendre polynomial, m >= 1: m distinct values in (-1, 1),
    ascending, symmetric about 0, cached (``legendre_table``) and read-only.

    Damped Newton iteration from Chebyshev initial guesses, stopped once
    every step is below 1e-14 (at most 100 steps); the residual |P_m(root)|
    is required to drop below 1e-13 for every root, else a RuntimeError names
    m. The package asks for m <= 64; among m <= 120 the check fails for m in
    {86, 104, 107, 108, 109, 113, 119, 120}.
    """
    return legendre_table([m])[m][0]


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
