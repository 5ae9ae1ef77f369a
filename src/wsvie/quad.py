"""Gauss quadrature, tensor cubature over boxes, and weakly singular moments.

The moment helpers integrate products (x - tau)^p * l_j(tau) over a clipped
interval [a, min(b, x)], where l_j are the Lagrange fundamental polynomials of
a NodeSet of m nodes. Each row x takes one of three fixed rules of n(m) =
max(m + 4, 9) points per panel (``_rule_points``), chosen by one private
generator, ``_reference_pairs``, from where x lies:

* singular rows (a < x <= b) -- a Gauss-Jacobi rule with the weight
  (x - tau)^p folded in, exact for polynomial factors of degree <= 2n - 1;
* far rows (x - b >= b - a) -- one Gauss-Legendre panel on [a, b];
* near rows (the rest) -- composite Gauss-Legendre with panels graded
  dyadically toward b.

The rules are written in the reference coordinate sigma on [-1, 1]: a row is
h^(p + 1), h = (b - a) / 2, times a reference row of (family, m, p, branch, X),
X its reference coordinate, from one function, ``_reference_rows``.
``stacked_kernel_moments`` takes the moments of many intervals, of any node
counts, at one coordinate array; its rows sum in one fixed order, so stacking
changes no bit; it may compute only some (interval, row) pairs, as the solver's
chunks do. The ``_RowStore`` ``_STORE``, per thread, keeps singular and near rows
and far rule bases for the whole process. ``kernel_moments`` is one interval.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interp import NodeSet, build_nodes, lagrange_basis_matrix, legendre_table

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
    at the Legendre roots (``legendre_table``). Exact for polynomials of degree <= 2n - 1.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"n must be in [1, 64], got {n}")
    x, dp = legendre_table([n])[n]
    return QuadRule(n=n, nodes=x, weights=2.0 / ((1.0 - x * x) * dp * dp))


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
    kk = np.arange(2.0, n)
    off = np.sqrt(4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
                  / ((2.0 * kk + a + b) ** 2 * ((2.0 * kk + a + b) ** 2 - 1.0)))
    if n > 1:
        off = np.append(math.sqrt(4.0 * (1.0 + a) * (1.0 + b)
                                  / ((2.0 + a + b) ** 2 * (3.0 + a + b))), off)
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


def _rule_points(m: int) -> int:
    """Gauss points per panel of the rules of a row of m nodes: max(m + 4, 9), at most 64."""
    return min(max(m + 4, 9), 64)


def _reference_pairs(x, a, b, nodesets, pairs=None):
    """Classify rows x against S intervals [a[s], b[s]]; yield each branch's pairs in blocks.

    ``pairs`` = (s, r) lists the pairs to classify, row r[c] of interval s[c]; by default
    every (interval, row), c = s * x.size + r. Yields ``(ref, panels, s, c, X)`` for the
    active singular (panels 0), far (1) and near (``_NEAR_PANELS``) pairs, per reference
    node set ``ref`` (family, m) of nodesets[s] and block of at most ``_TABLE_BUDGET / 8``
    doubles of m-column rows (or one pair): pair c at the reference coordinate X[c],
    (x - a) / (b - a) when singular, else (x - b) / h, h = (b - a) / 2, which keeps the
    digits past b.
    """
    a, b = np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float).ravel()
    s, r = np.divmod(np.arange(a.size * x.size), x.size) if pairs is None else pairs
    branch = np.empty(s.size, dtype=np.int8)   # singular, far, near, or before a: in slices
    step = max(1, _TABLE_BUDGET // 32)
    for at in range(0, s.size, step):
        i = slice(at, at + step)
        xs = x[r[i]]
        lo, hi = a[s[i]], b[s[i]]
        branch[i] = np.where(np.minimum(xs, hi) > lo, np.where(
            xs <= hi, 0, np.where(xs - hi >= hi - lo, 1, 2)), 3)
    keys = [(ns.m, ns.family) for ns in nodesets]
    groups = sorted(set(keys))
    gid = np.array([groups.index(k) for k in keys])[s] if len(groups) > 1 else None
    for k, panels in enumerate((0, 1, _NEAR_PANELS)):
        rows = branch == k
        for g, (m, family) in enumerate(groups):
            c = np.flatnonzero(rows if gid is None else rows & (gid == g))
            ref, step = _reference_nodes((-1.0, 1.0), family, m), max(1, _TABLE_BUDGET // (8 * m))
            for start in range(0, c.size, step):
                cb = c[start:start + step]
                xs, lo, hi = x[r[cb]], a[s[cb]], b[s[cb]]
                yield ref, panels, s[cb], cb, ((xs - lo) / (hi - lo) if panels == 0
                                               else (xs - hi) / (0.5 * (hi - lo)))


def _reference_rule(X, p: float, n: int, panels: int):
    """Points sigma and weights of the rows at X of [-1, 1]: n Gauss-Jacobi points
    on [-1, 2 X - 1] per singular row, (rows, points); else the points of
    ``_graded_panels(n, panels)`` in d = 1 - sigma, weights w (X + d)^p (points, rows)."""
    if panels:
        rule = _graded_panels(n, panels)
        return 1.0 - rule.nodes, rule.weights[:, None] * (X + rule.nodes[:, None]) ** p
    jac = gauss_jacobi(n, p)
    return (jac.nodes + 1.0) * X[:, None] - 1.0, X[:, None] ** (p + 1.0) * jac.weights


def _reference_rows(ref: NodeSet, p: float, panels: int, X, n=None, basis=None) -> np.ndarray:
    """The moment rows (X.size, m) of ``ref`` at X, branch ``panels``, n points per panel
    (by default ``_rule_points(m)``; ``basis`` the basis at them, if given): einsum sums
    each row in one order, whatever its block, near rows panel by panel."""
    G, n = np.empty((X.size, ref.m)), _rule_points(ref.m) if n is None else n
    step = max(1, _TABLE_BUDGET // (8 * n * (panels or ref.m + 1)))
    for lo in range(0, X.size, step):
        sigma, W = _reference_rule(X[lo:lo + step], p, n, panels)
        if panels:
            basis = lagrange_basis_matrix(ref, sigma) if basis is None else basis
            parts = np.einsum("pqc,pqm->pmc", W.reshape(panels, n, -1),
                              basis.reshape(panels, n, -1))
            G[lo:lo + step] = sum(parts[1:], parts[0]).T   # the panels in order
        else:
            G[lo:lo + step] = np.einsum("cq,cqm->cm", W, lagrange_basis_matrix(ref, sigma))
    return G


class _RowStore(threading.local):
    """``_reference_rows`` behind the rows it computed, keyed by all that fixes a row (its
    rule's points too); missing rows are computed in one batch. A walk claims the rows it reads
    or computes, in X order, while they fit in ``room`` doubles: those an empty store keeps.
    Unclaimed rows go when they crowd it, so no walk computes more than with an empty store.
    Far rows stay out (``far``): a walk's classes keep theirs in its row arena, outside the room,
    which holds the basis of their rule beside the singular and near rows.
    Its state is per thread: two threads never share rows."""

    def __init__(self, room: int):
        self.room, self.size, self.own, self.groups, self.bases = room, 0, 0, {}, {}

    def walk(self, reads, room: int) -> _RowStore:
        """Start a walk that reads rows of the (family, m, p) in ``reads``: drop the rest."""
        keep = {(f, m, p, b, _rule_points(m)) for f, m, p in reads for b in (0, _NEAR_PANELS)}
        self.bases = {g: self.bases[g] for g in self.bases.keys() & {k[:2] + k[4:] for k in keep}}
        self.groups = {g: (X, G, np.zeros(X.size, bool))   # group -> sorted X, rows, claimed
                       for g, (X, G, _) in self.groups.items() if g in keep}
        self.room, self.own, self.size = room, 0, sum(G.size for _, G, _ in self.groups.values())
        self.groups, self.size = (self.groups, self.size) if self.size <= room else ({}, 0)
        return self

    def __call__(self, ref: NodeSet, p: float, panels: int, X) -> np.ndarray:
        if panels == 1:   # far rows stay out
            return self.far(ref, p, X)
        group = (ref.family, ref.m, p, panels, _rule_points(ref.m))
        keys, rows, mine = self.groups.get(group, (np.empty(0), np.empty((0, ref.m)),
                                                   np.empty(0, bool)))
        X, inverse = np.unique(X, return_inverse=True)
        at = np.searchsorted(keys, X)
        hit = keys[np.minimum(at, keys.size - 1)] == X if keys.size else np.zeros(X.size, bool)
        G, new = np.empty((X.size, ref.m)), np.flatnonzero(~hit)
        G[hit] = rows[at[hit]]
        G[new] = _reference_rows(ref, p, panels, X[new])
        take = np.flatnonzero(~hit | ~np.append(mine, False)[at])[:(self.room - self.own) // ref.m]
        mine[at[take[hit[take]]]], new = True, take[~hit[take]]
        if new.size:
            self.groups[group] = tuple(np.insert(v, at[new], w, axis=0) for v, w in
                                       ((keys, X[new]), (rows, G[new]), (mine, True)))
        self.size, self.own = self.size + new.size * ref.m, self.own + take.size * ref.m
        if self.size > self.room:   # drop the unclaimed rows
            self.groups = {g: (X[c], G[c], c[c]) for g, (X, G, c) in self.groups.items()}
            self.size = self.own
        return G[inverse]

    def far(self, ref: NodeSet, p: float, X) -> np.ndarray:
        """The far rows of ``ref`` at X, not kept; their rule's basis once per (family, m, n)."""
        basis = self.bases.get(key := (ref.family, ref.m, _rule_points(ref.m)))
        if basis is None:
            basis = lagrange_basis_matrix(ref, 1.0 - _graded_panels(key[2], 1).nodes)   # in sigma
            if basis.size + sum(b.size for b in self.bases.values()) <= self.room:
                self.bases[key] = basis
        return _reference_rows(ref, p, 1, X, key[2], basis)


# the store of the walks, kept for the whole process; each thread sees its own
_STORE = _RowStore(0)


def stacked_kernel_moments(x, p: float, a, b, nodesets, rows=_reference_rows,
                           pairs=None, out=None) -> np.ndarray:
    """``kernel_moments`` of S intervals at once: an array of shape (S, x.size, M).

    Interval s runs from a[s] to b[s] and carries the fundamental polynomials of
    nodesets[s], built on it by ``build_nodes`` with its family and m nodes: those of
    ``build_nodes((-1, 1), family, m)`` in sigma, and zero past m < M. A row is h^(p + 1)
    times its reference row from ``rows`` (``_reference_rows`` or a ``_RowStore``), at the
    rule of its own m, and equals that of ``kernel_moments`` on its interval, to the bit.
    With ``pairs`` = (s, r) only the rows M[s, r] are computed, into the leading columns of
    ``out`` if given, and returned, (pairs, M); the rows before their interval are left.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    width = max((ns.m for ns in nodesets), default=0)
    if out is None:
        out = np.zeros((len(nodesets) * x.size if pairs is None else len(pairs[0]), width))
    scale = (0.5 * (np.asarray(b, float) - np.asarray(a, float))).ravel() ** (p + 1.0)
    for ref, panels, s, c, X in _reference_pairs(x, a, b, nodesets, pairs):
        out[c, :ref.m] = scale[s, None] * rows(ref, p, panels, X)
    return out.reshape(len(nodesets), x.size, width) if pairs is None else out


def kernel_moments(x, p: float, a: float, b: float, nodeset: NodeSet) -> np.ndarray:
    """Moments M[i, j] = int_a^{min(b, x_i)} (x_i - tau)^p l_j(tau) dtau.

    ``l_j`` are the fundamental polynomials of ``nodeset``, built on [a, b] by
    ``build_nodes``. The rules are those of ``_reference_pairs``: singular rows
    are exact for the polynomial factor, rows with x_i <= a zero.
    """
    return stacked_kernel_moments(x, p, [a], [b], [nodeset])[0]
