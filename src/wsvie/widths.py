"""Constructive width diagnostics: bump functions, covering counts, error charts.

The bump on a covering cell [a_1, b_1] x ... x [a_l, b_l] in layer k is

    A * (prod_i (t_i - a_i)(b_i - t_i))^s / (h_k^{s(2l-1)} ((k+1)/N)^{v gamma})

inside the cell and 0 outside. With v = s/(s - gamma) its maximum scales like
N^{-s} uniformly in the layer index, which is the quantitative content of the
width lower bounds; covering cell counts supply the matching functional
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funclass import ClassParams
from .mesh import boundary_layer_covering, corner_layer_covering, geometric_covering
from .solver import preset_1d, preset_2d
from .spline import build_tensor_spline, n_functionals, sup_error


@dataclass
class BumpSpec:
    """One bump: its cell, layer data and normalization.

    ``v`` defaults to s / (s - gamma), the exponent that balances the bump
    maxima across layers; ``h`` defaults to the layer width
    ((k+1)/N)^v T - (k/N)^v T.
    """

    lo: tuple
    hi: tuple
    k: int
    N: int
    params: ClassParams
    v: float | None = None
    h: float | None = None
    amplitude: float = 1.0

    def __post_init__(self):
        self.lo = tuple(float(x) for x in np.atleast_1d(self.lo))
        self.hi = tuple(float(x) for x in np.atleast_1d(self.hi))
        if self.v is None:
            s, g = self.params.s, self.params.gamma
            self.v = s / (s - g)
        if self.h is None:
            T, N, k, v = self.params.T, self.N, self.k, self.v
            self.h = ((k + 1) / N) ** v * T - (k / N) ** v * T

    @property
    def l(self) -> int:
        return len(self.lo)


def bump_eval(spec: BumpSpec, *coords) -> np.ndarray:
    """Evaluate the bump at points given as one coordinate array per axis."""
    coords = [np.asarray(c, dtype=float) for c in coords]
    if len(coords) != spec.l:
        raise ValueError(f"expected {spec.l} coordinate arrays, got {len(coords)}")
    s = spec.params.s
    prod = np.ones(np.broadcast(*coords).shape)
    inside = np.ones(np.broadcast(*coords).shape, dtype=bool)
    for c, a, b in zip(coords, spec.lo, spec.hi):
        inside &= (c >= a) & (c <= b)
        prod = prod * (c - a) * (b - c)
    denom = spec.h ** (s * (2 * spec.l - 1)) * ((spec.k + 1) / spec.N) ** (spec.v * spec.params.gamma)
    out = spec.amplitude * np.where(inside, prod, 0.0) ** s / denom
    return np.where(inside, out, 0.0)


def bump_sup(spec: BumpSpec, samples_per_axis: int = 41) -> float:
    """Maximum of the bump over its cell.

    For cube cells the maximum sits at the center by symmetry; otherwise it is
    located by dense sampling.
    """
    edges = np.array(spec.hi) - np.array(spec.lo)
    center = [0.5 * (a + b) for a, b in zip(spec.lo, spec.hi)]
    if np.allclose(edges, edges[0], rtol=1e-12, atol=0.0):
        return float(bump_eval(spec, *center))
    axes = [np.linspace(a, b, samples_per_axis) for a, b in zip(spec.lo, spec.hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return float(np.max(bump_eval(spec, *grids)))


def layer_cube_bump(params: ClassParams, N: int, k: int, l: int,
                    v: float | None = None, amplitude: float = 1.0) -> BumpSpec:
    """Bump on a cube of edge h_k placed at the inner corner of layer k."""
    if v is None:
        v = params.s / (params.s - params.gamma)
    T = params.T
    inner = (k / N) ** v * T
    h = ((k + 1) / N) ** v * T - inner
    return BumpSpec(lo=(inner,) * l, hi=(inner + h,) * l, k=k, N=N,
                    params=params, v=v, h=h, amplitude=amplitude)


def covering_count(N: int, l: int, v: float, style: str = "boundary") -> int:
    """Exact cell count of the constructed covering (no formula shortcut)."""
    if style == "boundary":
        return boundary_layer_covering(N, 1.0, l, v).ncells
    if style == "corner":
        return corner_layer_covering(N, 1.0, l, v).ncells
    if style == "geometric":
        return geometric_covering(N, 1.0, l).ncells
    raise ValueError(f"unknown covering style {style!r}")


def _mixed_fd(f, point, orders, steps) -> float:
    """Nested central differences for the mixed partial of multi-order ``orders``."""
    point = list(point)

    def rec(axis, pt):
        k = orders[axis]
        nxt = (lambda q: f(*q)) if axis == len(orders) - 1 else (lambda q: rec(axis + 1, q))
        if k == 0:
            return nxt(pt)
        h = steps[axis]
        acc = 0.0
        for j in range(k + 1):
            qt = list(pt)
            qt[axis] = pt[axis] + (k / 2.0 - j) * h
            acc += (-1.0) ** j * math.comb(k, j) * nxt(qt)
        return acc / h ** k

    return rec(0, point)


def bump_membership_scale(spec: BumpSpec, n_points: int = 50, seed: int = 0) -> float:
    """Smallest uniform bound covering sampled low-order derivatives of the bump.

    Samples mixed partials of total order <= r at random interior points by
    finite differences and returns their maximum magnitude, i.e. the smallest
    constant M for which the sampled below-order-r bounds hold at amplitude 1.
    """
    rng = np.random.default_rng(seed)
    r, l = spec.params.r, spec.l
    lo = np.array(spec.lo)
    hi = np.array(spec.hi)
    edges = hi - lo
    margin = 0.2
    pts = lo + (margin + (1 - 2 * margin) * rng.random((n_points, l))) * edges
    steps = edges / (8.0 * (r + 1))

    orders_list = []

    def gen(prefix, remaining, axes_left):
        if axes_left == 1:
            orders_list.append(tuple(prefix) + (remaining,))
            return
        for take in range(remaining + 1):
            gen(prefix + [take], remaining - take, axes_left - 1)

    for total in range(r + 1):
        gen([], total, l)

    f = lambda *cs: float(bump_eval(spec, *cs))
    worst = 0.0
    for pt in pts:
        for orders in orders_list:
            worst = max(worst, abs(_mixed_fd(f, pt, orders, steps)))
    return worst


def width_upper_estimate(params: ClassParams, f, N: int,
                         samples_per_axis: int | None = None):
    """(functional count, sup error) of the class-appropriate spline of f.

    Builds the graded spline for params at level N, counts its distinct nodes
    and measures the dense-grid sup error; charting these against each other
    gives the empirical upper width curve.
    """
    if params.l == 1:
        mesh, schedule, family = preset_1d(params, N)
        spl = build_tensor_spline(f, mesh.covering(), schedule, family=family)
        samples = samples_per_axis or 2001
    elif params.l == 2:
        if params.kind == "b_double_star":
            raise ValueError("no covering construction is available for b_double_star in 2D")
        cov, degree, family = preset_2d(params, N)
        spl = build_tensor_spline(f, cov, degree, family=family)
        samples = samples_per_axis or 201
    else:
        raise ValueError(f"unsupported dimension {params.l}")
    return n_functionals(spl), sup_error(spl, f, samples)


def fit_loglog_slope(xs, ys, drop_edges: bool = True) -> float:
    """Least-squares slope of log y against log x.

    With ``drop_edges`` the smallest and largest x are excluded whenever more
    than three points are available; asymptotic claims are fitted away from
    pre-asymptotic edges.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two matching points")
    if drop_edges and xs.size > 3:
        order = np.argsort(xs)
        keep = order[1:-1]
        xs, ys = xs[keep], ys[keep]
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
