import heapq
import math
from functools import partial

import numpy as np
import pytest

import wsvie.mesh as mesh
from wsvie.mesh import (boundary_layer_covering, causal_order, corner_layer_covering,
                        covering_from_dict, geometric_covering, geometric_mesh,
                        power_graded_mesh, shadow_matrix, verify_causal_order)


class TestPowerMesh:
    def test_quadratic_grading(self):
        mesh = power_graded_mesh(4, 1.0, 2.0)
        assert mesh.breakpoints == pytest.approx([0, 0.0625, 0.25, 0.5625, 1], abs=1e-14)

    def test_uniform_case(self):
        mesh = power_graded_mesh(3, 1.0, 1.0)
        assert mesh.breakpoints == pytest.approx([0, 1 / 3, 2 / 3, 1])

    def test_scaled_domain(self):
        mesh = power_graded_mesh(2, 2.0, 1.5)
        assert mesh.breakpoints == pytest.approx([0, 2 * 0.5 ** 1.5, 2])
        assert mesh.breakpoints[-1] == 2.0

    def test_rejects_antigraded(self):
        with pytest.raises(ValueError):
            power_graded_mesh(4, 1.0, 0.5)

    @pytest.mark.parametrize("N,q", [(5, 1.0), (8, 1.5), (12, 3.0)])
    def test_monotone_grading(self, N, q):
        steps = np.diff(power_graded_mesh(N, 1.0, q).breakpoints)
        assert np.all(np.diff(steps) >= -1e-15)


class TestGeometricMesh:
    def test_three_levels(self):
        assert geometric_mesh(3, 1.0).breakpoints == pytest.approx([0, 0.125, 0.25, 0.5, 1])

    def test_single_halving(self):
        assert geometric_mesh(1, 1.0).breakpoints == pytest.approx([0, 0.5, 1])

    def test_degenerate(self):
        assert geometric_mesh(0, 1.0).breakpoints == pytest.approx([0, 1])

    def test_doubling_ratio(self):
        v = geometric_mesh(8, 3.0).breakpoints
        steps = np.diff(v)
        ratios = steps[2:] / steps[1:-1]
        assert ratios == pytest.approx(np.full(ratios.size, 2.0))


def _boxes(cov):
    """(layer, lower corner, upper corner) per cell, in Python numbers."""
    return list(zip(cov.k.tolist(), map(tuple, cov.lo_array.tolist()),
                    map(tuple, cov.hi_array.tolist())))


def _tiling_ok(cov):
    vol = math.fsum(np.prod(cov.hi_array - cov.lo_array, axis=1).tolist())
    assert abs(vol - cov.T ** cov.l) <= 1e-12 * cov.T ** cov.l
    # pairwise disjoint interiors: separated along some axis
    lo, hi = cov.lo_array, cov.hi_array
    n = cov.ncells
    overlap = np.all((lo[:, None, :] < hi[None, :, :] - 1e-15)
                     & (hi[:, None, :] > lo[None, :, :] + 1e-15), axis=2)
    np.fill_diagonal(overlap, False)
    assert not overlap.any()


class TestBoundaryLayerCovering:
    def test_uniform_2x2(self):
        cov = boundary_layer_covering(2, 1.0, 2, 1.0)
        assert cov.ncells == 4
        boxes = {(lo, hi) for _, lo, hi in _boxes(cov)}
        assert ((0.5, 0.5), (1.0, 1.0)) in boxes
        assert ((0.0, 0.0), (0.5, 0.5)) in boxes
        assert ((0.0, 0.5), (0.5, 1.0)) in boxes
        assert ((0.5, 0.0), (1.0, 0.5)) in boxes
        _tiling_ok(cov)

    def test_graded_shell(self):
        cov = boundary_layer_covering(2, 1.0, 2, 2.0)
        assert cov.ncells >= 4
        _tiling_ok(cov)
        # layer boundary at min(t1, t2) = 0.25, shell cells have edge <= 0.75
        for k, lo, hi in _boxes(cov):
            if k == 0:
                assert max(h - l for l, h in zip(lo, hi)) <= 0.75 + 1e-12

    def test_count_growth_regime(self):
        count = boundary_layer_covering(8, 1.0, 2, 3.0).ncells
        assert 512 / 8 <= count <= 512 * 8

    @pytest.mark.parametrize("N,v", [(2, 1.0), (3, 1.5), (5, 2.5), (8, 3.0)])
    def test_invariants(self, N, v):
        cov = boundary_layer_covering(N, 1.0, 2, v)
        _tiling_ok(cov)
        b = [(k / N) ** v for k in range(N + 1)]
        for k, lo, hi in _boxes(cov):
            rho_min = min(lo)
            rho_max = min(hi)
            assert rho_min >= b[k] - 1e-12
            assert rho_max <= b[k + 1] + 1e-12
            h_k = b[k + 1] - b[k]
            assert max(h - l for l, h in zip(lo, hi)) <= h_k + 1e-12

    def test_l3_tiling(self):
        _tiling_ok(boundary_layer_covering(3, 1.0, 3, 1.5))


class TestCornerLayerCovering:
    def test_uniform_2x2(self):
        cov = corner_layer_covering(2, 1.0, 2, 1.0)
        assert cov.ncells == 4
        boxes = {(lo, hi) for _, lo, hi in _boxes(cov)}
        assert ((0.0, 0.0), (0.5, 0.5)) in boxes
        _tiling_ok(cov)

    def test_single_layer(self):
        cov = corner_layer_covering(1, 1.0, 2, 2.0)
        assert cov.ncells == 1
        assert _boxes(cov) == [(1, (0.0, 0.0), (1.0, 1.0))]

    def test_count_near_N_squared(self):
        count = corner_layer_covering(4, 1.0, 2, 2.0).ncells
        assert 16 / 8 <= count <= 16 * 8

    @pytest.mark.parametrize("N,v", [(2, 1.0), (4, 2.0), (6, 1.5)])
    def test_invariants(self, N, v):
        cov = corner_layer_covering(N, 1.0, 2, v)
        _tiling_ok(cov)
        c_bounds = [(k / N) ** v for k in range(N + 1)]
        for k, lo, hi in _boxes(cov):
            assert max(hi) <= c_bounds[k] + 1e-12
            if k >= 2:
                h = c_bounds[k] - c_bounds[k - 1]
                assert max(hh - ll for ll, hh in zip(lo, hi)) <= h + 1e-12


class TestGeometricCovering:
    def test_small_case(self):
        cov = geometric_covering(1, 1.0, 2)
        assert cov.ncells >= 2
        _tiling_ok(cov)

    def test_count_scaling(self):
        count = geometric_covering(3, 1.0, 2).ncells
        assert 8 / 8 <= count <= 8 * 8

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_edge_bounds(self, N):
        cov = geometric_covering(N, 1.0, 2)
        _tiling_ok(cov)
        for k, lo, hi in _boxes(cov):
            h_k = 2.0 ** (k - 1 - N)
            for a, b in zip(lo, hi):
                assert h_k - 1e-12 <= b - a <= 2 * h_k + 1e-12


# Reference: the shadow matrix as one (n, n, l) comparison, and the causal
# order as a heap of tuple keys whose in-degrees drop one successor at a time.

def _reference_shadow(cov):
    lo, hi = cov.lo_array, cov.hi_array
    S = np.all(lo[:, None] < hi[None], axis=2)
    np.fill_diagonal(S, False)
    return S


def _reference_causal_order(cov, S):
    n = cov.ncells
    indeg = S.sum(axis=0).astype(int)
    lo, width = cov.lo_array, cov.hi_array - cov.lo_array
    keys = [(tuple(width[i]), float(lo[i].sum()), tuple(lo[i]), i) for i in range(n)]
    ready = [keys[i] for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        *_, i = heapq.heappop(ready)
        order.append(i)
        for j in np.nonzero(S[i])[0]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, keys[j])
    assert len(order) == n
    return order


_REFERENCE_COVERINGS = (
    [(f"boundary-v{v}-{N}", partial(boundary_layer_covering, N, 1.0, 2, v))
     for v in (2.0, 2.5) for N in range(1, 13)]
    + [(f"corner-{N}", partial(corner_layer_covering, N, 1.0, 2, 2.0)) for N in range(1, 13)]
    + [(f"geometric-{N}", partial(geometric_covering, N, 1.0, 2)) for N in range(1, 8)]
    + [(f"{style}-l3-{N}", partial(build, N, 1.0, 3, *v)) for N in (2, 3)
       for style, build, v in (("boundary", boundary_layer_covering, (2.0,)),
                               ("boundary-v2.5", boundary_layer_covering, (2.5,)),
                               ("corner", corner_layer_covering, (2.0,)),
                               ("geometric", geometric_covering, ()))]
    + [(f"1d-{kind}-{N}", lambda build=build, N=N: build(N).covering()) for N in (1, 4, 16, 40)
       for kind, build in (("power", partial(power_graded_mesh, T=1.0, q=2.5)),
                           ("geometric", partial(geometric_mesh, T=1.0)))]
)


class TestCausalOrder:
    def test_uniform_2x2_order(self):
        cov = boundary_layer_covering(2, 1.0, 2, 1.0)
        order = causal_order(cov)
        assert cov.lo_array[order].tolist() == [[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]]

    def test_single_cell(self):
        cov = corner_layer_covering(1, 1.0, 2, 1.0)
        assert causal_order(cov) == [0]

    @pytest.mark.parametrize("builder,args", [
        (boundary_layer_covering, (2, 1.0, 2, 2.0)),
        (boundary_layer_covering, (5, 1.0, 2, 2.5)),
        (corner_layer_covering, (4, 1.0, 2, 2.0)),
        (geometric_covering, (3, 1.0, 2)),
    ])
    def test_order_respects_shadow_relation(self, builder, args):
        cov = builder(*args)
        order = causal_order(cov)
        assert verify_causal_order(cov, order)

    def test_shadow_matrix_is_acyclic(self):
        cov = boundary_layer_covering(3, 1.0, 2, 1.5)
        S = shadow_matrix(cov)
        assert not np.any(S & S.T)

    def test_shadow_matrix_is_built_once(self):
        # causal_order, the march and collocation_residual share one read-only matrix
        cov = boundary_layer_covering(3, 1.0, 2, 1.5)
        S = shadow_matrix(cov)
        assert shadow_matrix(cov) is S and not S.flags.writeable
        lo, hi = cov.lo_array, cov.hi_array
        off_diagonal = ~np.eye(cov.ncells, dtype=bool)
        assert np.array_equal(S, np.all(lo[:, None] < hi[None], axis=2) & off_diagonal)

    def test_causal_rank_is_read_only(self):
        # donor priority, cell_of and the default order of every later solve read it
        cov = boundary_layer_covering(3, 1.0, 2, 1.5)
        rank = cov.causal_rank()
        assert cov.causal_rank() is rank
        with pytest.raises(ValueError):
            rank[0] = cov.ncells
        assert np.array_equal(np.sort(rank), np.arange(cov.ncells))

    @pytest.mark.parametrize("build", [pytest.param(build, id=name)
                                       for name, build in _REFERENCE_COVERINGS])
    def test_order_and_shadow_equal_references(self, build):
        cov = build()
        S = _reference_shadow(cov)
        assert np.array_equal(shadow_matrix(cov), S)
        assert causal_order(cov) == _reference_causal_order(cov, S)


class TestSerialization:
    def test_round_trip(self):
        cov = boundary_layer_covering(3, 1.0, 2, 1.5)
        data = cov.to_dict()
        assert set(data) == {"l", "T", "N", "style", "v", "cells"}
        back = covering_from_dict(data)
        assert back.ncells == cov.ncells
        assert np.array_equal(back.lo_array, cov.lo_array)
        assert np.array_equal(back.hi_array, cov.hi_array)
        assert np.array_equal(back.k, cov.k)
        assert np.array_equal(back.causal_rank(), cov.causal_rank())


def _painted_grid(cov):
    """The elementary grid of ``Covering.candidates``, painted one cell at a time: the
    distinct edges per axis and each box's cell, -1 where no cell lies."""
    edges = [np.unique(np.concatenate([cov.lo_array[:, a], cov.hi_array[:, a]]))
             for a in range(cov.l)]
    label = np.full([e.size - 1 for e in edges], -1)
    for ci, (lo, hi) in enumerate(zip(cov.lo_array, cov.hi_array)):
        label[tuple(slice(np.searchsorted(e, a), np.searchsorted(e, b))
                    for e, a, b in zip(edges, lo, hi))] = ci
    return edges, label


_GRID_COVERINGS = [
    *[(f"{kind}-l1-N{N}", build) for N in (2, 3) for kind, build in (
        ("power", partial(lambda N: power_graded_mesh(N, 1.0, 2.0).covering(), N)),
        ("geometric", partial(lambda N: geometric_mesh(N, 1.0).covering(), N)))],
    *[(f"{name}-l{l}-N{N}", partial(build, N, T, l, *v)) for l in (2, 3) for N in (2, 3)
      for name, build, T, v in (("boundary", boundary_layer_covering, 1.0, (2.5,)),
                                ("corner", corner_layer_covering, 0.7, (1.5,)),
                                ("geometric", geometric_covering, 3.0, ()))],
]


class TestLookupGrid:
    @pytest.mark.parametrize("build", [pytest.param(build, id=name)
                                       for name, build in _GRID_COVERINGS])
    def test_grid_labels_equal_per_cell_painting(self, build):
        # candidates labels its elementary grid in one vector pass; a tiling
        # labels every box, and a covering without one cell leaves that cell's
        # boxes at -1 (the others keep their cells, renumbered past the gap),
        # unless the cell was at an end of the two cells of a 1D mesh
        cov = build()
        cov.candidates(np.zeros((1, cov.l)))
        edges, label = cov._grid
        ref_edges, ref_label = _painted_grid(cov)
        assert all(np.array_equal(e, r) for e, r in zip(edges, ref_edges, strict=True))
        assert np.array_equal(label, ref_label)
        assert label.dtype == np.min_scalar_type(-(2 ** (cov.l - 1)) * (cov.ncells + 1))
        assert label.min() == 0
        gap = cov.ncells // 2
        keep = np.arange(cov.ncells) != gap
        holed = mesh.Covering(l=cov.l, T=cov.T, N=cov.N, style=cov.style, v=cov.v,
                              k=cov.k[keep], lo_array=cov.lo_array[keep],
                              hi_array=cov.hi_array[keep])
        holed.candidates(np.zeros((1, cov.l)))
        edges, label = holed._grid
        ref_edges, ref_label = _painted_grid(holed)
        assert all(np.array_equal(e, r) for e, r in zip(edges, ref_edges, strict=True))
        assert np.array_equal(label, ref_label)
        assert (label == -1).any() or cov.ncells == 2


    @pytest.mark.parametrize("build", [partial(boundary_layer_covering, 8, 1.0, 2, 2.5),
                                       partial(geometric_covering, 5, 1.0, 2)],
                             ids=["qstar-N8", "bstar-N5"])
    def test_small_labels_equal_int64_labels(self, build):
        # the grid stores its labels in the smallest signed type that holds its
        # partial sums (int16 here, a quarter of int64), to the same values and
        # the same candidates as int64 labels
        cov = build()
        pts = np.random.default_rng(3).random((200, 2))
        cand = cov.candidates(pts)
        edges, label = cov._grid
        assert label.dtype == np.int16
        wide = mesh.Covering(l=cov.l, T=cov.T, N=cov.N, style=cov.style, v=cov.v, k=cov.k,
                             lo_array=cov.lo_array, hi_array=cov.hi_array)
        wide.candidates(pts[:1])
        object.__setattr__(wide, "_grid", (edges, _painted_grid(cov)[1]))   # int64 labels
        assert np.array_equal(label, wide._grid[1])
        assert np.array_equal(cand, wide.candidates(pts))


class TestGeometry:
    @pytest.mark.parametrize("build", [
        partial(boundary_layer_covering, 3, 1.0, 2, 1.5),
        partial(corner_layer_covering, 3, 1.0, 2, 2.0),
        partial(geometric_covering, 3, 1.0, 2),
        lambda: power_graded_mesh(4, 1.0, 2.0).covering(),
    ], ids=["boundary", "corner", "geometric", "1d-power"])
    def test_geometry_is_read_only(self, build):
        # the causal rank, shadow matrix and lookup grid are cached from these arrays
        cov = build()
        cov.causal_rank()
        for name in ("k", "lo_array", "hi_array"):
            with pytest.raises(ValueError):
                getattr(cov, name)[0] = 0
            with pytest.raises(AttributeError):
                setattr(cov, name, getattr(cov, name).copy())
            assert f"{name}=" not in repr(cov)

    def test_constructor_copies_its_arrays(self):
        lo, hi = np.array([[0.0], [0.5]]), np.array([[0.5], [1.0]])
        cov = mesh.Covering(l=1, T=1.0, N=1, style="power", v=1.0, k=[0, 1],
                            lo_array=lo, hi_array=hi)
        lo[0, 0] = 0.25
        assert cov.lo_array[0, 0] == 0.0

    def test_corners_must_match_the_layers(self):
        with pytest.raises(ValueError, match="corners"):
            mesh.Covering(l=2, T=1.0, N=1, style="corner", v=1.0, k=[1],
                          lo_array=[[0.0]], hi_array=[[1.0]])


# Reference: the three covering builders as they were written before they
# shared one shell loop, each with its own top (or first) cube and a chop
# rule per style. Cell order matters, since the march sums history in
# source-index order, so the shared loop must reproduce them bit for bit.

def _ref_chop(a, b, h, style):
    length = b - a
    if length <= 0:
        raise ValueError(f"degenerate range ({a}, {b})")
    nfull = int(np.floor(length / h + 1e-9))
    rem = length - nfull * h
    exact = rem <= 1e-9 * length
    if style == "ceil":
        if nfull == 0:
            return np.array([a, b])
        if exact:
            edges = a + h * np.arange(nfull + 1.0)
        else:
            edges = np.concatenate([a + h * np.arange(nfull + 1.0), [b]])
    else:
        if nfull <= 1:
            return np.array([a, b])
        if exact:
            edges = a + h * np.arange(nfull + 1.0)
        else:
            edges = np.concatenate([a + h * np.arange(float(nfull)), [b]])
    edges[0], edges[-1] = a, b
    return edges


def _ref_tile_slabs(cells, k, l, band, below, above, h, chop_style):
    for j in range(l):
        ranges = [band if i == j else below if i < j else above for i in range(l)]
        if any(rb <= ra for ra, rb in ranges):
            continue
        per_axis_edges = [np.array([ra, rb]) if i == j else _ref_chop(ra, rb, h, chop_style)
                          for i, (ra, rb) in enumerate(ranges)]
        for flat in np.ndindex(*[len(e) - 1 for e in per_axis_edges]):
            lo = tuple(float(per_axis_edges[i][flat[i]]) for i in range(l))
            hi = tuple(float(per_axis_edges[i][flat[i] + 1]) for i in range(l))
            cells.append((k, lo, hi))


def _ref_covering(cells, **meta):
    """The Covering of the (k, lo, hi) triples ``cells``, in their order."""
    k, lo, hi = zip(*cells)
    return mesh.Covering(k=k, lo_array=lo, hi_array=hi, **meta)


def _ref_boundary(N, T, l, v):
    b = power_graded_mesh(N, T, v).breakpoints
    cells = [(N - 1, (float(b[N - 1]),) * l, (float(T),) * l)]
    for k in range(N - 2, -1, -1):
        _ref_tile_slabs(cells, k, l, band=(float(b[k]), float(b[k + 1])),
                        below=(float(b[k + 1]), float(T)), above=(float(b[k]), float(T)),
                        h=float(b[k + 1] - b[k]), chop_style="ceil")
    return _ref_covering(cells, l=l, T=float(T), N=N, style="boundary", v=float(v))


def _ref_corner(N, T, l, v):
    c = power_graded_mesh(N, T, v).breakpoints
    cells = [(1, (0.0,) * l, (float(c[1]),) * l)]
    for k in range(2, N + 1):
        _ref_tile_slabs(cells, k, l, band=(float(c[k - 1]), float(c[k])),
                        below=(0.0, float(c[k - 1])), above=(0.0, float(c[k])),
                        h=float(c[k] - c[k - 1]), chop_style="ceil")
    return _ref_covering(cells, l=l, T=float(T), N=N, style="corner", v=float(v))


def _ref_geometric(N, T, l):
    outer = [T * 2.0 ** (k - N) for k in range(N + 1)]
    cells = [(N, (float(T / 2),) * l, (float(T),) * l)]
    for k in range(N - 1, -1, -1):
        inner = 0.0 if k == 0 else outer[k - 1]
        _ref_tile_slabs(cells, k, l, band=(float(inner), float(outer[k])),
                        below=(float(outer[k]), float(T)), above=(float(inner), float(T)),
                        h=float(T * 2.0 ** (k - 1 - N)), chop_style="floor")
    return _ref_covering(cells, l=l, T=float(T), N=N, style="geometric", v=None)


@pytest.mark.parametrize("T", [1.0, 2.5])
@pytest.mark.parametrize("l, Nmax", [(2, 10), (3, 4)])
@pytest.mark.parametrize("style", ["boundary", "corner", "geometric"])
def test_shell_loop_matches_reference_builders(style, l, Nmax, T):
    # every edge bit, every layer index and the cell order are unchanged
    for N in range(1, Nmax + 1):
        if style == "geometric":
            pairs = [(geometric_covering(N, T, l), _ref_geometric(N, T, l))]
        else:
            build, ref = {"boundary": (boundary_layer_covering, _ref_boundary),
                          "corner": (corner_layer_covering, _ref_corner)}[style]
            pairs = [(build(N, T, l, v), ref(N, T, l, v)) for v in (1.0, 1.5, 2.5, 3.0)]
        for cov, want in pairs:
            assert (cov.l, cov.T, cov.N, cov.style, cov.v) == (want.l, want.T, want.N,
                                                               want.style, want.v)
            assert np.array_equal(cov.lo_array, want.lo_array)
            assert np.array_equal(cov.hi_array, want.hi_array)
            assert np.array_equal(cov.k, want.k)


@pytest.mark.parametrize("merge", [False, True])
@pytest.mark.parametrize("full, rem, pieces", [
    # a remainder of 1e-7 of the range is a piece of its own, or merges
    (4, 1e-7, {False: 5, True: 4}),
    # a range 1e-7 short of 5 pieces holds 4 full ones, not 5
    (5, -1e-7, {False: 5, True: 4}),
], ids=["remainder-over", "remainder-short"])
def test_chop_slack_is_1e_9_of_the_range(merge, full, rem, pieces):
    # remainders between 1e-9 and 1e-6 of the range pin both slacks of _chop
    a, b = 0.5, 1.5
    h = (b - a) * (1 - rem) / full
    edges = mesh._chop(a, b, h, merge)
    assert (edges[0], edges[-1]) == (a, b)
    assert edges.size - 1 == pieces[merge]
    assert np.all(np.diff(edges) > 0)
    assert np.allclose(np.diff(edges)[:-1], h, rtol=0, atol=1e-15)
