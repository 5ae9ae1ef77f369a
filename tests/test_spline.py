import numpy as np
import pytest

from wsvie.interp import geometric_degree_schedule, power_degree_schedule
from wsvie.mesh import boundary_layer_covering, causal_order, geometric_mesh, power_graded_mesh
from wsvie.spline import (build_tensor_spline, max_node_error, n_functionals, sup_error,
                          tensor_spline_from_dict)


# The batched evaluation pads every cell to the largest node count. Where
# node counts differ (1D schedules), its barycentric sums and contractions
# run over the padded entries and may round differently from one cell's own
# evaluation: by at most this much of the rounding scale sum_j |l_j(x)| |v_j|.
ONE_AXIS_RTOL = 1e-15


def _box_scan(cov, pts, priority):
    """Reference point location: test every cell's box, visiting cells from the
    highest priority down, so that the least-priority containing cell wins."""
    from wsvie.mesh import closure_bounds

    lower, upper = closure_bounds(pts)
    out = np.full(pts.shape[0], -1)
    for ci in np.argsort(priority, kind="stable")[::-1]:
        if priority[ci] < cov.ncells:
            inside = np.all((upper >= cov.lo_array[ci]) & (lower <= cov.hi_array[ci]), axis=1)
            out[inside] = ci
    return out


class TestSpline1D:
    def test_linear_reproduction(self):
        mesh = power_graded_mesh(5, 1.0, 1.5)
        spl = build_tensor_spline(lambda t: t, mesh.covering(), [2] * 5)
        assert sup_error(spl, lambda t: t, 501) <= 1e-13

    def test_open_family_rejected(self):
        mesh = power_graded_mesh(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_tensor_spline(lambda t: t, mesh.covering(), [3] * 3, family="chebyshev1_open")

    def test_schedule_length_checked(self):
        mesh = power_graded_mesh(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_tensor_spline(lambda t: t, mesh.covering(), [3, 3])

    def test_power_mesh_rate_for_corner_singularity(self):
        f = lambda t: t ** 2.5
        errs = {}
        for N in (8, 16, 32, 64):
            mesh = power_graded_mesh(N, 1.0, 1.5)
            spl = build_tensor_spline(f, mesh.covering(), power_degree_schedule(N, 2, 3))
            errs[N] = sup_error(spl, f, 2001)
        ratios = [errs[N] / errs[2 * N] for N in (8, 16, 32)]
        # decay order s = 3: the per-doubling ratio approaches 8; the first
        # segment over-converges for this member, so the geometric mean over
        # the range is asserted
        gm = np.prod(ratios) ** (1 / 3)
        assert 6.0 <= gm <= 10.0
        assert all(4.0 <= r <= 14.0 for r in ratios)

    def test_geometric_mesh_exponential_decay(self):
        f = lambda t: t ** 2.5
        errs = []
        for N in range(2, 9):
            mesh = geometric_mesh(N, 1.0)
            sched = geometric_degree_schedule(mesh.nsegments, 2, 0.5, 1.0, 1.0)
            spl = build_tensor_spline(f, mesh.covering(), sched, family="chebyshev1_closed")
            errs.append(sup_error(spl, f, 2001))
        decays = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert np.mean(decays) >= 1.5

    def test_eval_at_nodes_exact(self):
        mesh = power_graded_mesh(4, 1.0, 2.0)
        f = lambda t: np.sin(3 * t)
        spl = build_tensor_spline(f, mesh.covering(), [2, 4, 4, 4])
        pts = spl.node_points()
        assert spl.eval(pts) == pytest.approx(spl.node_values(), abs=0.0)

    def test_breakpoint_continuity(self):
        mesh = power_graded_mesh(6, 1.0, 1.5)
        spl = build_tensor_spline(lambda t: t ** 2.5, mesh.covering(), [2] + [3] * 5)
        v = mesh.breakpoints[1:-1]
        left = spl.eval(v - 1e-13)
        right = spl.eval(v + 1e-13)
        assert np.max(np.abs(left - right)) <= 1e-10

    def test_outside_domain_rejected(self):
        mesh = power_graded_mesh(3, 1.0, 1.0)
        spl = build_tensor_spline(lambda t: t, mesh.covering(), [2, 2, 2])
        with pytest.raises(ValueError):
            spl.eval(1.5)

    def test_graded_beats_uniform(self):
        f = lambda t: t ** 2.5
        N = 16
        uniform = build_tensor_spline(f, power_graded_mesh(N, 1.0, 1.0).covering(),
                                      power_degree_schedule(N, 2, 3))
        graded = build_tensor_spline(f, power_graded_mesh(N, 1.0, 1.5).covering(),
                                     power_degree_schedule(N, 2, 3))
        assert sup_error(graded, f, 2001) < sup_error(uniform, f, 2001)


class TestTensorSpline:
    def test_bilinear_reproduction(self):
        f = lambda t1, t2: t1 + t2
        cov = boundary_layer_covering(2, 1.0, 2, 2.0)
        spl = build_tensor_spline(f, cov, 2)
        assert sup_error(spl, f, 101) <= 1e-12

    def test_corner_singularity_rate(self):
        f = lambda t1, t2: (t1 * t2) ** 2.5
        errs = {}
        for N in (2, 4, 8):
            cov = boundary_layer_covering(N, 1.0, 2, 1.5)
            spl = build_tensor_spline(f, cov, 3)
            errs[N] = sup_error(spl, f, 201)
        assert errs[2] > errs[4] > errs[8]
        assert np.log2(errs[2] / errs[4]) >= 2.0
        assert np.log2(errs[4] / errs[8]) >= 2.0

    def test_node_inheritance_is_exact_at_nodes(self):
        f = lambda t1, t2: (t1 * t2) ** 2.5
        cov = boundary_layer_covering(3, 1.0, 2, 1.5)
        order = causal_order(cov)
        spl = build_tensor_spline(f, cov, 4, order=order)
        pos = {ci: p for p, ci in enumerate(order)}
        lo, hi = cov.lo_array, cov.hi_array
        worst = 0.0
        for ci in range(cov.ncells):
            pts = spl.node_grid(ci)
            own = spl.owned[ci].ravel()
            for p_idx in np.nonzero(~own)[0]:
                # inherited: stored value equals the donor's evaluation
                pt = pts[p_idx]
                donors = [dj for dj in range(cov.ncells)
                          if pos[dj] < pos[ci]
                          and np.all(pt >= lo[dj] - 1e-12) and np.all(pt <= hi[dj] + 1e-12)]
                donor = min(donors, key=lambda dj: pos[dj])
                worst = max(worst, abs(spl.values[ci].ravel()[p_idx]
                                       - spl.eval_cell(donor, pt[None, :])[0]))
        assert worst <= 1e-13

    def test_single_donor_faces_are_continuous(self):
        # faces whose later cell's node line fits inside one earlier neighbour
        # reproduce that neighbour's trace exactly
        f = lambda t1, t2: (t1 * t2) ** 2.5
        cov = boundary_layer_covering(3, 1.0, 2, 1.5)
        order = causal_order(cov)
        spl = build_tensor_spline(f, cov, 4, order=order)
        pos = {ci: p for p, ci in enumerate(order)}
        lo, hi = cov.lo_array, cov.hi_array
        rng = np.random.default_rng(3)
        checked = 0
        worst = 0.0
        for ci in range(cov.ncells):
            for cj in range(cov.ncells):
                if ci == cj:
                    continue
                for ax in range(2):
                    o = 1 - ax
                    if abs(hi[ci][ax] - lo[cj][ax]) > 1e-14:
                        continue
                    a = max(lo[ci][o], lo[cj][o])
                    b = min(hi[ci][o], hi[cj][o])
                    if b - a <= 1e-14:
                        continue
                    later, earlier = (cj, ci) if pos[cj] > pos[ci] else (ci, cj)
                    nodes = spl.nodesets[later][o].nodes
                    if not np.all((nodes >= lo[earlier][o] - 1e-13)
                                  & (nodes <= hi[earlier][o] + 1e-13)):
                        continue
                    ts = a + (b - a) * rng.random(100)
                    pts = np.zeros((100, 2))
                    pts[:, ax] = hi[ci][ax]
                    pts[:, o] = ts
                    worst = max(worst, float(np.max(np.abs(
                        spl.eval_cell(ci, pts) - spl.eval_cell(cj, pts)))))
                    checked += 1
        assert checked > 0
        assert worst <= 1e-10

    def test_projection_idempotence(self):
        f = lambda t1, t2: np.sin(t1) * (1 + t2 ** 2)
        cov = boundary_layer_covering(2, 1.0, 2, 1.5)
        order = causal_order(cov)
        spl = build_tensor_spline(f, cov, 4, order=order)
        again = build_tensor_spline(lambda a, b: spl.eval(np.column_stack([a, b]))
                                    if np.ndim(a) else spl.eval([[a, b]])[0],
                                    cov, 4, order=order)
        worst = max(float(np.max(np.abs(spl.values[ci] - again.values[ci])))
                    for ci in range(cov.ncells))
        assert worst <= 1e-13

    def test_eval_boundary_resolves_to_lower_cell(self):
        f = lambda t1, t2: t1 * t2
        cov = boundary_layer_covering(2, 1.0, 2, 1.0)
        spl = build_tensor_spline(f, cov, 3)
        # (0.5, 0.25) sits on the face between two cells; both traces agree here
        v = spl.eval([[0.5, 0.25]])[0]
        assert v == pytest.approx(0.125, abs=1e-13)

    @pytest.mark.parametrize("which", ["qstar-2d-8", "bstar-2d-5", "qqstar-2d-4", "bstar-1d-16"])
    def test_cell_of_matches_rank_ordered_scan(self, which):
        # Covering.lookup under three priorities (causal rank, a random
        # permutation, one cell's shadow predecessors) against a box scan of
        # every cell; inherited values must be the scan donors' evaluations
        # bit for bit in 2D, and so must ``eval`` be; in 1D, whose node counts
        # differ, to ONE_AXIS_RTOL of the rounding scale. The march's donor
        # map, which looks up boundary nodes only, must give every cell the
        # scan's donors under that cell's shadow priority on all its nodes:
        # interior nodes never inherit
        from wsvie.funclass import derive_class_params
        from wsvie.interp import lagrange_basis_matrix
        from wsvie.mesh import shadow_matrix
        from wsvie.solver import preset_1d, preset_2d
        from wsvie.spline import _donated, _donor_rows, _nodal

        kind, l, N = {"qstar-2d-8": ("q_star", 2, 8), "bstar-2d-5": ("b_star", 2, 5),
                      "qqstar-2d-4": ("q_double_star", 2, 4), "bstar-1d-16": ("b_star", 1, 16)}[which]
        params = derive_class_params(2, 2.5 if kind.startswith("q") else 0.5, kind, l=l)
        if l == 1:
            mesh, degrees, fam = preset_1d(params, N)
            cov = mesh.covering()
        else:
            cov, degrees, fam = preset_2d(params, N)
        spl = build_tensor_spline(lambda *t: np.cos(sum(t)), cov, degrees, family=fam)
        padded = spl.tables

        def assert_evaluates(got, cells, at):
            # against eval_cell, cell by cell
            expected, scale = np.zeros(cells.size), np.zeros(cells.size)
            for ci in np.unique(cells):
                expected[cells == ci] = spl.eval_cell(ci, at[cells == ci])
                if l == 1:
                    basis = lagrange_basis_matrix(spl.nodesets[ci][0], at[cells == ci, 0])
                    scale[cells == ci] = np.abs(basis) @ np.abs(spl.values[ci])
            if l == 2:
                assert np.array_equal(got, expected)
            else:
                assert np.all(np.abs(got - expected) <= ONE_AXIS_RTOL * scale)
        rng = np.random.default_rng(3)
        axis = np.linspace(0.0, 1.0, 101)
        grid = np.stack(np.meshgrid(*[axis] * l, indexing="ij"), -1).reshape(-1, l)
        corners = np.vstack([cov.lo_array, cov.hi_array, cov.lo_array * (1 + 1e-13),
                             cov.hi_array * (1 - 1e-13)])
        outside = np.array([[-0.1] * l, [1.0 + 1e-9] * l, [1.0 + 1e-13] * l, [0.5] * (l - 1) + [2.0]])
        pts = np.vstack([grid, corners, spl.node_points().reshape(-1, l), rng.random((2000, l)),
                         outside])
        rank, shadow = cov.causal_rank(), shadow_matrix(cov)
        middle = np.argsort(rank)[cov.ncells // 2]
        priorities = {"rank": rank, "permutation": rng.permutation(cov.ncells),
                      "shadow": np.where(shadow[:, middle], rank, cov.ncells)}
        refs = {name: _box_scan(cov, pts, priority) for name, priority in priorities.items()}
        for name, priority in priorities.items():
            ref = refs[name]
            assert np.array_equal(cov.lookup(pts, priority), ref), name
            donors, at = ref[ref >= 0], pts[ref >= 0]
            assert_evaluates(_donated(padded, donors, _donor_rows(padded, donors, at)), donors, at)
        out = spl.cell_of(pts)
        assert np.array_equal(out, refs["rank"])
        assert_evaluates(spl.eval(pts[out >= 0]), out[out >= 0], pts[out >= 0])
        assert np.array_equal(out[-4:] >= 0, [False, False, True, False])
        # a cell outside the predecessors never donates, even to its own nodes
        shadow_only = cov.lookup(spl.node_grid(middle), priorities["shadow"])
        assert middle not in shadow_only and np.any(shadow_only < 0)
        nodal = _nodal(spl, lambda *t: t[0], lambda cand, owner: np.where(
            shadow[cand, owner], rank[cand], cov.ncells))
        for ci in range(cov.ncells):
            own = nodal.own[nodal.cells[ci]]
            donors, at = nodal.donors[nodal.inherit[ci]], nodal.pts[nodal.inherit[ci]]
            nodes = spl.node_grid(ci)
            priority = np.where(shadow[:, ci], rank, cov.ncells)
            scan = _box_scan(cov, nodes, priority)
            assert np.array_equal(cov.lookup(nodes, priority), scan)
            assert np.array_equal(own, scan < 0) and np.array_equal(donors, scan[scan >= 0])
            assert np.array_equal(at, nodes[scan >= 0])

    def test_eval_rejects_points_of_the_wrong_shape(self):
        # a 2D spline dropped a third coordinate, and a scalar or a 1-D
        # array raised IndexError; a 1D spline read an (n, 2) array as 2n points
        cov = boundary_layer_covering(2, 1.0, 2, 1.5)
        spl = build_tensor_spline(lambda a, b: a * b, cov, 3)
        for pts in ([[0.5, 0.5, 0.5]], 0.5, [0.5]):
            with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
                spl.eval(pts)
        assert spl.eval([0.5, 0.5])[0] == pytest.approx(0.25, abs=1e-14)
        spl_1d = build_tensor_spline(lambda t: t, power_graded_mesh(3, 1.0, 1.0).covering(),
                                     [2, 2, 2])
        with pytest.raises(ValueError, match=r"shape \(n, 1\)"):
            spl_1d.eval([[0.25, 0.5]])
        assert spl_1d.eval(0.25) == pytest.approx(0.25, abs=1e-14)
        assert spl_1d.eval([[0.25], [0.5]]) == pytest.approx([0.25, 0.5], abs=1e-14)

    def test_constant_spline(self):
        cov = boundary_layer_covering(2, 1.0, 2, 1.5)
        spl = build_tensor_spline(lambda a, b: np.ones_like(a), cov, 3)
        pts = np.random.default_rng(0).random((50, 2))
        assert spl.eval(pts) == pytest.approx(np.ones(50), abs=1e-13)

    def test_sup_error_of_interpolated_polynomial(self):
        f = lambda t1, t2: (t1 ** 2) * (1 - t2) + 3.0
        cov = boundary_layer_covering(2, 1.0, 2, 2.0)
        spl = build_tensor_spline(f, cov, 4)
        assert sup_error(spl, f, 101) <= 1e-12
        assert max_node_error(spl, f) <= 1e-13

    def test_n_functionals_counts_distinct_nodes(self):
        mesh = power_graded_mesh(4, 1.0, 1.0)
        spl = build_tensor_spline(lambda t: t, mesh.covering(), [3, 3, 3, 3])
        # 4 segments x 3 nodes with 3 shared breakpoints
        assert n_functionals(spl) == 9

    def test_n_functionals_slack_is_relative(self):
        # distinct nodes in the cells near 0 of a deep geometric mesh stay
        # distinct: an absolute slack of 1e-12 T counted 1,276 and 1,369
        from wsvie.funclass import derive_class_params
        from wsvie.solver import preset_1d, preset_2d

        b_star = derive_class_params(2, 0.5, "b_star")
        for N, count in ((40, 1301), (48, 1613)):
            mesh, sched, fam = preset_1d(b_star, N)
            spl = build_tensor_spline(np.sqrt, mesh.covering(), sched, family=fam)
            assert np.unique(spl.node_points()).size == count
            assert n_functionals(spl) == count
        # a face node computed in two cells may differ in the last bit, and
        # counts once: Q* N = 4 has 1,655 exactly distinct node points
        cov, degree, fam = preset_2d(derive_class_params(2, 2.5, "q_star", l=2), 4)
        spl = build_tensor_spline(lambda t1, t2: t1 * t2, cov, degree, family=fam)
        assert np.unique(spl.node_points(), axis=0).shape[0] == 1655
        assert n_functionals(spl) == 1651

    def test_serialization_round_trip(self):
        # a 2D covering, and the one-axis covering of a 1D mesh
        rng = np.random.default_rng(1)
        cov = boundary_layer_covering(2, 1.0, 2, 1.5)
        spl_2d = build_tensor_spline(lambda t1, t2: (t1 * t2) ** 2.5, cov, 3)
        spl_1d = build_tensor_spline(lambda t: t ** 2.5, geometric_mesh(4, 1.0).covering(),
                                     [3, 4, 5, 6, 7], family="chebyshev1_closed")
        for spl, pts in ((spl_2d, rng.random((40, 2))), (spl_1d, rng.random(40))):
            back = tensor_spline_from_dict(spl.to_dict())
            assert back.eval(pts) == pytest.approx(spl.eval(pts), abs=1e-14)

    def test_values_must_match_node_counts(self):
        # a serialized spline comes from JSON: a cell's values of the wrong shape are rejected
        cov = boundary_layer_covering(2, 1.0, 2, 1.5)
        data = build_tensor_spline(lambda t1, t2: t1 * t2, cov, 3).to_dict()
        data["values"][1] = data["values"][1][:2]
        with pytest.raises(ValueError, match="node counts"):
            tensor_spline_from_dict(data)

    def test_rebinding_a_cell_raises(self):
        # values are views of the padded tables: a rebound cell would leave them stale,
        # so only writes in place are possible, and evaluation sees them
        cov = boundary_layer_covering(2, 1.0, 2, 1.5)
        spl = build_tensor_spline(lambda t1, t2: t1 * t2, cov, 3)
        with pytest.raises(TypeError):
            spl.values[0] = spl.values[0] + 1.0
        with pytest.raises(TypeError):
            spl.owned[0] = ~spl.owned[0]
        spl.values[0][...] += 1.0
        assert max_node_error(spl, lambda t1, t2: t1 * t2) == pytest.approx(1.0, abs=1e-15)

    def test_sup_error_validates_samples(self):
        cov = boundary_layer_covering(2, 1.0, 2, 1.5)
        spl = build_tensor_spline(lambda a, b: a * b, cov, 3)
        with pytest.raises(ValueError):
            sup_error(spl, lambda a, b: a * b, 10)


def _random_spline(which):
    """A spline of random values per cell over a preset covering: it jumps by O(1)
    across every face, so a face point read from the wrong cell shows."""
    from wsvie.funclass import derive_class_params
    from wsvie.solver import preset_1d, preset_2d
    from wsvie.spline import _unfilled

    kind, l, N = {"bstar-1d-16": ("b_star", 1, 16), "qstar-2d-4": ("q_star", 2, 4),
                  "bstar-2d-3": ("b_star", 2, 3)}[which]
    params = derive_class_params(2, 2.5 if kind == "q_star" else 0.5, kind, l=l)
    if l == 1:
        mesh, degrees, fam = preset_1d(params, N)
        cov = mesh.covering()
    else:
        cov, degrees, fam = preset_2d(params, N)
    spl = _unfilled(cov, degrees, fam)
    rng = np.random.default_rng(5)
    for v in spl.values:
        v[...] = rng.standard_normal(v.shape)
    return spl


def _edge_axis(cov, a):
    """Axis a's cell edges, each +-1 ulp, x (1 +- 5e-13) (inside the closure slack) and
    x (1 +- 2e-12) (outside it), and 37 uniform points, all within the closure of [0, T]:
    among them the subnormal next to the edge 0."""
    edges = np.unique(np.concatenate([cov.lo_array[:, a], cov.hi_array[:, a]]))
    near = [np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    near += [edges * (1 + d) for d in (5e-13, -5e-13, 2e-12, -2e-12)]
    x = np.unique(np.concatenate([edges, *near, np.linspace(0.0, cov.T, 37)]))
    return x[(x >= 0) & (x <= cov.T * (1 + 5e-13))]


class TestEvalGrid:
    @pytest.mark.parametrize("which", ["bstar-1d-16", "qstar-2d-4", "bstar-2d-3"])
    def test_matches_eval_at_and_near_every_face(self, which):
        # each point's value comes from the cell cell_of picks: of the cells whose
        # closure holds it, the one of lowest causal rank
        spl = _random_spline(which)
        l = spl.covering.l
        axes = [_edge_axis(spl.covering, a) for a in range(l)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, l)
        got = spl.eval_grid(axes)
        assert got.shape == tuple(x.size for x in axes)
        scale = np.max(np.abs(spl.node_values()))
        assert np.max(np.abs(got.ravel() - spl.eval(pts))) <= 1e-13 * scale

    def test_unsorted_axes_give_permuted_values(self):
        spl = _random_spline("qstar-2d-4")
        rng = np.random.default_rng(1)
        axes = [_edge_axis(spl.covering, a) for a in range(2)]
        perms = [rng.permutation(x.size) for x in axes]
        got = spl.eval_grid([x[p] for x, p in zip(axes, perms)])
        assert np.array_equal(got, spl.eval_grid(axes)[np.ix_(*perms)])

    def test_points_outside_the_domain_raise(self):
        spl, spl_1d = _random_spline("bstar-2d-3"), _random_spline("bstar-1d-16")
        T, inside = spl.covering.T, np.linspace(0.0, spl.covering.T, 5)
        for bad in (-1e-3, -1e-300, T * (1 + 2e-12), 2 * T, np.nan):
            for axes in ([inside, np.append(inside, bad)], [np.append(inside, bad), inside]):
                with pytest.raises(ValueError, match="outside"):
                    spl.eval_grid(axes)
            with pytest.raises(ValueError, match="outside"):
                spl_1d.eval_grid([np.append(inside, bad)])
        for axes in ([inside], [inside] * 3, [inside, inside[:, None]]):
            with pytest.raises(ValueError, match="1-D coordinate arrays"):
                spl.eval_grid(axes)

    def test_nan_value_propagates_to_sup_error(self):
        spl = _random_spline("qstar-2d-4")
        spl.values[spl.cell_of(np.array([[0.5, 0.5]]))[0]][0, 0] = np.nan
        assert np.isnan(sup_error(spl, lambda t1, t2: t1 * t2))

    @pytest.mark.parametrize("kind, N", [("b_star", 3), ("q_star", 4)])
    def test_sup_error_matches_the_point_path_on_solutions(self, kind, N):
        from wsvie.cli import get_problem
        from wsvie.funclass import derive_class_params
        from wsvie.solver import preset_2d, solve_2d

        prob = get_problem("corner-power-2d")
        params = derive_class_params(2, 2.5 if kind == "q_star" else 0.5, kind, l=2)
        sol = solve_2d(prob, *preset_2d(params, N))
        axis = np.linspace(0.0, prob.T, 201)
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        point = np.max(np.abs(prob.exact(*pts.T) - sol.eval(pts)))
        scale = np.max(np.abs(sol.node_values()))
        assert abs(sup_error(sol, prob.exact, 201) - point) <= 1e-14 * scale

    @pytest.mark.parametrize("which", ["qstar-2d-4", "bstar-2d-3", "bstar-1d-16"])
    def test_basis_rows_in_one_call_per_axis(self, which, monkeypatch):
        # one batched basis call per axis over the padded node table gives the rows
        # of every (interval, sub-grid): the values of one call per interval, to the
        # bit where an axis has one node count (every 2D preset), and within 4 eps
        # of max |v| for 1D B* N = 16 (node counts 2 to 40), where padding nodes
        # change the order of the barycentric sums (measured 0.81 eps)
        import wsvie.spline as spline_module
        from wsvie.interp import lagrange_basis_matrix

        spl = _random_spline(which)
        cov = spl.covering
        axes = [_edge_axis(cov, a) for a in range(cov.l)]
        calls = []

        def counted(nodeset, points):
            calls.append(np.size(points))
            return lagrange_basis_matrix(nodeset, points)

        monkeypatch.setattr(spline_module, "lagrange_basis_matrix", counted)
        got = spl.eval_grid(axes)
        assert len(calls) == cov.l
        ref = _eval_grid_per_interval(spl, axes)
        if which.endswith("2d-4") or which.endswith("2d-3"):
            assert np.array_equal(got, ref)
        else:
            top = max(np.max(np.abs(v)) for v in spl.values)
            assert 0 < np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * top


def _eval_grid_per_interval(spl, axes):
    """``TensorSpline.eval_grid`` before the batched basis: one ``lagrange_basis_matrix``
    call per axis and distinct (interval, sub-grid), on the cell's own node set."""
    from wsvie.interp import lagrange_basis_matrix
    from wsvie.mesh import closure_bounds

    cov = spl.covering
    order = [np.argsort(x, kind="stable") for x in axes]
    xs = [x[o] for x, o in zip(axes, order)]
    bounds = [closure_bounds(x) for x in xs]
    start = np.array([np.searchsorted(up, lo) for (_, up), lo in zip(bounds, cov.lo_array.T)])
    stop = np.array([np.searchsorted(low, hi, side="right")
                     for (low, _), hi in zip(bounds, cov.hi_array.T)])
    live = np.flatnonzero(np.all(stop > start, axis=0))
    out, rows, turn = np.empty([x.size for x in xs]), [{} for _ in xs], (*range(1, cov.l), 0)
    for ci in live[np.argsort(-cov.causal_rank()[live])]:
        block, v = tuple(map(slice, start[:, ci], stop[:, ci])), spl.values[ci]
        for ns, x, cut, seen in zip(spl.nodesets[ci], xs, block, rows):
            key = (ns.family, ns.a, ns.b, ns.m, cut.start, cut.stop)
            if key not in seen:
                seen[key] = lagrange_basis_matrix(ns, x[cut]).T
            v = v.transpose(turn) @ seen[key]
        out[block] = v
    return out[np.ix_(*map(np.argsort, order))]


def _per_segment_nodes(a, b, family, m):
    """``build_nodes``' construction before the node sets of a spline were built in
    one vector step: a closed family's nodes on one segment, then their barycentric
    weights (the reference for ``node_table``)."""
    from wsvie.interp import chebyshev1_roots, legendre_roots

    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    roots = np.empty(0)
    if m > 2:
        roots = legendre_roots(m - 2) if family == "legendre_closed" else chebyshev1_roots(m - 2)
    nodes = np.concatenate([[a], mid + half * roots, [b]])
    diff = (nodes[:, None] - nodes[None, :]) * (4.0 / (nodes[-1] - nodes[0]))
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / diff.prod(axis=1)
    return nodes, w / np.max(np.abs(w))


class TestNodeConstruction:
    @pytest.mark.parametrize("family", ["legendre_closed", "chebyshev1_closed"])
    @pytest.mark.parametrize("which", ["boundary-2d", "corner-2d", "geometric-2d",
                                       "power-1d", "geometric-1d"])
    def test_node_sets_match_the_per_segment_construction(self, which, family):
        # every node and weight of every cell and axis, to the bit, for one node
        # count per covering and for counts mixed across cells; the padded tables
        # are those of the per-segment node sets
        from wsvie.interp import NodeSet
        from wsvie.mesh import corner_layer_covering, geometric_covering
        from wsvie.spline import _padded, _unfilled

        cov = {"boundary-2d": lambda: boundary_layer_covering(8, 1.0, 2, 2.5),
               "corner-2d": lambda: corner_layer_covering(8, 1.0, 2, 2.5),
               "geometric-2d": lambda: geometric_covering(5, 1.0, 2),
               "power-1d": lambda: power_graded_mesh(32, 1.0, 1.5).covering(),
               "geometric-1d": lambda: geometric_mesh(32, 1.0).covering()}[which]()
        counts = (2, 3, 5, 14, 23, 40)
        for degrees in (*counts, [counts[ci % 6] for ci in range(cov.ncells)]):
            spl = _unfilled(cov, degrees, family)
            reference = []
            cells = zip(cov.lo_array.tolist(), cov.hi_array.tolist(), spl.nodesets)
            for ci, (lo, hi, nsets) in enumerate(cells):
                m = degrees if isinstance(degrees, int) else degrees[ci]
                reference.append([])
                for a, ns in enumerate(nsets):
                    assert (ns.a, ns.b, ns.family, ns.m) == (lo[a], hi[a], family, m)
                    nodes, weights = _per_segment_nodes(lo[a], hi[a], family, m)
                    assert np.array_equal(ns.nodes, nodes) and np.array_equal(ns.weights, weights)
                    reference[-1].append(NodeSet(ns.a, ns.b, family, m, nodes, weights))
            padded = _padded(reference)
            assert np.array_equal(spl.tables.lead, padded.lead)
            for got, ref in zip(spl.tables.axes, padded.axes, strict=True):
                assert np.array_equal(got.nodes, ref.nodes)
                assert np.array_equal(got.weights, ref.weights)


class TestIntervalTable:
    @pytest.mark.parametrize("degrees", ["one-m", "mixed-m"])
    def test_ids_of_each_axis_interval_and_node_count(self, degrees):
        # per axis a cell's id is that of its (m, family, a, b), numbered in that
        # order, and ``first`` holds each id's first cell: two cells on one
        # interval share an id, unless per-cell node counts differ there
        from wsvie.mesh import geometric_covering
        from wsvie.spline import _unfilled

        cov = geometric_covering(4, 1.0, 2)
        counts = 5 if degrees == "one-m" else [(3, 5, 7)[ci % 3] for ci in range(cov.ncells)]
        spl = _unfilled(cov, counts, "chebyshev1_closed")
        for a, tab in enumerate(spl.tables.axes):
            keys = [(nsets[a].m, nsets[a].family, nsets[a].a, nsets[a].b) for nsets in spl.nodesets]
            number = {key: i for i, key in enumerate(sorted(set(keys)))}
            assert tab.interval.tolist() == [number[key] for key in keys]
            assert tab.first.tolist() == [keys.index(key) for key in number]
            ms = np.array([key[0] for key in keys])
            on_one = ((cov.lo_array[:, None, a] == cov.lo_array[:, a])
                      & (cov.hi_array[:, None, a] == cov.hi_array[:, a]))
            shared = tab.interval[:, None] == tab.interval
            assert np.array_equal(shared, on_one & (ms[:, None] == ms))
            assert (on_one & ~np.eye(cov.ncells, dtype=bool)).any()
            assert (on_one & ~shared).any() == (degrees == "mixed-m")

    def test_a_rebuilt_spline_has_the_same_ids_and_walk(self):
        # tensor_spline_from_dict builds one NodeSet per cell and axis, none
        # shared: the same ids as the solver's spline, and on B* N = 4, whose
        # walk reads far classes, the same weights and collocation residual
        import hashlib

        import wsvie.solver as solver
        from wsvie.cli import get_problem
        from wsvie.funclass import derive_class_params
        from wsvie.mesh import shadow_matrix

        prob = get_problem("corner-power-2d")
        sol = solver.solve_2d(prob, *solver.preset_2d(
            derive_class_params(2, 0.5, "b_star", l=2), 4))
        cov = sol.covering
        assert solver.quad._rule_points(sol.nodesets[0][0].m) >= solver._CLASS_POINTS
        rebuilt = tensor_spline_from_dict(sol.to_dict())
        for own, ref in zip(rebuilt.owned, sol.owned, strict=True):
            own[...] = ref
        assert len({id(ns) for nsets in rebuilt.nodesets for ns in nsets}) == 2 * cov.ncells
        for got, ref in zip(rebuilt.tables.axes, sol.tables.axes, strict=True):
            assert np.array_equal(got.interval, ref.interval)
            assert np.array_equal(got.first, ref.first)
        shadow = shadow_matrix(cov)

        def walk(spl):   # per cell of the march, a digest of all its weights
            return [hashlib.sha1(b"".join(w.tobytes() for w in M(0, len(srcs)))).hexdigest()
                    for _, srcs, M in solver._cell_moments(
                        prob.kernel, spl, np.argsort(cov.causal_rank()),
                        lambda ci: np.append(np.nonzero(shadow[:, ci])[0], ci))]

        assert walk(rebuilt) == walk(sol)
        assert solver.collocation_residual(prob, rebuilt) == solver.collocation_residual(prob, sol)
