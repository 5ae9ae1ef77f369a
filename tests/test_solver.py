from functools import partial

import numpy as np
import pytest

from wsvie.cli import get_problem
from wsvie.mesh import boundary_layer_covering, causal_order, shadow_matrix
from wsvie.solver import (KernelSpec, VieProblem, collocation_residual, oracle_solve,
                          preset_1d, preset_2d, residual, solve_1d, solve_2d)
from wsvie.spline import build_tensor_spline, max_node_error, sup_error

Q_05 = dict(r=2, gamma=0.5, kind="q_star")


@pytest.fixture(scope="module")
def q_params():
    from wsvie.funclass import derive_class_params

    return derive_class_params(2, 0.5, "q_star")


@pytest.fixture(scope="module")
def q25_params():
    from wsvie.funclass import derive_class_params

    return derive_class_params(2, 2.5, "q_star")


@pytest.fixture(scope="module")
def q25_params_2d():
    from wsvie.funclass import derive_class_params

    return derive_class_params(2, 2.5, "q_star", l=2)


@pytest.fixture(scope="module")
def b_params_2d():
    from wsvie.funclass import derive_class_params

    return derive_class_params(2, 0.5, "b_star", l=2)


class TestSolve1D:
    def test_manufactured_corner_solution(self, q_params):
        prob = get_problem("corner-power-1d")
        mesh, sched, fam = preset_1d(q_params, 16)
        sol = solve_1d(prob, mesh, sched, fam)
        assert max_node_error(sol, prob.exact) <= 1e-6

    def test_zero_kernel_interpolates_rhs(self, q_params):
        prob = get_problem("poly-k0-1d")
        mesh, sched, fam = preset_1d(q_params, 6)
        sol = solve_1d(prob, mesh, sched, fam)
        assert max_node_error(sol, prob.rhs) <= 1e-13

    def test_zero_smooth_factor_matches_zero_kernel(self, q_params):
        rhs = lambda t: 1.0 + 0.5 * t
        kern = KernelSpec(exponents=(2.5,), smooth_factor=lambda t, tau: 0.0 * t * tau)
        prob = VieProblem(l=1, T=1.0, kernel=kern, rhs=rhs, exact=rhs)
        mesh, sched, fam = preset_1d(q_params, 5)
        sol = solve_1d(prob, mesh, sched, fam)
        assert max_node_error(sol, rhs) <= 1e-12

    def test_homogeneous_equation_trivial(self, q_params):
        prob = VieProblem(l=1, T=1.0, kernel=KernelSpec(exponents=(2.5,)),
                          rhs=lambda t: 0.0 * t)
        mesh, sched, fam = preset_1d(q_params, 8)
        sol = solve_1d(prob, mesh, sched, fam)
        assert max(float(np.max(np.abs(v))) for v in sol.values) <= 1e-12

    def test_smooth_factor_against_manufactured(self, q_params):
        # kernel 2 (t - tau)^2.5: rhs manufactured from x = t^2.5
        from wsvie.quad import power_moment

        c = power_moment(2.5, 2.5, 1.0)
        kern = KernelSpec(exponents=(2.5,),
                          smooth_factor=lambda t, tau: 2.0 + 0.0 * t * tau)
        prob = VieProblem(l=1, T=1.0, kernel=kern,
                          rhs=lambda t: t ** 2.5 - 2.0 * c * t ** 6,
                          exact=lambda t: t ** 2.5)
        mesh, sched, fam = preset_1d(q_params, 12)
        sol = solve_1d(prob, mesh, sched, fam)
        assert max_node_error(sol, prob.exact) <= 1e-6

    @pytest.mark.parametrize("N", [40, 48])
    def test_abel_deep_geometric_mesh(self, N):
        # the first segments are 2^-N wide: a containment slack that is not
        # relative to |t| would make their nodes inherit from a neighbour
        from wsvie.funclass import derive_class_params
        from wsvie.quad import power_moment

        h0 = power_moment(-0.5, 0.5, 1.0)
        prob = VieProblem(l=1, T=1.0, kernel=KernelSpec(exponents=(-0.5,)),
                          rhs=lambda t: t ** 0.5 - h0 * t, exact=lambda t: t ** 0.5)
        mesh, sched, fam = preset_1d(derive_class_params(2, 0.5, "b_star"), N)
        sol = solve_1d(prob, mesh, sched, fam)
        assert max_node_error(sol, prob.exact) <= 1e-12

    @pytest.mark.parametrize("kind", ["q_star", "b_star"])
    @pytest.mark.parametrize("p", [0.3, 0.7, 2.5])
    def test_spline_space_solution_reproduced(self, p, kind):
        # x = 1 + t lies in the spline space, so only the moments limit the
        # node error; the singular rows must be exact for every p > -1
        from wsvie.funclass import derive_class_params
        from wsvie.quad import power_moment

        c0, c1 = power_moment(p, 0.0, 1.0), power_moment(p, 1.0, 1.0)
        prob = VieProblem(l=1, T=1.0, kernel=KernelSpec(exponents=(p,)),
                          rhs=lambda t: 1.0 + t - c0 * t ** (p + 1) - c1 * t ** (p + 2),
                          exact=lambda t: 1.0 + t)
        mesh, sched, fam = preset_1d(derive_class_params(2, 0.5, kind), 4)
        sol = solve_1d(prob, mesh, sched, fam)
        assert max_node_error(sol, prob.exact) <= 1e-13

    def test_open_family_solves_every_node(self, q_params):
        # open nodes miss the breakpoints, so no node is inherited
        prob = get_problem("corner-power-1d")
        mesh, sched, _ = preset_1d(q_params, 8)
        sol = solve_1d(prob, mesh, sched, "chebyshev1_open")
        assert all(own.all() for own in sol.owned)
        assert max_node_error(sol, prob.exact) <= 1e-6

    def test_schedule_mismatch_rejected(self, q_params):
        prob = get_problem("corner-power-1d")
        mesh, _, fam = preset_1d(q_params, 8)
        with pytest.raises(ValueError):
            solve_1d(prob, mesh, [3, 3], fam)

    def test_wrong_dimension_rejected(self, q_params):
        prob = get_problem("corner-power-2d")
        mesh, sched, fam = preset_1d(q_params, 4)
        with pytest.raises(ValueError):
            solve_1d(prob, mesh, sched, fam)


class TestOracle1D:
    def test_self_check_against_exact(self):
        prob = get_problem("corner-power-1d")
        oracle = oracle_solve(prob, 200)
        assert np.max(np.abs(oracle.values - prob.exact(oracle.axes[0]))) <= 1e-3

    def test_cross_validation_cos_rhs(self, q_params):
        prob = get_problem("cos-rhs-1d")
        oracle = oracle_solve(prob, 200)
        mesh, sched, fam = preset_1d(q_params, 16)
        sol = solve_1d(prob, mesh, sched, fam)
        assert np.max(np.abs(sol.eval(oracle.axes[0]) - oracle.values)) <= 1e-3

    def test_zero_kernel_returns_rhs_samples(self):
        prob = get_problem("poly-k0-1d")
        oracle = oracle_solve(prob, 50)
        assert oracle.values == pytest.approx(prob.rhs(oracle.axes[0]))

    def test_smooth_factor_supported(self, q_params):
        kern = KernelSpec(exponents=(2.5,), smooth_factor=lambda t, tau: 1.0 + 0.0 * tau)
        prob_h = VieProblem(l=1, T=1.0, kernel=kern, rhs=np.cos)
        prob_plain = get_problem("cos-rhs-1d")
        a = oracle_solve(prob_h, 100)
        b = oracle_solve(prob_plain, 100)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_grid_cap(self):
        prob = get_problem("corner-power-1d")
        with pytest.raises(ValueError):
            oracle_solve(prob, 500)


class TestOracle2D:
    def test_self_check_against_exact(self):
        prob = get_problem("corner-power-2d")
        oracle = oracle_solve(prob, 40)
        t1, t2 = oracle.axes
        exact = prob.exact(t1[:, None], t2[None, :])
        assert np.max(np.abs(oracle.values - exact)) <= 5e-3

    def test_zero_kernel(self):
        prob = get_problem("poly-k0-2d")
        oracle = oracle_solve(prob, 10)
        t1, t2 = oracle.axes
        assert oracle.values == pytest.approx(prob.rhs(t1[:, None], t2[None, :]))

    def test_smooth_factor_unsupported(self):
        kern = KernelSpec(exponents=(2.5, 2.5),
                          smooth_factor=lambda a, b, c, d: 1.0)
        prob = VieProblem(l=2, T=1.0, kernel=kern, rhs=lambda a, b: a * b)
        with pytest.raises(NotImplementedError):
            oracle_solve(prob, 10)


class TestSolve2D:
    def test_corner_power_bstar_n3(self, b_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(b_params_2d, 3)
        sol = solve_2d(prob, cov, degree, fam)
        assert max_node_error(sol, prob.exact, owned_only=True) <= 1e-6

    def test_corner_power_qstar_small(self, q25_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(q25_params_2d, 2)
        sol = solve_2d(prob, cov, degree, fam)
        assert max_node_error(sol, prob.exact, owned_only=True) <= 1e-5

    def test_homogeneous_2d(self, q25_params_2d):
        prob = VieProblem(l=2, T=1.0, kernel=KernelSpec(exponents=(2.5, 2.5)),
                          rhs=lambda a, b: 0.0 * a * b)
        cov, degree, fam = preset_2d(q25_params_2d, 2)
        sol = solve_2d(prob, cov, degree, fam)
        assert max(float(np.max(np.abs(v))) for v in sol.values) <= 1e-12

    def test_zero_kernel_2d(self, q25_params_2d):
        prob = get_problem("poly-k0-2d")
        cov, degree, fam = preset_2d(q25_params_2d, 2)
        sol = solve_2d(prob, cov, degree, fam)
        assert max_node_error(sol, prob.rhs) <= 1e-12

    def test_generic_smooth_factor_path_matches_fast_path(self, q25_params_2d):
        prob = get_problem("corner-power-2d")
        kern = KernelSpec(exponents=(2.5, 2.5),
                          smooth_factor=lambda t1, t2, u1, u2: np.ones(
                              np.broadcast(t1, t2, u1, u2).shape))
        prob_h = VieProblem(l=2, T=1.0, kernel=kern, rhs=prob.rhs, exact=prob.exact)
        cov, degree, fam = preset_2d(q25_params_2d, 1)
        fast = solve_2d(prob, cov, degree, fam)
        slow = solve_2d(prob_h, cov, degree, fam)
        dev = max(float(np.max(np.abs(fast.values[ci] - slow.values[ci])))
                  for ci in range(cov.ncells))
        assert dev <= 1e-9

    def test_collocation_residual_small(self, q25_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(q25_params_2d, 3)
        sol = solve_2d(prob, cov, degree, fam)
        assert collocation_residual(prob, sol) <= 1e-9

    def test_collocation_residual_1d(self, q_params):
        prob = get_problem("corner-power-1d")
        mesh, sched, fam = preset_1d(q_params, 8)
        sol = solve_1d(prob, mesh, sched, fam)
        assert collocation_residual(prob, sol) <= 1e-10

    def test_collocation_residual_smooth_factor_1d(self, q25_params):
        # h == 2 with x = t^2.5: the residual must see the smooth factor
        from wsvie.quad import power_moment

        c = power_moment(2.5, 2.5, 1.0)
        kern = KernelSpec(exponents=(2.5,), smooth_factor=lambda t, tau: 2.0 + 0.0 * t * tau)
        prob = VieProblem(l=1, T=1.0, kernel=kern, rhs=lambda t: t ** 2.5 - 2.0 * c * t ** 6,
                          exact=lambda t: t ** 2.5)
        mesh, sched, fam = preset_1d(q25_params, 12)
        sol = solve_1d(prob, mesh, sched, fam)
        assert collocation_residual(prob, sol) <= 1e-10

    def test_collocation_residual_smooth_factor_2d(self, q25_params_2d):
        from wsvie.quad import power_moment

        c = power_moment(2.5, 2.5, 1.0)
        kern = KernelSpec(exponents=(2.5, 2.5), smooth_factor=lambda t1, t2, u1, u2: np.full(
            np.broadcast(t1, t2, u1, u2).shape, 2.0))
        prob = VieProblem(l=2, T=1.0, kernel=kern,
                          rhs=lambda t1, t2: (t1 * t2) ** 2.5 - 2.0 * c * c * (t1 * t2) ** 6,
                          exact=lambda t1, t2: (t1 * t2) ** 2.5)
        cov, degree, fam = preset_2d(q25_params_2d, 1)
        sol = solve_2d(prob, cov, degree, fam)
        assert collocation_residual(prob, sol) <= 1e-9

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("l,kind,gamma", [(2, "q_star", 2.5), (2, "q_double_star", 2.5),
                                              (2, "b_star", 0.5), (1, "q_star", 2.5),
                                              (1, "b_star", 0.5)],
                             ids=["q_star-2.5", "q_double_star-2.5", "b_star-0.5",
                                  "1d-q_star-2.5", "1d-b_star-0.5"])
    def test_zero_kernel_matches_tensor_spline(self, l, kind, gamma, N):
        # without a kernel the solver only inherits and samples, like the interpolant
        from wsvie.funclass import derive_class_params
        from wsvie.spline import build_spline_1d

        preset, solve, build = ((preset_1d, solve_1d, build_spline_1d) if l == 1
                                else (preset_2d, solve_2d, build_tensor_spline))
        prob = get_problem(f"poly-k0-{l}d")
        disc, degrees, fam = preset(derive_class_params(2, gamma, kind, l=l), N)
        sol = solve(prob, disc, degrees, fam)
        spl = build(prob.rhs, disc, degrees, family=fam)
        assert len(sol.values) == len(spl.values)
        for ci in range(len(sol.values)):
            assert np.array_equal(sol.values[ci], spl.values[ci])
            assert np.array_equal(sol.owned[ci], spl.owned[ci])

    def test_order_invariance(self, q25_params_2d):
        import heapq

        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(q25_params_2d, 3)
        S = shadow_matrix(cov)
        indeg = S.sum(axis=0).astype(int)
        lo = cov.lo_array
        keys = [(-float(lo[i].sum()), tuple(-lo[i]), i) for i in range(cov.ncells)]
        ready = [keys[i] for i in range(cov.ncells) if indeg[i] == 0]
        heapq.heapify(ready)
        alt = []
        while ready:
            _, _, i = heapq.heappop(ready)
            alt.append(i)
            for j in np.nonzero(S[i])[0]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, keys[j])
        assert alt != causal_order(cov)
        from wsvie.mesh import verify_causal_order

        assert verify_causal_order(cov, alt)
        s1 = solve_2d(prob, cov, degree, fam)
        s2 = solve_2d(prob, cov, degree, fam, order=alt)
        dev = max(float(np.max(np.abs(s1.values[ci] - s2.values[ci])))
                  for ci in range(cov.ncells))
        assert dev <= 1e-9

    def test_invalid_order_rejected(self, q25_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(q25_params_2d, 2)
        with pytest.raises((ValueError, RuntimeError)):
            solve_2d(prob, cov, degree, fam, order=list(range(cov.ncells))[::-1])


def _per_pair_moments(kern, nodesets, targets, sources, quad_n):
    """Reference for ``solver._cell_moments``: one call per (target, source, axis).

    Each source's moments are computed at the target grid itself and handed
    over as lists, so ``_history`` sums the sources one by one.
    """
    import wsvie.solver as solver

    def moments(grid, srcs, lo, hi):
        return [[solver.kernel_moments(x, p, nodesets[di][a].a, nodesets[di][a].b,
                                       nodesets[di][a], quad_n)
                 for di in srcs[lo:hi]] for a, (x, p) in enumerate(zip(grid, kern.exponents))]

    for key, grid in targets:
        srcs = sources(key)
        if kern is None or kern.smooth_factor is not None:
            yield key, srcs, partial(solver._cubature, kern, grid,
                                     [nodesets[di] for di in srcs], quad_n)
        else:
            yield key, srcs, partial(moments, grid, srcs)


def _table_case(case):
    """(problem, solve, discretisation) of one equivalence case."""
    from wsvie.funclass import derive_class_params
    from wsvie.quad import power_moment

    c = power_moment(2.5, 2.5, 1.0)
    if case == "abel-1d-bstar-8":
        h0 = power_moment(-0.5, 0.5, 1.0)
        prob = VieProblem(l=1, T=1.0, kernel=KernelSpec(exponents=(-0.5,)),
                          rhs=lambda t: t ** 0.5 - h0 * t, exact=lambda t: t ** 0.5)
        return prob, solve_1d, preset_1d(derive_class_params(2, 0.5, "b_star"), 8)
    if case == "h2-1d-qstar-6":
        kern = KernelSpec(exponents=(2.5,), smooth_factor=lambda t, tau: 2.0 + 0.0 * t * tau)
        prob = VieProblem(l=1, T=1.0, kernel=kern, rhs=lambda t: t ** 2.5 - 2.0 * c * t ** 6)
        return prob, solve_1d, preset_1d(derive_class_params(2, 2.5, "q_star"), 6)
    if case == "h2-2d-qstar-2":
        kern = KernelSpec(exponents=(2.5, 2.5), smooth_factor=lambda t1, t2, u1, u2: np.full(
            np.broadcast(t1, t2, u1, u2).shape, 2.0))
        prob = VieProblem(l=2, T=1.0, kernel=kern,
                          rhs=lambda t1, t2: (t1 * t2) ** 2.5 - 2.0 * c * c * (t1 * t2) ** 6)
        return prob, solve_2d, preset_2d(derive_class_params(2, 2.5, "q_star", l=2), 2)
    kind, gamma, N = {"power-2d-qstar-4": ("q_star", 2.5, 4),
                      "power-2d-bstar-3": ("b_star", 0.5, 3)}[case]
    return (get_problem("corner-power-2d"), solve_2d,
            preset_2d(derive_class_params(2, gamma, kind, l=2), N))


def _check_case(case):
    """A function returning the outputs of one residual or oracle case.

    A residual case also returns the history sum at each of its grids.
    """
    import wsvie.solver as solver
    from wsvie.funclass import derive_class_params

    if case.startswith("oracle"):
        prob = get_problem(f"corner-power-{case[-2:]}")
        return lambda: [oracle_solve(prob, 60 if prob.l == 1 else 20).values]
    prob = get_problem("corner-power-2d")
    sol = solve_2d(prob, *preset_2d(derive_class_params(2, 0.5, "b_star", l=2), 2))
    if case == "residual-2d-grid":
        ax = np.linspace(0.0, 1.0, 13)
        samples = (ax, ax[::-1] ** 2)
        grids = [samples]
    else:
        # points on faces, at corners and inside cells; each is its own grid
        samples = np.vstack([np.random.default_rng(5).random((30, 2)),
                             [[0.0, 0.0], [1.0, 1.0], [0.5, 0.25], [0.0, 0.7]]])
        grids = [(pt[:1], pt[1:]) for pt in samples]
    cells = np.arange(len(sol.values))

    def run():
        targets = solver._cell_moments(prob.kernel, sol.nodesets, enumerate(grids),
                                       lambda _: cells, 12)
        return [residual(prob, sol, samples)] + [
            solver._history(M, sol.values, tuple(x.size for x in grids[i]))
            for i, _, M in targets]

    return run


def _counting(monkeypatch):
    """Count the solver's ``kernel_moments`` calls; returns the one-item counter."""
    import wsvie.solver as solver

    calls, moments = [0], solver.kernel_moments

    def counted(*args):
        calls[0] += 1
        return moments(*args)

    monkeypatch.setattr(solver, "kernel_moments", counted)
    return calls


class TestMomentTables:
    # h == 1 cases under the default table budget, one that splits the march
    # into many chunks, and one that gives every cell a chunk of its own and
    # sums its history in blocks of a few sources; then the residual checks
    # and the oracle, which take their weights from the same generator
    @pytest.mark.parametrize("case, budget", [
        *[pytest.param(case, budget, id=f"{case}-{budget or 'default'}")
          for case in ("power-2d-qstar-4", "power-2d-bstar-3", "abel-1d-bstar-8")
          for budget in (None, 1 << 12, 100)],
        pytest.param("h2-1d-qstar-6", None, id="h2-1d-qstar-6"),
        pytest.param("h2-2d-qstar-2", None, id="h2-2d-qstar-2"),
        *[pytest.param(case, budget, id=f"{case}-{budget or 'default'}")
          for case in ("residual-2d-grid", "residual-2d-points", "oracle-1d", "oracle-2d")
          for budget in (None, 100)]])
    def test_values_match_per_pair_sums(self, case, budget, monkeypatch):
        # bit-identical: every moment row and the order of every history sum
        # are those of the per-pair reference, whatever the chunking
        import wsvie.solver as solver

        if budget is not None:
            monkeypatch.setattr(solver, "_TABLE_BUDGET", budget)
        if case.startswith(("residual", "oracle")):
            run = _check_case(case)
            fast = run()
            monkeypatch.setattr(solver, "_cell_moments", _per_pair_moments)
            ref = run()
            assert all(np.array_equal(f, r) for f, r in zip(fast, ref, strict=True))
            return
        prob, solve, disc = _table_case(case)
        calls = _counting(monkeypatch)
        fast = solve(prob, *disc)
        fast_res = collocation_residual(prob, fast)
        if prob.kernel.smooth_factor is not None:
            assert calls[0] == 0  # a smooth factor takes the tensor cubature
        tables = solver._cell_moments
        monkeypatch.setattr(solver, "_cell_moments", _per_pair_moments)
        ref = solve(prob, *disc)
        assert len(fast.values) == len(ref.values)
        for ci in range(len(ref.values)):
            assert np.array_equal(fast.values[ci], ref.values[ci])
            assert np.array_equal(fast.owned[ci], ref.owned[ci])
        assert fast_res == collocation_residual(prob, fast)
        # the history is small next to the right side, so rounding in it can
        # leave the nodal values unchanged: compare each cell's sums directly
        if prob.kernel.smooth_factor is None:
            shadow = shadow_matrix(fast.covering) | np.eye(len(fast.values), dtype=bool)
            order = np.argsort(fast.covering.causal_rank())
            args = (prob.kernel, fast.nodesets, list(solver._node_grids(fast.nodesets, order)),
                    lambda ci: np.nonzero(shadow[:, ci])[0],
                    solver._default_quad_n(fast.nodesets))
            for (ci, srcs, M), (_, _, R) in zip(tables(*args), _per_pair_moments(*args)):
                vals, shape = [fast.values[di] for di in srcs], fast.values[ci].shape
                assert np.array_equal(solver._history(M, vals, shape),
                                      solver._history(R, vals, shape))

    def test_one_moment_call_per_source_interval(self, q25_params_2d, monkeypatch):
        # the per-pair path made 1,980 calls here; the tables make 87
        calls = _counting(monkeypatch)
        solve_2d(get_problem("corner-power-2d"), *preset_2d(q25_params_2d, 4))
        assert 0 < calls[0] <= 200


class TestResidual:
    def test_exact_solution_spline_residual(self, b_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(b_params_2d, 5)
        spl = build_tensor_spline(prob.exact, cov, degree, family=fam)
        ax = np.linspace(0.05, 1.0, 14)
        assert residual(prob, spl, (ax, ax)) <= 1e-8

    def test_zero_spline_zero_rhs(self, q_params):
        prob = VieProblem(l=1, T=1.0, kernel=KernelSpec(exponents=(2.5,)),
                          rhs=lambda t: 0.0 * t)
        mesh, sched, fam = preset_1d(q_params, 4)
        sol = solve_1d(prob, mesh, sched, fam)
        assert residual(prob, sol, np.linspace(0, 1, 31)) == 0.0

    def test_solve_output_residual_bstar_n3(self, b_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(b_params_2d, 3)
        sol = solve_2d(prob, cov, degree, fam)
        ax = np.linspace(0, 1, 21)
        assert residual(prob, sol, (ax, ax)) <= 1e-6

    def test_1d_residual_of_solution(self, q_params):
        prob = get_problem("corner-power-1d")
        mesh, sched, fam = preset_1d(q_params, 16)
        sol = solve_1d(prob, mesh, sched, fam)
        assert residual(prob, sol, np.linspace(0, 1, 101)) <= 1e-4


class TestKernelSpec:
    def test_diagonal_vanishes_for_positive_exponents(self):
        kern = KernelSpec(exponents=(2.5, 2.5))
        assert kern.g(0.0, 0.3) == 0.0
        assert kern.g(0.5, 0.0) == 0.0
        assert kern.g(0.5, 0.5) == pytest.approx(0.25 ** 2.5)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(exponents=(-1.0,))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VieProblem(l=2, T=1.0, kernel=KernelSpec(exponents=(2.5,)),
                       rhs=lambda a, b: a * b)

    def test_residual_accepts_point_array_2d(self, b_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(b_params_2d, 2)
        sol = solve_2d(prob, cov, degree, fam)
        pts = np.array([[0.3, 0.8], [0.9, 0.1], [1.0, 1.0]])
        grid_equiv = max(residual(prob, sol, (pts[i, :1], pts[i, 1:]))
                         for i in range(3))
        assert residual(prob, sol, pts) == pytest.approx(grid_equiv, rel=1e-12)


class TestConvergenceContract:
    def test_1d_solver_error_tracks_spline_error(self, q_params):
        from wsvie.spline import build_spline_1d

        prob = get_problem("corner-power-1d")
        worst = 0.0
        for N in range(2, 9):
            mesh, sched, fam = preset_1d(q_params, N)
            sol = solve_1d(prob, mesh, sched, fam)
            approx = build_spline_1d(prob.exact, mesh, sched, fam)
            ratio = sup_error(sol, prob.exact, 2001) / sup_error(approx, prob.exact, 2001)
            worst = max(worst, ratio)
        assert worst <= 10.0
