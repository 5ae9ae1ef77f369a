import importlib
import itertools
import math
from collections import Counter
from functools import partial, reduce
from pathlib import Path
from types import SimpleNamespace

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


def _substituted_oracle(problem, n):
    """Reference for ``oracle_solve``: X - V1 X V2^T = F by forward substitution.

    One value at a time, each row left to right, with the same weight
    matrices; the oracle solves each row as one dense system instead.
    """
    import wsvie.solver as solver

    t = np.linspace(0.0, problem.T, n + 1)
    if problem.l == 1:
        V1, V2 = solver._linear_weight_matrix(t, problem.kernel), np.eye(1)
        F = problem.rhs(t)[:, None]
    else:
        V1, V2 = (solver._linear_weight_matrix(t, KernelSpec(exponents=(p,)))
                  for p in problem.kernel.exponents)
        F = problem.rhs(t[:, None], t[None, :])
    X = np.zeros_like(F)
    for i in range(n + 1):
        G = V2 @ (V1[i, :i] @ X[:i])
        for j in range(len(V2)):
            X[i, j] = ((F[i, j] + G[j] + V1[i, i] * (V2[j, :j] @ X[i, :j]))
                       / (1.0 - V1[i, i] * V2[j, j]))
    return X.reshape((n + 1,) * problem.l)


@pytest.mark.parametrize("name, n", [("corner-power-1d", 200), ("cos-rhs-1d", 200),
                                     ("corner-power-2d", 40)])
def test_oracle_rows_match_forward_substitution(name, n):
    # a dense solve per row sums in another order, so only rounding may differ
    prob = get_problem(name)
    ref = _substituted_oracle(prob, n)
    assert np.max(np.abs(oracle_solve(prob, n).values - ref)) <= 1e-14 * np.max(np.abs(ref))


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

    def test_generic_smooth_factor_path_matches_fast_path(self, q25_params_2d, b_params_2d):
        # h == 1 as an array: the product weights equal the per-axis ones, but
        # each cell inverts its own dense matrix and sums a flattened history
        one = lambda *x: np.ones(np.broadcast(*x).shape)
        corner = get_problem("corner-power-2d")
        cases = [(corner, solve_2d, preset_2d(q25_params_2d, 1)),
                 (corner, solve_2d, preset_2d(b_params_2d, 3)), _table_case("abel-1d-bstar-16")]
        for prob, solve, disc in cases:
            kern = KernelSpec(exponents=prob.kernel.exponents, smooth_factor=one)
            fast = solve(prob, *disc)
            slow = solve(VieProblem(l=prob.l, T=1.0, kernel=kern, rhs=prob.rhs), *disc)
            top = max(float(np.max(np.abs(v))) for v in fast.values)
            dev = max(float(np.max(np.abs(f - s))) for f, s in zip(fast.values, slow.values))
            assert dev <= 1e-14 * top

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

        preset, solve = (preset_1d, solve_1d) if l == 1 else (preset_2d, solve_2d)
        prob = get_problem(f"poly-k0-{l}d")
        disc, degrees, fam = preset(derive_class_params(2, gamma, kind, l=l), N)
        sol = solve(prob, disc, degrees, fam)
        spl = build_tensor_spline(prob.rhs, disc.covering() if l == 1 else disc, degrees,
                                  family=fam)
        assert len(sol.values) == len(spl.values)
        for ci in range(len(sol.values)):
            assert np.array_equal(sol.values[ci], spl.values[ci])
            assert np.array_equal(sol.owned[ci], spl.owned[ci])

    def test_order_invariance(self, q25_params_2d):
        _assert_order_invariant(*preset_2d(q25_params_2d, 3))

    def test_order_invariance_with_shared_inverses(self, b_params_2d):
        # B* N = 3: 49 cells share 6 local inverses, each built from its key
        _assert_order_invariant(*preset_2d(b_params_2d, 3))

    def test_invalid_order_rejected(self, q25_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(q25_params_2d, 2)
        with pytest.raises((ValueError, RuntimeError)):
            solve_2d(prob, cov, degree, fam, order=list(range(cov.ncells))[::-1])

    @pytest.mark.parametrize("kind, N, move", [("q_star", 2, "front"), ("q_star", 4, "swap"),
                                               ("b_star", 3, "swap"), ("b_star", 4, "late")])
    def test_non_causal_order_fails_before_any_local_solve(self, kind, N, move, monkeypatch):
        # the order is checked against the shadow relation once, before the walk:
        # no local matrix is inverted, and the error names the first cell of the
        # order that comes before one of its predecessors
        import wsvie.solver as solver
        from wsvie.funclass import derive_class_params

        cov, degree, fam = preset_2d(derive_class_params(2, 2.5 if kind == "q_star" else 0.5,
                                                         kind, l=2), N)
        shadow, order = shadow_matrix(cov), causal_order(cov)
        dependent = [pos for pos, ci in enumerate(order) if shadow[:, ci].any()]
        if move == "front":   # a cell with predecessors goes first
            order.insert(0, order.pop(dependent[-1]))
        elif move == "swap":   # a cell and the last of its predecessors trade places
            pos = dependent[len(dependent) // 2]
            last = max(order.index(d) for d in np.flatnonzero(shadow[:, order[pos]]))
            order[pos], order[last] = order[last], order[pos]
        else:   # one cell moves to the end: its successors come before it
            order.append(order.pop(len(order) // 3))
        done, first = set(), None
        for ci in order:   # the first cell whose predecessors are not all done
            if first is None and not set(np.flatnonzero(shadow[:, ci])) <= done:
                first = ci
            done.add(ci)
        assert first is not None and first != order[0] or move == "front"
        inverse, inverted = solver.np.linalg.inv, []
        monkeypatch.setattr(solver.np.linalg, "inv", lambda A: (inverted.append(A.shape),
                                                                inverse(A))[1])
        with pytest.raises(RuntimeError, match=f"order processes cell {first} before"):
            solve_2d(get_problem("corner-power-2d"), cov, degree, fam, order=order)
        assert inverted == []

    def test_one_table_gather_per_cell(self, monkeypatch):
        # B* N = 4: 110 cells, each with one block of predecessors; a cell's own
        # weights come with its history's gather, so the march gathers once per
        # cell (219 when the own weights were a gather of their own), and the
        # values do not move
        import wsvie.solver as solver

        gather, calls = solver._gather, []
        prob, solve, disc = _table_case("power-2d-bstar-4")
        plain = solve(prob, *disc)
        monkeypatch.setattr(solver, "_gather", lambda *args: (calls.append(args[-2:]),
                                                               gather(*args))[1])
        counted = solve(prob, *disc)
        assert disc[0].ncells == len(calls) == 110
        assert all(np.array_equal(a, b) for a, b in zip(plain.values, counted.values))


def _smooth_problem(l, p, q):
    """h = -(2 + t tau - tau / 2), in 2D -(2 + t_1 tau_2 - tau_1 / 2), with x = t^q (a
    product in 2D) and its closed-form right side: int (t - tau)^p tau^q (2 + t tau - tau / 2)
    = 2 A + (t - 1/2) B, A = power_moment(p, q, 1) t^(p+q+1), B = power_moment(p, q+1, 1)
    t^(p+q+2), and in 2D 2 A_1 A_2 + t_1 A_1 B_2 - B_1 A_2 / 2."""
    from wsvie.quad import power_moment

    a, b = power_moment(p, q, 1.0), power_moment(p, q + 1.0, 1.0)
    A = lambda t: a * t ** (p + q + 1)
    B = lambda t: b * t ** (p + q + 2)
    if l == 1:
        return VieProblem(l=1, T=1.0, kernel=KernelSpec((p,), lambda t, u: -(2 + t * u - u / 2)),
                          rhs=lambda t: t ** q + 2 * A(t) + (t - 0.5) * B(t),
                          exact=lambda t: t ** q)
    return VieProblem(
        l=2, T=1.0, kernel=KernelSpec((p, p), lambda t1, t2, u1, u2: -(2 + t1 * u2 - u1 / 2)),
        rhs=lambda t1, t2: ((t1 * t2) ** q + 2 * A(t1) * A(t2) + t1 * A(t1) * B(t2)
                            - 0.5 * B(t1) * A(t2)),
        exact=lambda t1, t2: (t1 * t2) ** q)


class TestSmoothFactor:
    @pytest.mark.parametrize("l", [1, 2])
    def test_scalar_smooth_factor(self, l, q25_params, q25_params_2d):
        # h may return a scalar: h == 2 against x = t^2.5, as the array h == 2
        from wsvie.quad import power_moment

        c = power_moment(2.5, 2.5, 1.0)
        if l == 1:
            rhs, exact = lambda t: t ** 2.5 - 2.0 * c * t ** 6, lambda t: t ** 2.5
            solve, disc = solve_1d, preset_1d(q25_params, 12)
        else:
            rhs = lambda t1, t2: (t1 * t2) ** 2.5 - 2.0 * c * c * (t1 * t2) ** 6
            exact = lambda t1, t2: (t1 * t2) ** 2.5
            solve, disc = solve_2d, preset_2d(q25_params_2d, 2)
        sols = [solve(VieProblem(l=l, T=1.0, kernel=KernelSpec((2.5,) * l, h), rhs=rhs), *disc)
                for h in (lambda *x: 2.0, lambda *x: np.full(np.broadcast(*x).shape, 2.0))]
        assert max_node_error(sols[0], exact) <= 1e-6
        assert all(np.array_equal(a, b) for a, b in zip(*(s.values for s in sols)))

    @pytest.mark.parametrize("l, p, q, kind, gamma, N, bound", [
        (1, 2.5, 2.5, "q_star", 2.5, 32, 3.1e-10),
        (1, -0.5, 0.5, "b_star", 0.5, 24, 9.1e-11),
        (2, 2.5, 2.5, "q_star", 2.5, 4, 1.1e-5),
        (2, 2.5, 2.5, "b_star", 0.5, 3, 3.1e-7)],
        ids=["1d-qstar", "1d-bstar-abel", "2d-qstar", "2d-bstar"])
    def test_non_constant_factor_against_exact(self, l, p, q, kind, gamma, N, bound):
        # bounds: twice the sup errors of the tensor cubature that product
        # integration replaced (the same to 3 digits)
        from wsvie.funclass import derive_class_params

        prob = _smooth_problem(l, p, q)
        params = derive_class_params(2, gamma, kind, l=l)
        sol = (solve_1d(prob, *preset_1d(params, N)) if l == 1
               else solve_2d(prob, *preset_2d(params, N)))
        assert sup_error(sol, prob.exact) <= bound

    def test_memory_of_flat_weights(self):
        # h's weights hold grid x M_1 M_2 doubles per source: blocks of sources are
        # sized by them, so the peak stays near that of h == 1 (7x it when sized
        # by the grid alone)
        import tracemalloc

        from wsvie.funclass import derive_class_params

        prob = _smooth_problem(2, 2.5, 2.5)
        disc = preset_2d(derive_class_params(2, 0.5, "b_star", l=2), 4)
        peaks = []
        for kern in (prob.kernel, KernelSpec((2.5, 2.5))):
            tracemalloc.start()
            try:
                solve_2d(VieProblem(l=2, T=1.0, kernel=kern, rhs=prob.rhs), *disc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * peaks[1]


def _assert_order_invariant(cov, degree, fam):
    """The canonical causal order and one taken by the reverse heap key give
    the same nodal values and owned masks, to the bit."""
    import heapq

    from wsvie.mesh import verify_causal_order

    prob = get_problem("corner-power-2d")
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
    assert verify_causal_order(cov, alt)
    s1 = solve_2d(prob, cov, degree, fam)
    s2 = solve_2d(prob, cov, degree, fam, order=alt)
    # history sums run in source-index order, whatever the causal order
    for ci in range(cov.ncells):
        assert np.array_equal(s1.values[ci], s2.values[ci])
        assert np.array_equal(s1.owned[ci], s2.owned[ci])


def _per_pair_moments(kern, nodesets, targets, sources):
    """Reference for ``solver._cell_moments``: one call per (target, source, axis).

    Each source's moments are computed at the target grid itself and copied
    to the leading columns of zero arrays padded to the largest node count
    of each axis. With a smooth factor h, a source's weights are the outer
    product of its rows times h at (grid point, source node), its nodes
    padded with its last, flattened to one axis. Each row takes the rule of
    its source's node count, through ``kernel_moments``.
    """
    from wsvie.quad import kernel_moments

    widths = [max(ns.m for ns in sets) for sets in zip(*nodesets)]

    def moments(grid, srcs, lo, hi):
        out = []
        for a, (x, p) in enumerate(zip(grid, kern.exponents)):
            out.append(np.zeros((hi - lo, x.size, widths[a])))
            for W, di in zip(out[-1], srcs[lo:hi]):
                ns = nodesets[di][a]
                W[:, :ns.m] = kernel_moments(x, p, ns.a, ns.b, ns)
        return out

    def product(grid, srcs, lo, hi):
        out, rows = [], moments(grid, srcs, lo, hi)
        for s, di in enumerate(srcs[lo:hi]):
            W = reduce(np.multiply.outer, [w[s] for w in rows])
            W = W.transpose([0, 2, 1, 3]) if len(grid) == 2 else W   # (n_1, n_2, M_1, M_2)
            tau = [np.pad(ns.nodes, (0, M - ns.m), mode="edge")
                   for ns, M in zip(nodesets[di], widths)]
            out.append((W * kern.smooth_factor(*np.meshgrid(*grid, *tau, indexing="ij")))
                       .reshape(math.prod(x.size for x in grid), -1))
        return [np.array(out)]

    for key, grid in targets:
        srcs = sources(key)
        if kern is None:
            yield key, srcs, lambda lo, hi, g=grid: [np.zeros(
                (hi - lo, math.prod(x.size for x in g), math.prod(widths)))]
        else:
            yield key, srcs, partial(moments if kern.smooth_factor is None else product, grid, srcs)


def _patch_per_pair(monkeypatch):
    """Route ``solver._cell_moments`` to ``_per_pair_moments``; returns a call counter."""
    import wsvie.solver as solver

    calls = [0]

    def per_pair(*args):
        calls[0] += 1
        return _per_pair_moments(*args)

    monkeypatch.setattr(solver, "_cell_moments", per_pair)
    return calls


def _table_case(case):
    """(problem, solve, discretisation) of one equivalence case."""
    from wsvie.funclass import derive_class_params
    from wsvie.quad import power_moment

    c = power_moment(2.5, 2.5, 1.0)
    if case.startswith("abel-1d-bstar-"):
        h0 = power_moment(-0.5, 0.5, 1.0)
        prob = VieProblem(l=1, T=1.0, kernel=KernelSpec(exponents=(-0.5,)),
                          rhs=lambda t: t ** 0.5 - h0 * t, exact=lambda t: t ** 0.5)
        N = int(case.rsplit("-", 1)[1])
        return prob, solve_1d, preset_1d(derive_class_params(2, 0.5, "b_star"), N)
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
                      "power-2d-bstar-1": ("b_star", 0.5, 1),
                      "power-2d-bstar-3": ("b_star", 0.5, 3),
                      "power-2d-bstar-4": ("b_star", 0.5, 4),
                      "power-2d-qstar-8": ("q_star", 2.5, 8)}[case]
    return (get_problem("corner-power-2d"), solve_2d,
            preset_2d(derive_class_params(2, gamma, kind, l=2), N))


def _check_case(case):
    """A function returning the outputs of one residual or oracle case.

    A residual case also returns the history sum at each of its grids.
    """
    import wsvie.solver as solver
    from wsvie.funclass import derive_class_params

    if case.startswith("oracle"):
        # the oracle's values can come out equal at different moment rules:
        # compare its weight matrix V per axis as well
        prob = get_problem(f"corner-power-{case[-2:]}")
        n = 60 if prob.l == 1 else 20
        t = np.linspace(0.0, prob.T, n + 1)
        return lambda: [oracle_solve(prob, n).values] + [
            solver._linear_weight_matrix(t, KernelSpec(exponents=(p,)))
            for p in prob.kernel.exponents]
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
    cells, values = np.arange(len(sol.values)), sol.tables.values

    def run():
        targets = solver._cell_moments(prob.kernel, sol.nodesets, enumerate(grids),
                                       lambda _: cells)
        return [residual(prob, sol, samples)] + [
            solver._history(M, values, tuple(x.size for x in grids[i]))
            for i, _, M in targets]

    return run


def _counting(monkeypatch):
    """Count the solver's ``stacked_kernel_moments`` calls; returns the one-item counter."""
    import wsvie.solver as solver

    calls, moments = [0], solver.stacked_kernel_moments

    def counted(*args):
        calls[0] += 1
        return moments(*args)

    monkeypatch.setattr(solver, "stacked_kernel_moments", counted)
    return calls


def _set_based_chunks(kern, nodesets, targets, sources, walk):
    """Reference for the chunks of ``solver._cell_moments`` (h == 1): its planner from
    before integer ids, on Python sets of coordinates and per-target copies of the used
    intervals. A chunk grows while its index entries, ``walk.isz`` doubles each, and the
    rows of its own pairs (``walk.own``: per axis, whether the pair of interval id u and
    coordinate id c is computed by a chunk), ``walk.width`` doubles each, hold at most the
    budget beside the store's own rows. Returns per chunk and axis the table coordinates
    and the sorted source intervals (a, b, m), and fills the same row store on the way."""
    import wsvie.solver as solver
    from wsvie.quad import _RowStore, stacked_kernel_moments

    targets, axes = list(targets), walk.axes
    store, chunks, pos = _RowStore(solver._TABLE_BUDGET // 2), [], 0
    while pos < len(targets):
        used, coords = [set() for _ in axes], [set() for _ in axes]
        for end, (key, grid) in enumerate(targets[pos:], pos):
            grown = [u | set(ax.kid[sources(key)].tolist()) for u, ax in zip(used, axes)]
            wider = [c | set(x.tolist()) for c, x in zip(coords, grid)]
            size = sum(len(u) * len(c) * walk.isz + walk.width * np.count_nonzero(
                own[np.ix_(sorted(u), np.searchsorted(ax.x, sorted(c)))])
                for ax, own, u, c in zip(axes, walk.own, grown, wider))
            if end > pos and size > solver._TABLE_BUDGET - store.own:
                break
            used, coords = grown, wider
        else:
            end = len(targets)
        chunks.append([])
        for ax, own, u, c in zip(axes, walk.own, used, coords):
            U, x = np.array(sorted(u)), np.array(sorted(c))
            s, r = np.nonzero(own[np.ix_(U, np.searchsorted(ax.x, x))])
            stacked_kernel_moments(x, ax.p, *ax.ends[U].T, ax.reps[U], store, (s, r),
                                   np.zeros((s.size, walk.width)))
            chunks[-1].append((x, sorted((n.a, n.b, n.m) for n in ax.reps[U])))
        pos = end
    return chunks


class TestMomentTables:
    # h == 1 cases under the default table budget, one that splits the march
    # into many chunks, and one that gives every cell a chunk of its own and
    # sums its history in blocks of a few sources; then the residual checks
    # and the oracle, which take their weights from the same generator
    @pytest.mark.parametrize("case, budget", [
        *[pytest.param(case, budget, id=f"{case}-{budget or 'default'}")
          for case in ("power-2d-qstar-4", "power-2d-bstar-3", "abel-1d-bstar-8")
          for budget in (None, 1 << 12, 100)],
        # B* N = 4 keeps far classes (16 Gauss points), so its chunks read class rows
        *[pytest.param("power-2d-bstar-4", budget, id=f"power-2d-bstar-4-{budget or 'default'}")
          for budget in (None, 1 << 12)],
        pytest.param("h2-1d-qstar-6", None, id="h2-1d-qstar-6"),
        pytest.param("h2-2d-qstar-2", None, id="h2-2d-qstar-2"),
        *[pytest.param(case, budget, id=f"{case}-{budget or 'default'}")
          for case in ("residual-2d-grid", "residual-2d-points", "oracle-1d", "oracle-2d")
          for budget in (None, 100)]])
    def test_values_match_per_pair_sums(self, case, budget, monkeypatch):
        # bit-identical: every moment row and the order of every history sum
        # are those of the per-pair reference, whatever the chunking. Where the
        # walk keeps far classes (27 Gauss points at abel-1d-bstar-8), a far
        # row is computed at its class's X = r1 + r2 y_j, not at the pair's
        # (x - b) / h: measured there, weights moved by at most 2.00 eps of
        # their row maximum, histories by 0.64 eps and nodal values by 1.51 eps
        # of the largest. B* N = 4 (16 points, m = 12) moves weights by up to
        # 12.1 eps of their row maximum and histories by 4.35 eps, its values not
        # at all (the same at the commit before chunks read class rows in place)
        import wsvie.solver as solver
        from wsvie import quad

        if budget is not None:
            monkeypatch.setattr(solver, "_TABLE_BUDGET", budget)
        if case.startswith(("residual", "oracle")):
            run = _check_case(case)
            fast = run()
            used = _patch_per_pair(monkeypatch)
            ref = run()
            assert used[0] > 0
            assert all(np.array_equal(f, r) for f, r in zip(fast, ref, strict=True))
            return
        prob, solve, disc = _table_case(case)
        calls = _counting(monkeypatch)
        fast = solve(prob, *disc)
        fast_res = collocation_residual(prob, fast)
        # a smooth factor weights the stacked tables of h == 1
        assert calls[0] > 0
        tables = solver._cell_moments
        count, used = calls[0], _patch_per_pair(monkeypatch)
        ref = solve(prob, *disc)
        assert used[0] > 0 and calls[0] == count  # the reference made no stacked call
        assert len(fast.values) == len(ref.values)
        top_m = max(ns.m for nsets in fast.nodesets for ns in nsets)
        eps = np.finfo(float).eps * (quad._rule_points(top_m) >= solver._CLASS_POINTS)
        weights, sums = (13, 5) if case == "power-2d-bstar-4" else (2, 1)
        top = max(np.max(np.abs(v)) for v in ref.values)
        for ci in range(len(ref.values)):
            assert np.all(np.abs(fast.values[ci] - ref.values[ci]) <= 2 * eps * top)
            assert np.array_equal(fast.owned[ci], ref.owned[ci])
        assert fast_res == collocation_residual(prob, fast)
        # the history is small next to the right side, so rounding in it can
        # leave the nodal values unchanged: compare each cell's weights (per
        # axis, or flattened with a smooth factor) and sums directly
        shadow = shadow_matrix(fast.covering) | np.eye(len(fast.values), dtype=bool)
        order, padded = np.argsort(fast.covering.causal_rank()), fast.tables
        args = (prob.kernel, fast.nodesets, list(solver._node_grids(fast.nodesets, order)),
                lambda ci: np.nonzero(shadow[:, ci])[0])
        for (ci, srcs, M), (_, _, R) in zip(tables(*args), _per_pair_moments(*args)):
            for fast_w, ref_w in zip(M(0, len(srcs)), R(0, len(srcs)), strict=True):
                row = np.max(np.abs(ref_w), axis=-1, keepdims=True)
                assert np.all(np.abs(fast_w - ref_w) <= weights * eps * row)
            vals, shape = padded.values[srcs], fast.values[ci].shape
            hist = solver._history(R, vals, shape)
            assert np.all(np.abs(solver._history(M, vals, shape) - hist)
                          <= sums * eps * np.max(np.abs(hist)))

    @pytest.mark.parametrize("case, budget", [
        *[(case, budget) for case in ("power-2d-qstar-8", "power-2d-bstar-3", "abel-1d-bstar-16")
          for budget in (None, 1 << 13)], ("residual-2d-points", 1 << 10)])
    def test_chunks_match_the_set_based_plan(self, case, budget, monkeypatch, fresh_store):
        # the chunks planned on integer ids and bitsets are those of the greedy
        # rule on sets: the same table coordinates and source intervals, chunk
        # after chunk, with the row store filled alike. A chunk is sized by its
        # index entries and the rows of its own pairs, which the walk's far
        # classes decide (abel-1d-bstar-16 keeps classes)
        import wsvie.solver as solver
        from wsvie.funclass import derive_class_params
        from wsvie.spline import _unfilled

        if budget is not None:
            monkeypatch.setattr(solver, "_TABLE_BUDGET", budget)
        if case == "residual-2d-points":
            prob = get_problem("corner-power-2d")
            spl = _unfilled(*preset_2d(derive_class_params(2, 0.5, "b_star", l=2), 2))
            pts = np.random.default_rng(5).random((40, 2))
            args = (prob.kernel, spl.nodesets, [(i, (pt[:1], pt[1:])) for i, pt in enumerate(pts)],
                    lambda _: np.arange(spl.covering.ncells))
        else:
            prob, _, disc = _table_case(case)
            cov = disc[0].covering() if prob.l == 1 else disc[0]
            nodesets = _unfilled(cov, *disc[1:]).nodesets
            shadow = shadow_matrix(cov)
            args = (prob.kernel, nodesets,
                    list(solver._node_grids(nodesets, np.argsort(cov.causal_rank()))),
                    lambda ci: np.append(np.nonzero(shadow[:, ci])[0], ci))
        got, moments, walk = [], solver.stacked_kernel_moments, SimpleNamespace(axes=[], own=[])
        far_classes, own_bitsets = solver._far_classes, solver._own_bitsets

        def recorded(x, p, a, b, nodesets, rows, pairs, out):
            got.append((x, sorted(zip(np.asarray(a).tolist(), np.asarray(b).tolist(),
                                      [ns.m for ns in nodesets]))))
            return moments(x, p, a, b, nodesets, rows, pairs, out)

        def classes(axes, cat, cut, store, width):
            arena, C = far_classes(axes, cat, cut, store, width)
            walk.width = width
            walk.isz = np.min_scalar_type(C + solver._TABLE_BUDGET // width).itemsize / 8
            return arena, C

        def kinds(ax):
            walk.axes.append(ax)
            walk.own.append(solver._pair_kinds(ax, np.arange(len(ax.reps)),
                                               np.arange(ax.x.size))[0])
            own_bitsets(ax)

        monkeypatch.setattr(solver, "stacked_kernel_moments", recorded)
        monkeypatch.setattr(solver, "_far_classes", classes)
        monkeypatch.setattr(solver, "_own_bitsets", kinds)
        assert len(list(solver._cell_moments(*args))) == len(args[2])
        expected = _set_based_chunks(*args, walk)
        assert len(expected) > (1 if budget else 0)
        assert len(got) == sum(map(len, expected))
        for (x, intervals), (ref_x, ref_intervals) in zip(got, itertools.chain(*expected)):
            assert np.array_equal(x, ref_x) and intervals == ref_intervals

    @pytest.mark.parametrize("case, before_mb", [("abel-1d-bstar-32", 4.53),
                                                 ("power-2d-bstar-4", 3.07),
                                                 ("power-2d-qstar-8", 4.26)])
    def test_peak_memory_of_a_solve(self, case, before_mb):
        # peak traced allocation of one solve; the bounds are 1.25x the peaks
        # from when the tables took one moment call per source interval (for
        # Q* N = 8: from before the march looked up all donors at once).
        # Stacked calls that contract whole branches at once, not blocks of
        # rules, peaked at 6.4 and 13.6 MB here; a donor map over all nodes
        # rather than the cells' boundary nodes, at 12.5 MB for B* N = 5
        import tracemalloc

        prob, solve, disc = _table_case(case)
        tracemalloc.start()
        try:
            solve(prob, *disc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * before_mb * 1e6

    def test_one_moment_call_per_source_interval(self, q25_params_2d, monkeypatch):
        # the per-pair path made 1,980 moment calls here and the tables with one
        # call per source interval 87; the march fits one chunk, so the stacked
        # tables make one call per axis
        calls = _counting(monkeypatch)
        solve_2d(get_problem("corner-power-2d"), *preset_2d(q25_params_2d, 4))
        assert 0 < calls[0] <= 2

    def test_a_finished_chunk_releases_its_tables(self, b_params_2d):
        # the next chunk's tables replace the last one's: weights drawn after
        # the generator has moved on raise instead of reading the new tables.
        # B* N = 5 (four chunks; B* N = 4 fits one since chunks hold no class rows)
        import wsvie.solver as solver
        from wsvie.spline import _unfilled

        cov, degree, fam = preset_2d(b_params_2d, 5)
        nodesets = _unfilled(cov, degree, fam).nodesets
        targets = list(solver._cell_moments(get_problem("corner-power-2d").kernel, nodesets,
                                            solver._node_grids(nodesets, range(cov.ncells)),
                                            lambda ci: np.arange(ci + 1)))
        assert len(targets[-1][2](0, 1)) == 2
        with pytest.raises(ValueError):
            targets[0][2](0, 1)


def _row_counts(monkeypatch):
    """Count the rows a row store serves and computes, per branch; returns the two dicts."""
    from wsvie import quad

    served, computed = {}, {}
    call, rows = quad._RowStore.__call__, quad._reference_rows

    def counted_call(self, ref, p, panels, X):
        served[panels] = served.get(panels, 0) + np.size(X)
        return call(self, ref, p, panels, X)

    def counted_rows(ref, p, panels, X, n=None, basis=None):
        computed.setdefault(panels, []).append((ref.family, ref.m, p, X.copy()))
        return rows(ref, p, panels, X, n, basis)

    monkeypatch.setattr(quad._RowStore, "__call__", counted_call)
    monkeypatch.setattr(quad, "_reference_rows", counted_rows)
    return served, computed


class TestRowStore:
    def test_rows_are_computed_once_per_solve(self, monkeypatch, fresh_store):
        # B* N = 4: the singular and near rows repeat across the whole march
        # (the geometric covering is self-similar), so the store computes
        # 578 of the 8,495 it serves, each once; far rows come from the far
        # classes (TestFarClasses) and never reach the store
        served, computed = _row_counts(monkeypatch)
        prob, solve, disc = _table_case("power-2d-bstar-4")
        solve(prob, *disc)
        kept = sum(X.size for panels in (0, 13) for *_, X in computed[panels])
        assert kept <= 0.08 * (served[0] + served[13])   # 6.8% measured
        for panels in (0, 13):   # no key twice
            keys = [(f, m, p, x) for f, m, p, X in computed[panels] for x in X.tolist()]
            assert len(set(keys)) == len(keys)

    def test_a_repeated_solve_computes_no_rows(self, monkeypatch, fresh_store):
        # the store lives for the process: a second identical solve is served all
        # its singular and near rows by the first one's, to the same values
        served, computed = _row_counts(monkeypatch)
        prob, solve, disc = _table_case("power-2d-bstar-3")
        first = solve(prob, *disc)
        assert _computed(computed) > 0
        computed.clear()
        second = solve(prob, *disc)
        assert _computed(computed) == 0 and served[0] > 0
        for a, b in zip(first.values, second.values, strict=True):
            assert np.array_equal(a, b)

    def test_collocation_residual_after_a_solve_computes_no_rows(self, monkeypatch,
                                                                 fresh_store):
        # the residual check walks the march's node grids again: after an abel-1d
        # B* N = 32 solve it computes none of the 325 singular and 171 near rows
        # it computes with an empty store, for the same residual
        from wsvie import quad

        served, computed = _row_counts(monkeypatch)
        prob, solve, disc = _table_case("abel-1d-bstar-32")
        sol = solve(prob, *disc)
        computed.clear()
        res = collocation_residual(prob, sol)
        assert _computed(computed) == 0 and served[0] > 0
        monkeypatch.setattr(quad, "_STORE", quad._RowStore(0))
        assert collocation_residual(prob, sol) == res and _computed(computed) > 0

    @pytest.mark.parametrize("carried", ["random", "abel-1d-bstar-32", "power-2d-bstar-4"])
    @pytest.mark.parametrize("case", ["abel-1d-bstar-16", "power-2d-bstar-3"])
    def test_carried_rows_never_add_work(self, case, carried, monkeypatch, fresh_store):
        # a store that arrives full of rows of earlier walks, in the groups the walk
        # reads or not, makes it compute no more rows than an empty store, though
        # the walk fills the room (2,048-double tables; 40 is the largest node count)
        import wsvie.solver as solver
        from wsvie import quad

        monkeypatch.setattr(solver, "_TABLE_BUDGET", 1 << 11)
        served, computed = _row_counts(monkeypatch)
        prob, solve, disc = _table_case(case)
        cold = solve(prob, *disc)
        work, store = _computed(computed), quad._STORE
        assert store.own == store.size > store.room - 40   # the walk filled the room
        monkeypatch.setattr(quad, "_STORE", quad._RowStore(0))
        if carried == "random":   # rows at X no walk reads, in every group it reads
            reads = {(ns.family, ns.m, p) for nsets in cold.nodesets
                     for ns, p in zip(nsets, prob.kernel.exponents)}
            store = quad._STORE.walk(reads, 1 << 10)
            rng = np.random.default_rng(29)
            while store.size + 40 <= store.room:
                for family, m, p in sorted(reads):
                    ref = quad._reference_nodes((-1.0, 1.0), family, m)
                    store(ref, p, 0, rng.random(3))
                    store(ref, p, quad._NEAR_PANELS, 1.0 + rng.random(3))
        else:
            before, solve_before, disc_before = _table_case(carried)
            solve_before(before, *disc_before)
        assert quad._STORE.size > quad._STORE.room - 40   # arrives full
        computed.clear()
        warm = solve(prob, *disc)
        assert _computed(computed) <= work
        for a, b in zip(cold.values, warm.values, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["qstar-2d", "bstar-2d", "abel-1d"])
    def test_warm_and_cold_rungs_are_bit_identical(self, name, seed, monkeypatch):
        # every rung of a benchmark ladder, solved after the rungs below it (whose
        # rows the store then serves) and with an empty store: the same values and
        # owned masks, to the bit
        import wsvie
        from wsvie import quad

        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        load = workloads.WORKLOADS[name]
        prob, params = workloads.build_problem(wsvie, load, seed)
        solve, preset = (solve_1d, preset_1d) if load.dim == 1 else (solve_2d, preset_2d)
        discs = [preset(params, N) for N in load.ladder]
        monkeypatch.setattr(quad, "_STORE", quad._RowStore(0))
        warm = [solve(prob, *disc) for disc in discs]
        for disc, sol in zip(discs, warm):
            monkeypatch.setattr(quad, "_STORE", quad._RowStore(0))
            cold = solve(prob, *disc)
            for ci in range(len(cold.values)):
                assert np.array_equal(sol.values[ci], cold.values[ci])
                assert np.array_equal(sol.owned[ci], cold.owned[ci])

    def test_threads_keep_stores_of_their_own(self, monkeypatch):
        # abel-1d N = 16 and 8 and 2D B* N = 3, each solved twice in its own thread
        # while the others run, switching often: the values of sequential solves,
        # and every thread's store holds at most its room and exactly the rows it
        # counts
        import sys
        import threading

        from wsvie import quad

        cases = [_table_case(case)
                 for case in ("abel-1d-bstar-16", "power-2d-bstar-3", "abel-1d-bstar-8")]
        sequential = [solve(prob, *disc) for prob, solve, disc in cases]
        call, stores, wrong = quad._RowStore.__call__, set(), []

        def checked(self, ref, p, panels, X):
            G = call(self, ref, p, panels, X)
            stores.add((threading.get_ident(), id(self.__dict__)))   # per-thread state
            held = sum(rows.size for _, rows, _ in self.groups.values())
            if not held == self.size <= self.room:
                wrong.append((held, self.size, self.room))
            return G

        monkeypatch.setattr(quad._RowStore, "__call__", checked)
        barrier, results = threading.Barrier(len(cases)), [None] * len(cases)

        def run(i):
            prob, solve, disc = cases[i]
            barrier.wait()
            results[i] = [solve(prob, *disc) for _ in range(2)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong and len(stores) == len({t for t, _ in stores}) == len(cases)
        for ref, runs in zip(sequential, results, strict=True):
            for sol in runs:
                for a, b in zip(ref.values, sol.values, strict=True):
                    assert np.array_equal(a, b)


def _computed(computed) -> int:
    """The singular and near rows that ``_row_counts`` saw computed."""
    return sum(X.size for panels in (0, 13) for *_, X in computed.get(panels, []))


def _exact_far_row(family, m, p, X, digits):
    """The far moment row of the reference node set (family, m) at X, from the monomial
    expansion in u = Y - sigma, Y = X + 1, in stdlib decimal with ``digits`` digits:
    int_{-1}^{1} (Y - sigma)^p l_j(sigma) dsigma, l_j in u a product of the factors
    ((Y - sigma_i) - u) / (sigma_j - sigma_i), each power of u integrated in closed form.
    The nodes are the double ones the solver uses, converted exactly."""
    from decimal import Decimal, localcontext

    from wsvie.quad import _reference_nodes

    with localcontext() as ctx:
        ctx.prec = digits
        nodes = [Decimal(float(v)) for v in _reference_nodes((-1.0, 1.0), family, m).nodes]
        Y, P = Decimal(float(X)) + 1, Decimal(float(p))
        # int_{Y-1}^{Y+1} u^(p+k) du for k < m, from (Y +- 1)^p
        ends = [Y + 1, Y - 1]
        power = [v ** P for v in ends]
        moments = []
        for k in range(m):
            hi, lo = (w * v ** (k + 1) for w, v in zip(power, ends))
            moments.append((hi - lo) / (P + k + 1))
        row = []
        for j, sj in enumerate(nodes):
            poly, scale = [Decimal(1)], Decimal(1)
            for i, si in enumerate(nodes):
                if i != j:
                    c, scale = Y - si, scale * (sj - si)
                    poly = [c * a - (poly[k - 1] if k else 0) for k, a in enumerate(poly + [0])]
            row.append(float(sum(a * mk for a, mk in zip(poly, moments)) / scale))
        return np.array(row)


class TestFarClasses:
    def test_far_rows_are_computed_once_per_solve(self, monkeypatch):
        # B* N = 4 (16 Gauss points): the march took 24,224 far rows, one per
        # chunk and (coordinate, interval) pair; its 184 kept classes need
        # 1,701 distinct rows, each computed once, and leave no pair to a class
        # of its own
        from wsvie import quad

        computed, rows = [], quad._reference_rows

        def counted(ref, p, panels, X, n=None, basis=None):
            if panels == 1:
                computed.append(np.column_stack([np.full(X.size, p), X]))
            return rows(ref, p, panels, X, n, basis)

        monkeypatch.setattr(quad, "_reference_rows", counted)
        prob, solve, disc = _table_case("power-2d-bstar-4")
        solve(prob, *disc)
        keys = np.concatenate(computed)
        assert 0 < len(keys) <= 2160
        assert len(np.unique(keys, axis=0)) == len(keys)   # no row twice

    def test_classes_of_two_exponents_in_any_order(self, b_params_2d, monkeypatch):
        # B* N = 4 with p = 2.5 and -0.5 on the two axes: the classes of each
        # exponent keep their own rows, and the values are those of the march
        # without classes up to the X the classes move (measured 0.75 eps of
        # the largest), in the canonical and in a shuffled causal order
        import wsvie.solver as solver

        cov, degree, fam = preset_2d(b_params_2d, 4)
        prob = VieProblem(l=2, T=1.0, kernel=KernelSpec((2.5, -0.5)),
                          rhs=lambda t1, t2: 1.0 + t1 * t2)
        values = [solve_2d(prob, cov, degree, fam, order=order).values
                  for order in (None, _shuffled_causal_order(cov, 3))]
        monkeypatch.setattr(solver, "_CLASS_POINTS", 100)
        ref = solve_2d(prob, cov, degree, fam).values
        top = max(np.max(np.abs(v)) for v in ref)
        for ci in range(cov.ncells):
            assert np.array_equal(values[0][ci], values[1][ci])
            assert np.max(np.abs(values[0][ci] - ref[ci])) <= np.finfo(float).eps * top

    @pytest.mark.parametrize("m", [5, 14, 23, 40])
    @pytest.mark.parametrize("p", [-0.5, 2.5])
    def test_class_rows_match_exact_reference(self, m, p):
        # a class row is the far rule (m + 4 Gauss points) at its X. Against the
        # exact row of the same double nodes it is off by at most m + 5 eps of
        # the row maximum (measured 5.4, 9.2, 14.8 and 27.6 eps at m = 5, 14,
        # 23 and 40), but for 9 points at p = -1/2 on the nearest far rows,
        # X = 2: 8,540 eps (1.9e-12), the rule's own error. 40 + 6 m digits
        # hold the cancellation of the expansion (250 at m = 40, Y = 602)
        from wsvie import quad

        X = np.array([2.0, 2.0 + 2.0 ** -20, 10.0, 601.0])
        ref = quad._reference_nodes((-1.0, 1.0), "chebyshev1_closed", m)
        rows = quad._reference_rows(ref, p, 1, X)
        for x, row in zip(X, rows):
            exact = _exact_far_row("chebyshev1_closed", m, p, x, 40 + 6 * m)
            bound = 9000 if (m, p) == (5, -0.5) and x < 3 else m + 5
            assert np.max(np.abs(row - exact)) <= bound * np.finfo(float).eps * np.max(np.abs(exact))


    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_small_node_counts_match_exact_reference(self, m):
        # far rows of a stacked call of one small node count take the rule of
        # that count, max(m + 4, 9) points: against the exact row they are off
        # by at most 1.05e-12 of the row maximum (m = 4, p = -0.9; 6.4e-14 at
        # m = 2). The rule of m + 4 points missed by up to 2.6e-9 (m = 2)
        from wsvie import quad

        X = np.array([2.0, 2.0 + 2.0 ** -20, 10.0])
        ref = quad._reference_nodes((-1.0, 1.0), "chebyshev1_closed", m)
        for p in (-0.9, -0.5, 0.3, 2.5):   # on [-1, 1], x = 1 + X: the reference rows
            rows = quad.stacked_kernel_moments(1.0 + X, p, [-1.0], [1.0], [ref])[0]
            for x, row in zip(X, rows):
                exact = _exact_far_row("chebyshev1_closed", m, p, x, 40 + 6 * m)
                assert np.max(np.abs(row - exact)) <= 2e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("case", ["abel-1d-bstar-8", "abel-1d-bstar-16", "power-2d-bstar-1"])
    def test_rules_of_own_node_counts_move_values_by_rounding(self, case, monkeypatch):
        # every row takes the rule of its own node count; with the rule of the
        # solve's largest count for every row, as before, the values differ by
        # rounding only: measured at most 5.1e-15 of max |x| on the abel-1d
        # workload (seeds 1-3, N = 8-32) and 2.0e-16 at 2D B* N = 1, whose
        # m = 3 rows take 9 points instead of 7
        from wsvie import quad

        prob, solve, disc = _table_case(case)
        new = solve(prob, *disc)
        top_m = max(ns.m for nsets in new.nodesets for ns in nsets)
        monkeypatch.setattr(quad, "_rule_points", lambda m: min(top_m + 4, 64))
        old = solve(prob, *disc)
        new_x, old_x = (np.concatenate([v.ravel() for v in s.values]) for s in (new, old))
        assert 0 < np.max(np.abs(new_x - old_x)) <= 1e-14 * np.max(np.abs(old_x))

    def test_a_walk_without_node_grids_requests_sources_once(self, b_params_2d):
        # residual's walk over sample grids of a B* N = 5 solution (18-point
        # rules): no grid is an interval's node array, so no class is numbered
        # and each target's sources are requested once, by the chunk plan
        import wsvie.solver as solver
        from wsvie.spline import _unfilled

        cov, degree, fam = preset_2d(b_params_2d, 5)
        assert solver.quad._rule_points(degree) >= solver._CLASS_POINTS
        nodesets = _unfilled(cov, degree, fam).nodesets
        ax = np.linspace(0.0, 1.0, 11)
        grids = [(ax, ax), (ax[:4], ax[::-1] ** 2), (ax[5:6], ax[2:3])]
        requested = []
        walk = solver._cell_moments(get_problem("corner-power-2d").kernel, nodesets,
                                    enumerate(grids),
                                    lambda key: (requested.append(key), np.arange(cov.ncells))[1])
        assert [key for key, _, _ in walk] == [0, 1, 2]
        assert requested == [0, 1, 2]


def _shuffled_causal_order(cov, seed):
    """A random causal order: a topological sort of the shadow relation with random keys."""
    import heapq

    S = shadow_matrix(cov)
    indeg = S.sum(axis=0).astype(int)
    key = np.random.default_rng(seed).random(cov.ncells)
    ready = [(key[i], i) for i in range(cov.ncells) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for j in np.nonzero(S[i])[0]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (key[j], j))
    return order


def _reference_unfilled(cov, degrees, family):
    """A spline with one NodeSet per cell and axis and zero values."""
    from wsvie.interp import build_nodes
    from wsvie.spline import TensorSpline

    degrees = [degrees] * cov.ncells if isinstance(degrees, int) else list(degrees)
    nodesets = [tuple(build_nodes((lo[a], hi[a]), family, m) for a in range(cov.l))
                for lo, hi, m in zip(cov.lo_array.tolist(), cov.hi_array.tolist(), degrees)]
    return TensorSpline(cov, nodesets)


# The references below keep their own per-dimension formulas for the history
# sum, the self matrix and cell evaluation, so that a change to the solver's
# single l-axis contractions shows as a mismatch.

def _reference_eval_cell(spl, ci, pts):
    """Cell ci's interpolant at points (n, l): a matrix-vector product in 1D,
    einsum "pi,ij,pj->p" in 2D."""
    from wsvie.interp import lagrange_basis_matrix

    basis = [lagrange_basis_matrix(ns, pts[:, a]) for a, ns in enumerate(spl.nodesets[ci])]
    if len(basis) == 1:
        return basis[0] @ spl.values[ci]
    return np.einsum("pi,ij,pj->p", basis[0], spl.values[ci], basis[1])


def _reference_dense(weights):
    """Per-axis self weights as one array: the 1D matrix itself, else einsum "ia,jb->ijab"."""
    return weights[0] if len(weights) == 1 else np.einsum("ia,jb->ijab", *weights)


def _reference_history(moments, values, shape):
    """Sum over sources, in their order, of the integrals of their splines.

    ``values`` are padded as in ``spline._padded``. One matrix-vector
    product per source in 1D or with a smooth factor; in 2D one batched
    W1 @ X @ W2^T per block of sources, accumulated after the sum so far.
    """
    import wsvie.solver as solver

    out = np.zeros(shape)
    step = max(1, solver._TABLE_BUDGET // math.prod(shape))
    for lo in range(0, len(values), step):
        block = values[lo:lo + step]
        W = moments(lo, lo + len(block))
        if len(W) == 1:
            for w, v in zip(W[0], block):
                out += (w @ v.ravel()).reshape(shape)
        else:
            part = np.matmul(np.matmul(W[0], block), W[1].transpose(0, 2, 1))
            part[0] += out
            out = np.add.accumulate(part)[-1]
    return out


def _reference_padded(values, widths):
    """Per-cell values in the leading corners of a zero array (cells, M_1, ..., M_l)."""
    out = np.zeros((len(values),) + tuple(widths))
    for o, v in zip(out, values):
        o[tuple(map(slice, v.shape))] = v
    return out


def _inherit_by_lookup(spl, ci, pts, vals, priority, log):
    """Overwrite vals at the nodes pts of cell ci that inherit; returns the owned mask.

    One ``Covering.lookup`` over all the cell's nodes, then one evaluation
    per donor; the donors of the inherited nodes are appended to ``log``.
    """
    donors = spl.covering.lookup(pts, priority)
    log.append(donors[donors >= 0])
    for di in np.unique(donors[donors >= 0]):
        vals[donors == di] = _reference_eval_cell(spl, di, pts[donors == di])
    return donors < 0


def _reference_march(problem, cov, degrees, family, order, tol, log):
    """The march done cell by cell, as a reference for ``solver._march``.

    Per cell: a lookup of its donors over all its nodes, an evaluation per
    donor, one right-side call on its nodes and a history over the list of
    its predecessors' values, which ``_reference_history`` stacks block by
    block. Each cell's donors are appended to ``log``.
    """
    import wsvie.solver as solver

    spl = _reference_unfilled(cov, degrees, family)
    shadow, rank = shadow_matrix(cov), cov.causal_rank()
    widths = tuple(max(ns.m for ns in sets) for sets in zip(*spl.nodesets))
    done = np.zeros(cov.ncells, dtype=bool)
    for ci, srcs, moments in solver._cell_moments(
            problem.kernel, spl.nodesets, solver._node_grids(spl.nodesets, order),
            lambda ci: np.append(np.nonzero(shadow[:, ci])[0], ci)):
        pred = srcs[:-1]
        assert done[pred].all()
        shape = tuple(ns.m for ns in spl.nodesets[ci])
        H = _reference_history(moments, _reference_padded([spl.values[di] for di in pred], widths),
                               shape)
        # the cell's own weights: the leading corner of its padded ones
        own = _reference_dense([w[0] for w in moments(len(pred), len(srcs))])
        own = own.reshape(shape + widths)[(Ellipsis,) + tuple(map(slice, shape))]
        A = np.eye(H.size) - own.reshape(H.size, H.size)
        pts = spl.node_grid(ci)
        rhs = np.asarray(problem.rhs(*pts.T), dtype=float) + H.ravel()
        owned = _inherit_by_lookup(spl, ci, pts, rhs, np.where(shadow[:, ci], rank, cov.ncells),
                                   log)
        rows = np.flatnonzero(~owned)
        A[rows, :] = 0.0
        A[rows, rows] = 1.0
        sol = np.linalg.solve(A, rhs)
        assert np.max(np.abs(A @ sol - rhs)) <= tol
        spl.values[ci][...], spl.owned[ci][...] = sol.reshape(shape), owned.reshape(shape)
        done[ci] = True
    return spl


def _march_case(case):
    """(problem, solve, discretisation, order or None) of one reference-march case."""
    from wsvie.funclass import derive_class_params

    case = case.removesuffix("-blocks")
    if case in ("abel-1d-bstar-8", "h2-2d-qstar-2"):
        return *_table_case(case), None
    name, shuffled = case.removesuffix("-shuffled"), case.endswith("-shuffled")
    kind, gamma, N = {"qstar-4": ("q_star", 2.5, 4), "bstar-3": ("b_star", 0.5, 3),
                      "qqstar-4": ("q_double_star", 2.5, 4), "mixed-m": ("q_star", 2.5, 3),
                      "open": ("q_star", 2.5, 3)}[name]
    cov, degree, fam = preset_2d(derive_class_params(2, gamma, kind, l=2), N)
    if name == "mixed-m":
        degree = np.random.default_rng(4).integers(3, 7, cov.ncells).tolist()
    if name == "open":
        fam = "chebyshev1_open"
    order = _shuffled_causal_order(cov, N) if shuffled else None
    # the 10 cells of Q** N = 4 admit one causal order only
    assert order != causal_order(cov) or not shuffled or name == "qqstar-4"
    return get_problem("corner-power-2d"), solve_2d, (cov, degree, fam), order


# The march solves each cell with the inverse of its key (see solver._march),
# applied as a matrix-vector product; the reference march solves every cell
# by dense LU. Their values agree to rounding: at most
# 6.7e-16 of max |x| over the cases below (B* N = 3), and 1.1e-15 on every
# rung of the benchmark's three workloads for seeds 1 and 2.
LOCAL_SOLVE_RTOL = 1e-14


class TestReferenceMarch:
    # the march looks up every donor at once, evaluates the inherited nodes
    # of a cell in one batch and the right side in one call, and gathers a
    # history's sources from one padded value array, whether node counts are
    # uniform, differ per cell (mixed-m, abel-1d) or the family is open.
    # A "-blocks" case sums every history in blocks of four sources and
    # builds donor rows for a few nodes at a time. Donors and owned masks
    # match exactly, values to LOCAL_SOLVE_RTOL.
    @pytest.mark.parametrize("case", [
        "qstar-4", "qstar-4-shuffled", "bstar-3", "bstar-3-shuffled", "qqstar-4",
        "qqstar-4-shuffled", "abel-1d-bstar-8", "mixed-m", "open", "h2-2d-qstar-2",
        "qstar-4-blocks", "abel-1d-bstar-8-blocks", "mixed-m-blocks", "h2-2d-qstar-2-blocks"])
    def test_march_matches_per_cell_reference(self, case, monkeypatch):
        # the values, the owned masks and every cell's donors: with uniform
        # node counts the values do not show which of two donors holding a
        # node gave its value. Donors are logged where the march gathers the
        # inherited values, one cell at a time
        import wsvie.solver as solver
        import wsvie.spline as spline

        if case.endswith("-blocks"):
            monkeypatch.setattr(solver, "_TABLE_BUDGET", 100)
            monkeypatch.setattr(spline, "_TABLE_BUDGET", 100)
        prob, solve, disc, order = _march_case(case)
        donated, fast_log, ref_log = spline._donated, [], []
        monkeypatch.setattr(spline, "_donated", lambda padded, donors, rows: (
            fast_log.append(donors), donated(padded, donors, rows))[1])
        if solve is solve_1d:
            cov, order, tol = disc[0].covering(), causal_order(disc[0].covering()), 1e-10
            fast = solve(prob, *disc)
        else:
            cov, tol = disc[0], 1e-9
            fast = solve(prob, *disc, order=order)
            order = order or causal_order(cov)
        ref = _reference_march(prob, cov, disc[1], disc[2], order, tol, ref_log)
        assert all(np.array_equal(f, r) for f, r in zip(fast_log, ref_log, strict=True))
        assert len(fast.values) == len(ref.values)
        for ci in range(cov.ncells):
            assert np.array_equal(fast.owned[ci], ref.owned[ci])
        fast_x, ref_x = (np.concatenate([v.ravel() for v in s.values]) for s in (fast, ref))
        assert np.max(np.abs(fast_x - ref_x)) <= LOCAL_SOLVE_RTOL * np.max(np.abs(ref_x))
        if case.startswith(("qstar-4", "mixed-m")):
            assert not all(own.all() for own in fast.owned)
        if case == "open":
            assert all(own.all() for own in fast.owned)

    def test_build_matches_per_cell_reference(self, b_params_2d):
        # any total order of cells, causal or not
        cov, degree, fam = preset_2d(b_params_2d, 3)
        order = np.random.default_rng(6).permutation(cov.ncells).tolist()
        f = lambda t1, t2: np.cos(t1 + 2.0 * t2) * (t1 * t2) ** 0.5
        fast = build_tensor_spline(f, cov, degree, order=order, family=fam)
        ref = _reference_unfilled(cov, degree, fam)
        priority = np.full(cov.ncells, cov.ncells)
        for pos, ci in enumerate(order):
            pts = ref.node_grid(ci)
            vals = np.asarray(f(*pts.T), dtype=float)
            owned = _inherit_by_lookup(ref, ci, pts, vals, priority, [])
            ref.values[ci][...] = vals.reshape(degree, degree)
            ref.owned[ci][...] = owned.reshape(degree, degree)
            priority[ci] = pos
        for ci in range(cov.ncells):
            assert np.array_equal(fast.values[ci], ref.values[ci])
            assert np.array_equal(fast.owned[ci], ref.owned[ci])


# The single l-axis path is bit-identical to the per-dimension formulas in 2D.
# In 1D it evaluates a cell by einsum where the matrix-vector product summed
# in another order; where 1D node counts differ (abel-1d), its histories and
# evaluations also sum over the zeros that pad every cell to the largest
# node count, in another order. There the results agree to this relative
# tolerance.
ONE_AXIS_RTOL = 1e-15


def _reference_oracle(problem, n, V):
    """``oracle_solve``'s row recurrence with V1 = V[0] and V2 = V[1], or 1 in 1D."""
    F = np.asarray(problem.rhs(*np.meshgrid(*(np.linspace(0.0, problem.T, n + 1),) * problem.l,
                                            indexing="ij", sparse=True)), dtype=float)
    V1, V2 = V[0], V[1] if len(V) == 2 else np.eye(1)
    F = F.reshape(n + 1, -1)
    X = np.zeros_like(F)
    for i in range(n + 1):
        X[i] = np.linalg.solve(np.eye(len(V2)) - V1[i, i] * V2, F[i] + V2 @ (V1[i, :i] @ X[:i]))
    return X.reshape((n + 1,) * problem.l)


class TestPerDimensionFormulas:
    def test_eval_cell(self, b_params_2d):
        from wsvie.funclass import derive_class_params
        from wsvie.interp import lagrange_basis_matrix

        prob1, _, disc = _table_case("abel-1d-bstar-32")
        rng = np.random.default_rng(7)
        for prob, sol in ((prob1, solve_1d(prob1, *disc)),
                          (get_problem("corner-power-2d"),
                           solve_2d(get_problem("corner-power-2d"), *preset_2d(b_params_2d, 3)))):
            for ci, nsets in enumerate(sol.nodesets):
                pts = rng.uniform([ns.a for ns in nsets], [ns.b for ns in nsets], (40, prob.l))
                new, old = sol.eval_cell(ci, pts), _reference_eval_cell(sol, ci, pts)
                if prob.l == 2:
                    assert np.array_equal(new, old)
                else:   # the rounding scale of the dot product, point by point
                    B = lagrange_basis_matrix(nsets[0], pts[:, 0])
                    scale = np.abs(B) @ np.abs(sol.values[ci])
                    assert np.all(np.abs(new - old) <= ONE_AXIS_RTOL * scale)

    @pytest.mark.parametrize("budget", [None, 100])
    @pytest.mark.parametrize("case", ["qstar-4", "mixed-m", "abel-1d-bstar-8", "h2-2d-qstar-2"])
    def test_history(self, case, budget, monkeypatch):
        # bitwise, every cell's history over its predecessors: the nodal
        # values alone could hide a rounding change in a small history
        import wsvie.solver as solver

        if budget is not None:
            monkeypatch.setattr(solver, "_TABLE_BUDGET", budget)
        prob, solve, disc, _ = _march_case(case)
        sol = solve(prob, *disc)
        shadow, padded = shadow_matrix(sol.covering), sol.tables.values
        for ci, srcs, M in solver._cell_moments(
                prob.kernel, sol.nodesets, solver._node_grids(sol.nodesets, range(len(sol.values))),
                lambda ci: np.nonzero(shadow[:, ci])[0]):
            vals, shape = padded[srcs], sol.values[ci].shape
            new, old = solver._history(M, vals, shape), _reference_history(M, vals, shape)
            if case.startswith("abel-1d"):   # to the rounding scale of the sum
                scale = _reference_history(lambda lo, hi: [np.abs(w) for w in M(lo, hi)],
                                           np.abs(vals), shape)
                assert np.all(np.abs(new - old) <= ONE_AXIS_RTOL * scale)
            else:
                assert np.array_equal(new, old)

    @pytest.mark.parametrize("budget", [None, 40])
    @pytest.mark.parametrize("shape", [(5,), (1,), (3, 2), (1, 1)])
    def test_history_sums_sources_in_index_order(self, shape, budget, monkeypatch):
        # 1.0 then 299 values near 1e-16: one after another each rounds away,
        # pairwise they add up, so any other order gives other bits
        import wsvie.solver as solver

        if budget is not None:   # several blocks
            monkeypatch.setattr(solver, "_TABLE_BUDGET", budget)
        k = 300
        v = np.concatenate([[1.0], 1e-16 * (1.0 + np.arange(1, k) / k)])
        expected = 0.0
        for x in v:
            expected += x
        assert expected != math.fsum(v) and expected != np.sum(v)

        def moments(lo, hi):
            return [np.ones((hi - lo, m, 1)) for m in shape]

        out = solver._history(moments, v.reshape((k,) + (1,) * len(shape)), shape)
        assert np.array_equal(out, np.full(shape, expected))

    @pytest.mark.parametrize("name", ["corner-power-1d", "corner-power-2d", "smooth-1d"])
    def test_oracle(self, name):
        import wsvie.solver as solver
        from wsvie.interp import build_nodes
        from wsvie.quad import kernel_moments

        n = 20
        if name == "smooth-1d":
            # product integration: the moments M of h == 1 times H, h at (t_i, node)
            h = lambda t, u: 2 + t * u - u / 2
            prob = VieProblem(l=1, T=1.0, kernel=KernelSpec((2.5,), smooth_factor=h), rhs=np.cos)
            steps = np.linspace(0.0, 1.0, n + 1)
            V = np.zeros((n + 1, n + 1))
            for j in range(n):
                ns = build_nodes((steps[j], steps[j + 1]), "legendre_closed", 2)
                W = kernel_moments(steps, 2.5, ns.a, ns.b, ns) * h(steps[:, None], ns.nodes)
                V[:, j] += W[:, 0]
                V[:, j + 1] += W[:, 1]
            old = _reference_oracle(prob, n, [V])
            new = oracle_solve(prob, n).values
            assert np.max(np.abs(new - old)) <= ONE_AXIS_RTOL * np.max(np.abs(old))
            return
        prob = get_problem(name)
        t = np.linspace(0.0, prob.T, n + 1)
        V = [solver._linear_weight_matrix(t, KernelSpec((p,))) for p in prob.kernel.exponents]
        assert np.array_equal(oracle_solve(prob, n).values, _reference_oracle(prob, n, V))


class TestNonFiniteSolves:
    # a NaN residual must fail the local check, not pass it
    def test_infinite_rhs_1d(self):
        from wsvie.funclass import derive_class_params

        prob = VieProblem(l=1, T=1.0, kernel=KernelSpec((-0.5,)), rhs=lambda t: t ** -0.5)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="on cell 0"):
            solve_1d(prob, *preset_1d(derive_class_params(2, 0.5, "b_star"), 4))

    def test_nan_rhs_2d(self, q25_params_2d):
        prob = VieProblem(l=2, T=1.0, kernel=KernelSpec((2.5, 2.5)),
                          rhs=lambda t1, t2: np.where(t1 > 0.9, np.nan, 1.0 + 0.0 * t2))
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="on cell"):
            solve_2d(prob, *preset_2d(q25_params_2d, 2))

    def test_residuals_of_a_nan_spline_are_nan(self, q_params):
        prob = get_problem("corner-power-1d")
        sol = solve_1d(prob, *preset_1d(q_params, 4))
        sol.values[2][1] = np.nan
        with np.errstate(all="ignore"):
            assert np.isnan(collocation_residual(prob, sol))
            assert np.isnan(residual(prob, sol, np.linspace(0.0, 1.0, 11)))


class TestResidualBound:
    # one absolute bound on every local solve's residual, in 1D and 2D
    def test_2d_solve_checks_the_common_bound(self, q25_params_2d, monkeypatch):
        # a solution off by 5e-10 passed the former 2D bound of 1e-9; each
        # cell's solution is its shape's inverse times the right side
        import wsvie.solver as solver

        class Off(np.ndarray):
            def __matmul__(self, rhs):
                return np.asarray(self) @ rhs + 5e-10

        inverse = solver.np.linalg.inv
        monkeypatch.setattr(solver.np.linalg, "inv", lambda A: inverse(A).view(Off))
        with pytest.raises(RuntimeError, match="local solve residual"):
            solve_2d(get_problem("corner-power-2d"), *preset_2d(q25_params_2d, 2))

    def test_diverging_march_is_not_returned(self):
        # 1D B* with p = -0.9 at N = 40 diverges: the nodal values reach
        # |x| ~ 1e13 while each local backward error stays below one eps, so
        # a bound relative to the system would pass them
        from wsvie.cli import _power_problem
        from wsvie.funclass import derive_class_params

        prob = _power_problem(1, -0.9, 2.5)
        try:
            sol = solve_1d(prob, *preset_1d(derive_class_params(2, 0.5, "b_star"), 40))
        except RuntimeError:
            return
        assert max_node_error(sol, prob.exact) <= 1e-6


class TestShapeInverses:
    # with h == 1 a cell's local matrix depends only on its _shape_key
    def test_one_inverse_per_key(self, monkeypatch):
        # B* N = 4: 110 cells of 7 keys; the width-first causal order keeps
        # each key's cells together, so the bounded store inverts each once.
        # The 5 keys of several cells take the reference matrix, the 2 keys
        # of one cell that cell's own
        import wsvie.solver as solver

        inverse, shape_matrix, inverted, shared = solver.np.linalg.inv, solver._shape_matrix, [], []
        monkeypatch.setattr(solver.np.linalg, "inv", lambda A: (inverted.append(A.shape),
                                                                inverse(A))[1])
        monkeypatch.setattr(solver, "_shape_matrix", lambda kern, nsets, own, n: (
            shared.append(solver._shape_key(nsets, own)), shape_matrix(kern, nsets, own, n))[1])
        prob, solve, disc = _table_case("power-2d-bstar-4")
        assert disc[0].ncells == 110
        solve(prob, *disc)
        assert len(inverted) == 7
        assert len(shared) == len(set(shared)) == 5

    def test_per_axis_work_per_cell(self, monkeypatch):
        # B* N = 4: the march builds a dense local matrix only for its 2
        # one-cell keys and its 5 _shape_matrix builds; the other cells check
        # their residual per axis. Donor basis rows come once per block of
        # cells and axis, not once per cell
        import wsvie.solver as solver
        import wsvie.spline as spline

        local, dense, basis, rows = solver._local_matrix, [], spline.lagrange_basis_matrix, []
        monkeypatch.setattr(solver, "_local_matrix", lambda W, own: (dense.append(own.size),
                                                                     local(W, own))[1])
        monkeypatch.setattr(spline, "lagrange_basis_matrix", lambda ns, x: (rows.append(x.size),
                                                                            basis(ns, x))[1])
        prob, solve, disc = _table_case("power-2d-bstar-4")
        sol = solve(prob, *disc)
        inheriting = sum(not own.all() for own in sol.owned)
        assert len(dense) == 7 and inheriting > 50
        assert len(rows) == 2 and rows[0] == rows[1] == sum((~o).sum() for o in sol.owned)
        # blocks of about 100 nodes: one call per block and axis
        rows.clear()
        monkeypatch.setattr(spline, "_TABLE_BUDGET", 3 * 2 * disc[1] * 100)
        small = solve(prob, *disc)
        assert 2 < len(rows) < inheriting and rows[::2] == rows[1::2]
        assert all(np.array_equal(a, b) for a, b in zip(sol.values, small.values))

    def test_a_perturbed_shared_solution_fails(self, monkeypatch):
        # the per-axis residual sees one owned node of a shared key's cell
        # off by 1e-9, as the dense one did
        import wsvie.solver as solver

        inverse, shape_matrix, shared = solver.np.linalg.inv, solver._shape_matrix, []

        class Off(np.ndarray):
            def __matmul__(self, rhs):
                out = np.asarray(self) @ rhs
                out[np.flatnonzero(shared[0][1])[-1]] += 1e-9
                return out

        def matrix(kern, nsets, own, n):
            shared.append((shape_matrix(kern, nsets, own, n), own))
            return shared[-1][0]

        monkeypatch.setattr(solver, "_shape_matrix", matrix)
        monkeypatch.setattr(solver.np.linalg, "inv", lambda A: (
            inverse(A).view(Off) if shared and A is shared[0][0] else inverse(A)))
        prob, solve, disc = _table_case("power-2d-bstar-4")
        with pytest.raises(RuntimeError, match="local solve residual"):
            solve(prob, *disc)
        assert len(shared) == 1

    def test_a_wrong_key_fails_loudly(self, monkeypatch):
        # every cell on the first cell's inverse: the residual against each
        # cell's own matrix catches it
        import wsvie.solver as solver

        monkeypatch.setattr(solver, "_shape_key", lambda nsets, own: 0)
        prob, solve, disc = _table_case("power-2d-bstar-4")
        with pytest.raises(RuntimeError, match="local solve residual"):
            solve(prob, *disc)

    @pytest.mark.parametrize("exponents", [(2.5, 2.5), (2.5, 1.5)])
    def test_reference_self_moments_once_per_solve(self, exponents, q25_params_2d,
                                                   monkeypatch):
        # Q* N = 8: 37 shape keys of several cells build a _shape_matrix, all of
        # one family and node count; the reference self-moments come once per
        # (family, m, p) of a solve, not twice per key, and a second solve
        # computes them again
        import wsvie.solver as solver

        calls, moments = [], solver.kernel_moments
        monkeypatch.setattr(solver, "kernel_moments", lambda x, p, a, b, ns: (
            calls.append((ns.family, ns.m, p)), moments(x, p, a, b, ns))[1])
        cov, degree, family = preset_2d(q25_params_2d, 8)
        prob = VieProblem(l=2, T=1.0, kernel=KernelSpec(exponents), rhs=lambda t1, t2: t1 * t2)
        sol = solve_2d(prob, cov, degree, family)
        keys = Counter(solver._shape_key(n, own) for n, own in zip(sol.nodesets, sol.owned))
        assert cov.ncells == 522 and sum(count > 1 for count in keys.values()) == 37
        once = sorted({(family, degree, p) for p in exponents})
        assert sorted(calls) == once
        solve_2d(prob, cov, degree, family)
        assert sorted(calls) == sorted(once * 2)


class TestSplineTables:
    def test_one_table_build_per_spline(self, q25_params_2d, monkeypatch):
        # the constructor builds the padded tables; the march, evaluation
        # and every diagnostic read them from the spline
        import wsvie.spline as spline

        builds, padded = [], spline._padded
        monkeypatch.setattr(spline, "_padded", lambda *a: (builds.append(a), padded(*a))[1])
        prob = get_problem("corner-power-2d")
        sol = solve_2d(prob, *preset_2d(q25_params_2d, 3))
        for pt in np.random.default_rng(7).random((5, 2)):
            sol.eval(pt[None])
        max_node_error(sol, prob.exact)
        spline.n_functionals(sol)
        sup_error(sol, prob.exact, 51)
        residual(prob, sol, np.random.default_rng(8).random((4, 2)))
        collocation_residual(prob, sol)
        assert len(builds) == 1
        assert all(np.shares_memory(v, sol.tables.values) for v in sol.values)


class TestDomain:
    # the mesh or covering must span the problem's [0, T]
    def test_mesh_of_another_T_rejected(self, q_params, q25_params_2d):
        from wsvie.funclass import derive_class_params

        prob = VieProblem(l=1, T=2.0, kernel=KernelSpec((2.5,)), rhs=np.cos)
        with pytest.raises(ValueError, match=r"\[0, 2.0\]\^"):
            solve_1d(prob, *preset_1d(q_params, 4))
        prob2 = VieProblem(l=2, T=2.0, kernel=None, rhs=lambda t1, t2: t1 + t2)
        with pytest.raises(ValueError, match=r"\[0, 2.0\]\^"):
            solve_2d(prob2, *preset_2d(q25_params_2d, 2))
        sol = solve_1d(prob, *preset_1d(derive_class_params(2, 0.5, "q_star", T=2.0), 4))
        assert sol.covering.T == 2.0


class TestResidual:
    def test_exact_solution_spline_residual(self, b_params_2d):
        prob = get_problem("corner-power-2d")
        cov, degree, fam = preset_2d(b_params_2d, 5)
        spl = build_tensor_spline(prob.exact, cov, degree, family=fam)
        ax = np.linspace(0.05, 1.0, 14)
        assert residual(prob, spl, (ax, ax)) <= 1e-8

    @pytest.mark.parametrize("l", [1, 2])
    def test_empty_sample_axis_rejected(self, l, q_params, q25_params_2d):
        # an axis without samples is a caller's error, named as such
        if l == 1:
            prob = get_problem("corner-power-1d")
            sol, samples = solve_1d(prob, *preset_1d(q_params, 2)), np.array([])
        else:
            prob = get_problem("corner-power-2d")
            sol = solve_2d(prob, *preset_2d(q25_params_2d, 2))
            samples = [np.array([0.5]), np.array([])]
        with pytest.raises(ValueError, match=f"sample axis {l - 1} is empty"):
            residual(prob, sol, samples)

    def test_empty_point_array_rejected(self, q25_params_2d):
        # no sample point is a caller's error, named as such
        prob = get_problem("corner-power-2d")
        sol = solve_2d(prob, *preset_2d(q25_params_2d, 2))
        with pytest.raises(ValueError, match="sample point array is empty"):
            residual(prob, sol, np.zeros((0, 2)))

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

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("other", ["legendre_closed", "chebyshev1_closed"])
    def test_cells_of_different_families(self, l, other):
        # x = prod (1 + t_i) lies in every spline space, p = -1/2: each source
        # interval's moments use its own family, also where cells of two
        # families share an interval and a node count
        from wsvie.interp import build_nodes
        from wsvie.mesh import geometric_mesh
        from wsvie.spline import TensorSpline

        integral = lambda t: 2 * np.sqrt(t) + 4 / 3 * t ** 1.5   # of (t - tau)^(-1/2) (1 + tau)
        prob = VieProblem(l=l, T=1.0, kernel=KernelSpec((-0.5,) * l),
                          rhs=lambda *t: math.prod(1 + x for x in t) - math.prod(map(integral, t)))
        cov = (geometric_mesh(2, 1.0).covering() if l == 1
               else boundary_layer_covering(2, 1.0, 2, 1.0))   # four cells, two per interval
        families = ["legendre_closed", other]
        corners = enumerate(zip(cov.lo_array.tolist(), cov.hi_array.tolist()))
        nodesets = [tuple(build_nodes(ab, families[ci % 2], 6) for ab in zip(lo, hi))
                    for ci, (lo, hi) in corners]
        values = [math.prod(np.ix_(*[1 + ns.nodes for ns in nsets])) for nsets in nodesets]
        spl = TensorSpline(cov, nodesets, values)
        ax = np.linspace(0, 1, 21)
        assert residual(prob, spl, (ax,) * l if l > 1 else ax) <= 1e-13
        assert collocation_residual(prob, spl) <= 1e-13


class TestKernelSpec:
    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(exponents=(-1.0,))

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec(exponents=(2.5, p))

    @pytest.mark.parametrize("T", [float("nan"), float("inf")])
    def test_non_finite_T_rejected(self, T):
        with pytest.raises(ValueError, match="finite"):
            VieProblem(l=1, T=T, kernel=None, rhs=np.cos)

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
        prob = get_problem("corner-power-1d")
        worst = 0.0
        for N in range(2, 9):
            mesh, sched, fam = preset_1d(q_params, N)
            sol = solve_1d(prob, mesh, sched, fam)
            approx = build_tensor_spline(prob.exact, mesh.covering(), sched, family=fam)
            ratio = sup_error(sol, prob.exact, 2001) / sup_error(approx, prob.exact, 2001)
            worst = max(worst, ratio)
        assert worst <= 10.0
