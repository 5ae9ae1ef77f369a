"""Acceptance gate: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report. Stated runtime budgets are
asserted together with the tolerances.
"""

import heapq
import math
import time

import numpy as np
import pytest

from wsvie.cli import emit_report, get_problem, run_convergence
from wsvie.funclass import derive_class_params
from wsvie.interp import build_nodes, geometric_degree_schedule, lagrange_basis_matrix, \
    lebesgue_constant, power_degree_schedule
from wsvie.mesh import causal_order, geometric_mesh, power_graded_mesh, shadow_matrix, \
    verify_causal_order
from wsvie.quad import gauss_legendre
from wsvie.solver import oracle_solve, preset_1d, preset_2d, solve_1d, solve_2d
from wsvie.spline import build_tensor_spline, max_node_error, sup_error
from wsvie.widths import covering_count, fit_loglog_slope, layer_cube_bump, bump_sup


def _report(num, detail):
    print(f"ACCEPTANCE {num} PASS: {detail}")


def test_criterion_01_quadrature_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 33):
        rule = gauss_legendre(n)
        for p in range(2 * n):
            approx = float((rule.weights * rule.nodes ** p).sum())
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            err = abs(approx) if exact == 0.0 else abs(approx - exact) / exact
            worst = max(worst, err)
            assert err <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"monomial exactness to degree 2n-1 for n<=32, worst rel err "
               f"{worst:.2e} <= 1e-12 ({elapsed:.2f}s < 1s)")


def test_criterion_02_interpolation_reproduction():
    t0 = time.perf_counter()
    t = np.linspace(0.0, 1.0, 201)
    worst = 0.0
    for family in ("legendre_closed", "chebyshev1_closed", "chebyshev1_open"):
        start = 1 if family == "chebyshev1_open" else 2
        for m in range(start, 21):
            ns = build_nodes((0.0, 1.0), family, m)
            basis = lagrange_basis_matrix(ns, t)
            for p in range(m):
                err = float(np.max(np.abs(basis @ ns.nodes ** p - t ** p)))
                worst = max(worst, err)
                assert err <= 1e-11
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"all families reproduce degree <= m-1 for m <= 20, worst err "
               f"{worst:.2e} <= 1e-11 ({elapsed:.2f}s < 1s)")


def test_criterion_03_lebesgue_growth():
    t0 = time.perf_counter()
    lam3 = lebesgue_constant(build_nodes((-1.0, 1.0), "chebyshev1_closed", 3))
    assert abs(lam3 - 1.25) <= 1e-9
    ms = [8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64]
    lams = {m: lebesgue_constant(build_nodes((-1.0, 1.0), "chebyshev1_closed", m))
            for m in ms}
    ratios = {m: lams[m] / (m ** 2 * math.log(m)) for m in ms}
    C = max(ratios[m] for m in ms if m <= 16)
    assert all(lams[m] <= 1.05 * C * m ** 2 * math.log(m) for m in ms)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"lambda_3 = {lam3:.10f} (1.25 +- 1e-9); lambda_m <= C m^2 ln m "
               f"with C = {C:.3f} fitted on m <= 16, holds through m = 64 "
               f"({elapsed:.2f}s < 5s)")


def test_criterion_04_1d_spline_rate():
    t0 = time.perf_counter()
    f = lambda t: t ** 2.5
    errs = {}
    for N in (8, 16, 32, 64):
        mesh = power_graded_mesh(N, 1.0, 1.5)
        spl = build_tensor_spline(f, mesh.covering(), power_degree_schedule(N, 2, 3))
        errs[N] = sup_error(spl, f, 2001)
    ratios = [errs[N] / errs[2 * N] for N in (8, 16, 32)]
    per_doubling = float(np.prod(ratios) ** (1 / 3))
    assert 6.0 <= per_doubling <= 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, f"decay order s = 3: per-doubling error ratio over N in [8, 64] "
               f"is {per_doubling:.2f} in [6, 10] (pairwise "
               f"{', '.join(f'{r:.2f}' for r in ratios)}) ({elapsed:.2f}s < 5s)")


def test_criterion_05_geometric_mesh_decay():
    t0 = time.perf_counter()
    f = lambda t: t ** 2.5
    errs = []
    for N in range(2, 9):
        mesh = geometric_mesh(N, 1.0)
        sched = geometric_degree_schedule(mesh.nsegments, 2, 0.5, 1.0, 1.0)
        spl = build_tensor_spline(f, mesh.covering(), sched, family="chebyshev1_closed")
        errs.append(sup_error(spl, f, 2001))
    decay = float(np.mean([np.log2(a / b) for a, b in zip(errs, errs[1:])]))
    assert decay >= 1.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, f"geometric-mesh mean log2 decay per level {decay:.2f} >= 1.5 "
               f"(theory 2.5) over N = 2..8 ({elapsed:.2f}s < 5s)")


def test_criterion_06_1d_solver():
    t0 = time.perf_counter()
    params = derive_class_params(2, 0.5, "q_star")
    prob = get_problem("corner-power-1d")
    mesh, sched, fam = preset_1d(params, 16)
    sol = solve_1d(prob, mesh, sched, fam)
    node_err = max_node_error(sol, prob.exact)
    assert node_err <= 1e-6
    cos_prob = get_problem("cos-rhs-1d")
    oracle = oracle_solve(cos_prob, 200)
    cos_sol = solve_1d(cos_prob, mesh, sched, fam)
    dev = float(np.max(np.abs(cos_sol.eval(oracle.axes[0]) - oracle.values)))
    assert dev <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(6, f"manufactured grid-node error {node_err:.2e} <= 1e-6 at N = 16; "
               f"oracle agreement {dev:.2e} <= 1e-3 ({elapsed:.2f}s < 10s)")


def test_criterion_07_2d_reference_example():
    t0 = time.perf_counter()
    prob = get_problem("corner-power-2d")
    sweeps = {}
    for kind, gamma in (("b_star", 0.5), ("q_star", 2.5)):
        params = derive_class_params(2, gamma, kind, l=2)
        eps1 = []
        for N in (1, 2, 3, 4, 5):
            cov, degree, fam = preset_2d(params, N)
            sol = solve_2d(prob, cov, degree, fam)
            eps1.append(max_node_error(sol, prob.exact, owned_only=True))
        sweeps[kind] = eps1
        assert all(a > b for a, b in zip(eps1, eps1[1:])), f"{kind}: {eps1}"
    assert sweeps["b_star"][2] <= 1e-6   # N = 3
    assert sweeps["q_star"][4] <= 1e-5   # N = 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, f"eps1(B*, N=3) = {sweeps['b_star'][2]:.2e} <= 1e-6, "
               f"eps1(Q*, N=5) = {sweeps['q_star'][4]:.2e} <= 1e-5, "
               f"strictly decreasing over N = 1..5 in both presets "
               f"({elapsed:.1f}s < 120s)")


def test_criterion_08_convergence_contract():
    t0 = time.perf_counter()
    prob1 = get_problem("corner-power-1d")
    params1 = derive_class_params(2, 0.5, "q_star")
    worst1 = 0.0
    for N in range(2, 9):
        mesh, sched, fam = preset_1d(params1, N)
        sol = solve_1d(prob1, mesh, sched, fam)
        approx = build_tensor_spline(prob1.exact, mesh.covering(), sched, family=fam)
        worst1 = max(worst1, sup_error(sol, prob1.exact, 2001)
                     / sup_error(approx, prob1.exact, 2001))
    prob2 = get_problem("corner-power-2d")
    params2 = derive_class_params(2, 2.5, "q_star", l=2)
    worst2 = 0.0
    for N in range(2, 9):
        cov, degree, fam = preset_2d(params2, N)
        sol = solve_2d(prob2, cov, degree, fam)
        approx = build_tensor_spline(prob2.exact, cov, degree, family=fam)
        worst2 = max(worst2, sup_error(sol, prob2.exact, 201)
                     / sup_error(approx, prob2.exact, 201))
    assert worst1 <= 10.0
    assert worst2 <= 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(8, f"solver sup error <= C x spline sup error with C(1D) = {worst1:.2f}, "
               f"C(2D) = {worst2:.2f}, both <= 10 over N = 2..8 ({elapsed:.1f}s < 120s)")


def test_criterion_09_width_diagnostics():
    t0 = time.perf_counter()
    slopes = {}
    for v, expect in ((1.5, 2.0), (3.0, 3.0)):
        counts = [covering_count(N, 2, v, "boundary") for N in (8, 16, 32)]
        slope = fit_loglog_slope([8, 16, 32], counts, drop_edges=False)
        slopes[v] = slope
        assert abs(slope - expect) <= 0.3
    params = derive_class_params(2, 0.5, "q_star", l=2)
    scaled = []
    for N in (4, 8, 16):
        for k in range(N):
            scaled.append(bump_sup(layer_cube_bump(params, N, k, 2)) * N ** params.s)
    spread = max(scaled) / min(scaled)
    assert spread <= 4.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(9, f"covering-count slopes v=1.5: {slopes[1.5]:.2f} (target 2 +- 0.3), "
               f"v=3: {slopes[3.0]:.2f} (target 3 +- 0.3); bump_sup * N^s spread "
               f"{spread:.2f} <= 4 across k and N in {{4, 8, 16}} ({elapsed:.1f}s < 30s)")


def test_criterion_10_determinism_and_order_invariance():
    t0 = time.perf_counter()
    cfg = {"problem": "corner-power-1d",
           "class_params": {"r": 2, "gamma": 0.5, "kind": "q_star"},
           "N": [2, 4, 8]}

    def stripped(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.strip().splitlines())

    a = emit_report(run_convergence(cfg), "csv")
    b = emit_report(run_convergence(cfg), "csv")
    assert stripped(a) == stripped(b)

    prob = get_problem("corner-power-2d")
    params = derive_class_params(2, 2.5, "q_star", l=2)
    cov, degree, fam = preset_2d(params, 3)
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
    default = causal_order(cov)
    assert alt != default and verify_causal_order(cov, alt)
    s1 = solve_2d(prob, cov, degree, fam, order=default)
    s2 = solve_2d(prob, cov, degree, fam, order=alt)
    assert all(np.array_equal(s1.values[ci], s2.values[ci]) for ci in range(cov.ncells))
    elapsed = time.perf_counter() - t0
    _report(10, f"byte-identical reports (wall time aside); two distinct causal "
                f"orders give identical nodal values ({elapsed:.1f}s)")
