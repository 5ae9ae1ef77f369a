import math
import random
import warnings
from functools import lru_cache

import numpy as np
import pytest

from wsvie import interp, quad
from wsvie.interp import build_nodes, lagrange_basis_matrix
from wsvie.quad import gauss_jacobi, gauss_legendre, integrate_box, kernel_moments, power_moment


def test_one_point_rule_is_midpoint():
    rule = gauss_legendre(1)
    assert rule.nodes == pytest.approx([0.0])
    assert rule.weights == pytest.approx([2.0])


def test_two_point_rule_classical_values():
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert rule.weights == pytest.approx([1.0, 1.0])


def test_five_point_rule_integrates_t8():
    rule = gauss_legendre(5)
    val = float((rule.weights * rule.nodes ** 8).sum())
    assert val == pytest.approx(2 / 9, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 33))
def test_weights_sum_to_two(n):
    assert abs(gauss_legendre(n).weights.sum() - 2.0) <= 1e-13


@pytest.mark.parametrize("n", range(1, 65))
def test_monomial_exactness_up_to_2n_minus_1(n):
    rule = gauss_legendre(n)
    for p in range(2 * n):
        approx = float((rule.weights * rule.nodes ** p).sum())
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        if exact == 0.0:
            assert abs(approx) <= 1e-13
        else:
            assert abs(approx - exact) <= 1e-12 * abs(exact)


def test_rules_built_in_one_batch_equal_rules_built_one_at_a_time(monkeypatch):
    # the batched Newton iteration does each degree's own arithmetic in its row,
    # so neither the other degrees of a batch nor their order changes a bit
    degrees = list(range(1, 65))
    random.Random(28).shuffle(degrees)
    monkeypatch.setattr(interp, "_LEGENDRE", {})
    batch = dict(interp.legendre_table(degrees))
    monkeypatch.setattr(interp, "_LEGENDRE", {})
    for n in range(1, 65):
        roots, dp = interp.legendre_table([n])[n]   # built alone
        assert np.array_equal(roots, batch[n][0]) and np.array_equal(dp, batch[n][1])
        assert roots.size == n and not roots.flags.writeable and not dp.flags.writeable


def test_padded_rows_raise_no_warning(monkeypatch):
    # a row shorter than the batch's largest degree is padded with its last root,
    # which moves as that root does: no division by a zero derivative, no overflow
    monkeypatch.setattr(interp, "_LEGENDRE", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        interp.legendre_table(range(1, 65))


def test_cold_abel_ladder_builds_its_rules_in_few_recurrences(monkeypatch, fresh_store):
    # each walk builds the Gauss-Legendre rules of all its node counts in one
    # Newton iteration: a cold abel-1d ladder (N = 8, 16, 32, rules of 9 to 44
    # points) ran the recurrence 14 times when this test was added, and 120
    # times when every rule ran a Newton iteration of its own
    import wsvie.solver as solver
    from wsvie.funclass import derive_class_params

    calls = []

    def counted(m, x):
        calls.append(np.max(m))
        return recurrence(m, x)

    recurrence = interp._legendre_and_derivative
    monkeypatch.setattr(interp, "_legendre_and_derivative", counted)
    monkeypatch.setattr(interp, "_LEGENDRE", {})
    for name in ("gauss_legendre", "_graded_panels"):   # emptied rule caches
        monkeypatch.setattr(quad, name, lru_cache(maxsize=None)(getattr(quad, name).__wrapped__))
    params, counts = derive_class_params(2, 0.5, "b_star"), set()
    for N in (8, 16, 32):
        disc = solver.preset_1d(params, N)
        solver.solve_1d(_abel_problem(), *disc)
        counts |= {quad._rule_points(m) for m in disc[1]}
    assert set(interp._LEGENDRE) == counts and len(counts) == 15 and 0 < len(calls) <= 20


def test_n_out_of_range_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(65)


def test_gauss_jacobi_alpha_zero_matches_legendre():
    gj, gl = gauss_jacobi(6, 0.0), gauss_legendre(6)
    assert gj.nodes == pytest.approx(gl.nodes, abs=1e-13)
    assert gj.weights == pytest.approx(gl.weights, abs=1e-13)


@pytest.mark.parametrize("k", range(6))
def test_gauss_jacobi_reproduces_beta_moments(k):
    # int_0^1 (1 - tau)^2.5 tau^k dtau has the closed Beta form
    gj = gauss_jacobi(8, 2.5)
    tau = 0.5 * (gj.nodes + 1.0)
    val = 0.5 ** 3.5 * float((gj.weights * tau ** k).sum())
    assert val == pytest.approx(power_moment(2.5, k, 1.0), rel=1e-12)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.3, 2.5])
@pytest.mark.parametrize("n", [9, 24, 44, 64])
def test_gauss_jacobi_exact_below_degree_2n(n, alpha):
    # int_{-1}^{1} (1 - x)^alpha (1 + x)^k dx = 2^(alpha + k + 1) B(alpha + 1, k + 1)
    # for k < 2n, at the rule sizes the solver uses; the worst relative error was
    # 1.4e-13 when this test was added
    rule, k = gauss_jacobi(n, alpha), np.arange(2 * n)
    approx = (rule.weights[:, None] * (1.0 + rule.nodes[:, None]) ** k).sum(axis=0)
    exact = [math.exp((alpha + j + 1) * math.log(2.0) + math.lgamma(alpha + 1.0)
                      + math.lgamma(j + 1.0) - math.lgamma(alpha + j + 2.0)) for j in k.tolist()]
    assert np.max(np.abs(approx / exact - 1.0)) <= 1e-12


def test_integrate_box_volume():
    assert integrate_box(lambda x, y: np.ones_like(x), [(0, 1), (0, 1)], 1) == pytest.approx(1.0)


def test_integrate_box_separable_product():
    val = integrate_box(lambda x, y: x * y, [(0, 1), (0, 1)], 2)
    assert val == pytest.approx(0.25, rel=1e-13)


def test_integrate_box_t_power_25():
    val = integrate_box(lambda t: t ** 2.5, [(0, 1)], 20)
    assert val == pytest.approx(2 / 7, abs=1e-8)


def test_tensor_consistency_with_1d_factors():
    f1 = integrate_box(lambda t: np.cos(t), [(0, 2)], 12)
    f2 = integrate_box(lambda t: t ** 3 + 1, [(0.5, 1.5)], 12)
    prod = integrate_box(lambda x, y: np.cos(x) * (y ** 3 + 1), [(0, 2), (0.5, 1.5)], 12)
    assert prod == pytest.approx(f1 * f2, rel=1e-12)


def test_power_moment_trivial_cases():
    assert power_moment(0.0, 0.0, 1.0) == pytest.approx(1.0)
    assert power_moment(1.0, 0.0, 1.0) == pytest.approx(0.5)


def test_power_moment_matches_example_coefficient():
    # squaring gives 25 pi^2 / 1048576, the rhs coefficient of the 2D example
    val = power_moment(2.5, 2.5, 1.0)
    assert val == pytest.approx(5 * math.pi / 1024, rel=1e-13)
    assert val ** 2 == pytest.approx(25 * math.pi ** 2 / 1048576, rel=1e-12)


@pytest.mark.parametrize("a,b", [(2.5, 2.5), (0.5, 3.0), (-0.5, 0.0)])
def test_power_moment_scaling_law(a, b):
    for t in (0.25, 0.7, 1.9):
        lhs = power_moment(a, b, t)
        rhs = t ** (a + b + 1) * power_moment(a, b, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_power_moment_rejects_bad_exponents():
    with pytest.raises(ValueError):
        power_moment(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        power_moment(0.0, -1.5, 1.0)


def _brute_moment(x, p, a, u, nodeset, j, panels=4096):
    # composite Simpson after tau = u - s^2, independent of the production path
    if u <= a:
        return 0.0
    s = np.linspace(0.0, math.sqrt(u - a), 2 * panels + 1)
    tau = u - s ** 2
    g = (x - tau) ** p * lagrange_basis_matrix(nodeset, tau)[:, j] * 2 * s
    h = s[1] - s[0]
    return float(h / 3 * (g[0] + g[-1] + 4 * g[1:-1:2].sum() + 2 * g[2:-2:2].sum()))


def _jacobi_rule_ids(p):
    # Case labels of the former quad ``rule=`` keyword whose singular rows took the
    # Gauss-Jacobi rule, as every singular row does now: "jacobi", and "legendre"
    # too when p < 0. Near rows keep the 13 panels of the former ``depth=12``.
    return ("legendre", "jacobi") if p < 0 else ("jacobi",)


@pytest.mark.parametrize("p", [pytest.param(2.5, id="jacobi")])
def test_kernel_moments_against_brute_force(p):
    ns = build_nodes((0.2, 0.7), "legendre_closed", 5)
    xs = np.array([0.1, 0.2, 0.45, 0.7, 0.9, 2.0])
    M = kernel_moments(xs, p, 0.2, 0.7, ns)
    for i, x in enumerate(xs):
        u = min(x, 0.7)
        for j in range(5):
            assert M[i, j] == pytest.approx(_brute_moment(x, p, 0.2, u, ns, j),
                                            abs=5e-9)


def test_kernel_moments_abel_exponent():
    # a singular row takes the Gauss-Jacobi rule for every p > -1
    ns = build_nodes((0.0, 1.0), "legendre_closed", 4)
    vander = np.vander(ns.nodes, 4, increasing=True)
    for p in (-0.5, 0.3, 2.5):
        M = kernel_moments(np.array([1.0]), p, 0.0, 1.0, ns)
        # int_0^1 (1-tau)^p tau^k dtau = B(p+1, k+1)
        poly_moments = M[0] @ vander  # moments of monomials via basis expansion
        for k in range(4):
            assert poly_moments[k] == pytest.approx(power_moment(p, k, 1.0), rel=1e-11)


def test_axis_quadrature_rows_below_interval_are_zero():
    ns = build_nodes((0.2, 0.7), "legendre_closed", 5)
    M = kernel_moments(np.array([0.05, 0.2]), 2.5, 0.2, 0.7, ns)
    assert np.all(M[0] == 0.0)
    assert np.all(M[1] == 0.0)  # x == a: clipped range is empty


def _padded_rule(x, p, a, b, n):
    # every row's rule in x-space, written out here apart from the production
    # rules and padded to 13 n points with zero weights: n Gauss-Jacobi points
    # on [a, x] (a < x <= b), one Gauss-Legendre panel on [a, b]
    # (x - b >= b - a), else 13 panels graded dyadically toward b. With
    # L = b - a and e = (b - tau) / L, x - tau is (x - b) + L e, which keeps
    # its digits just past b. The pad point is an interior value that never
    # coincides with an interpolation node
    L, width = b - a, quad._NEAR_PANELS * n
    T = np.full((x.size, width), a + 0.43716524 * L)
    W = np.zeros((x.size, width))
    jac, gl = gauss_jacobi(n, p), gauss_legendre(n)
    rows = (a < x) & (x <= b)
    half = 0.5 * (x[rows, None] - a)
    T[rows, :n] = a + half * (jac.nodes + 1.0)
    W[rows, :n] = half ** (p + 1.0) * jac.weights
    for rows, panels in ((x - b >= L, 1), ((x > b) & (x - b < L), quad._NEAR_PANELS)):
        hi = 0.5 ** np.arange(panels)   # panel j spans e in [lo_j, hi_j]
        lo = np.append(hi[1:], 0.0)
        e = (0.5 * (hi + lo)[:, None] - 0.5 * (hi - lo)[:, None] * gl.nodes).ravel()
        w = L * (0.5 * (hi - lo)[:, None] * gl.weights).ravel()
        T[rows, :e.size] = b - L * e
        W[rows, :e.size] = w * ((x[rows, None] - b) + L * e) ** p
    return T, W


def _padded_moments(x, p, a, b, nodeset, n):
    # reference: contract the padded rows of every branch, every slot, one
    # panel of n slots at a time, and add the panels in order: one sum over
    # all 13 n slots of a near row was itself up to 10.5 eps of the row
    # maximum off the exact integral
    x = np.atleast_1d(np.asarray(x, dtype=float))
    T, W = _padded_rule(x, p, a, b, n)
    panels = W.reshape(x.size, quad._NEAR_PANELS, n)
    basis = lagrange_basis_matrix(nodeset, T).reshape(panels.shape + (-1,))
    parts = np.einsum("rjq,rjqm->jrm", panels, basis)
    return sum(parts[1:], parts[0])


def _assert_near_reference(M, ref, m, a, b):
    # The production basis is evaluated on the reference interval [-1, 1];
    # the reference evaluates it at x-space points, whose rounding of
    # eps |b| is a relative error of eps |b| / (b - a) on the interval, grown
    # by about m^2 / 4 in the basis (measured: 1.6, 6.1, 66 and 590 times
    # eps max(1, |b| / (b - a)) at m = 2, 5, 14 and 40). Each row must lie
    # within 2 m^2 of that of its largest reference entry; rows the reference
    # leaves zero must be zero.
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    tol = 2 * m * m * np.finfo(float).eps * max(1.0, abs(b) / (b - a))
    assert np.all(np.abs(M - ref) <= tol * scale)


def _rows_in_every_branch(a, b):
    L = b - a
    below = [a - 0.5 * L, a]
    singular = [a + 1e-3 * L, a + 0.37 * L, b]
    near = [b + 1e-9 * L, b + 0.02 * L, b + 0.6 * L]
    far = [b + L, b + 2.3 * L, b + 17.0 * L]
    return np.array(below + singular + near + far)


@pytest.mark.parametrize("p, m", [pytest.param(p, m, id=f"{p}-{rule}-{m}-12")
                                  for p in (2.5, 0.3, -0.5) for rule in _jacobi_rule_ids(p)
                                  for m in (2, 5, 14, 40)])
def test_kernel_moments_match_padded_contraction(p, m):
    a, b = 0.25, 0.65
    ns = build_nodes((a, b), "legendre_closed", m)
    xs = _rows_in_every_branch(a, b)
    M = kernel_moments(xs, p, a, b, ns)
    ref = _padded_moments(xs, p, a, b, ns, quad._rule_points(m))
    assert M.shape == ref.shape == (xs.size, m)
    assert np.all(M[:2] == 0.0)
    _assert_near_reference(M, ref, m, a, b)


def _interval_stack(ms):
    # intervals of the node counts ms, narrow and wide, overlapping and apart;
    # one coordinate array holds rows in every branch of every interval, rows
    # at or below a, rows on nodes and rows one ulp past b
    boxes = [(0.25, 0.65), (0.1, 0.3), (0.6, 0.61), (0.0, 1.0), (0.3, 0.300001)]
    nodesets = [build_nodes(box, "legendre_closed", m) for box, m in zip(boxes, ms)]
    xs = np.concatenate([_rows_in_every_branch(*box) for box in boxes]
                        + [np.nextafter([b for _, b in boxes], np.inf)]
                        + [ns.nodes for ns in nodesets])
    return np.unique(xs), nodesets


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("ms", [(2,) * 5, (5,) * 5, (14,) * 5, (40,) * 5, (5, 2, 40, 14, 5)],
                         ids=["2", "5", "14", "40", "mixed"])
@pytest.mark.parametrize("p", [2.5, 0.3, -0.5])
def test_stacked_moments_equal_one_interval_calls(p, ms, budget, monkeypatch):
    # every row of a stacked call is that of kernel_moments on its interval
    # alone, to the bit, whatever the other node counts of the call, zero past
    # the interval's node count, and near the x-space reference at the rule of
    # its own node count. The single-interval side runs at the default block
    # budget, the stacked call also with one row per block (budget 1), so the
    # split into blocks changes no bit. Some rule points fall on nodes of the
    # same interval (exact unit basis rows), for the rule n = m - 2 every
    # far-row point of a Legendre family
    xs, nodesets = _interval_stack(ms)
    a, b = [ns.a for ns in nodesets], [ns.b for ns in nodesets]
    for rule in (quad._rule_points, lambda m: max(m - 2, 1)):
        with monkeypatch.context() as patch:
            patch.setattr(quad, "_rule_points", rule)
            one = [kernel_moments(xs, p, lo, hi, ns) for lo, hi, ns in zip(a, b, nodesets)]
            if budget is not None:
                patch.setattr(quad, "_TABLE_BUDGET", budget)
            M = quad.stacked_kernel_moments(xs, p, a, b, nodesets)
        assert M.shape == (len(nodesets), xs.size, max(ms))
        for Ms, one, lo, hi, ns in zip(M, one, a, b, nodesets):
            ref = _padded_moments(xs, p, lo, hi, ns, rule(ns.m))
            _assert_near_reference(one, ref, ns.m, lo, hi)
            assert np.array_equal(Ms[:, :ns.m], one)
            assert np.all(Ms[:, ns.m:] == 0.0)
            assert np.all(one[xs <= lo] == 0.0)


def _abel_problem():
    from wsvie.solver import KernelSpec, VieProblem

    h = power_moment(-0.5, 0.5, 1.0)  # kernel applied to t^(1/2) is h t
    return VieProblem(l=1, T=1.0, kernel=KernelSpec(exponents=(-0.5,)),
                      rhs=lambda t: t ** 0.5 - h * t, exact=lambda t: t ** 0.5)


@pytest.mark.parametrize("case", ["abel-1d-bstar-8", "power-2d-qstar-2", "power-2d-bstar-2"])
def test_solver_values_match_padded_contraction(case, monkeypatch):
    import wsvie.solver as solver
    from wsvie.cli import get_problem
    from wsvie.funclass import derive_class_params

    if case.startswith("abel"):
        problem = _abel_problem()
        disc = solver.preset_1d(derive_class_params(2, 0.5, "b_star"), 8)
        solve = solver.solve_1d
    else:
        problem = get_problem("corner-power-2d")
        kind, gamma = ("q_star", 2.5) if "qstar" in case else ("b_star", 0.5)
        disc = solver.preset_2d(derive_class_params(2, gamma, kind, l=2), 2)
        solve = solver.solve_2d
    fast = solve(problem, *disc)
    calls = [0]

    def padded_stack(x, p, a, b, nodesets, rows=None, pairs=None, out=None):
        # the solver asks for the moments of the pairs (s, r) it keeps, into ``out``
        calls[0] += 1
        M = np.zeros((len(nodesets), np.size(x), max(ns.m for ns in nodesets)))
        for Ms, lo, hi, ns in zip(M, a, b, nodesets):
            Ms[:, :ns.m] = _padded_moments(x, p, lo, hi, ns, quad._rule_points(ns.m))
        if pairs is None:
            return M
        out[:, :M.shape[2]] = M[pairs]
        return out

    monkeypatch.setattr(solver, "stacked_kernel_moments", padded_stack)
    ref = solve(problem, *disc)
    assert calls[0] > 0  # the solver's tables came from the padded reference
    assert len(fast.values) == len(ref.values)
    for v, w in zip(fast.values, ref.values):
        assert np.max(np.abs(np.asarray(v) - np.asarray(w))) <= 1e-14


def _row_sum_error(p, x, family="legendre_closed", m=5, boxes=((0.3, 0.8),)):
    # sum_j l_j = 1, so each row must integrate the bare kernel (x - tau)^p
    # over [a, min(b, x)]: (x - a)^(p+1) / (p+1) for x <= b, else
    # (x - b)^(p+1) expm1((p+1) log1p((b - a) / (x - b))) / (p+1), which keeps
    # its digits far past b. Relative errors of the rows with x > a of every
    # interval, all stacked in one call
    xs = np.asarray(x, dtype=float)
    nodesets = [build_nodes(box, family, m) for box in boxes]
    M = quad.stacked_kernel_moments(xs, p, *zip(*boxes), nodesets)
    errors = []
    for Ms, (a, b) in zip(M, boxes):
        inside, past = (a < xs) & (xs <= b), xs > b
        d = xs[past] - b
        exact = np.append((xs[inside] - a) ** (p + 1),
                          d ** (p + 1) * np.expm1((p + 1) * np.log1p((b - a) / d))) / (p + 1)
        errors.append(np.abs(np.append(Ms[inside].sum(axis=1), Ms[past].sum(axis=1)) - exact)
                      / exact)
    return np.concatenate(errors)


@pytest.mark.parametrize("p", [pytest.param(p, id=f"{p}-{rule}")
                               for p in (2.5, 0.3, -0.5) for rule in _jacobi_rule_ids(p)])
def test_kernel_moment_rows_sum_to_closed_form(p):
    # the node families and counts of the benchmark workloads, on intervals
    # stacked in one call, one of them narrow; the worst relative error was
    # 3.4e-15 both before and after the basis moved to the reference interval
    boxes = ((0.3, 0.8), (2.0 ** -20, 2.0 ** -19), (0.0, 1.0))
    xs = []
    for a, b in boxes:
        L = b - a
        xs += [a + 0.1 * L, a + 0.5 * L, b,            # singular
               b + 1e-2 * L, b + 0.3 * L, b + 0.99 * L,  # near
               b + L, b + 3.0 * L]                       # far
    for family, m in [("legendre_closed", 5), ("legendre_closed", 40),
                      ("chebyshev1_closed", 14), ("chebyshev1_closed", 40)]:
        assert np.max(_row_sum_error(p, xs, family, m, boxes)) <= 1e-13


@pytest.mark.xfail(strict=True, reason="near rows grade toward b, not x: the "
                   "(x - tau)^(-1/2) peak just past b is unresolved (ROADMAP item 1)")
@pytest.mark.parametrize("gap", [1e-12, 1e-6])
def test_kernel_moment_rows_sum_just_past_interval(gap):
    # relative row-sum errors were 7.2e-4 and 1.3e-4 when this case was added
    a, b = 0.3, 0.8
    assert _row_sum_error(-0.5, [b + gap * (b - a)])[0] <= 1e-13


@pytest.mark.parametrize("family, m", [("legendre_closed", 5), ("chebyshev1_closed", 40)])
def test_shared_rules_evaluate_the_basis_once_per_call(family, m, monkeypatch):
    # far and near rows of every interval of one node count share their reference
    # rule points, so a stacked call evaluates the basis once per shared rule,
    # however many intervals it stacks
    evaluated = []

    def counted(nodeset, points):
        evaluated.append(np.size(points))
        return lagrange_basis_matrix(nodeset, points)

    monkeypatch.setattr(quad, "lagrange_basis_matrix", counted)
    x = np.array([0.6, 0.8, 0.95, 1.1, 2.0, 7.0])   # near and far rows of all
    n = quad._rule_points(m)
    work = []
    for S in (1, 20):
        a = np.linspace(0.0, 0.05, S)
        nodesets = [build_nodes((lo, lo + 0.5), family, m) for lo in a]
        evaluated.clear()
        M = quad.stacked_kernel_moments(x, -0.5, a, a + 0.5, nodesets)
        assert np.all(M.any(axis=2))
        work.append(list(evaluated))
    assert work[0] == work[1] == [n, n * quad._NEAR_PANELS]


def test_far_rule_basis_once_per_walk(monkeypatch, fresh_store):
    # the far rows of one node count share one rule, whose basis the walk's row
    # store keeps: an abel-1d B* N = 32 solve (33 segments, 16 node counts from
    # 2 to 40) evaluates it once per (family, m), not once per stacked call
    # (97 times when each call evaluated its own)
    import wsvie.solver as solver
    from wsvie.funclass import derive_class_params

    far = []

    def counted(nodeset, points):
        if np.ndim(points) == 1 and np.size(points) == quad._rule_points(nodeset.m):
            far.append((nodeset.family, nodeset.m))
        return lagrange_basis_matrix(nodeset, points)

    monkeypatch.setattr(quad, "lagrange_basis_matrix", counted)
    disc = solver.preset_1d(derive_class_params(2, 0.5, "b_star"), 32)
    sol = solver.solve_1d(_abel_problem(), *disc)
    groups = {(ns.family, ns.m) for (ns,) in sol.nodesets}
    assert len(groups) == 16 and sorted(far) == sorted(groups)
