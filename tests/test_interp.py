import math

import numpy as np
import pytest

from wsvie.interp import (FAMILIES, _legendre_and_derivative, build_nodes, chebyshev1_roots,
                          lagrange_basis_matrix, lebesgue_constant, legendre_roots)


class TestLegendreRoots:
    def test_m1(self):
        assert legendre_roots(1) == pytest.approx([0.0])

    def test_m2(self):
        assert legendre_roots(2) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])

    @pytest.mark.parametrize("m", [3, 5, 12, 40])
    def test_residual_and_symmetry(self, m):
        roots = legendre_roots(m)
        assert len(np.unique(roots)) == m
        assert np.max(np.abs(_legendre_and_derivative(m, roots)[0])) <= 1e-13
        assert roots == pytest.approx(-roots[::-1])

    def test_rejects_m0(self):
        with pytest.raises(ValueError):
            legendre_roots(0)


class TestChebyshevRoots:
    def test_m1(self):
        assert chebyshev1_roots(1) == pytest.approx([0.0], abs=1e-16)

    def test_m2(self):
        c = math.cos(math.pi / 4)
        assert chebyshev1_roots(2) == pytest.approx([-c, c])

    def test_m4_closed_form(self):
        expect = sorted([math.cos(math.pi / 8), -math.cos(math.pi / 8),
                         math.cos(3 * math.pi / 8), -math.cos(3 * math.pi / 8)])
        assert chebyshev1_roots(4) == pytest.approx(expect)


class TestBuildNodes:
    def test_legendre_closed_m4(self):
        ns = build_nodes((0, 1), "legendre_closed", 4)
        h = 0.5 / math.sqrt(3)
        assert ns.nodes == pytest.approx([0.0, 0.5 - h, 0.5 + h, 1.0])

    def test_chebyshev_open_m2_on_0_2(self):
        ns = build_nodes((0, 2), "chebyshev1_open", 2)
        c = math.cos(math.pi / 4)
        assert ns.nodes == pytest.approx([1 - c, 1 + c])

    def test_chebyshev_closed_m3(self):
        ns = build_nodes((0, 1), "chebyshev1_closed", 3)
        assert ns.nodes == pytest.approx([0.0, 0.5, 1.0])

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            build_nodes((0, 1), "legendre_closed", 1)
        with pytest.raises(ValueError):
            build_nodes((0, 1), "chebyshev1_open", 0)

    def test_rejects_bad_segment_and_family(self):
        with pytest.raises(ValueError):
            build_nodes((1, 0), "legendre_closed", 3)
        with pytest.raises(ValueError):
            build_nodes((0, 1), "radau", 3)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("m", [2, 3, 7, 16])
    def test_node_symmetry_about_midpoint(self, family, m):
        if family == "chebyshev1_open":
            m = max(m - 1, 1)
        ns = build_nodes((0.3, 1.7), family, m)
        assert ns.nodes == pytest.approx(0.3 + 1.7 - ns.nodes[::-1])


class TestInterpolate:
    def test_quadratic_reproduction(self):
        ns = build_nodes((0, 1), "chebyshev1_closed", 3)
        poly = lagrange_basis_matrix(ns, 0.25) @ ns.nodes ** 2
        assert poly == pytest.approx([0.0625], abs=1e-14)

    def test_partition_of_unity(self):
        ns = build_nodes((0, 1), "legendre_closed", 6)
        poly = lagrange_basis_matrix(ns, np.linspace(0, 1, 37)) @ np.full(6, 3.25)
        assert poly == pytest.approx(np.full(37, 3.25))

    def test_linear(self):
        ns = build_nodes((0, 1), "legendre_closed", 2)
        poly = lagrange_basis_matrix(ns, 0.3) @ np.array([0.0, 1.0])
        assert poly == pytest.approx([0.3])

    def test_exact_at_nodes(self):
        ns = build_nodes((0, 2), "chebyshev1_closed", 8)
        vals = np.sin(ns.nodes)
        poly = lagrange_basis_matrix(ns, ns.nodes) @ vals
        assert poly == pytest.approx(vals, abs=0.0)

    @pytest.mark.parametrize("family", ["legendre_closed", "chebyshev1_closed"])
    def test_unit_rows_a_subnormal_distance_from_a_node(self, family):
        # weights / (x - node) overflowed there, and the row normalised to inf / inf:
        # a NaN, and under -W error a RuntimeWarning. Nodes at 0: the end of [0, 1]
        # and the middle node of 5 on [-1, 1]
        tiny = np.nextafter(0.0, 1.0)
        for segment, j in (((0.0, 1.0), 0), ((-1.0, 1.0), 2)):
            ns = build_nodes(segment, family, 5)
            assert ns.nodes[j] == 0.0
            x = np.array([-tiny, tiny, 2 * tiny, 1e3 * tiny])
            x = x[x >= ns.a]
            assert np.array_equal(lagrange_basis_matrix(ns, x), np.eye(5)[[j] * x.size])

    def test_duplicate_nodes_rejected(self):
        from wsvie.interp import NodeSet

        with pytest.raises(ValueError):
            NodeSet(a=0, b=1, family="legendre_closed", m=3, nodes=np.array([0.0, 0.5, 0.5]))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_polynomial_reproduction_all_degrees(self, family):
        t = np.linspace(0, 1, 211)
        for m in range(1 if family == "chebyshev1_open" else 2, 21):
            ns = build_nodes((0, 1), family, m)
            for p in range(m):
                poly = lagrange_basis_matrix(ns, t) @ ns.nodes ** p
                assert np.max(np.abs(poly - t ** p)) <= 1e-11

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 10])
    def test_barycentric_matches_direct_lagrange(self, m):
        ns = build_nodes((0.2, 1.1), "legendre_closed", m)
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(m)
        ts = np.linspace(0.2, 1.1, 53)
        poly = lagrange_basis_matrix(ns, ts) @ vals
        direct = np.zeros_like(ts)
        for i in range(m):
            li = np.ones_like(ts)
            for j in range(m):
                if j != i:
                    li *= (ts - ns.nodes[j]) / (ns.nodes[i] - ns.nodes[j])
            direct += vals[i] * li
        assert np.max(np.abs(poly - direct)) <= 1e-12


class TestLebesgueConstant:
    def test_two_nodes_gives_one(self):
        ns = build_nodes((0, 1), "legendre_closed", 2)
        assert lebesgue_constant(ns) == pytest.approx(1.0, abs=1e-12)

    def test_three_equispaced_nodes(self):
        # max of |t(1-t)/2| + |1-t^2| + |t(1+t)/2| on [-1,1] is 1.25 at t = +-1/2
        ns = build_nodes((-1, 1), "chebyshev1_closed", 3)
        assert ns.nodes == pytest.approx([-1.0, 0.0, 1.0])
        assert lebesgue_constant(ns) == pytest.approx(1.25, abs=1e-9)

    def test_resolution_validated(self):
        ns = build_nodes((0, 1), "legendre_closed", 4)
        with pytest.raises(ValueError):
            lebesgue_constant(ns, resolution=20)

    def test_independent_of_segment_length(self):
        a = lebesgue_constant(build_nodes((0, 1), "chebyshev1_closed", 9))
        b = lebesgue_constant(build_nodes((3, 7), "chebyshev1_closed", 9))
        assert a == pytest.approx(b, rel=1e-9)

    def test_closed_chebyshev_growth_is_quadratic_log(self):
        ms = [8, 12, 16, 24, 32, 48, 64]
        lams = {m: lebesgue_constant(build_nodes((-1, 1), "chebyshev1_closed", m))
                for m in ms}
        ratios = {m: lams[m] / (m ** 2 * math.log(m)) for m in ms}
        cap = 1.05 * max(ratios[m] for m in (8, 12, 16))
        assert all(ratios[m] <= cap for m in ms)

    def test_closed_chebyshev_nondecreasing_beyond_4(self):
        lams = [lebesgue_constant(build_nodes((-1, 1), "chebyshev1_closed", m))
                for m in range(5, 21)]
        assert all(a <= b + 1e-12 for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_open_nodes_no_worse_than_closed(self, m):
        lam_open = lebesgue_constant(build_nodes((-1, 1), "chebyshev1_open", m))
        lam_closed = lebesgue_constant(build_nodes((-1, 1), "chebyshev1_closed", m))
        assert lam_open <= lam_closed + 1e-12
