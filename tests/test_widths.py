import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsvie.funclass import derive_class_params, sample_member
from wsvie.widths import (BumpSpec, bump_eval, bump_membership_scale, bump_sup,
                          covering_count, fit_loglog_slope, layer_cube_bump,
                          width_upper_estimate)


@pytest.fixture(scope="module")
def q05_2d():
    return derive_class_params(2, 0.5, "q_star", l=2)


class TestBumpEval:
    def test_zero_outside_cell(self, q05_2d):
        spec = BumpSpec(lo=(0.2, 0.2), hi=(0.4, 0.4), k=1, N=4, params=q05_2d)
        assert bump_eval(spec, 0.5, 0.5) == 0.0
        assert bump_eval(spec, 0.1, 0.3) == 0.0

    def test_zero_on_faces(self, q05_2d):
        spec = BumpSpec(lo=(0.2, 0.2), hi=(0.4, 0.4), k=1, N=4, params=q05_2d)
        assert bump_eval(spec, 0.2, 0.3) == 0.0
        assert bump_eval(spec, 0.3, 0.4) == 0.0

    def test_center_value_matches_direct_formula(self, q05_2d):
        s = q05_2d.s
        N, k, v = 6, 0, q05_2d.s / (q05_2d.s - q05_2d.gamma)
        h = (1 / N) ** v
        spec = BumpSpec(lo=(0.0, 0.0), hi=(h, h), k=k, N=N, params=q05_2d, v=v, h=h)
        expect = (h ** 2 / 4) ** (2 * s) / (h ** (3 * s) * ((k + 1) / N) ** (v * q05_2d.gamma))
        assert bump_eval(spec, h / 2, h / 2) == pytest.approx(expect, rel=1e-12)

    def test_continuous_across_boundary(self, q05_2d):
        spec = BumpSpec(lo=(0.2, 0.2), hi=(0.4, 0.4), k=1, N=4, params=q05_2d)
        eps = 1e-8
        inside = bump_eval(spec, 0.2 + eps, 0.3)
        assert abs(inside) <= 1e-6 * bump_sup(spec)

    def test_amplitude_scales_linearly(self, q05_2d):
        a = BumpSpec(lo=(0.1, 0.1), hi=(0.3, 0.3), k=0, N=4, params=q05_2d, amplitude=1.0)
        b = BumpSpec(lo=(0.1, 0.1), hi=(0.3, 0.3), k=0, N=4, params=q05_2d, amplitude=2.5)
        assert bump_eval(b, 0.2, 0.2) == pytest.approx(2.5 * bump_eval(a, 0.2, 0.2))


class TestBumpSup:
    def test_cube_max_at_center(self, q05_2d):
        spec = BumpSpec(lo=(0.2, 0.2), hi=(0.5, 0.5), k=1, N=4, params=q05_2d)
        assert bump_sup(spec) == pytest.approx(float(bump_eval(spec, 0.35, 0.35)))

    def test_balanced_across_layers(self, q05_2d):
        sups = [bump_sup(layer_cube_bump(q05_2d, 8, k, 2)) for k in range(8)]
        assert max(sups) / min(sups) <= 4.0

    def test_scaling_in_N(self, q05_2d):
        vals = []
        for N in (4, 8, 16):
            for k in range(N):
                vals.append(bump_sup(layer_cube_bump(q05_2d, N, k, 2)) * N ** q05_2d.s)
        assert max(vals) / min(vals) <= 4.0


class TestCoveringCount:
    def test_trivial_uniform(self):
        assert covering_count(2, 2, 1.0, "boundary") == 4

    def test_matches_cells_list(self):
        from wsvie.mesh import boundary_layer_covering

        assert covering_count(5, 2, 2.5, "boundary") == boundary_layer_covering(5, 1.0, 2, 2.5).ncells

    def test_steep_grading_slope(self):
        Ns = [8, 16, 32]
        counts = [covering_count(N, 2, 3.0, "boundary") for N in Ns]
        slope = fit_loglog_slope(Ns, counts, drop_edges=False)
        assert 2.7 <= slope <= 3.3

    def test_mild_grading_slope(self):
        Ns = [8, 16, 32]
        counts = [covering_count(N, 2, 1.5, "boundary") for N in Ns]
        slope = fit_loglog_slope(Ns, counts, drop_edges=False)
        assert 1.7 <= slope <= 2.3

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            covering_count(4, 2, 2.0, "spiral")


class TestBumpMembership:
    def test_scale_finite_and_stable_in_N(self, q05_2d):
        scales = [max(bump_membership_scale(layer_cube_bump(q05_2d, N, 0, 2), n_points=25)
                      for k in (0,)) for N in (4, 8, 16)]
        assert all(np.isfinite(s) and s > 0 for s in scales)
        assert max(scales) / min(scales) <= 10.0


class TestWidthUpperEstimate:
    def test_1d_power_class_slope(self):
        params = derive_class_params(2, 0.5, "q_star", l=1)
        f = sample_member(params, 0)
        ns, errs = [], []
        for N in (8, 12, 16, 24, 32, 48, 64):
            n, err = width_upper_estimate(params, f, N)
            ns.append(n)
            errs.append(err)
        slope = fit_loglog_slope(ns, errs)
        assert -3.4 <= slope <= -2.6

    def test_1d_exponential_class(self):
        params = derive_class_params(2, 0.5, "b_star", l=1)
        f = sample_member(params, 0)
        roots, logs = [], []
        for N in range(2, 9):
            n, err = width_upper_estimate(params, f, N)
            roots.append(np.sqrt(n))
            logs.append(np.log2(err))
        slope = np.polyfit(roots, logs, 1)[0]
        assert slope <= -1.5

    def test_constant_member_exact(self):
        params = derive_class_params(2, 0.5, "q_star", l=1)
        n, err = width_upper_estimate(params, lambda t: np.ones_like(t), 8)
        assert err <= 1e-13
        assert n > 0

    def test_2d_supported_kinds(self):
        params = derive_class_params(2, 0.5, "q_star", l=2)
        f = sample_member(params, 0)
        n4, e4 = width_upper_estimate(params, f, 4)
        n2, e2 = width_upper_estimate(params, f, 2)
        assert n4 > n2 and e4 < e2

    def test_2d_b_double_star_unsupported(self):
        params = derive_class_params(2, 0.5, "b_double_star", l=2)
        with pytest.raises(ValueError):
            width_upper_estimate(params, lambda a, b: a * b, 3)


class TestSlopeFit:
    def test_exact_power_law(self):
        xs = np.array([2.0, 4.0, 8.0, 16.0])
        ys = 3.0 * xs ** -2.5
        assert fit_loglog_slope(xs, ys, drop_edges=False) == pytest.approx(-2.5)

    def test_drop_edges_uses_interior(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        ys = xs ** 2.0
        ys[0] = 100.0  # polluted edge point
        assert fit_loglog_slope(xs, ys, drop_edges=True) == pytest.approx(2.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [1.0])


@pytest.mark.parametrize("code", [
    "import sys, wsvie; assert 'wsvie.widths' not in sys.modules",
    "import wsvie; [getattr(wsvie, name) for name in wsvie.__all__];"
    " assert wsvie.widths.bump_sup is wsvie.bump_sup",
    "from wsvie import *; assert covering_count and solve_2d and BumpSpec",
    "import wsvie; assert not hasattr(wsvie, 'no_such_name')"])
def test_package_imports_widths_on_first_use(code):
    # no solve uses widths, so ``import wsvie`` leaves it out; each name of
    # ``__all__`` and the module itself still resolve, in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code], env=env, check=True)
