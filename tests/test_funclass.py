import numpy as np
import pytest

from wsvie.funclass import catalogue, derive_class_params, fd_derivative, sample_member


def derivative_growth_slope(f, k: int, deltas=None, step_ratio: float = 16.0) -> float:
    """Log-log slope of |f^(k)(delta)| versus delta, estimated by differences.

    For a corner singularity t^(r+gamma) the slope approaches r + gamma - k
    as delta -> 0. The step is delta / step_ratio, keeping the bias at the
    (1/step_ratio)^2 level.
    """
    if deltas is None:
        deltas = 2.0 ** -np.arange(4, 11)
    deltas = np.asarray(deltas, dtype=float)
    vals = np.array([abs(fd_derivative(f, d, k, d / step_ratio)) for d in deltas])
    if np.any(vals == 0):
        raise ValueError("finite-difference estimate vanished; cannot fit a slope")
    return float(np.polyfit(np.log(deltas), np.log(vals), 1)[0])


class TestDeriveClassParams:
    def test_half_gamma(self):
        p = derive_class_params(2, 0.5, "q_star")
        assert (p.s, p.mu, p.zeta) == (3, 0.5, 0.5)
        assert p.grading_exponent == pytest.approx(1.5)

    def test_gamma_two_and_half(self):
        p = derive_class_params(2, 2.5, "q_star")
        assert (p.s, p.zeta) == (5, 0.5)
        assert p.grading_exponent == pytest.approx(2.5)

    def test_integer_gamma(self):
        p = derive_class_params(3, 1.0, "q_star")
        assert (p.s, p.zeta, p.mu) == (4, 0.0, None)
        assert p.grading_exponent == pytest.approx(4 / 3)

    def test_deterministic(self):
        a = derive_class_params(2, 0.5, "b_star", l=2, T=1.0, bound=1.0)
        b = derive_class_params(2, 0.5, "b_star", l=2, T=1.0, bound=1.0)
        assert a == b

    @pytest.mark.parametrize("r,gamma", [(1, 0.25), (2, 1.0), (4, 3.5), (3, 2.0)])
    def test_invariants(self, r, gamma):
        p = derive_class_params(r, gamma, "q_star")
        if float(gamma).is_integer():
            assert p.s == r + int(gamma) and p.zeta == 0.0 and p.mu is None
        else:
            assert p.s == r + int(np.floor(gamma)) + 1
            assert p.mu == pytest.approx(gamma - np.floor(gamma))
            assert p.zeta == pytest.approx(1.0 - p.mu)
        assert p.grading_exponent >= 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            derive_class_params(2, 0.0, "q_star")
        with pytest.raises(ValueError):
            derive_class_params(2, -1.0, "q_star")
        with pytest.raises(ValueError):
            derive_class_params(2, 1.5, "b_star")  # B-kinds need gamma <= 1
        with pytest.raises(ValueError):
            derive_class_params(0, 0.5, "b_star")
        with pytest.raises(ValueError):
            derive_class_params(0, 0.5, "q_star")  # grading exponent undefined
        with pytest.raises(ValueError):
            derive_class_params(2, 0.5, "smooth")

    @pytest.mark.parametrize("field", ["gamma", "bound"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, field, value):
        # NaN passed the old gamma <= 0 and bound <= 0 checks, and both
        # infinite bound and infinite gamma reached int() in the schedules
        kwargs = {"gamma": 0.5, "bound": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            derive_class_params(2, kwargs["gamma"], "q_star", bound=kwargs["bound"])


class TestSampleMember:
    def test_power_member_values(self):
        p1 = derive_class_params(2, 0.5, "q_star", l=1)
        f1 = sample_member(p1, 0)
        assert f1(0.25) == pytest.approx(0.03125)
        p2 = derive_class_params(2, 0.5, "q_star", l=2)
        f2 = sample_member(p2, 0)
        assert f2(1.0, 1.0) == pytest.approx(1.0)
        assert f2(0.5, 0.5) == pytest.approx(0.03125)

    def test_unknown_index(self):
        p = derive_class_params(2, 0.5, "q_star")
        with pytest.raises(ValueError):
            sample_member(p, 99)

    def test_catalogue_lists_all_entries(self):
        desc = catalogue()
        assert set(desc) == {0, 1, 2}
        p = derive_class_params(2, 0.5, "q_star", l=2)
        for idx in desc:
            f = sample_member(p, idx)
            assert np.isfinite(f(0.3, 0.8))

    def test_polynomial_member_degree(self):
        p = derive_class_params(3, 0.5, "q_star", l=1)
        f = sample_member(p, 1)
        # degree-3 polynomial: 4th finite difference vanishes
        assert abs(fd_derivative(f, 0.5, 4, 0.05)) <= 1e-9

    def test_members_vectorized(self):
        p = derive_class_params(2, 0.5, "q_star", l=2)
        t = np.linspace(0, 1, 11)
        for idx in range(3):
            out = sample_member(p, idx)(t[:, None], t[None, :])
            assert out.shape == (11, 11)


class TestDerivativeGrowth:
    @pytest.mark.parametrize("r,gamma", [(2, 0.5), (2, 2.5)])
    def test_power_member_slopes(self, r, gamma):
        p = derive_class_params(r, gamma, "q_star", l=1)
        f = sample_member(p, 0)
        for k in range(r + 1, p.s + 1):
            slope = derivative_growth_slope(f, k)
            assert slope == pytest.approx(r + gamma - k, abs=0.1)

    def test_fd_derivative_on_cubic(self):
        assert fd_derivative(lambda t: t ** 3, 0.7, 2, 1e-3) == pytest.approx(4.2, rel=1e-6)
