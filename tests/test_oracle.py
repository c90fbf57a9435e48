import numpy as np
import pytest

from helpers import (
    DimensionTooLarge,
    bisection_ball_max,
    closed_form_inner_min,
    grid_worst_case,
    random_lqc_spec,
)
from soclqc import verify
from soclqc.lqc import build_compact_cost, scalar_benchmark_spec
from soclqc.oracle import max_quad_over_ball
from soclqc.verify import worst_case


def kkt_residual(C, h, res):
    """Stationarity residual (nu I - C) w - h at a boundary solution."""
    return np.linalg.norm((res.multiplier * np.eye(len(h)) - C) @ res.w_star - h)


class TestBallMax:
    @pytest.mark.parametrize("C, h, gamma", [
        (np.eye(2), np.ones(2), np.nan),
        (np.eye(2), np.ones(2), np.inf),
        (np.eye(2), np.ones(2), 0.0),
        (np.eye(2), np.ones(2), -1.0),
        (np.array([[1.0, 0.0], [0.0, np.nan]]), np.ones(2), 1.0),
        (np.array([[1.0, 0.0], [0.0, np.inf]]), np.ones(2), 1.0),
        (np.eye(2), np.array([1.0, np.nan]), 1.0),
        (np.eye(2), np.array([1.0, -np.inf]), 1.0),
    ], ids=["radius-nan", "radius-inf", "radius-zero", "radius-negative", "C-nan", "C-inf",
            "h-nan", "h-inf"])
    def test_rejects_non_finite_data_and_bad_radius(self, C, h, gamma):
        # a nan used to raise BisectionFailure, and radius inf returned a
        # finite maximum where the supremum is +inf
        with pytest.raises(ValueError, match="C and h must be finite|radius must be positive"):
            max_quad_over_ball(C, h, gamma)

    def test_linear_over_ball(self):
        res = max_quad_over_ball(np.zeros((2, 2)), np.array([1.0, 0.0]), 1.0)
        assert abs(res.value - 2.0) <= 1e-12
        assert np.allclose(res.w_star, [1.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("gamma", [1e-8, 0.3, 1e5])
    def test_zero_form(self, n, gamma):
        # verify calls the oracle on the zero form as well (a cost that no
        # disturbance enters); it ends in the hard case, on the sphere
        res = max_quad_over_ball(np.zeros((n, n)), np.zeros(n), gamma)
        assert res.value == 0.0 and res.hard_case
        assert abs(np.linalg.norm(res.w_star) - gamma) <= 1e-12 * gamma

    def test_isotropic_hard_case(self):
        res = max_quad_over_ball(np.eye(3), np.zeros(3), 2.0)
        assert abs(res.value - 4.0) <= 1e-10
        assert res.hard_case
        assert abs(np.linalg.norm(res.w_star) - 2.0) <= 1e-10

    def test_indefinite_with_offset(self):
        # reduces to maximizing 1 + 2 w2 - 2 w2^2 on the circle
        C = np.diag([1.0, -1.0])
        h = np.array([0.0, 1.0])
        res = max_quad_over_ball(C, h, 1.0)
        assert abs(res.value - 1.5) <= 1e-9
        assert abs(res.w_star[1] - 0.5) <= 1e-8
        assert abs(abs(res.w_star[0]) - np.sqrt(3) / 2) <= 1e-8
        # confirm against a fine grid on the circle
        ang = np.linspace(0, 2 * np.pi, 62832)
        W = np.column_stack([np.cos(ang), np.sin(ang)])
        vals = np.einsum("ij,jk,ik->i", W, C, W) + 2 * W @ h
        assert res.value >= np.max(vals) - 1e-7

    def test_concave_interior(self):
        C = -np.eye(2)
        h = np.array([0.25, 0.0])
        res = max_quad_over_ball(C, h, 10.0)
        assert np.allclose(res.w_star, [0.25, 0.0], atol=1e-10)
        assert abs(res.value - 0.0625) <= 1e-12

    def test_concave_boundary(self):
        C = -np.eye(2)
        h = np.array([5.0, 0.0])
        res = max_quad_over_ball(C, h, 1.0)
        assert np.allclose(res.w_star, [1.0, 0.0], atol=1e-9)
        assert abs(res.value - 9.0) <= 1e-8

    def test_kkt_residuals_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            C = rng.standard_normal((n, n))
            C = 0.5 * (C + C.T)
            h = rng.standard_normal(n)
            gamma = rng.uniform(0.1, 3.0)
            res = max_quad_over_ball(C, h, gamma)
            theta_max = np.linalg.eigvalsh(C)[-1]
            scale = 1 + np.linalg.norm(h) + abs(theta_max)
            if np.linalg.norm(res.w_star) < gamma * (1 - 1e-9):
                assert np.linalg.norm(C @ res.w_star + h) <= 1e-9 * scale
            else:
                assert abs(np.linalg.norm(res.w_star) - gamma) <= 1e-9 * max(1, gamma)
                assert kkt_residual(C, h, res) <= 1e-9 * scale
                assert res.multiplier >= theta_max - 1e-9 * scale

    def test_dominance_over_samples(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            C = rng.standard_normal((n, n))
            C = 0.5 * (C + C.T)
            h = rng.standard_normal(n)
            gamma = rng.uniform(0.1, 2.0)
            res = max_quad_over_ball(C, h, gamma)
            W = rng.standard_normal((10_000, n))
            W *= (gamma * rng.random(10_000) ** (1 / n) / np.linalg.norm(W, axis=1))[:, None]
            vals = np.einsum("ij,jk,ik->i", W, C, W) + 2 * W @ h
            assert res.value >= np.max(vals) - 1e-9 * (1 + abs(res.value))

    def test_near_hard_case_stability(self):
        # top-eigenspace coefficient tiny but nonzero
        C = np.diag([1.0, 1.0, 0.0])
        h = np.array([1e-12, 0.0, 1.0])
        res = max_quad_over_ball(C, h, 1.0)
        assert abs(np.linalg.norm(res.w_star) - 1.0) <= 1e-9
        assert res.value >= 1.0 - 1e-8


class TestNewtonMatchesBisection:
    """The safeguarded Newton iteration of max_quad_over_ball against plain
    bisection on the secular equation, which it replaced (same bracket, same
    stopping test |  ||w|| - gamma | <= 1e-12 max(1, gamma))."""

    CASES = [
        (np.zeros((2, 2)), np.array([1.0, 0.0]), 1.0),
        (np.eye(3), np.zeros(3), 2.0),  # hard case
        (np.diag([1.0, -1.0]), np.array([0.0, 1.0]), 1.0),  # hard case
        (-np.eye(2), np.array([0.25, 0.0]), 10.0),
        (-np.eye(2), np.array([5.0, 0.0]), 1.0),
        (np.diag([1.0, 1.0, 0.0]), np.array([1e-12, 0.0, 1.0]), 1.0),  # near the hard case
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_fixed_cases_within_1e_12(self, case):
        # TestBallMax's cases: the two values agree within 1e-12 relative
        C, h, gamma = self.CASES[case]
        new, old = max_quad_over_ball(C, h, gamma).value, bisection_ball_max(C, h, gamma)
        assert abs(new - old) <= 1e-12 * max(1.0, abs(old)), (new, old)

    def test_random_cases_within_the_bisection_error(self, rng):
        # drawn as test_kkt_residuals_random and test_dominance_over_samples
        # draw theirs.  Each iteration may stop 1e-12 max(1, gamma) off the
        # boundary, bisection on either side and Newton from inside, where
        # the value changes at the rate 2 nu gamma; so the values may differ
        # by twice that (3.6e-12 relative here), and not by more
        for dims, radii in (((1, 7), (0.1, 3.0)), ((1, 6), (0.1, 2.0))):
            for _ in range(50):
                n = int(rng.integers(*dims))
                C = rng.standard_normal((n, n))
                C = 0.5 * (C + C.T)
                h, gamma = rng.standard_normal(n), rng.uniform(*radii)
                res, old = max_quad_over_ball(C, h, gamma), bisection_ball_max(C, h, gamma)
                stop = 1e-12 * max(1.0, gamma)
                tol = 1e-12 * max(1.0, abs(old)) + 4.0 * res.multiplier * gamma * stop
                assert abs(res.value - old) <= tol, (res.value, old)
                if res.multiplier > 0:
                    assert abs(np.linalg.norm(res.w_star) - gamma) <= stop


class TestBallSamples:
    """The sampled check's disturbances: one draw serves every dimension."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        """An empty draw, with the module's radii."""
        monkeypatch.setattr(verify, "_draws", (np.empty((10_000, 0)), verify._draws[1], {}))

    def test_alternating_dimensions_draw_once(self, fresh):
        first = {n: verify._ball_samples(n)[0].copy() for n in (4, 18, 5)}
        Z = verify._ball_samples(20)[0].base
        for n in (4, 18, 5, 20, 4, 18):
            Zn, _ = verify._ball_samples(n)
            assert Zn.base is Z and Zn.shape == (10_000, n)
            if n in first:
                # the columns do not depend on how many were drawn with them
                assert np.array_equal(Zn, first[n]), n
        assert verify._draws[0].base is Z

    @pytest.mark.parametrize("n", [1, 4, 18, 24])
    def test_uniform_in_the_ball(self, fresh, n):
        Z, scale = verify._ball_samples(n)
        radius = scale * np.linalg.norm(Z, axis=1)
        assert radius.max() <= 1.0 + 1e-12
        # the radial law of the uniform ball: P(||w|| <= 2^(-1/n)) = 1/2
        assert abs(np.mean(radius <= 2.0 ** (-1.0 / n)) - 0.5) <= 0.02
        assert not Z.flags.writeable and not scale.flags.writeable


class TestInnerMin:
    def test_zero_case(self):
        spec = scalar_benchmark_spec(1)
        cc = build_compact_cost(spec, [0.0])
        v, _ = closed_form_inner_min(cc, [0.0])
        assert abs(v[0]) <= 1e-12

    def test_scalar_instance_value(self):
        spec = scalar_benchmark_spec(1)
        cc = build_compact_cost(spec, [-1.0])
        v, val = closed_form_inner_min(cc, [0.1])
        assert abs(v[0] - 0.81 / 1.9) <= 1e-12
        vs = np.arange(-1.0, 1.0, 1e-6)
        vals = 0.9 * (-1 + vs + 0.1) ** 2 + vs**2
        assert val <= np.min(vals) + 1e-9

    def test_random_instances_dominate_samples(self, rng):
        for _ in range(10):
            spec = random_lqc_spec(rng, 2, 2, 2, 3)
            x0 = rng.standard_normal(2)
            cc = build_compact_cost(spec, x0)
            w = rng.standard_normal(spec.stacked_dist_dim)
            v_star, val = closed_form_inner_min(cc, w)
            grad = 2 * (cc.u_quad @ v_star + cc.u_lin + cc.cross @ w)
            assert np.linalg.norm(grad) <= 1e-9 * (1 + np.linalg.norm(cc.u_lin))
            vs = v_star[None, :] + rng.standard_normal((1000, len(v_star)))
            for v in vs:
                assert val <= cc.evaluate(v, w) + 1e-9


class TestGridWorstCase:
    def test_scalar_benchmark_point(self):
        spec = scalar_benchmark_spec(1)
        cc = build_compact_cost(spec, [-1.0])
        val = grid_worst_case(cc, [0.4], 0.1, 1e-4)
        assert abs(val - 0.601) <= 1e-3

    def test_step_larger_than_ball_gives_nominal(self):
        spec = scalar_benchmark_spec(1)
        cc = build_compact_cost(spec, [-1.0])
        val = grid_worst_case(cc, [0.4], 0.1, 1.0)
        assert abs(val - cc.evaluate([0.4], [0.0])) <= 1e-12

    def test_rejects_high_dimension(self, rng):
        spec = random_lqc_spec(rng, 2, 1, 3, 1)
        cc = build_compact_cost(spec, rng.standard_normal(2))
        with pytest.raises(DimensionTooLarge):
            grid_worst_case(cc, np.zeros(1), 0.5, 0.01)

    def test_agreement_with_ball_oracle(self, rng):
        step = 1e-3
        for _ in range(10):
            n_w = int(rng.integers(1, 3))
            spec = random_lqc_spec(rng, 2, 1, n_w, 1)
            x0 = rng.standard_normal(2)
            cc = build_compact_cost(spec, x0)
            u = rng.uniform(-0.5, 0.5, spec.stacked_input_dim)
            g = grid_worst_case(cc, u, spec.gamma, step)
            wc = worst_case(cc, "robust", u)
            exact = wc.value(spec.gamma)
            lip = 2 * np.linalg.norm(cc.w_quad) * spec.gamma + 2 * np.linalg.norm(wc.lin)
            assert exact >= g - 1e-9
            assert exact - g <= 2 * step * lip + 1e-9


def test_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="^C and h dimensions differ$"):
        max_quad_over_ball(np.eye(2), np.ones(3), 1.0)
