import numpy as np
import pytest
from numpy.testing import assert_allclose

from l1svm import max_linear_l1_l2, project_l1, project_l1_l2, project_l2
from l1svm.geometry import _ratio_depth
from l1svm.oracles import angle_max_linear, grid_project


def _feasible_point(rng, d, R):
    z = rng.standard_normal(d)
    return z / max(np.abs(z).sum() / R, np.linalg.norm(z), 1.0)


class TestProjectL1:
    def test_interior_point_unchanged(self):
        v = np.array([0.2, -0.3, 0.1])
        w = project_l1(v, 1.0)
        assert np.array_equal(w, v)  # no thresholding at all
        assert np.abs(w).sum() < 1.0

    def test_axis_point(self):
        w = project_l1(np.array([2.0, 0.0]), 1.0)
        assert_allclose(w, [1.0, 0.0], atol=1e-14)
        assert abs(np.abs(w).sum() - 1.0) <= 1e-12

    def test_known_threshold(self):
        v = np.array([3.0, 1.0])
        w = project_l1(v, 2.0)
        assert_allclose(w, [2.0, 0.0], atol=1e-14)
        assert v[0] - w[0] == pytest.approx(1.0, abs=1e-14)  # the soft-threshold level

    @pytest.mark.parametrize("v,expected", [
        ([1e17, 0.0], [1.0, 0.0]),
        ([1e16, 3.0, 0.0], [1.0, 0.0, 0.0]),
        ([-3.0, 1e300, 2e299], [0.0, 1.0, 0.0]),
    ])
    def test_radius_survives_huge_magnitudes(self, v, expected):
        """R is far below the magnitudes' rounding unit, yet the result has l1 norm R."""
        with np.errstate(all="raise"):
            w = project_l1(np.array(v), 1.0)
        assert_allclose(w, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="finite"):
            project_l1(np.array([1.0, bad, 0.0]), 1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            project_l1(np.array([1.0, 2.0]), 0.0)

    @pytest.mark.parametrize("trial", range(6))
    def test_matches_grid_oracle(self, trial):
        rng = np.random.default_rng(100 + trial)
        d = 2 if trial % 2 == 0 else 3
        v = rng.standard_normal(d) * 2.0
        R = float(rng.uniform(1.0, 2.0))
        w = project_l1(v, R)
        ref = grid_project(v, R, kind="l1")
        assert np.linalg.norm(w - ref) < 2e-3
        assert abs(((w - v) ** 2).sum() - ((ref - v) ** 2).sum()) < 1e-6

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v1 = rng.standard_normal(10) * 3
            v2 = rng.standard_normal(10) * 3
            w1 = project_l1(v1, 1.7)
            w2 = project_l1(v2, 1.7)
            assert_allclose(project_l1(w1, 1.7), w1, atol=1e-10)
            assert np.linalg.norm(w1 - w2) <= np.linalg.norm(v1 - v2) + 1e-10


class TestProjectL1L2:
    def test_interior_point_unchanged(self):
        v = np.array([0.3, 0.2])
        assert_allclose(project_l1_l2(v, 1.5), v)

    def test_l2_constraint_binds_alone(self):
        res = project_l1_l2(np.array([3.0, 0.0]), 2.0)
        assert_allclose(res, [1.0, 0.0], atol=1e-14)
        assert abs(np.linalg.norm(res) - 1.0) <= 1e-12
        assert np.abs(res).sum() < 2.0

    def test_symmetric_corner_case(self):
        # by symmetry the projection of (2,2) is (t,t) with the l1 bound tight
        res = project_l1_l2(np.array([2.0, 2.0]), 1.2)
        assert_allclose(res, [0.6, 0.6], atol=1e-9)
        ref = grid_project(np.array([2.0, 2.0]), 1.2, kind="l1l2")
        assert np.linalg.norm(res - ref) < 2e-3

    @pytest.mark.parametrize("trial", range(6))
    def test_matches_grid_oracle(self, trial):
        rng = np.random.default_rng(200 + trial)
        d = 2 if trial % 2 == 0 else 3
        v = rng.standard_normal(d) * 2.0
        R = float(rng.uniform(1.0, 2.0))
        w = project_l1_l2(v, R)
        ref = grid_project(v, R, kind="l1l2")
        assert np.linalg.norm(w - ref) < 2e-3
        assert abs(((w - v) ** 2).sum() - ((ref - v) ** 2).sum()) < 1e-6

    def test_variational_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.standard_normal(8) * 3.0
            R = float(rng.uniform(1.0, 2.5))
            w = project_l1_l2(v, R)
            for _ in range(100):
                z = _feasible_point(rng, 8, R)
                assert (v - w) @ (z - w) <= 1e-8

    def test_feasible_output(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            v = rng.standard_normal(12) * 4.0
            w = project_l1_l2(v, 1.3)
            assert np.abs(w).sum() <= 1.3 + 1e-10
            assert np.linalg.norm(w) <= 1.0 + 1e-10

    def test_l1_constraint_vacuous_at_large_radius(self):
        """Inside the unit ball ||w||_1 <= sqrt(d) always holds."""
        rng = np.random.default_rng(9)
        d = 4
        for _ in range(10):
            v = rng.standard_normal(d) * 2.0
            assert_allclose(project_l1_l2(v, float(np.sqrt(d))),
                            project_l2(v), atol=1e-9)

    def test_nonconvergence_carries_state(self):
        # (3, 1.5) at R=1.2 defeats both single-ball shortcuts, so both
        # constraints are tight and the exact kernel must land on them
        v = np.array([3.0, 1.5])
        res = project_l1_l2(v, 1.2)
        assert abs(np.abs(res).sum() - 1.2) <= 1e-12 * 1.2
        assert abs(np.linalg.norm(res) - 1.0) <= 1e-12
        ref = grid_project(v, 1.2, kind="l1l2")
        assert np.linalg.norm(res - ref) < 2e-3
        assert abs(((res - v) ** 2).sum() - ((ref - v) ** 2).sum()) < 1e-6

    def test_dykstra_path_matches_oracle(self):
        w = project_l1_l2(np.array([3.0, 1.5]), 1.2)
        ref = grid_project(np.array([3.0, 1.5]), 1.2, kind="l1l2")
        assert np.linalg.norm(w - ref) < 2e-3
        assert abs(np.abs(w).sum() - 1.2) < 1e-8  # both constraints tight here
        assert abs(np.linalg.norm(w) - 1.0) < 1e-8


def _dykstra(v, R, tol=1e-13, max_rounds=200_000):
    """Reference projection onto the intersection by Dykstra's alternating scheme."""
    x, p, q = v.copy(), np.zeros_like(v), np.zeros_like(v)
    for _ in range(max_rounds):
        y = project_l1(x + p, R)
        p_new = x + p - y
        x_new = project_l2(y + q)
        q_new = y + q - x_new
        gap = np.sqrt(((p_new - p) ** 2).sum() + ((q_new - q) ** 2).sum())
        x, p, q = x_new, p_new, q_new
        if gap < tol:
            return x
    raise AssertionError(f"reference Dykstra loop did not converge (gap {gap:.2e})")


def _soft_threshold_certificate(v, w):
    """Fit |v_j| = theta + mu |w_j| on the support of w; return theta, mu, misfit, max off it."""
    on = w != 0.0
    assert np.all(np.sign(w[on]) == np.sign(v[on]))
    A = np.column_stack([np.ones(on.sum()), np.abs(w[on])])
    off_max = float(np.abs(v[~on]).max()) if (~on).any() else 0.0
    if np.ptp(np.abs(w[on])) > 0.0:
        (theta, mu), *_ = np.linalg.lstsq(A, np.abs(v[on]), rcond=None)
    else:  # equal weights leave theta free; take the least level the off-support entries allow
        theta = off_max
        mu = (np.abs(v[on]).max() - theta) / np.abs(w[on]).max()
    misfit = float(np.abs(A @ [theta, mu] - np.abs(v[on])).max())
    return float(theta), float(mu), misfit, off_max


def _random_case(rng):
    d = int(rng.integers(2, 2001))
    R = float(rng.uniform(1.0, min(np.sqrt(d), 30.0)))
    v = rng.standard_normal(d) * float(rng.uniform(0.2, 10.0))
    if rng.random() < 0.3:
        v[rng.random(d) < 0.5] = 0.0
    return v, R


def _bisection_soft(v, R):
    """Reference for the level where both constraints bind: bisect its depth below max|v|.

    The l1/l2 ratio of (tau - (max|v| - |v|))_+ grows with the depth tau; depths
    measured down from the top keep near-tied entries apart.  Returns the
    normalized soft thresholding at the depth found.
    """
    mags = np.abs(v)
    t = mags.max() - mags
    lo, hi = 0.0, 2.0 * mags.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q = np.maximum(mid - t, 0.0)
        if q.sum() > R * np.linalg.norm(q):
            hi = mid
        else:
            lo = mid
    q = np.maximum(lo - t, 0.0)
    return np.sign(v) * q / np.linalg.norm(q)


def _near_tied_case(rng):
    """2-19 top magnitudes within a relative 1e-12 to 1e-5 of each other, above Gaussian entries."""
    d = int(rng.integers(20, 1001))
    v = rng.standard_normal(d)
    n = int(rng.integers(2, 20))
    top = np.abs(v).max() * rng.uniform(1.0, 4.0)
    spread = 10.0 ** rng.uniform(-12.0, -5.0)
    idx = rng.choice(d, n, replace=False)
    v[idx] = top * (1.0 - spread * rng.uniform(0.0, 1.0, n)) * rng.choice([-1.0, 1.0], n)
    v[idx[0]] = top
    R = float(rng.uniform(1.0, np.abs(v).sum() / np.linalg.norm(v)))
    return v, R


class TestNearTies:
    """Top magnitudes that nearly, but not exactly, tie: the scan must not cancel."""

    def test_repro(self):
        g = np.array([1.0, 1.0 - 1e-9, 1.0 - 2e-9, 0.5])
        w = max_linear_l1_l2(g, 1.3)
        assert g @ w == pytest.approx(1.3, abs=1e-8)  # exact ties give 1.3; e_1 gives 1.0
        assert abs(np.abs(w).sum() - 1.3) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_maximizer_matches_bisection(self, seed):
        rng = np.random.default_rng(1100 + seed)
        for _ in range(60):
            g, R = _near_tied_case(rng)
            w = max_linear_l1_l2(g, R)
            ref = g @ _bisection_soft(g, R)
            assert abs(g @ w - ref) <= 1e-12 * abs(ref)
            assert abs(np.abs(w).sum() - R) <= 1e-12
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_projection_matches_bisection(self, seed):
        rng = np.random.default_rng(1200 + seed)
        both = 0
        for _ in range(60):
            v, R = _near_tied_case(rng)
            v *= rng.uniform(0.5, 20.0)
            if np.linalg.norm(project_l1(v, R)) <= 1.0 or np.abs(project_l2(v)).sum() <= R:
                continue  # a single-ball projection lands in the intersection
            both += 1
            w = project_l1_l2(v, R)
            assert abs(np.abs(w).sum() - R) <= 1e-12
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            ref = _bisection_soft(v, R)
            assert np.linalg.norm(v - w) <= np.linalg.norm(v - ref) + 1e-12
        assert both >= 30


class TestExactKernel:
    """Exact optimality of the sort-and-scan kernel where both constraints are tight."""

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_kkt_certificate(self, seed):
        rng = np.random.default_rng(500 + seed)
        both = 0
        for _ in range(40):
            v, R = _random_case(rng)
            if np.linalg.norm(project_l1(v, R)) <= 1.0 or np.abs(project_l2(v)).sum() <= R:
                continue  # a single-ball projection lands in the intersection
            w = project_l1_l2(v, R)
            both += 1
            assert abs(np.abs(w).sum() - R) <= 1e-12 * R
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            theta, mu, misfit, off_max = _soft_threshold_certificate(v, w)
            scale = np.abs(v).max()
            assert misfit <= 1e-10 * scale
            assert theta >= -1e-12 * scale
            assert mu >= 1.0 - 1e-12
            assert off_max <= theta + 1e-10 * scale
        assert both >= 20

    @pytest.mark.parametrize("seed", range(2))
    def test_projection_matches_dykstra(self, seed):
        rng = np.random.default_rng(600 + seed)
        for _ in range(15):
            v, R = _random_case(rng)
            w = project_l1_l2(v, R)
            assert np.linalg.norm(w - _dykstra(v, R)) <= 1e-9

    @pytest.mark.parametrize("seed", range(2))
    def test_maximizer_lands_on_the_l1_sphere(self, seed):
        rng = np.random.default_rng(700 + seed)
        for _ in range(40):
            g, R = _random_case(rng)
            w = max_linear_l1_l2(g, R)
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            if np.abs(g).sum() > R * np.linalg.norm(g):
                assert abs(np.abs(w).sum() - R) <= 1e-12 * R
                theta, mu, misfit, off_max = _soft_threshold_certificate(g, w)
                assert misfit <= 1e-10 * np.abs(g).max()
                assert mu > 0.0
                assert off_max <= theta + 1e-10 * np.abs(g).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_level_gives_ratio_R(self, seed):
        rng = np.random.default_rng(800 + seed)
        for _ in range(30):
            u, R = _random_case(rng)
            u = np.abs(u)
            if not u.any():
                continue
            tau = _ratio_depth(u, R)
            q = np.maximum(tau - (u.max() - u), 0.0)
            assert abs(q.sum() - R * np.linalg.norm(q)) <= 1e-12 * q.sum()

    def test_R_squared_equals_active_count(self):
        # four tied leaders at R = 2: k - R^2 = 0 on the interval the scan picks
        u = np.array([1.0, 1.0, 1.0, 1.0, 0.5])
        with np.errstate(all="raise"):
            tau = _ratio_depth(u, 2.0)
            w = max_linear_l1_l2(u, 2.0)
            res = project_l1_l2(2.0 * u, 2.0)
        assert 0.0 < tau <= 0.5  # the level 1 - tau is in [0.5, 1)
        assert_allclose(w, [0.5, 0.5, 0.5, 0.5, 0.0], atol=1e-15)
        assert_allclose(res, [0.5, 0.5, 0.5, 0.5, 0.0], atol=1e-15)

    def test_tied_top_magnitudes(self):
        with np.errstate(all="raise"):
            res = project_l1_l2(np.array([2.0, 2.0, 2.0]), 1.5)
            assert_allclose(res, [0.5, 0.5, 0.5], atol=1e-15)
            # two tied leaders below a third entry reach the kernel
            v = np.array([3.0, 3.0, 1.0])
            res = project_l1_l2(v, 1.6)
            assert res[0] == res[1]
            assert abs(np.abs(res).sum() - 1.6) <= 1e-12 * 1.6
            assert abs(np.linalg.norm(res) - 1.0) <= 1e-12
            assert np.linalg.norm(res - _dykstra(v, 1.6)) <= 1e-9
            assert _ratio_depth(np.array([2.0, 2.0, 2.0]), np.sqrt(3.0)) == 2.0  # level 0

    def test_unit_radius(self):
        rng = np.random.default_rng(900)
        with np.errstate(all="raise"):
            for _ in range(10):
                v = rng.standard_normal(50) * 3.0
                assert_allclose(project_l1_l2(v, 1.0), project_l1(v, 1.0),
                                atol=1e-15)
                j = np.argmax(np.abs(v))
                w = max_linear_l1_l2(v, 1.0)
                assert w[j] == np.sign(v[j]) and np.count_nonzero(w) == 1

    def test_single_nonzero_entry(self):
        v = np.array([0.0, 0.0, -5.0, 0.0])
        with np.errstate(all="raise"):
            assert_allclose(project_l1_l2(v, 1.5), [0.0, 0.0, -1.0, 0.0], atol=1e-15)
            assert_allclose(max_linear_l1_l2(v, 1.5), [0.0, 0.0, -1.0, 0.0], atol=1e-15)
            tau = _ratio_depth(np.abs(v), 1.5)
        assert np.isfinite(tau)
        assert_allclose(np.sign(v) * np.maximum(tau - (5.0 - np.abs(v)), 0.0), [0, 0, -tau, 0])

    @pytest.mark.parametrize("d", [2, 7, 1000])
    def test_all_equal_vector_at_sqrt_d(self, d):
        v = np.full(d, 2.0)
        R = float(np.sqrt(d))
        with np.errstate(all="raise"):
            assert_allclose(project_l1_l2(v, R), np.full(d, 1.0 / np.sqrt(d)), rtol=1e-14)
            assert_allclose(max_linear_l1_l2(v, R), np.full(d, 1.0 / np.sqrt(d)), rtol=1e-14)
            assert _ratio_depth(v, R) == 2.0  # level 0


class TestHugeScale:
    """Past the l1 candidate the projections ignore scale, so 1e200 inputs must not overflow."""

    def test_l2_ball(self):
        with np.errstate(all="raise"):
            w = project_l2(np.array([1e200, 1e200]))
        assert_allclose(w, [np.sqrt(0.5)] * 2, rtol=1e-15)

    def test_intersection_on_the_l2_sphere(self):
        with np.errstate(all="raise"):
            w = project_l1_l2(np.array([1e200, 1e200]), 2.0)
        assert_allclose(w, [np.sqrt(0.5)] * 2, rtol=1e-15)

    def test_intersection_with_both_constraints_tight(self):
        with np.errstate(all="raise"):
            w = project_l1_l2(np.array([3e200, 1e200, 5e199]), 1.2)
        want = project_l1_l2(np.array([3.0, 1.0, 0.5]), 1.2)
        assert np.abs(want).sum() == pytest.approx(1.2) and np.linalg.norm(want) == pytest.approx(1)
        assert_allclose(w, want, rtol=1e-14)


class TestMaxLinear:
    def test_slack_l1_returns_direction(self):
        g = np.array([2.0, 1.0])
        w = max_linear_l1_l2(g, 1.5)  # ||g||_1/||g||_2 = 3/sqrt(5) < 1.5
        assert_allclose(w, g / np.sqrt(5.0), atol=1e-12)

    def test_both_constraints_tight(self):
        w = max_linear_l1_l2(np.array([2.0, 1.0]), 1.2)
        # the unique positive point with ||w||_1 = 1.2, ||w||_2 = 1, w_1 > w_2
        assert_allclose(w, [0.9741657387, 0.2258342613], atol=1e-9)

    def test_axis_gradient(self):
        w = max_linear_l1_l2(np.array([0.0, 1.0, 0.0]), 1.0)
        assert_allclose(w, [0.0, 1.0, 0.0], atol=1e-12)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            max_linear_l1_l2(np.zeros(3), 1.2)

    def test_tied_magnitudes_take_the_perturbation_limit(self):
        w = max_linear_l1_l2(np.array([1.0, 1.0]), 1.2)
        assert_allclose(w, [0.9741657387, 0.2258342613], atol=1e-9)
        w = max_linear_l1_l2(np.array([1.0, -1.0]), 1.2)
        assert_allclose(w, [0.9741657387, -0.2258342613], atol=1e-9)

    def test_tie_at_unit_radius_picks_first_index(self):
        w = max_linear_l1_l2(np.array([-2.0, 2.0, 2.0]), 1.0)
        assert_allclose(w, [-1.0, 0.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("trial", range(8))
    def test_dominates_random_feasible_points(self, trial):
        rng = np.random.default_rng(300 + trial)
        d = int(rng.integers(2, 12))
        g = rng.standard_normal(d)
        R = float(rng.uniform(1.0, 2.0))
        w = max_linear_l1_l2(g, R)
        assert np.abs(w).sum() <= R + 1e-9
        assert np.linalg.norm(w) <= 1.0 + 1e-12
        for _ in range(200):
            z = _feasible_point(rng, d, R)
            assert g @ w >= g @ z - 1e-8

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_angle_oracle(self, trial):
        rng = np.random.default_rng(400 + trial)
        g = rng.standard_normal(2)
        R = float(rng.uniform(1.0, 1.4))
        w = max_linear_l1_l2(g, R)
        ref = angle_max_linear(g, R)
        assert np.linalg.norm(w - ref) < 1e-4
