import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from l1svm import ConstraintSet, max_linear_l1_l2, project_l1, project_l1_l2, project_l2
from l1svm.geometry import _HEAD, _sorted_depth
from l1svm.oracles import face_max_linear, face_project


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

    @pytest.mark.parametrize("project", [project_l1, project_l1_l2])
    def test_overflowing_l1_norm_raises_without_a_warning(self, project):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                project(np.array([1e308, 1e308]), 2.0)

    def test_l1_norm_near_the_float_limit(self):
        """d max|v| passes 2**1023, yet the l1 norm is finite: no warning, and the usual point."""
        v = np.array([1e308, 5e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(project_l1(v, 2.0), [2.0, 0.0])
            assert_allclose(project_l1_l2(v, 2.0), np.array([2.0, 1.0]) / np.sqrt(5.0), rtol=1e-15)

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
        ref = face_project(v, R, kind="l1")
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


class TestFaceOracles:
    """project_l1, project_l1_l2 and max_linear_l1_l2 agree with the face-enumeration oracles
    at every dimension the oracles support."""

    @pytest.mark.parametrize("kind", ["l1", "l1l2"])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_projection_matches(self, d, kind):
        rng = np.random.default_rng(900 + 10 * d + (kind == "l1l2"))
        project = project_l1 if kind == "l1" else project_l1_l2
        for _ in range(40):
            v = rng.standard_normal(d) * float(rng.choice([0.5, 2.0, 5.0]))
            R = float(rng.uniform(0.5, 3.0) if kind == "l1" else rng.uniform(1.0, np.sqrt(d)))
            assert np.linalg.norm(project(v, R) - face_project(v, R, kind)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_maximizer_matches(self, d):
        rng = np.random.default_rng(960 + d)
        for _ in range(40):
            g = rng.standard_normal(d) * float(rng.choice([0.5, 2.0, 5.0]))
            R = float(rng.uniform(1.0, np.sqrt(d)))
            assert np.linalg.norm(max_linear_l1_l2(g, R) - face_max_linear(g, R)) <= 1e-10

    @pytest.mark.parametrize("oracle", [face_project, face_max_linear])
    def test_refusals(self, oracle):
        with pytest.raises(ValueError, match=r"^face oracles support d = 2\.\.6, got shape \(7,\)$"):
            oracle(np.ones(7), 1.5)
        with pytest.raises(ValueError, match="^face oracles need a finite point$"):
            oracle(np.array([np.nan, 1.0, 1.0]), 1.5)
        with pytest.raises(ValueError, match="^radius must be positive and finite, got 0.0$"):
            oracle(np.ones(3), 0.0)


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
        ref = face_project(np.array([2.0, 2.0]), 1.2, kind="l1l2")
        assert np.linalg.norm(res - ref) < 2e-3

    @pytest.mark.parametrize("trial", range(6))
    def test_matches_grid_oracle(self, trial):
        rng = np.random.default_rng(200 + trial)
        d = 2 if trial % 2 == 0 else 3
        v = rng.standard_normal(d) * 2.0
        R = float(rng.uniform(1.0, 2.0))
        w = project_l1_l2(v, R)
        ref = face_project(v, R, kind="l1l2")
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
        ref = face_project(v, 1.2, kind="l1l2")
        assert np.linalg.norm(res - ref) < 2e-3
        assert abs(((res - v) ** 2).sum() - ((ref - v) ** 2).sum()) < 1e-6

    def test_dykstra_path_matches_oracle(self):
        w = project_l1_l2(np.array([3.0, 1.5]), 1.2)
        ref = face_project(np.array([3.0, 1.5]), 1.2, kind="l1l2")
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
    """Top magnitudes that nearly, but not exactly, tie: the scan must not cancel.

    The level search also keeps the bits of the frozen reference _full_scan_depth.
    """

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

    @pytest.mark.parametrize("seed", range(2))
    def test_depth_matches_full_scan(self, seed):
        rng = np.random.default_rng(1300 + seed)
        for _ in range(50):
            mags = np.abs(rng.standard_normal(1000))
            R = float(rng.uniform(1.0, mags.sum() / np.linalg.norm(mags)))
            assert _sorted_depth(np.sort(mags)[::-1], R) == _full_scan_depth(mags, R)

    def test_depth_matches_full_scan_near_ties(self):
        rng = np.random.default_rng(1400)
        for _ in range(100):
            v, R = _near_tied_case(rng)
            assert _sorted_depth(np.sort(np.abs(v))[::-1], R) == _full_scan_depth(np.abs(v), R)

    @pytest.mark.parametrize("seed", range(3))
    def test_depth_matches_full_scan_on_flat_magnitudes(self, seed):
        mags = 1.0 + 1e-3 * np.random.default_rng(1500 + seed).uniform(size=1000)
        tau = _sorted_depth(np.sort(mags)[::-1], 20.0)
        assert tau == _full_scan_depth(mags, 20.0)
        # hundreds of entries active, far down the sorted breakpoints
        assert np.count_nonzero(tau - (mags.max() - mags) > 0.0) > 200


def _full_scan_depth(mags, R):
    """_sorted_depth by np.append and numpy's mean and std: a frozen reference for its bits."""
    u = np.sort(mags)[::-1]
    d = u.size
    below = np.append(u[1:], 0.0)
    gap = u - below
    kgap = np.arange(1, d + 1) * gap
    l1 = np.cumsum(kgap)
    l2sq = np.cumsum(gap * (2.0 * np.append(0.0, l1[:-1]) + kgap))
    k_top = int(np.count_nonzero(u == u[0]))
    reach = l1[k_top - 1:] ** 2 >= R * R * l2sq[k_top - 1:]
    reach[-1] = True
    k = k_top + int(np.argmax(reach))
    if k == k_top or k <= R * R:
        return float(u[0] - below[k - 1])
    t = u[0] - u[:k]
    tau = float(t.mean() + R * t.std() / np.sqrt(k - R * R))
    if k < d:
        tau = min(tau, float(u[0] - u[k]))
    return max(tau, float(t[-1]))


def _separate_project_l1(v, R):
    """project_l1 with its own abs, sum and sort: a frozen reference for its bits."""
    v = np.asarray(v, dtype=float)
    mags = np.abs(v)
    if mags.sum() <= R:
        return v.copy()
    below = mags - mags.max()
    u = np.sort(below)[::-1]
    cs = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = idx[u > (cs - R) / idx][-1]
    return np.sign(v) * np.maximum(below - (cs[rho - 1] - R) / rho, 0.0)


def _separate_project_l1_l2(v, R):
    """project_l1_l2 from the l1 projection, the l2 projection and a second sort, one by one."""
    cand = _separate_project_l1(v, R)
    if np.linalg.norm(cand) <= 1.0 + 1e-15:
        return cand
    e = math.frexp(np.abs(v).max())[1]
    u = np.ldexp(v, -e)
    n = np.linalg.norm(u)
    ball = v.copy() if n <= np.ldexp(1.0, -e) else u * (1.0 / n)
    if np.abs(ball).sum() <= R + 1e-15:
        return ball
    mags = np.abs(u)
    w = np.sign(u) * np.maximum(_full_scan_depth(mags, R) - (mags.max() - mags), 0.0)
    return w / np.linalg.norm(w)


def _branch(v, R):
    """Which constraints of the intersection bind at its projection of v."""
    if np.linalg.norm(project_l1(v, R)) <= 1.0 + 1e-15:
        return "interior" if np.abs(v).sum() <= R else "l1"
    return "l2" if np.abs(project_l2(v)).sum() <= R + 1e-15 else "both"


class TestOneSort:
    """The projections share one sort of |v| and keep the bits of the separate passes."""

    @staticmethod
    def _assert_same_bits(v, R):
        for got, want in ((project_l1(v, R), _separate_project_l1(v, R)),
                          (project_l1_l2(v, R), _separate_project_l1_l2(v, R))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("seed", range(2))
    def test_random_vectors_in_every_branch(self, seed):
        rng = np.random.default_rng(1600 + seed)
        seen = dict.fromkeys(("interior", "l1", "l2", "both"), 0)
        for _ in range(200):
            v = rng.standard_normal(1000) * 10.0 ** rng.uniform(-2.5, 1.0)
            R = float(rng.uniform(1.0, 30.0))
            seen[_branch(v, R)] += 1
            self._assert_same_bits(v, R)
        assert min(seen.values()) >= 5, seen

    def test_near_ties(self):
        rng = np.random.default_rng(1700)
        for _ in range(100):
            v, R = _near_tied_case(rng)
            self._assert_same_bits(v * rng.uniform(0.5, 20.0), R)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(1800)
        for _ in range(20):
            v = rng.standard_normal(1000)
            v[rng.random(1000) < 0.3] *= 1e-120  # entries that underflow at unit scale
            self._assert_same_bits(v * scale, float(rng.uniform(1.0, 30.0)))

    def test_ties_and_signed_zeros(self):
        rng = np.random.default_rng(1900)
        for _ in range(300):
            v = rng.choice([-3.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=int(rng.integers(1, 40)))
            self._assert_same_bits(v, float(rng.uniform(0.5, 6.0)))


class TestSharedTail:
    """Past the l1 candidate, project_l1_l2 and max_linear_l1_l2 run one routine, bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_maximizer_is_the_projection_tail(self, seed):
        rng = np.random.default_rng(2000 + seed)
        seen = {"l2": 0, "both": 0}
        for i in range(100):
            if i % 2:
                v, R = _near_tied_case(rng)
            else:
                v = rng.standard_normal(int(rng.integers(1, 1201)))
                R = float(rng.uniform(1.0, max(1.0, min(40.0, 1.5 * np.abs(v).sum()
                                                          / np.linalg.norm(v)))))
            v = v * 10.0 ** rng.uniform(-100.0, 100.0)
            _assert_set_projects_bitwise(v, R)
            mags = np.abs(v)
            if np.linalg.norm(project_l1(v, R)) <= 1.0 + 1e-15:
                continue  # the projection returns its l1 candidate
            if np.sqrt(np.count_nonzero(mags == mags.max())) > R:
                continue  # the maximizer takes the limit of perturbed ties
            seen["l2" if np.abs(project_l2(v)).sum() <= R + 1e-15 else "both"] += 1
            w, p = max_linear_l1_l2(v, R), project_l1_l2(v, R)
            assert np.array_equal(w, p)
            assert np.array_equal(np.signbit(w), np.signbit(p))
        assert seen["l2"] >= 5 and seen["both"] >= 30, seen

    @pytest.mark.parametrize("side,norms", [(-1.0, 1), (1.0, 2)], ids=["skipped", "run"])
    def test_ratio_test_skipped_only_past_its_bound(self, side, norms, monkeypatch):
        # ||v||_2^2 <= top ||v||_1, so past ||v||_1 > top R^2 (1 + 1e-9) the ratio of v exceeds
        # R and project_l1_l2 skips the ratio test: one l2 norm (the soft thresholding's) in
        # place of two.  On both sides the result is the maximizer's, which always tests
        rng = np.random.default_rng(2700)
        v = rng.standard_normal(200) * 50.0
        mags = np.abs(v)
        R = math.sqrt(mags.sum() / mags.max() / (1.0 + 1e-9)) * (1.0 + side * 1e-12)
        norm, calls = np.linalg.norm, []
        monkeypatch.setattr(np.linalg, "norm", lambda x: calls.append(x.size) or norm(x))
        p = project_l1_l2(v, R)
        assert len(calls) == norms
        monkeypatch.undo()
        assert p.tobytes() == max_linear_l1_l2(v, R).tobytes()
        _assert_set_projects_bitwise(v, R)

    def test_near_tied_gaps_survive_the_scaling(self):
        # the top four magnitudes differ in their last few digits; dividing by the top
        # magnitude rounds those gaps and once moved the maximizer by 1.8e-3
        g = np.array([-1.9930577557137142e+68, -1.9930577557137137e+68, -1.993057755713723e+68,
                      -1.9930577557137046e+68, -3.055410888563032e+67, 6.845305696081356e+67,
                      5.631187768029212e+67])
        # the 60-digit mpmath maximizer, rounded to doubles
        want = [-0.08543470706324072, -0.03623200118359519, -0.995684765836683, 0.0, 0.0, 0.0,
                0.0]
        assert_allclose(max_linear_l1_l2(g, 1.1173514740835189), want, rtol=0.0, atol=1e-15)


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
            tau = _sorted_depth(np.sort(u)[::-1], R)
            q = np.maximum(tau - (u.max() - u), 0.0)
            assert abs(q.sum() - R * np.linalg.norm(q)) <= 1e-12 * q.sum()

    def test_R_squared_equals_active_count(self):
        # four tied leaders at R = 2: k - R^2 = 0 on the interval the scan picks
        u = np.array([1.0, 1.0, 1.0, 1.0, 0.5])
        with np.errstate(all="raise"):
            tau = _sorted_depth(np.sort(u)[::-1], 2.0)
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
            tied = np.array([2.0, 2.0, 2.0])
            assert _sorted_depth(np.sort(tied)[::-1], np.sqrt(3.0)) == 2.0  # level 0

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
            tau = _sorted_depth(np.sort(np.abs(v))[::-1], 1.5)
        assert np.isfinite(tau)
        assert_allclose(np.sign(v) * np.maximum(tau - (5.0 - np.abs(v)), 0.0), [0, 0, -tau, 0])

    @pytest.mark.parametrize("d", [2, 7, 1000])
    def test_all_equal_vector_at_sqrt_d(self, d):
        v = np.full(d, 2.0)
        R = float(np.sqrt(d))
        with np.errstate(all="raise"):
            assert_allclose(project_l1_l2(v, R), np.full(d, 1.0 / np.sqrt(d)), rtol=1e-14)
            assert_allclose(max_linear_l1_l2(v, R), np.full(d, 1.0 / np.sqrt(d)), rtol=1e-14)
            assert _sorted_depth(np.sort(v)[::-1], R) == 2.0  # level 0


class TestProjectL2:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                project_l2(np.array([bad, 1.0]))


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

    @pytest.mark.parametrize("R", [np.nan, np.inf, 0.5])
    def test_radius_must_be_finite_and_at_least_one(self, R):
        with pytest.raises(ValueError, match=rf"^R must be >= 1 and finite, got {R}$"):
            max_linear_l1_l2(np.array([3.0, 1.0, 2.0]), R)

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
        ref = face_max_linear(g, R)
        assert np.linalg.norm(w - ref) < 1e-4


def _separate_max_linear(g, R):
    """max_linear_l1_l2 with its own sort and _full_scan_depth: a frozen reference for its bits."""
    mags = np.abs(g)
    ties = np.flatnonzero(mags == mags.max())
    if np.sqrt(ties.size) > R:
        p = np.arange(ties.size, 0, -1, dtype=float)
        q = np.maximum(_full_scan_depth(p, R) - (p.max() - p), 0.0)
        w = np.zeros(g.size)
        w[ties] = np.sign(g[ties]) * (q / np.linalg.norm(q))
        return w
    e = math.frexp(mags.max())[1]
    u = np.ldexp(g, -e)
    ball = u * (1.0 / np.linalg.norm(u))
    if np.abs(ball).sum() <= R + 1e-15:
        return ball
    um = np.abs(u)
    w = np.sign(u) * np.maximum(_full_scan_depth(um, R) - (um.max() - um), 0.0)
    return w / np.linalg.norm(w)


def _assert_frozen_bits(v, R):
    """Every routine on (v, R) keeps the bits of its frozen reference, signed zeros included."""
    if R >= 1.0:
        _assert_set_projects_bitwise(v, R)
    pairs = [(project_l1(v, R), _separate_project_l1(v, R)),
             (project_l1_l2(v, R), _separate_project_l1_l2(v, R))]
    mags = np.abs(v)
    if R >= 1.0 and mags.any():
        pairs.append((max_linear_l1_l2(v, R), _separate_max_linear(v, R)))
        if np.sqrt(np.count_nonzero(mags == mags.max())) <= R < np.sqrt(v.size):
            assert _sorted_depth(np.sort(mags)[::-1], R) == _full_scan_depth(mags, R)
    for got, want in pairs:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_set_projects_bitwise(v, R):
    """ConstraintSet.project returns the bits of project_l1 and project_l1_l2, signed zeros too."""
    for kind, project in (("l1", project_l1), ("l1l2", project_l1_l2)):
        got = ConstraintSet(kind, R).project(v)
        assert np.array_equal(got.view(np.int64), project(v, R).view(np.int64))


def _level_between(u, k):
    """The soft-threshold level halfway between the k-th and (k+1)-th of u sorted descending."""
    return 0.5 * (u[k - 1] + (u[k] if k < u.size else 0.0))


class TestLeadingScan:
    """The level scans read the leading _HEAD sorted magnitudes first; past the head the ratio
    scan reads on, and the l1 level hands over to the numpy scan over all of them.  Both
    sides keep the frozen references' bits."""

    @pytest.mark.parametrize("k", [1, _HEAD - 1, _HEAD, _HEAD + 1, 300, 999, 1000])
    @pytest.mark.parametrize("seed", range(2))
    def test_active_counts_across_the_head(self, k, seed):
        rng = np.random.default_rng(2300 + seed)
        for _ in range(10):
            v = rng.standard_normal(1000) * 10.0 ** rng.uniform(-2.0, 2.0)
            u = np.sort(np.abs(v))[::-1]
            theta = _level_between(u, k)
            R_l1 = float((u[:k] - theta).sum())
            assert np.count_nonzero(project_l1(v, R_l1)) == k
            _assert_frozen_bits(v, R_l1)
            q = u[:k] - theta
            R_ratio = max(1.0, float(q.sum() / np.linalg.norm(q)))
            assert np.count_nonzero(max_linear_l1_l2(v, R_ratio)) == k
            for scale in (1.0, 1e3 / u[0]):  # the second puts project_l1_l2 past its candidate
                _assert_frozen_bits(v * scale, R_ratio)

    @pytest.mark.parametrize("d", [1, 2, 3, _HEAD - 1, _HEAD, _HEAD + 1])
    def test_dimensions_at_and_below_the_head(self, d):
        rng = np.random.default_rng(2400 + d)
        for _ in range(150):
            v = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0)
            if rng.random() < 0.3:
                v[rng.random(d) < 0.5] = 0.0
            _assert_frozen_bits(v, float(rng.uniform(0.1, 1.5 * np.sqrt(d) + 1.0)))

    @pytest.mark.parametrize("ties", [_HEAD - 1, _HEAD, _HEAD + 1, _HEAD + 5])
    def test_tied_top_magnitudes_across_the_head(self, ties):
        rng = np.random.default_rng(2500 + ties)
        for _ in range(40):
            v = rng.standard_normal(int(rng.integers(ties, 400)))
            v[:ties] = 4.0 * rng.choice([-1.0, 1.0], ties)
            _assert_frozen_bits(rng.permutation(v), float(rng.uniform(1.0, 12.0)))

    def test_tie_group_straddling_the_head(self):
        rng = np.random.default_rng(2600)
        for _ in range(100):
            v = rng.standard_normal(int(rng.integers(_HEAD + 4, 500)))
            u = np.sort(np.abs(v))[::-1]
            c = u[_HEAD - 3]
            v[np.abs(v) <= c] *= 0.5
            v[rng.choice(v.size, 7, replace=False)] = c  # sorted near the head's end
            lead = np.abs(v)[np.abs(v) > c]
            for R in (float(rng.uniform(1.0, 20.0)), float((lead - c).sum())):  # 2nd: level c
                _assert_frozen_bits(v, R)

    def test_magnitude_tied_with_the_level(self):
        """R puts the l1 level on a group of tied magnitudes, where the rounded test of the
        scan over all entries can pass again after a miss; the head scan must hand over."""
        rng = np.random.default_rng(2700)
        non_prefix = 0
        for _ in range(400):
            k0, t = int(rng.integers(1, _HEAD)), int(rng.integers(2, 60))
            lead = rng.uniform(0.5, 3.0, k0) * 10.0 ** int(rng.integers(-3, 4))
            c = float(lead.min() * rng.uniform(0.1, 0.99))
            rest = 0.99 * c * rng.uniform(size=int(rng.integers(0, 200)))
            v = np.concatenate((lead, np.full(t, c), rest))
            v *= rng.choice([-1.0, 1.0], v.size)
            R = math.fsum(lead - c) * (1.0 + int(rng.integers(-2, 3)) * 2.0 ** -52)
            below = np.sort(np.abs(v))[::-1] - np.abs(v).max()
            passes = below > (np.cumsum(below) - R) / np.arange(1, v.size + 1)
            non_prefix += bool(np.any(passes[np.argmin(passes):])) and not passes.all()
            _assert_frozen_bits(v, R)
        assert non_prefix >= 50  # the passing counts are not a prefix in these inputs


def _two_entry_candidate_near(target, R=1.2):
    """v = (p, q, small entries) whose l1 candidate at R has np.linalg.norm exactly target.

    The two leading entries stay active with soft-threshold level 0.5; p moves by ulps,
    from the point where the candidate's norm is 1, until the norm lands on target.
    """
    a = 0.5 * (R + math.sqrt(2.0 - R * R))  # (a, R - a) has l1 norm R and l2 norm 1
    small = 0.1 * np.random.default_rng(2800).uniform(size=30)
    p0 = a + 0.5
    for i in range(4000):
        v = np.concatenate(([p0 + i * math.ulp(p0), R - a + 0.5], small))
        if np.linalg.norm(_separate_project_l1(v, R)) == target:
            return v
    raise AssertionError("no ulp step lands on the target norm")


class TestCandidateNormMargin:
    """project_l1_l2 picks its branch from the head's norm of the l1 candidate, but takes the
    exact `<= 1 + 1e-15` test on the full candidate when that norm lies within 1e-12 of 1."""

    @pytest.mark.parametrize("steps", [-2, -1, 0, 1, 2])
    def test_both_sides_of_the_exact_test(self, steps):
        target = 1.0 + 1e-15
        for _ in range(abs(steps)):
            target = np.nextafter(target, 2.0 if steps > 0 else 0.0)
        v, R = _two_entry_candidate_near(target), 1.2
        cand = _separate_project_l1(v, R)
        w = project_l1_l2(v, R)
        assert np.array_equal(w, _separate_project_l1_l2(v, R))
        assert np.array_equal(w, cand) == (steps <= 0)  # at 1 + 1e-15 the candidate is kept

    def test_l2_ball_branch(self):
        rng = np.random.default_rng(2900)
        v = rng.standard_normal(40) * 10.0
        R = 1.05 * float(np.abs(v).sum() / np.linalg.norm(v))
        assert _branch(v, R) == "l2"
        w = project_l1_l2(v, R)
        assert np.array_equal(w, _separate_project_l1_l2(v, R))
        assert_allclose(w, v / np.linalg.norm(v), rtol=1e-15)


def test_constraint_set_validation():
    c = ConstraintSet("l1l2", 1.5)
    assert c.contains(np.array([0.5, 0.5]))
    assert not c.contains(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ConstraintSet("l1", 0.5)
    with pytest.raises(ValueError):
        ConstraintSet("box", 1.5)


@pytest.mark.parametrize("kind", ["l1", "l1l2"])
@pytest.mark.parametrize("R", [np.nan, np.inf, 0.5])
def test_constraint_set_radius_must_be_finite_and_at_least_one(kind, R):
    with pytest.raises(ValueError, match=rf"^R must be >= 1 and finite, got {R}$"):
        ConstraintSet(kind, R)
