import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import l1svm as L
from l1svm import solvers
from l1svm.geometry import project_l1, project_l1_l2
from l1svm.oracles import angle_max_linear, grid_min_hinge


def _instance(d, s, m, r, seed):
    a = L.make_random_classifier(d, s, L.RngSeed(seed))
    T = L.generate_training_set(a, m, r, L.RngSeed(seed, 1))
    return a, T


def test_single_sample_exact_recovery():
    T = L.TrainingSet(X=np.array([[1.0, 0.0]]), y=np.array([1.0]))
    res = L.solve_l1_svm(T, 1.0)
    assert_allclose(res.w_hat, [1.0, 0.0], atol=1e-12)
    assert res.objective == 0.0
    assert res.converged


def test_separable_margins_reach_zero_objective():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 5)) * 0.1
    X[:, 0] = 3.0  # every row strongly aligned with e_1
    y = np.ones(20)
    T = L.TrainingSet(X=X, y=y)
    res = L.solve_l1_svm(T, 1.5)
    assert res.objective < 1e-9


def test_l1l2_single_sample_zero_objective():
    T = L.TrainingSet(X=np.array([[2.0, 0.0]]), y=np.array([1.0]))
    res = L.solve_l1_l2_svm(T, 1.0)
    assert res.objective == 0.0
    assert np.abs(res.w_hat).sum() <= 1.0 + 1e-8
    assert np.linalg.norm(res.w_hat) <= 1.0 + 1e-8


def test_l1l2_agrees_when_l1_solution_is_small():
    """If the l1-ball minimizer already has unit l2 norm the two solves agree."""
    a, T = _instance(d=30, s=3, m=150, r=3.0, seed=21)
    res1 = L.solve_l1_svm(T, 1.0)
    if np.linalg.norm(res1.w_hat) <= 1.0:
        res2 = L.solve_l1_l2_svm(T, 1.0)
        assert abs(res1.objective - res2.objective) < 1e-3


def _record_iterates(monkeypatch, name):
    """Wrap solvers.<name> so that every iterate a solve visits is kept, w = 0 first.

    The projection's output is the next iterate; the one made on the last,
    capped iteration is never visited, so `visited` drops it.
    """
    inner = getattr(solvers, name)
    out = []

    def recording(z, R):
        w = inner(z, R)
        out.append(w)
        return w

    monkeypatch.setattr(solvers, name, recording)

    def visited(res):
        assert len(out) == res.iterations - res.converged
        return [np.zeros(res.w_hat.size)] + out[:res.iterations - 1]

    return visited


def _assert_best_iterate(res, iterates, T):
    """objective and w_hat are the least hinge objective over the iterates, and its first minimizer.

    The solver sums the margins in another order than hinge_objective, so the
    two values of one iterate may differ by rounding, about 1e-16 here.  Where
    the iterates settle on one point up to rounding, that rounding can also
    decide which of them the solver keeps, so w_hat is compared with the first
    minimizer to 1e-12.
    """
    f = np.array([L.hinge_objective(w, T) for w in iterates])
    assert res.objective == pytest.approx(f.min(), abs=1e-14)
    assert any(np.array_equal(res.w_hat, w) for w in iterates)
    first = int(np.argmax(f <= f.min() + 1e-14))
    assert_allclose(res.w_hat, iterates[first], rtol=0, atol=1e-12)


def test_best_objective_prefix_is_monotone(monkeypatch):
    a, T = _instance(d=25, s=3, m=60, r=1.0, seed=22)
    visited = _record_iterates(monkeypatch, "project_l1")
    res = L.solve_l1_svm(T, a.l1_norm)
    iterates = visited(res)
    prefix_best = np.minimum.accumulate([L.hinge_objective(w, T) for w in iterates])
    assert np.all(np.diff(prefix_best) <= 0)
    assert res.objective == pytest.approx(prefix_best[-1], abs=1e-14)
    _assert_best_iterate(res, iterates, T)


@pytest.mark.parametrize("solver,kind", [(L.solve_l1_svm, "l1"), (L.solve_l1_l2_svm, "l1l2")])
def test_true_classifier_never_beats_solver(solver, kind):
    for seed in (31, 32, 33):
        a, T = _instance(d=40, s=3, m=120, r=2.0, seed=seed)
        res = solver(T, a.l1_norm)
        assert res.objective <= L.hinge_objective(a.a, T) + 1e-3


def test_objective_field_matches_hinge_at_solution():
    a, T = _instance(d=20, s=2, m=50, r=1.0, seed=35)
    for res in (L.solve_l1_svm(T, a.l1_norm), L.solve_l1_l2_svm(T, a.l1_norm)):
        assert res.objective == pytest.approx(L.hinge_objective(res.w_hat, T), abs=1e-12)


def test_feasibility_of_returned_points():
    a, T = _instance(d=35, s=4, m=80, r=0.6, seed=36)
    R = a.l1_norm
    w1 = L.solve_l1_svm(T, R).w_hat
    assert np.abs(w1).sum() <= R + 1e-8
    w2 = L.solve_l1_l2_svm(T, R).w_hat
    assert np.abs(w2).sum() <= R + 1e-8
    assert np.linalg.norm(w2) <= 1.0 + 1e-8


@pytest.mark.parametrize("trial", range(20))
def test_tiny_instances_match_grid_search(trial, monkeypatch):
    """Exhaustive d=2 search pins both solvers' objectives."""
    monkeypatch.setattr(solvers, "_TOL", 0.0)  # run all 15000 iterations
    rng = np.random.default_rng(500 + trial)
    m = int(rng.integers(1, 6))
    X = rng.standard_normal((m, 2))
    y = np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0)
    T = L.TrainingSet(X=X, y=y)
    R = float(rng.uniform(1.0, 2.0))
    cfg = L.SolverConfig(max_iters=15000)
    got = L.solve_l1_svm(T, R, cfg).objective
    ref = grid_min_hinge(X, y, R, kind="l1")
    assert abs(got - ref) < 2e-3
    got = L.solve_l1_l2_svm(T, R, cfg).objective
    ref = grid_min_hinge(X, y, R, kind="l1l2")
    assert abs(got - ref) < 2e-3


def test_window_stopping_sets_converged_flag():
    a, T = _instance(d=15, s=2, m=40, r=2.0, seed=38)
    res = L.solve_l1_svm(T, a.l1_norm)
    assert res.converged
    assert res.iterations < 5000
    capped = L.solve_l1_svm(T, a.l1_norm, L.SolverConfig(max_iters=3))
    assert not capped.converged
    assert capped.iterations == 3


def test_non_finite_objective_raises():
    rng = np.random.default_rng(7)
    X = 1e260 * rng.standard_normal((20, 10))
    y = np.where(rng.uniform(size=20) < 0.5, -1.0, 1.0)
    T = L.TrainingSet(X=X, y=y)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="overflowed"):
            L.solve_l1_svm(T, 1e100, L.SolverConfig(max_iters=50))


def test_config_validation():
    with pytest.raises(ValueError):
        L.SolverConfig(max_iters=0)
    a, T = _instance(d=10, s=2, m=20, r=1.0, seed=40)
    with pytest.raises(ValueError):
        L.solve_l1_svm(T, 0.9)  # radius below 1


def _dense_projected_subgradient(T, R, cfg, project):
    """Reference loop: both m x d products in full at every iteration; keeps every iterate."""
    m, d = T.X.shape
    YX = T.y[:, None] * T.X
    w = np.zeros(d)
    best_w = w
    best_f = np.inf
    best_hist = []
    iterates = []
    converged = False
    k = 0
    for k in range(1, cfg.max_iters + 1):
        iterates.append(w)
        margins = 1.0 - YX @ w
        f = float(np.mean(np.maximum(margins, 0.0)))
        if not np.isfinite(f):
            raise FloatingPointError("objective overflowed")
        if f < best_f:
            best_f = f
            best_w = w.copy()
        best_hist.append(best_f)
        if k > solvers._WINDOW and best_hist[-solvers._WINDOW - 1] - best_f < solvers._TOL:
            converged = True
            break
        # rows sitting exactly on the hinge kink contribute zero
        active = margins > 0.0
        grad = -(YX.T @ active.astype(float)) / m
        w = project(w - (R / np.sqrt(k)) * grad, R)
    return best_w, best_f, iterates, k, converged


_SOLVERS = {"l1": (L.solve_l1_svm, "project_l1", project_l1),
            "l1l2": (L.solve_l1_l2_svm, "project_l1_l2", project_l1_l2)}


def _assert_matches_dense(kind, T, R, cfg, monkeypatch):
    solver, name, proj = _SOLVERS[kind]
    visited = _record_iterates(monkeypatch, name)
    res = solver(T, R, cfg)
    w_hat, f_hat, iterates, iters, converged = _dense_projected_subgradient(T, R, cfg, proj)
    assert res.iterations == iters
    assert res.converged == converged
    assert_allclose(res.w_hat, w_hat, rtol=0, atol=1e-10)
    assert res.objective == pytest.approx(f_hat, abs=1e-10)
    got = visited(res)
    assert len(got) == len(iterates)
    for k, (w, ref) in enumerate(zip(got, iterates), 1):
        assert_allclose(w, ref, rtol=0, atol=1e-10, err_msg=f"iterate {k}")
    _assert_best_iterate(res, got, T)
    return iters


@pytest.mark.parametrize("kind", ["l1", "l1l2"])
@pytest.mark.parametrize("m", [50, 400])
@pytest.mark.parametrize("r", [0.3, 1.5, 6.0])
def test_matches_dense_reference(kind, m, r, monkeypatch):
    """Support-sparse margins and the incremental gradient follow the dense iteration."""
    a, T = _instance(d=200, s=5, m=m, r=r, seed=70)
    iters = _assert_matches_dense(kind, T, a.l1_norm, L.SolverConfig(), monkeypatch)
    assert iters > 64  # the periodic full gradient refresh ran


@pytest.mark.parametrize("kind", ["l1", "l1l2"])
def test_matches_dense_reference_averaged_and_capped(kind, monkeypatch):
    a, T = _instance(d=200, s=5, m=400, r=1.5, seed=71)
    capped = L.SolverConfig(max_iters=80)
    assert _assert_matches_dense(kind, T, a.l1_norm, capped, monkeypatch) == 80


def test_gradient_row_updates_stay_within_rounding():
    """Over a 5000-iteration solve's worth of row updates, g tracks the exact sum.

    Three rows flip per step, as in the m-sweep.  Checked against an
    extended-precision sum just before each periodic refresh, the worst error
    is about 5e-14 (a dense recomputation alone is off by about 3.5e-14);
    without the refresh the same sequence drifts to about 2e-13.
    """
    rng = np.random.default_rng(5)
    m, d = 400, 200
    X = rng.standard_normal((m, d))
    XF = np.asfortranarray(X)
    y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    active = np.ones(m, dtype=bool)
    g = XF.T @ y
    worst = 0.0
    for k in range(1, 5001):
        new = active.copy()
        rows = rng.choice(m, 3, replace=False)
        new[rows] = ~new[rows]
        g = solvers._update_gradient(g, X, XF, y, active, new, k)
        active = new
        if (k + 1) % solvers._REFRESH == 0 or k == 5000:
            exact = X.astype(np.longdouble).T @ (y * active).astype(np.longdouble)
            worst = max(worst, float(np.abs(g - exact).max()))
    assert worst < 1e-13


class TestOneBit:
    def test_single_sample_reduces_to_max_linear(self):
        X = np.array([[0.3, -2.0, 0.7]])
        y = np.array([-1.0])
        T = L.TrainingSet(X=X, y=y)
        res = L.solve_one_bit_cs(T, 1.3)
        assert_allclose(res.w_hat, L.max_linear_l1_l2(-X[0], 1.3), atol=1e-12)
        assert res.objective_kind == "linear"
        assert res.iterations == 0

    def test_rescaling_data_leaves_maximizer_fixed(self):
        a, T = _instance(d=30, s=3, m=100, r=0.5, seed=41)
        w1 = L.solve_one_bit_cs(T, a.l1_norm).w_hat
        for scale in (10.0, 1e200):
            T_scaled = L.TrainingSet(X=scale * T.X, y=T.y)
            with np.errstate(all="raise"):
                w2 = L.solve_one_bit_cs(T_scaled, a.l1_norm).w_hat
            assert_allclose(w1, w2, atol=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_angle_oracle(self, trial):
        rng = np.random.default_rng(600 + trial)
        m = int(rng.integers(2, 8))
        X = rng.standard_normal((m, 2))
        y = np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0)
        T = L.TrainingSet(X=X, y=y)
        R = 1.2
        w = L.solve_one_bit_cs(T, R).w_hat
        ref = angle_max_linear(X.T @ y, R)
        assert np.linalg.norm(w - ref) < 1e-4

    def test_zero_gradient_rejected(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0])
        T = L.TrainingSet(X=X, y=y)
        with pytest.raises(ValueError):
            L.solve_one_bit_cs(T, 1.0)

    @pytest.mark.parametrize("bad", [[1.4, 0.0, 0.0], [1.05, 0.0, 0.0], [np.nan, 0.0, 0.0]],
                             ids=["l1", "l2", "nan"])
    def test_infeasible_maximizer_rejected(self, monkeypatch, bad):
        monkeypatch.setattr(solvers, "max_linear_l1_l2", lambda g, R: np.array(bad))
        T = L.TrainingSet(X=np.array([[0.3, -2.0, 0.7]]), y=np.array([1.0]))
        with pytest.raises(RuntimeError, match="infeasible"):
            L.solve_one_bit_cs(T, 1.3)


class TestRecoveryError:
    def setup_method(self):
        self.a = L.make_random_classifier(12, 3, L.RngSeed(50))

    def test_identity(self):
        err = L.recovery_error(self.a, self.a.a)
        assert err.l2_error == pytest.approx(0.0, abs=1e-12)
        assert err.ratio_error == pytest.approx(0.0, abs=1e-12)

    def test_positive_scaling_invariance(self):
        err = L.recovery_error(self.a, 2.0 * self.a.a)
        assert err.l2_error == pytest.approx(0.0, abs=1e-12)
        assert err.ratio_error == pytest.approx(0.0, abs=1e-12)

    def test_antipode_hits_sentinel(self):
        err = L.recovery_error(self.a, -self.a.a)
        assert err.l2_error == pytest.approx(2.0, abs=1e-12)
        assert err.ratio_error == float("inf")

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            L.recovery_error(self.a, np.zeros(12))

    def test_overlap_identity_and_ratio_inequality(self):
        """c'/c = sqrt((1-q)(1+q))/q for the cosine q = 1 - l2_error^2/2.

        It also bounds half the ratio error.
        """
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.standard_normal(12)
            err = L.recovery_error(self.a, w)
            q = 1.0 - err.l2_error ** 2 / 2.0
            if q <= 0:
                continue
            o = L.OverlapCoords.from_vectors(self.a.a, w / np.linalg.norm(w), r=1.0)
            lhs = o.c_prime / o.c
            assert lhs == pytest.approx(math.sqrt((1.0 - q) * (1.0 + q)) / q, abs=1e-10)
            assert lhs >= 0.5 * err.ratio_error - 1e-10
