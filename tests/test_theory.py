import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import l1svm as L
from l1svm.checks import sample_overlap_tuples

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestHingeGaussianIntegral:
    @pytest.mark.parametrize("z,frozen", [
        (0.5, 0.76395565494091455),
        (1.0, 0.4621550516047821),
        (2.0, 0.24491902412907512),
    ])
    def test_frozen_values(self, z, frozen):
        assert L.hinge_gaussian_integral(z) == pytest.approx(frozen, abs=1e-14)

    @pytest.mark.parametrize("z", [0.3, 0.7, 1.0, 1.9, 5.0])
    def test_matches_quadrature_of_defining_integral(self, z):
        ref, err = integrate.quad(lambda t: (1 - z * t) * math.exp(-t * t / 2),
                                  0.0, 1.0 / z, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-12
        assert abs(L.hinge_gaussian_integral(z) - ref) < 1e-10

    def test_monotone_decreasing_and_nonnegative(self):
        vals = [L.hinge_gaussian_integral(z) for z in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v >= 0.0 for v in vals)

    def test_domain(self):
        with pytest.raises(ValueError):
            L.hinge_gaussian_integral(0.0)


class TestExpectedLossTrue:
    def test_frozen_values(self):
        assert L.expected_fa_a(1.0) == pytest.approx(0.3687463803725072, abs=1e-14)
        assert L.expected_fa_a(0.5) == pytest.approx(0.609548422215397, abs=1e-14)

    def test_decreasing_in_scale(self):
        vals = [L.expected_fa_a(r) for r in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_scale_limit(self):
        assert L.expected_fa_a(1e6) < 1e-5

    def test_small_scale_expansion(self):
        r = 0.01
        assert abs(L.expected_fa_a(r) - (1.0 - r * math.sqrt(2 / math.pi))) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            L.expected_fa_a(-1.0)


class TestExpectedLossGeneral:
    def test_aligned_direction_reduces_to_1d(self):
        o = L.OverlapCoords(c=1.0, c_prime=0.0, r=1.7)
        assert abs(L.expected_fa_w(o) - L.expected_fa_a(1.7)) <= 1e-9

    def test_degenerate_orthogonal_overlaps(self):
        assert L.expected_fa_w(L.OverlapCoords(c=0.0, c_prime=0.0, r=3.0)) == 1.0
        o = L.OverlapCoords(c=-0.4, c_prime=0.0, r=2.0)
        assert L.expected_fa_w(o) == pytest.approx(1.0 + 0.8 * math.sqrt(2 / math.pi), abs=1e-14)

    def test_frozen_value(self):
        o = L.OverlapCoords(c=0.6, c_prime=0.8, r=2.0)
        assert L.expected_fa_w(o) == pytest.approx(0.7215493368928421, abs=1e-10)

    def test_against_2d_quadrature(self):
        c, cp, r = 0.6, 0.8, 2.0
        ref, _ = integrate.dblquad(
            lambda t2, t1: max(1 - c * r * abs(t1) - cp * r * t2, 0.0)
            * math.exp(-(t1 * t1 + t2 * t2) / 2) / (2 * math.pi),
            -9, 9, lambda _: -9, lambda _: 9, epsabs=1e-11, epsrel=1e-11)
        assert abs(L.expected_fa_w(L.OverlapCoords(c, cp, r)) - ref) < 1e-9

    @pytest.mark.parametrize("c,cp,r", [(0.0, 1.0, 1.0), (0.6, 0.8, 2.0)])
    def test_against_monte_carlo(self, c, cp, r):
        o = L.OverlapCoords(c=c, c_prime=cp, r=r)
        mean, se = L.monte_carlo_fa(o, 10_000_000, L.RngSeed(42))
        assert abs(L.expected_fa_w(o) - mean) <= 3.0 * se

    # the values of the defining 2-D integral to 40 digits (mpmath, computed offline); the
    # first sits next to the hinge kink, where adaptive quadrature of the 1-D form was off by
    # 2.4e-7 with no warning
    @pytest.mark.parametrize("c,cp,r,frozen", [
        (0.999, 1e-6, 1.0, 0.3690605656166328),
        (0.5765807185600784, 1.353196729079409e-4, 56.68566511039216, 0.01220585957957821),
    ])
    def test_high_precision_frozen_values(self, c, cp, r, frozen):
        assert L.expected_fa_w(L.OverlapCoords(c, cp, r)) == pytest.approx(frozen, abs=1e-14)

    @pytest.mark.parametrize("c", [0.7, 0.0, -0.7])
    def test_continuous_into_each_aligned_branch(self, c):
        limit = L.expected_fa_w(L.OverlapCoords(c, 0.0, 1.5))
        gaps = [abs(L.expected_fa_w(L.OverlapCoords(c, cp, 1.5)) - limit)
                for cp in (1e-3, 1e-6, 1e-9, 1e-12)]
        # the loss is even in c_prime, so it leaves the branch value quadratically
        assert gaps[0] < 1e-5
        assert gaps[1] < 1e-11
        assert gaps[2] < 1e-14 and gaps[3] < 1e-14

    def test_underflowing_orthogonal_scale_takes_the_aligned_branch(self):
        o = L.OverlapCoords(c=0.5, c_prime=5e-324, r=0.4)  # c_prime r rounds to 0
        assert L.expected_fa_w(o) == L.expected_fa_a(0.2)


def test_expected_losses_leave_out_scipy_integrate():
    code = ("import sys; from l1svm import checks, theory; "
            "theory.expected_fa_w(theory.OverlapCoords(0.6, 0.8, 2.0)); "
            "checks.lemma7_suite(n_tuples=2, n_samples=1000); checks.thm2_suite(n_tuples=2); "
            "print('scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout == "False True\n"


class TestOverlapCoords:
    def test_from_vectors_identity(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(8)
        a /= np.linalg.norm(a)
        w = rng.standard_normal(8)
        o = L.OverlapCoords.from_vectors(a, w, r=1.3)
        assert o.c == pytest.approx(float(a @ w), abs=1e-14)
        assert o.c * o.c + o.c_prime * o.c_prime == pytest.approx(float(w @ w), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            L.OverlapCoords(c=0.5, c_prime=-0.1, r=1.0)
        with pytest.raises(ValueError):
            L.OverlapCoords(c=0.5, c_prime=0.1, r=0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="^need c finite"):
            L.OverlapCoords(c=bad, c_prime=0.5, r=1.0)
        with pytest.raises(ValueError, match="^need c finite"):
            L.OverlapCoords(c=0.5, c_prime=bad, r=1.0)
        with pytest.raises(ValueError, match=f"^r must be positive and finite, got {bad}$"):
            L.OverlapCoords(c=0.5, c_prime=0.5, r=bad)


class TestLossGapLowerBound:
    def test_frozen_nonpositive_overlap_branch(self):
        o = L.OverlapCoords(c=-0.1, c_prime=0.5, r=10.0)
        assert L.thm2_lower_bound(o) == pytest.approx(2.4149229459268766, abs=1e-14)

    def test_frozen_positive_overlap_branch(self):
        o = L.OverlapCoords(c=0.6, c_prime=0.8, r=2.0)
        assert L.thm2_lower_bound(o) == pytest.approx(0.05820369650804983, abs=1e-14)
        o2 = L.OverlapCoords(c=-0.3, c_prime=0.6, r=5.0)
        assert L.thm2_lower_bound(o2) == pytest.approx(1.537249929043725, abs=1e-14)

    def test_sound_on_sampled_overlaps(self):
        for o in sample_overlap_tuples(12, L.RngSeed(2024)):
            gap = L.expected_fa_w(o) - L.expected_fa_a(o.r)
            assert L.thm2_lower_bound(o) <= gap + 1e-8

    def test_continuous_at_branch_scale(self):
        r = 2.0
        lo = L.thm2_lower_bound(L.OverlapCoords(1 / r - 1e-6, 0.5, r))
        hi = L.thm2_lower_bound(L.OverlapCoords(1 / r + 1e-6, 0.5, r))
        assert abs(hi - lo) < 1e-4

    def test_small_scale_may_be_negative(self):
        # uninformative but still returned as-is
        assert L.thm2_lower_bound(L.OverlapCoords(0.5, 0.5, 0.5)) < 0.0

    def test_requires_orthogonal_component(self):
        with pytest.raises(ValueError):
            L.thm2_lower_bound(L.OverlapCoords(c=0.5, c_prime=0.0, r=1.0))


def test_proof_constant():
    val = L.proof_constant_057()
    assert val == pytest.approx(0.579225459808048, abs=1e-14)
    assert 0.57 <= val <= 0.60


class TestDeviationBound:
    def test_frozen_example(self):
        b = L.thm1_bound(d=1000, m=400, r=1.0, R=2.05, u=0.5)
        assert b.total == pytest.approx(9.698863906695093, abs=1e-12)
        assert b.mu_bound == pytest.approx(4.199789659625864, abs=1e-12)
        assert b.mu_tilde_bound == pytest.approx(0.39964229372168303, abs=1e-12)
        assert b.failure_prob == 1.0  # clipped

    def test_unclipped_failure_probability(self):
        b = L.thm1_bound(d=1000, m=1000, r=1.0, R=math.sqrt(5), u=1.5)
        assert b.total == pytest.approx(7.730816898074768, abs=1e-12)
        assert b.failure_prob == pytest.approx(6.249191526643604e-06, rel=1e-12)

    def test_quarter_sample_doubles_deterministic_part(self):
        u = 0.5
        b1 = L.thm1_bound(d=1000, m=400, r=1.0, R=2.05, u=u)
        b4 = L.thm1_bound(d=1000, m=1600, r=1.0, R=2.05, u=u)
        assert (b4.total - u) == pytest.approx(0.5 * (b1.total - u), abs=1e-12)

    def test_doubling_slack_takes_terms_to_fourth_power(self):
        d, m, r, R = 1000, 1000, 1.0, math.sqrt(5)
        u = 1.5
        t1 = math.exp(-m * u * u / 32.0)
        t2 = math.exp(-m * u * u / (32.0 * r * r * R * R))
        assert L.thm1_bound(d, m, r, R, u).failure_prob == pytest.approx(8 * (t1 + t2), rel=1e-12)
        doubled = L.thm1_bound(d, m, r, R, 2 * u).failure_prob
        assert doubled == pytest.approx(8 * (t1 ** 4 + t2 ** 4), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            L.thm1_bound(d=1, m=10, r=1.0, R=1.0, u=0.5)
        with pytest.raises(ValueError):
            L.thm1_bound(d=10, m=0, r=1.0, R=1.0, u=0.5)
        with pytest.raises(ValueError):
            L.thm1_bound(d=10, m=10, r=-1.0, R=1.0, u=0.5)

    @pytest.mark.parametrize("name", ["r", "R", "u"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, name, bad):
        params = {"d": 10, "m": 10, "r": 1.0, "R": 1.0, "u": 0.5, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad}$"):
            L.thm1_bound(**params)


class TestSampleSizeBound:
    def test_frozen_example(self):
        assert L.thm3_sample_size(0.1, 25.0, math.sqrt(5), 1000) == 6993327611

    def test_halving_accuracy_quadruples_samples(self):
        m1 = L.thm3_sample_size(0.1, 25.0, math.sqrt(5), 1000)
        m2 = L.thm3_sample_size(0.05, 25.0, math.sqrt(5), 1000)
        assert abs(m2 / m1 - 4.0) < 1e-6

    def test_nearly_linear_in_sparsity(self):
        m100 = L.thm3_sample_size(0.1, 25.0, math.sqrt(100), 1000)
        m400 = L.thm3_sample_size(0.1, 25.0, math.sqrt(400), 1000)
        assert 3.5 < m400 / m100 <= 4.0

    def test_sharpening_parameter_grows_sample_size(self):
        m_t1 = L.thm3_sample_size(0.1, 25.0, math.sqrt(5), 1000, t=1.0)
        m_t3 = L.thm3_sample_size(0.1, 25.0, math.sqrt(5), 1000, t=3.0)
        assert m_t3 > m_t1
        with pytest.raises(ValueError):
            L.thm3_sample_size(0.1, 25.0, math.sqrt(5), 1000, t=-0.5)

    @pytest.mark.parametrize("name", ["eps", "r", "R"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_sample_size_rejects_non_finite_or_nonpositive(self, name, bad):
        params = {"eps": 0.1, "r": 25.0, "R": math.sqrt(5), "d": 1000, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad}$"):
            L.thm3_sample_size(**params)

    def test_error_bound_frozen(self):
        assert L.thm3_error_bound(0.1, 25.0) == pytest.approx(1.3665406346995497, abs=1e-14)

    @pytest.mark.parametrize("name", ["eps", "r"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_error_bound_rejects_non_finite_or_nonpositive(self, name, bad):
        params = {"eps": 0.1, "r": 25.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad}$"):
            L.thm3_error_bound(**params)

    @pytest.mark.parametrize("name", ["r", "R"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_failure_prob_rejects_non_finite_or_nonpositive(self, name, bad):
        params = {"d": 1000, "r": 25.0, "R": 2.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad}$"):
            L.thm3_failure_prob(**params)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -0.5])
    def test_failure_prob_rejects_bad_sharpening(self, bad):
        with pytest.raises(ValueError, match=f"^t must be nonnegative and finite, got {bad}$"):
            L.thm3_failure_prob(1000, 25.0, 2.0, t=bad)

    def test_zero_sharpening_is_the_vacuous_weight(self):
        assert L.thm3_failure_prob(1000, 25.0, 2.0, t=0.0) == 16.0

    def test_failure_prob_frozen_and_clipping(self):
        raw = L.thm3_failure_prob(1000, 25.0, math.sqrt(5))
        assert raw == pytest.approx(4.974799846582179, abs=1e-12)
        rep = L.bound_report(d=1000, s=5, R=math.sqrt(5), r=25.0, m=1000, eps=0.1, u=0.5)
        assert rep.thm3_prob == 1.0

    def test_warns_outside_proved_accuracy_range(self):
        with pytest.warns(L.HypothesisWarning):
            L.thm3_sample_size(0.25, 50.0, math.sqrt(5), 1000)

    def test_warns_below_scale_threshold(self):
        with pytest.warns(L.HypothesisWarning):
            L.thm3_sample_size(0.1, 5.0, math.sqrt(5), 1000)

    def test_silent_in_proved_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L.thm3_sample_size(0.1, 25.0, math.sqrt(5), 1000)


class TestIntersectedErrorBound:
    def test_frozen_values(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert L.thm8_bound(0.2, 10.0) == pytest.approx(5.025800134915288, abs=1e-12)
            assert L.thm8_bound(0.1, 30.0) == pytest.approx(7.521973874201, abs=1e-10)

    def test_large_scale_asymptote(self):
        r = 100.0
        assert abs(L.thm8_bound(0.1, r) / (SQRT_2PI * 0.1 * r) - 1.0) < 0.01

    @pytest.mark.parametrize("r", [1e6, 1e8])
    def test_huge_scale_keeps_full_accuracy(self, r):
        # the bound is sqrt(pi/2) eps 2r (1 + 1/(4 r^2) + ...), so the asymptote is exact to 1e-12
        assert L.thm8_bound(0.1, r) == pytest.approx(SQRT_2PI * 0.1 * r, rel=1e-12, abs=0)

    def test_increasing_in_accuracy_target(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = [L.thm8_bound(e, 200.0) for e in (0.05, 0.15, 0.25, 0.35, 0.45)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_warns_outside_proved_range(self):
        with pytest.warns(L.HypothesisWarning):
            L.thm8_bound(0.6, 50.0)
        with pytest.warns(L.HypothesisWarning):
            L.thm8_bound(0.1, 3.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            L.thm8_bound(0.1, 0.0)

    @pytest.mark.parametrize("name", ["eps", "r"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive(self, name, bad):
        params = {"eps": 0.1, "r": 25.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad}$"):
            L.thm8_bound(**params)


class TestMonteCarlo:
    def test_within_three_se_of_quadrature(self):
        o = L.OverlapCoords(c=1.0, c_prime=0.0, r=1.0)
        mean, se = L.monte_carlo_fa(o, 1_000_000, L.RngSeed(5))
        assert abs(mean - L.expected_fa_a(1.0)) <= 3.0 * se

    def test_mean_nonnegative(self):
        o = L.OverlapCoords(c=0.9, c_prime=0.1, r=50.0)
        mean, se = L.monte_carlo_fa(o, 10_000, L.RngSeed(6))
        assert mean >= 0.0
        assert se >= 0.0

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            L.monte_carlo_fa(L.OverlapCoords(0.5, 0.5, 1.0), 999, L.RngSeed(1))

    def test_se_shrinks_like_root_n(self):
        o = L.OverlapCoords(c=0.3, c_prime=0.7, r=1.5)
        _, s1 = L.monte_carlo_fa(o, 200_000, L.RngSeed(7))
        _, s2 = L.monte_carlo_fa(o, 800_000, L.RngSeed(8))
        assert 0.4 < s2 / s1 < 0.6

    @pytest.mark.parametrize("o,n,seed,frozen", [
        # two full 1M-sample blocks and a partial one
        (L.OverlapCoords(c=0.6, c_prime=0.8, r=1.5), 2_500_000, L.RngSeed(7),
         (0.6790661256615046, 0.0005395322794705832)),
        # one block of fewer than 1M samples
        (L.OverlapCoords(c=-0.3, c_prime=0.2, r=0.7), 1500, L.RngSeed(3, 2),
         (1.1700556154657757, 0.004913936053281)),
    ], ids=["three_blocks", "one_short_block"])
    def test_frozen_bits(self, o, n, seed, frozen):
        # values of the version that allocated fresh temporaries per block
        assert L.monte_carlo_fa(o, n, seed) == frozen


class TestMaxNormSandwich:
    @pytest.mark.parametrize("d,lo,hi", [
        (10, 0.3793567823462866, 2.4477468306808166),
        (100, 0.5364915065723368, 3.2552472614374586),
        (1000, 0.6570652212196165, 3.8989492070408103),
    ])
    def test_frozen_endpoints(self, d, lo, hi):
        got_lo, got_hi = L.gaussian_max_norm_bounds(d)
        assert got_lo == pytest.approx(lo, abs=1e-14)
        assert got_hi == pytest.approx(hi, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            L.gaussian_max_norm_bounds(0)


class TestBoundReport:
    def test_composition(self):
        rep = L.bound_report(d=1000, s=5, R=math.sqrt(5), r=25.0, m=400, eps=0.1, u=0.5)
        direct = L.thm1_bound(d=1000, m=400, r=25.0, R=math.sqrt(5), u=0.5)
        assert rep.thm1.total == direct.total
        assert rep.sample_size_required == L.thm3_sample_size(0.1, 25.0, math.sqrt(5), 1000)
        assert rep.thm3_error_bound == L.thm3_error_bound(0.1, 25.0)
        assert 0.0 <= rep.thm3_prob <= 1.0

    def test_csv_round_trip(self, tmp_path):
        reps = [L.bound_report(d=1000, s=5, R=math.sqrt(5), r=25.0, m=m, eps=0.1, u=0.5)
                for m in (200, 400)]
        path = tmp_path / "bounds.csv"
        L.write_bound_reports(reps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("d,s,R,r,m,eps,u,thm1_total,thm1_fail_prob,"
                            "thm3_bound,thm3_prob,thm8_bound,m_required")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1000"
        assert first[4] == "200"
        assert first[-1] == str(reps[0].sample_size_required)
        assert float(first[7]) == pytest.approx(reps[0].thm1.total, rel=1e-9)
