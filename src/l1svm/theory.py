"""Closed-form expectations and non-asymptotic bound formulas.

Everything here is a deterministic formula in the model parameters: expected
hinge losses under the Gaussian data model (exact, via the normal CDF and
Owen's T function), the uniform concentration bound, the explicit
sample-size and error bounds, and a Monte Carlo oracle used to cross-check
the expected losses.

The normal CDF and Owen's T come from scipy.special (ndtr, Cephes' rational
approximations of erfc, and owens_t, Patefield and Tandy's algorithm; both
accurate to well below 1e-14).  They are imported inside their users, so
that a command that never evaluates them does not load scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import as_generator, write_csv

__all__ = [
    "HypothesisWarning",
    "OverlapCoords",
    "ConcentrationBound",
    "BoundReport",
    "expected_fa_a",
    "expected_fa_w",
    "hinge_gaussian_integral",
    "thm2_lower_bound",
    "proof_constant_057",
    "thm1_bound",
    "thm3_sample_size",
    "thm3_error_bound",
    "thm3_failure_prob",
    "thm8_bound",
    "monte_carlo_fa",
    "gaussian_max_norm_bounds",
    "bound_report",
    "write_bound_reports",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class HypothesisWarning(UserWarning):
    """Parameters fall outside the range where a bound's guarantee is proved."""


def _phi(t: float) -> float:
    return math.exp(-0.5 * t * t) / _SQRT_2PI


@dataclass(frozen=True)
class OverlapCoords:
    """Components of w parallel (c) and orthogonal (c_prime) to the true direction."""

    c: float
    c_prime: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and 0.0 <= self.c_prime < math.inf):
            raise ValueError(f"need c finite, c_prime >= 0 finite; got {self.c}, {self.c_prime}")
        _require_positive_finite(r=self.r)

    @classmethod
    def from_vectors(cls, a, w, r: float) -> "OverlapCoords":
        a = np.asarray(a, dtype=float)
        w = np.asarray(w, dtype=float)
        c = float(a @ w)
        c_prime = math.sqrt(max(float(w @ w) - c * c, 0.0))
        return cls(c=c, c_prime=c_prime, r=r)


def hinge_gaussian_integral(z: float) -> float:
    """Closed form of int_0^{1/z} (1 - z t) e^{-t^2/2} dt for z > 0."""
    if not z > 0:
        raise ValueError("need z > 0")
    from scipy.special import ndtr

    return _SQRT_2PI * (ndtr(1.0 / z) - 0.5) - z * (1.0 - math.exp(-1.0 / (2.0 * z * z)))


def expected_fa_a(r: float) -> float:
    """Expected hinge loss of the true classifier: E [1 - r|t|]_+ , t ~ N(0,1)."""
    if not r > 0:
        raise ValueError("need r > 0")
    return math.sqrt(2.0 / math.pi) * hinge_gaussian_integral(r)


def expected_fa_w(o: OverlapCoords) -> float:
    """Expected hinge loss of a point with overlap (c, c_prime) at scale r.

    With a = c r, b = c_prime r and U = a t1 + b t2, the loss is
    2 E[(1 - U) 1{U <= 1, t1 >= 0}]: a bivariate-normal orthant probability
    (Owen's T) minus, by Stein's lemma, a normal-CDF term.  With s = |(a, b)|
    and h = 1/s it is
    2 [Phi(h)/2 + T(h, -a/b) - a phi(0) Phi(1/b) + s phi(h) Phi(a/(b s))].
    """
    a, b = o.c * o.r, o.c_prime * o.r
    if b == 0.0:  # c_prime = 0, or c_prime r below the smallest float
        if o.c > 0.0:
            return expected_fa_a(a)
        if o.c == 0.0:
            return 1.0
        return 1.0 + abs(a) * math.sqrt(2.0 / math.pi)
    from scipy.special import ndtr, owens_t

    s = math.hypot(a, b)
    h = 1.0 / s
    # a / b / s, not a / (b s): the product underflows at tiny scales
    return float(2.0 * (0.5 * ndtr(h) + owens_t(h, -a / b) - a * _phi(0.0) * ndtr(1.0 / b)
                        + s * _phi(h) * ndtr(a / b / s)))


def thm2_lower_bound(o: OverlapCoords) -> float:
    """Guaranteed lower bound on the expected hinge-loss gap E f(w) - E f(a).

    May be negative for small r, in which case it is simply uninformative.
    """
    if not o.c_prime > 0:
        raise ValueError("need c_prime > 0")
    c, cp, r = o.c, o.c_prime, o.r
    if c <= 0.0:
        val = math.pi / 2.0 + cp * r * math.sqrt(math.pi / 2.0) - _SQRT_2PI / r
    else:
        val = (
            math.sqrt(math.pi / 2.0) * hinge_gaussian_integral(c * r)
            + (cp / c) * math.exp(-1.0 / (2.0 * c * c * r * r))
            - _SQRT_2PI / r
        )
    return val / math.pi


def proof_constant_057() -> float:
    """The constant sqrt(pi/2) int_0^1 (1-t) e^{-t^2/2} dt, provably >= 0.57."""
    return math.sqrt(math.pi / 2.0) * hinge_gaussian_integral(1.0)


@dataclass(frozen=True)
class ConcentrationBound:
    total: float  # deterministic deviation bound plus the slack u
    failure_prob: float  # probability the bound fails, clipped into [0, 1]


def _require_positive_finite(t: float = 0.0, **params) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    for name, value in params.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def thm1_bound(d: int, m: int, r: float, R: float, u: float) -> ConcentrationBound:
    """Uniform deviation bound for the hinge loss over the l1 ball."""
    if d < 2:
        raise ValueError("need d >= 2")
    if m < 1:
        raise ValueError("need m >= 1")
    _require_positive_finite(r=r, R=R, u=u)
    root = math.sqrt(2.0 * math.log(2.0 * d))
    sqrt_m = math.sqrt(m)
    total = (8.0 * math.sqrt(8.0 * math.pi) + 18.0 * r * R * root) / sqrt_m + u
    fail = 8.0 * (
        math.exp(-m * u * u / 32.0) + math.exp(-m * u * u / (32.0 * r * r * R * R))
    )
    return ConcentrationBound(total=total, failure_prob=min(fail, 1.0))


def _check_thm3_range(eps: float, r: float) -> None:
    if not 0.0 < eps < 0.18:
        warnings.warn("target accuracy outside the proved range 0 < eps < 0.18",
                      HypothesisWarning, stacklevel=3)
        return
    threshold = _SQRT_2PI / (0.57 - math.pi * eps)
    if r <= threshold:
        warnings.warn("scale r is below the validity threshold sqrt(2 pi)/(0.57 - pi eps)",
                      HypothesisWarning, stacklevel=3)


def thm3_sample_size(eps: float, r: float, R: float, d: int, t: float = 1.0) -> int:
    """Samples sufficient for recovery error eps: ceil(4 eps^-2 (8 sqrt(8 pi) + (18+t) r R sqrt(2 log 2d))^2)."""
    _require_positive_finite(eps=eps, r=r, R=R, t=t)
    if d < 2:
        raise ValueError("need d >= 2")
    _check_thm3_range(eps, r)
    root = math.sqrt(2.0 * math.log(2.0 * d))
    base = 8.0 * math.sqrt(8.0 * math.pi) + (18.0 + t) * r * R * root
    return int(math.ceil(4.0 * base * base / (eps * eps)))


def thm3_error_bound(eps: float, r: float) -> float:
    """The guaranteed ratio-error level 2 e^{1/2} (pi eps + sqrt(2 pi)/r)."""
    _require_positive_finite(eps=eps, r=r)
    return 2.0 * math.exp(0.5) * (math.pi * eps + _SQRT_2PI / r)


def thm3_failure_prob(d: int, r: float, R: float, t: float = 1.0) -> float:
    """Failure weight 8(exp(-t^2 r^2 R^2 log(2d)/16) + exp(-t^2 log(2d)/16)), unclipped."""
    _require_positive_finite(r=r, R=R, t=t)
    if d < 2:
        raise ValueError("need d >= 2")
    ld = math.log(2.0 * d)
    return 8.0 * (
        math.exp(-t * t * r * r * R * R * ld / 16.0) + math.exp(-t * t * ld / 16.0)
    )


def thm8_bound(eps: float, r: float) -> float:
    """Squared-error bound sqrt(pi/2) eps / (r (1 - e^{-1/(2 r^2)})) for the intersected constraint."""
    _require_positive_finite(eps=eps, r=r)
    if not 0.0 < eps < 0.5:
        warnings.warn("target accuracy outside the proved range 0 < eps < 1/2",
                      HypothesisWarning, stacklevel=2)
    elif r <= 2.0 * _SQRT_2PI / (1.0 - 2.0 * eps):
        warnings.warn("scale r is below the validity threshold 2 sqrt(2 pi)/(1 - 2 eps)",
                      HypothesisWarning, stacklevel=2)
    # 1 - e^{-x} by subtraction loses digits as x = 1/(2 r^2) shrinks, and is exactly 0
    # from r = 9.5e7 on, where the bound would divide by zero
    return math.sqrt(math.pi / 2.0) * eps / (r * -math.expm1(-1.0 / (2.0 * r * r)))


def _sample_count(n_samples) -> int:
    """n_samples as an int: a whole float counts as its integer, any other value is refused."""
    if not (-math.inf < n_samples < math.inf and n_samples == int(n_samples)):
        raise ValueError(f"n_samples must be a whole number, got {n_samples}")
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    return int(n_samples)


_BLOCK = 1_000_000  # samples per block: its sum and its sum of squares are one pairwise sum each
_PART = 16_384  # samples per part of a block: t2 and the part's values stay in cache


def _mc_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The t1 block and the part buffer of `_monte_carlo` for n samples."""
    return np.empty(min(n, _BLOCK)), np.empty(min(n, _PART))


def _monte_carlo(o: OverlapCoords, n: int, rng, block, part) -> tuple[float, float]:
    """monte_carlo_fa's estimate from the generator rng, in the buffers of `_mc_buffers(n)`.

    Per block the stream holds all of its t1 draws, then all of its t2 draws.  So t1
    fills the block first, and t2 is drawn into `part` a part at a time and combined
    with the block's values there, by the steps of max(1 - (c r)|t1| - (c' r) t2, 0).
    """
    total = 0.0
    total_sq = 0.0
    ct, cpt = o.c * o.r, o.c_prime * o.r
    for start in range(0, n, block.size):
        vals = block[:min(block.size, n - start)]
        rng.standard_normal(out=vals)
        for lo in range(0, vals.size, part.size):
            seg = vals[lo:lo + part.size]
            t2 = part[:seg.size]
            rng.standard_normal(out=t2)
            np.abs(seg, out=seg)
            np.multiply(ct, seg, out=seg)
            np.subtract(1.0, seg, out=seg)
            np.multiply(cpt, t2, out=t2)
            np.subtract(seg, t2, out=seg)
            np.maximum(seg, 0.0, out=seg)
        total += float(vals.sum())
        total_sq += float(np.multiply(vals, vals, out=vals).sum())
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def monte_carlo_fa(o: OverlapCoords, n_samples: int, seed) -> tuple[float, float]:
    """Sample mean and standard error of [1 - c r |t1| - c_prime r t2]_+.

    n_samples is a whole number >= 1000; a whole float such as 2e6 counts as its integer.
    """
    n = _sample_count(n_samples)
    return _monte_carlo(o, n, as_generator(seed), *_mc_buffers(n))


def gaussian_max_norm_bounds(d: int) -> tuple[float, float]:
    """Sandwich for E max_j |g_j| over d iid standard normals."""
    if d < 1:
        raise ValueError("need d >= 1")
    return math.sqrt(math.log(d)) / 4.0, math.sqrt(2.0 * math.log(2.0 * d))


@dataclass(frozen=True)
class BoundReport:
    d: int
    s: int
    R: float
    r: float
    m: int
    eps: float
    u: float
    thm1: ConcentrationBound
    thm3_error_bound: float
    thm3_prob: float
    thm8_error_bound: float
    sample_size_required: int

    def __post_init__(self):
        if self.sample_size_required < 1:
            raise ValueError("required sample size must be >= 1")


def bound_report(d: int, s: int, R: float, r: float, m: int, eps: float, u: float,
                 t: float = 1.0) -> BoundReport:
    """Evaluate every bound at one parameter tuple."""
    thm1 = thm1_bound(d, m, r, R, u)  # checks d before s is compared with it
    if not 1 <= s <= d:
        raise ValueError(f"sparsity s must be in 1..d = {d}, got {s}")
    return BoundReport(
        d=d, s=s, R=R, r=r, m=m, eps=eps, u=u,
        thm1=thm1,
        thm3_error_bound=thm3_error_bound(eps, r),
        thm3_prob=min(thm3_failure_prob(d, r, R, t), 1.0),
        thm8_error_bound=thm8_bound(eps, r),
        sample_size_required=thm3_sample_size(eps, r, R, d, t),
    )


_BOUND_HEADER = "d,s,R,r,m,eps,u,thm1_total,thm1_fail_prob,thm3_bound,thm3_prob,thm8_bound,m_required"
_BOUND_LINE = "%s,%s,%.10g,%.10g,%s,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%s"


def write_bound_reports(reports, path) -> None:
    write_csv(path, _BOUND_HEADER, (_BOUND_LINE % (
        b.d, b.s, b.R, b.r, b.m, b.eps, b.u, b.thm1.total, b.thm1.failure_prob,
        b.thm3_error_bound, b.thm3_prob, b.thm8_error_bound, b.sample_size_required,
    ) for b in reports), "\n")
