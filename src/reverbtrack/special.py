"""The three special functions of the model, on numpy and math alone.

- ndtr, the standard normal CDF, in the moments of max(a, b) of the
  log-sum prior (Clark, 1961);
- li2_exp, the dilogarithm Li2(e^{-2x}), in that prior's variance;
- exp1, the exponential integral E1, in the Log-MMSE gain (Ephraim and
  Malah, 1985).

Each agrees with scipy.special to rounding level (tests/test_special.py)
without loading scipy, whose special-function module alone takes about
0.3 s to import. Every constant is a named mathematical constant, a
Gauss rule from numpy.polynomial, or a series coefficient built once, on
first use, in exact fractions; numpy.polynomial and fractions are
imported then, so that importing this module loads neither.
"""

import functools
import math

import numpy as np

_SQRT_HALF = math.sqrt(0.5)
_ZETA2 = math.pi ** 2 / 6.0            # Li2(1)
_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015329      # Euler's constant, the double nearest it
_Z_MAX = 1.0 - 2.0 ** -53              # largest double below 1
_LI2_TERMS = 9                         # Bernoulli terms of _li2_series, t <= ln 2
_EXP1_SPLIT = 4.0                      # exp1: _ein_rule below, _exp1_rule above
_EIN_NODES = 12
_EXP1_FAR_NODES = 30


def ndtr(x):
    """The standard normal CDF 0.5*erfc(-x/sqrt(2)), elementwise, by math.erfc.

    Within 1e-14 (relative) of scipy.special.ndtr for |x| <= 5 and 1e-12
    wherever the CDF is at least 1e-300; 0 at -inf, 1 at +inf, NaN at NaN.
    The map over math.erfc is cheaper on the cascade's few hundred bins
    than the vectorised rational forms tried, which need some 25 numpy
    calls.
    """
    x = np.asarray(x, dtype=float)
    flat = (x * -_SQRT_HALF).ravel().tolist()
    out = np.fromiter(map(math.erfc, flat), float, len(flat))
    out *= 0.5
    return out.reshape(x.shape)


@functools.cache
def _li2_series():
    """The _LI2_TERMS + 1 coefficients of S(u) = sum_k c_k u^k, k >= 1,
    with c_k = B_2k/(2k+1)!, so that the Bernoulli series
    B(t) = Li2(1 - e^{-t}) = t - t^2/4 + sum_k B_2k t^(2k+1)/(2k+1)!
    is t*(1 + S(t^2) - t/4).

    The Bernoulli numbers come from their recurrence in exact fractions.
    For t <= ln 2 the terms fall by (t/2pi)^2 < 0.0122 each, so the last
    one is below 1e-18 of B(t). The coefficients are returned highest
    power first, as np.polyval takes them.
    """
    from fractions import Fraction
    bern = [Fraction(1)]
    for m in range(1, 2 * _LI2_TERMS + 1):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    return np.array([float(bern[2 * k] / math.factorial(2 * k + 1))
                     for k in range(_LI2_TERMS, 0, -1)] + [0.0])


def li2_exp(x):
    """The dilogarithm Li2(e^{-2x}) for x >= 0, elementwise; NaN where x < 0.

    With w = 2x and the Bernoulli series B(t) = Li2(1 - e^{-t}) of
    _li2_series, taken only at t <= ln 2:
    - for w >= ln 2, Li2(e^{-w}) = B(t) at t = -log(1 - e^{-w});
    - for w < ln 2, the reflection Li2(z) + Li2(1 - z) = pi^2/6 -
      log(z) log(1 - z) at z = e^{-w} gives pi^2/6 + w log(1 - e^{-w}) - B(w).
    Within 3.3e-16 of the exact value, and within 6e-16 of it relative to
    the value where that is tiny; pi^2/6 at 0 and 0 at +inf. Both
    branches share log(1 - e^{-w}), taken by log1p(-e^{-w}): where
    e^{-w} >= 1/2, 1 - e^{-w} is exact, so the product with w errs by
    about one ulp of 1 even as w goes to 0.
    """
    x = np.asarray(x, dtype=float)
    w = np.where(x >= 0.0, 2.0 * x, np.nan)
    lz = np.log1p(-np.minimum(np.exp(-w), _Z_MAX))     # log(1 - e^{-w}), finite at w = 0
    near = w < _LN2
    t = np.where(near, w, -lz)
    b = t * (np.polyval(_li2_series(), t * t) + 1.0 - 0.25 * t)
    return np.where(near, _ZETA2 + np.minimum(w, _LN2) * lz - b, b)


@functools.cache
def _ein_rule():
    """The _EIN_NODES-point Gauss-Legendre rule for Ein(v) = int_0^1
    (1 - e^{-vs})/s ds, as (nodes s as a column, weights divided by s).

    The integrand is entire in s, so for v <= _EXP1_SPLIT the rule is
    exact to rounding. The rule comes from numpy.polynomial.
    """
    from numpy.polynomial.legendre import leggauss
    s, w = leggauss(_EIN_NODES)
    s = 0.5 * (s + 1.0)
    return s[:, None], 0.5 * w / s


@functools.cache
def _exp1_rule():
    """The _EXP1_FAR_NODES-point Gauss-Laguerre rule for
    E1(v) = e^{-v} int_0^inf e^{-t}/(v + t) dt, as (nodes t as a column,
    weights).

    Its sum is the convergent of the same depth of E1's continued
    fraction; for v > _EXP1_SPLIT it is within 1e-14 of E1 (relative) and
    3e-17 (absolute). The rule comes from numpy.polynomial.
    """
    from numpy.polynomial.laguerre import laggauss
    t, w = laggauss(_EXP1_FAR_NODES)
    return t[:, None], w


def _exp1_far(v):
    """E1 by the quadrature of _exp1_rule, for v > _EXP1_SPLIT."""
    t, w = _exp1_rule()
    return np.exp(-v) * (w @ (1.0 / (t + v)))


def exp1(v):
    """The exponential integral E1(v) for v >= 0, elementwise.

    For v <= _EXP1_SPLIT, E1(v) = -gamma - log v + Ein(v) with Ein by the
    quadrature of _ein_rule, whose terms are all positive; above, the
    quadrature of _exp1_far, taken only on the points above the split.
    Within 7e-16*max(1, E1) of the exact value on [1e-10, 700] (scipy's
    exp1 comes within 3.3e-16); inf at 0, 0 at +inf, NaN where v < 0 or v
    is NaN.
    """
    v = np.asarray(v, dtype=float)
    shape = v.shape
    v = v.ravel()
    far = v > _EXP1_SPLIT
    near = np.minimum(v, _EXP1_SPLIT)            # NaN stays NaN
    # log warns at 0 (-inf) and below 0 (NaN), and expm1 can overflow
    # below 0; only an input that holds such a point pays for errstate
    if np.count_nonzero(near <= 0.0):
        with np.errstate(all="ignore"):
            out = _exp1_near(near)
    else:
        out = _exp1_near(near)
    if np.count_nonzero(far):
        out[far] = _exp1_far(v[far])
    return out.reshape(shape)


def _exp1_near(v):
    """E1 as -gamma - log v + Ein(v), Ein by the quadrature of _ein_rule,
    for v <= _EXP1_SPLIT."""
    s, w = _ein_rule()
    return -_EULER_GAMMA - np.log(v) + w @ -np.expm1(-s * v)
