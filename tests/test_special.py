"""reverbtrack.special against scipy.special and exact references."""

import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy import special as sp

from reverbtrack.special import exp1, li2_exp, ndtr

RNG = np.random.default_rng(20261019)


def _li2_exact(x):
    """Li2(e^{-2x}) to about 30 digits, in decimal arithmetic.

    z = e^{-2x}: for z <= 1/2 the series sum z^k/k^2; above, the
    reflection pi^2/6 - log(z) log(1 - z) - Li2(1 - z) with that series.
    """
    getcontext().prec = 40
    pi2_6 = Decimal("1.644934066848226436472415166646025189218949901206798437735558229")

    def series(z):
        total, term, k = Decimal(0), z, 1
        while term > z * Decimal("1e-40"):
            total += term / (k * k)
            k += 1
            term *= z
        return total
    out = []
    for v in x:
        z = (Decimal(-2) * Decimal(float(v))).exp()
        if z <= Decimal("0.5"):
            out.append(float(series(z)))
        else:
            out.append(float(pi2_6 - z.ln() * (1 - z).ln() - series(1 - z)))
    return np.array(out)


def test_ndtr_matches_scipy():
    x = np.concatenate([np.linspace(-5.0, 5.0, 20001), RNG.uniform(-5.0, 5.0, 20000)])
    assert np.max(np.abs(ndtr(x) / sp.ndtr(x) - 1.0)) <= 1e-14
    # the lower tail, wherever the CDF is at least 1e-300
    x = np.concatenate([RNG.uniform(-37.0, -5.0, 20000), RNG.uniform(5.0, 9.0, 2000)])
    ref = sp.ndtr(x)
    assert ref.min() >= 1e-300
    assert np.max(np.abs(ndtr(x) / ref - 1.0)) <= 1e-12


def test_li2_exp_matches_exact_series():
    """Both branches and the switch between them (2x = ln 2), against a
    decimal reference."""
    x = np.concatenate([RNG.uniform(0.0, 1.0, 600), np.geomspace(1e-12, 30.0, 300),
                        np.log(2.0) / 2 + np.array([-1e-12, 0.0, 1e-12])])
    assert np.max(np.abs(li2_exp(x) - _li2_exact(x))) <= 4.5e-16
    # relative accuracy holds where the value is tiny
    x = np.geomspace(5.0, 300.0, 400)
    assert np.max(np.abs(li2_exp(x) / _li2_exact(x) - 1.0)) <= 1e-15


def test_li2_exp_matches_scipy():
    """Against scipy's spence(1 - e^{-2x}), which is itself off by up to
    2.6e-15 where 1 - e^{-2x} is near 1/2 (see the exact test above);
    elsewhere within 2e-15."""
    x = np.concatenate([RNG.uniform(0.0, 2.0, 100000), np.geomspace(1e-12, 400.0, 100000),
                        RNG.uniform(0.0, 20.0, 100000)])
    err = np.abs(li2_exp(x) - sp.spence(-np.expm1(-2.0 * x)))
    z = -np.expm1(-2.0 * x)
    assert err.max() <= 3e-15
    assert err[(z < 0.44) | (z > 0.55)].max() <= 2e-15


def test_exp1_matches_scipy():
    v = np.concatenate([np.geomspace(1e-10, 700.0, 100000), RNG.uniform(0.0, 10.0, 200000),
                        4.0 + np.array([-1e-12, 0.0, 1e-12])])
    # and with every point above the split
    for v in (v, np.geomspace(4.0 + 1e-12, 700.0, 10000)):
        ref = sp.exp1(v)
        assert np.max(np.abs(exp1(v) - ref) / np.maximum(1.0, ref)) <= 1e-15


def test_special_values_shapes_and_no_warnings():
    inf, nan = np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(ndtr(np.array([-inf, inf, nan])), [0.0, 1.0, nan], equal_nan=True)
        assert np.array_equal(exp1(np.array([0.0, inf, nan, -1.0, -inf])),
                              [inf, 0.0, nan, nan, nan], equal_nan=True)
        assert np.array_equal(li2_exp(np.array([inf, nan, -1.0, -inf])),
                              [0.0, nan, nan, nan], equal_nan=True)
        assert li2_exp(0.0) == math.pi ** 2 / 6
        # scalars and 0-d arrays give 0-d results; empty and 2-D inputs keep their shapes
        for f, x in ((ndtr, 0.3), (exp1, 2.5), (exp1, 7.0), (li2_exp, 0.2), (li2_exp, 30.0)):
            for arg in (x, np.array(x)):
                out = f(arg)
                assert np.shape(out) == ()
                assert float(out) == pytest.approx(float(f(np.array([x]))[0]), rel=0, abs=0)
            assert f(np.empty((0, 3))).shape == (0, 3)
            assert f(np.full((2, 3), x)).shape == (2, 3)
