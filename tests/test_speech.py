"""Pre-cleaning, AR estimation and speech-state KF tests."""

import numpy as np
import pytest
from scipy.special import exp1

from reverbtrack.speech import (decorrelate_arrays, estimate_ar, log_mmse_gain,
                                log_mmse_preclean, predict_arrays,
                                recorrelate_arrays)


# ---------------------------------------------------------------------------
# pre-cleaning
# ---------------------------------------------------------------------------

def test_log_mmse_gain_at_0db():
    # a-priori SNR = a-posteriori SNR = 1: gain = 0.5 * exp(0.5 * E1(0.5))
    ref = 0.5 * np.exp(0.5 * exp1(0.5))
    assert log_mmse_gain(1.0, 1.0) == pytest.approx(ref)
    assert ref == pytest.approx(0.66, abs=5e-3)


def test_log_mmse_gain_numerical_integral_crosscheck():
    # exp(0.5 * E1(v)) = exp(0.5 * int_v^inf e^-t / t dt), integrated directly
    v = 0.5
    t = np.linspace(v, 60.0, 400001)
    integral = np.trapezoid(np.exp(-t) / t, t)
    assert log_mmse_gain(1.0, 1.0) == pytest.approx(0.5 * np.exp(0.5 * integral),
                                                    rel=1e-6)


def test_preclean_noiseless_limit_is_identity():
    rng = np.random.default_rng(0)
    mag = np.abs(rng.standard_normal((50, 8))) + 0.1
    out = log_mmse_preclean(mag, np.full_like(mag, 1e-12))
    assert np.allclose(out, mag, rtol=1e-3)


def test_preclean_zero_input_is_finite():
    out = log_mmse_preclean(np.full((20, 4), 1e-12), np.full((20, 4), 1.0))
    assert np.all(np.isfinite(out))


def test_preclean_gain_bounds():
    rng = np.random.default_rng(1)
    mag = np.abs(rng.standard_normal((100, 16)))
    noise = np.full_like(mag, 0.5)
    out = log_mmse_preclean(mag, noise, gain_floor_db=-20.0)
    gain = out / np.maximum(mag, 1e-300)
    assert np.all(gain <= 1.0 + 1e-12)
    assert np.all(gain >= 10.0 ** (-20.0 / 20.0) - 1e-12)


def test_preclean_shape_mismatch():
    with pytest.raises(ValueError):
        log_mmse_preclean(np.ones((5, 3)), np.ones((5, 4)))


# ---------------------------------------------------------------------------
# AR estimation
# ---------------------------------------------------------------------------

def test_estimate_ar_recovers_ar1():
    rng = np.random.default_rng(2)
    t_frames = 4000
    x = np.zeros((t_frames, 1))
    for t in range(1, t_frames):
        x[t] = 0.9 * x[t - 1] + 0.3 * rng.standard_normal()
    # long estimation window so the Yule-Walker fit is well conditioned
    coeffs, resid, mean = estimate_ar(x, order=2, modulation_frame=8.0,
                                      frame_increment=0.008)
    a1 = coeffs[-1, 0, 0]
    assert a1 == pytest.approx(0.9, abs=0.05)
    assert resid[-1, 0] > 0


def test_estimate_ar_constant_input():
    coeffs, resid, mean = estimate_ar(np.full((50, 3), 2.5), order=2)
    assert np.all(coeffs == 0.0)
    assert np.all(resid == 0.0)
    assert np.allclose(mean, 2.5)


def test_estimate_ar_order_and_shapes():
    x = np.random.default_rng(3).standard_normal((40, 5))
    coeffs, resid, mean = estimate_ar(x, order=2)
    assert coeffs.shape == (40, 5, 2)
    assert resid.shape == (40, 5)
    assert np.all(resid >= 0.0)


# ---------------------------------------------------------------------------
# prediction (one bin: a leading bin axis of length 1)
# ---------------------------------------------------------------------------

def _predict(mean, cov, coeffs, resid, local_mean=0.0):
    m, c = predict_arrays(np.asarray(mean, float)[None], np.asarray(cov, float)[None],
                          np.asarray(coeffs, float)[None], np.array([resid]),
                          np.array([local_mean]))
    return m[0], c[0]


def test_predict_random_walk_keeps_mean():
    mean, _ = _predict([1.3, 0.7], np.zeros((2, 2)), [1.0, 0.0], 0.0)
    assert mean[0] == pytest.approx(1.3)
    assert mean[1] == pytest.approx(1.3)   # history shifts


def test_predict_residual_feeds_head_variance():
    _, cov = _predict(np.zeros(2), np.zeros((2, 2)), [0.5, 0.1], 0.37)
    assert cov[0, 0] == pytest.approx(0.37)
    assert np.allclose(cov[1:], 0.0)


def test_predict_matches_hand_computed_ar2():
    a = np.array([1.2, -0.4])
    mu = np.array([0.5, -0.2])
    sigma = np.array([[0.3, 0.1], [0.1, 0.2]])
    q = 0.05
    local = 0.1
    f = np.array([a, [1.0, 0.0]])
    ref_mean = f @ (mu - local) + local
    ref_cov = f @ sigma @ f.T + np.diag([q, 0.0])
    mean, cov = _predict(mu, sigma, a, q, local)
    assert np.allclose(mean, ref_mean, atol=1e-12)
    assert np.allclose(cov, ref_cov, atol=1e-12)


def test_predict_order_mismatch():
    with pytest.raises(ValueError):
        _predict(np.zeros(2), np.eye(2), np.zeros(3), 0.0)


def test_predict_contracts_variance_for_stable_ar():
    mean, cov = np.zeros(2), np.eye(2)
    prev = np.trace(cov)
    for _ in range(50):
        mean, cov = _predict(mean, cov, [0.5, 0.2], 0.0)
    assert np.trace(cov) < prev
    assert np.all(np.linalg.eigvalsh(cov) >= -1e-12)


# ---------------------------------------------------------------------------
# decorrelation / recorrelation
# ---------------------------------------------------------------------------

def _decorrelate(mean, cov):
    """(head mean, head variance, tail mean, tail covariance, c) of one bin
    and the transform B = [[1, 0], [-c, I]] that decorrelation applies."""
    hm, hv, tm, tc, c = decorrelate_arrays(np.asarray(mean, float)[None],
                                           np.asarray(cov, float)[None])
    b = np.eye(len(mean))
    b[1:, 0] = -c[0]
    return (hm[0], hv[0], tm[0], tc[0], c[0]), b


def _recorrelate(head_m, head_v, dec):
    _, _, tm, tc, c = dec
    m, s = recorrelate_arrays(np.array([head_m]), np.array([head_v]),
                              tm[None], tc[None], c[None])
    return m[0], s[0]


def test_decorrelate_diagonal_is_identity_transform():
    dec, b = _decorrelate(np.array([1.0, 2.0]), np.diag([0.5, 0.7]))
    assert np.allclose(b, np.eye(2))
    assert dec[0] == pytest.approx(1.0)
    assert dec[1] == pytest.approx(0.5)


def test_decorrelate_removes_cross_term():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    dec, b = _decorrelate(np.array([0.0, 0.0]), cov)
    # Schur complement of the head
    assert dec[3][0, 0] == pytest.approx(0.75)
    assert abs((b @ cov @ b.T)[0, 1]) <= 1e-12


def test_recorrelate_inverts_decorrelate():
    rng = np.random.default_rng(4)
    m = rng.standard_normal(2)
    a = rng.standard_normal((2, 2))
    cov = a @ a.T + 0.1 * np.eye(2)
    dec, _ = _decorrelate(m, cov)
    back_m, back_cov = _recorrelate(dec[0], dec[1], dec)
    assert np.allclose(back_m, m, atol=1e-10)
    assert np.allclose(back_cov, cov, atol=1e-10)


def test_recorrelate_propagates_head_shift():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    dec, _ = _decorrelate(np.array([0.0, 0.0]), cov)
    # pin the head at +1 with zero variance: the second component (the
    # smoothed previous frame) must move by cov[1,0]/cov[0,0] * shift,
    # per conditional-Gaussian algebra
    back_m, back_cov = _recorrelate(1.0, 0.0, dec)
    assert back_m[1] == pytest.approx(0.5)
    assert back_cov[1, 1] == pytest.approx(0.75)
