"""Pre-cleaning, AR estimation and speech-state KF tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from oracles import estimate_ar_ref, predict_ref

from reverbtrack import speech
from reverbtrack.speech import (decorrelate_arrays, estimate_ar, log_mmse_gain,
                                log_mmse_preclean, predict_arrays,
                                recorrelate_arrays)
from reverbtrack.stft import FRAME_INCREMENT


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


def test_preclean_gain_bounds(monkeypatch):
    """The gains lie in [floor, 1], the floor read from
    PRECLEAN_GAIN_FLOOR_DB when the call runs."""
    rng = np.random.default_rng(1)
    mag = np.abs(rng.standard_normal((100, 16)))
    noise = np.full_like(mag, 0.5)
    for floor_db in (speech.PRECLEAN_GAIN_FLOOR_DB, -6.0):
        monkeypatch.setattr(speech, "PRECLEAN_GAIN_FLOOR_DB", floor_db)
        gain = log_mmse_preclean(mag, noise) / np.maximum(mag, 1e-300)
        assert np.all(gain <= 1.0 + 1e-12)
        assert np.all(gain >= 10.0 ** (floor_db / 20.0) - 1e-12)
        assert np.any(gain <= 10.0 ** (floor_db / 20.0) + 1e-12)


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
    coeffs, resid, mean = estimate_ar(x, order=2, modulation_frame=8.0)
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


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_estimate_ar_matches_one_window_at_a_time(order):
    rng = np.random.default_rng(20 + order)
    x = np.cumsum(rng.standard_normal((300, 7)), axis=0)
    x[100:140, :3] = 1.5                 # constant windows: zero fit
    x[:, 6] = 0.0                        # a bin that never varies
    got = estimate_ar(x, order=order)
    for g, ref in zip(got, estimate_ar_ref(x, order=order)):
        assert np.array_equal(g, ref)


def _ar_in_blocks(x, bounds, **kwargs):
    """estimate_ar on the blocks x[lo:hi] between bounds, one carried
    state, its outputs joined; and the state."""
    state = {}
    parts = [estimate_ar(x[lo:hi], state=state, **kwargs) for lo, hi in zip(bounds, bounds[1:])]
    return [np.concatenate([part[i] for part in parts]) for i in range(3)], state


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(t_frames=st.integers(1, 90), k_bins=st.integers(1, 3), win=st.integers(4, 40),
       order=st.integers(1, 3), cuts=st.lists(st.integers(1, 89), max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
# a lone bin at order 3: the oracle's residual once differed here by an ulp
@example(t_frames=15, k_bins=1, win=4, order=3, cuts=[], seed=0)
def test_estimate_ar_any_window_and_blocks_match_the_oracle(t_frames, k_bins, win, order, cuts,
                                                            seed):
    """For windows of 4-40 frames, start-up windows included, estimate_ar in
    any blocks gives every bit of the one-window-at-a-time fits."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal((t_frames, k_bins)), axis=0)
    x[t_frames // 3:t_frames // 2, 0] = 1.5         # constant windows: zero fit
    bounds = [0] + sorted({c for c in cuts if c < t_frames}) + [t_frames]
    got, _ = _ar_in_blocks(x, bounds, order=order, modulation_frame=win * FRAME_INCREMENT)
    for g, ref in zip(got, estimate_ar_ref(x, order=order, win=max(win, order + 2))):
        assert np.array_equal(g, ref)


def test_estimate_ar_fits_a_call_in_one_pass(monkeypatch):
    """Every frame of a call, the start-up frames whose windows are still
    filling included, is fitted by one _fit_windows call."""
    calls = []
    fit = speech._fit_windows
    monkeypatch.setattr(speech, "_fit_windows", lambda *args: calls.append(1) or fit(*args))
    x = np.random.default_rng(5).standard_normal((20, 4))
    estimate_ar(x)
    assert len(calls) == 1
    _ar_in_blocks(x, [0, 1, 3, 12, 20])
    assert len(calls) == 5


def test_estimate_ar_window_longer_than_any_input():
    """A modulation frame of 1e300 s fits each frame over all the rows so
    far, whole and in 7-frame blocks, and keeps no more rows than it saw."""
    x = np.random.default_rng(6).standard_normal((40, 3))
    ref = estimate_ar_ref(x, order=2, win=10 ** 400)
    for g, r in zip(estimate_ar(x, modulation_frame=1e300), ref):
        assert np.array_equal(g, r)
    got, state = _ar_in_blocks(x, list(range(0, 40, 7)) + [40], modulation_frame=1e300)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
    assert state["history"].shape == (40, 3)


def test_estimate_ar_memory_does_not_grow_with_the_window():
    """A 500-frame modulation window holds at most half as much again as
    the default 8-frame one: the fit keeps p + 1 deviation arrays, not one
    per row of the window."""
    x = np.cumsum(np.random.default_rng(7).standard_normal((500, 257)), axis=0)
    estimate_ar(x[:20])             # first-use imports and caches
    peaks = []
    for modulation_frame in (0.064, 4.0):
        tracemalloc.start()
        try:
            estimate_ar(x, modulation_frame=modulation_frame)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


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


@pytest.mark.parametrize("p", [1, 2, 3])
def test_predict_matches_companion_product(p):
    rng = np.random.default_rng(10 + p)
    k_bins = 257
    a = rng.standard_normal((k_bins, p, p))
    cov = a @ np.swapaxes(a, 1, 2)
    args = (rng.standard_normal((k_bins, p)), cov, rng.uniform(-1.0, 1.0, (k_bins, p)),
            rng.uniform(0.0, 0.5, k_bins), rng.standard_normal(k_bins))
    mean, new_cov = predict_arrays(*args)
    ref_mean, ref_cov = predict_ref(*args)
    assert np.array_equal(mean, ref_mean)
    if p <= 2:   # the closed form sums in the product's order
        assert np.array_equal(new_cov, ref_cov)
    assert np.allclose(new_cov, ref_cov, rtol=1e-14, atol=1e-14)
    assert np.array_equal(new_cov, np.swapaxes(new_cov, 1, 2))


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
