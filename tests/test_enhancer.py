"""Filter-cascade orchestration tests."""

import copy
import dataclasses
import math
import mmap
import numbers
import os
import re
import signal
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import minimum_filter1d

from reverbtrack import enhancer, lognorm, reverb, speech
from reverbtrack.enhancer import (TRACE_FIELDS, EnhancerConfig, Trace, _FilterState,
                                  enhance, enhance_frames, track_noise)
from reverbtrack.lognorm import Diagnostics, fuse_moments
from reverbtrack.reverb import RoomParams, clamp_gamma
from reverbtrack.simkit import make_scene, speechlike_excitation, stft_domain_reverb
from reverbtrack.stft import (FRAME_INCREMENT, HOP_SAMPLES, AudioBuffer, SpectralFrames, istft,
                              magnitude_floor, stft)

FS = 16000


# ---------------------------------------------------------------------------
# noise tracking
# ---------------------------------------------------------------------------

def test_track_noise_stationary_accuracy():
    rng = np.random.default_rng(0)
    sigma2 = 0.04
    power = sigma2 * rng.chisquare(2, size=(1000, 8)) / 2.0
    mean = track_noise(power)
    est_db = 20.0 * mean[-1] / np.log(10.0)          # nats -> power dB
    true_db = 10.0 * np.log10(sigma2)
    # after the 1.5 s window has filled, within +-2 dB of truth
    assert np.all(np.abs(est_db - true_db) <= 2.0)


def test_track_noise_follows_silence_floor():
    rng = np.random.default_rng(1)
    t_frames = 1500
    power = 1e-6 * np.ones((t_frames, 4))
    speech = np.abs(rng.standard_normal((t_frames, 4)))
    active = (np.arange(t_frames) // 50) % 2 == 0
    power[active] += speech[active]
    mean = track_noise(power)
    speech_db = 10.0 * np.log10(np.median(power[active]))
    floor_db = 20.0 * np.median(mean[500:]) / np.log(10.0)
    assert speech_db - floor_db >= 10.0


def test_track_noise_constant_input(monkeypatch):
    # the bias factor is read when the call runs
    mean = track_noise(np.full((400, 2), 0.01))
    assert np.allclose(mean[-1], 0.5 * np.log(0.015))
    monkeypatch.setattr(enhancer, "NOISE_BIAS", 2.0)
    mean = track_noise(np.full((400, 2), 0.01))
    assert np.allclose(mean[-1], 0.5 * np.log(0.02))


# frames in the tracker's default 1.5 s window
_NOISE_WINDOW = round(1.5 / FRAME_INCREMENT)


def test_track_noise_holds_a_bin_through_floored_frames():
    """A bin that falls to the floor, its power only a bound, holds its
    smoothed value: once the window has passed its last observed frame, its
    mean is that value's, where without the mask it drops to the floor."""
    power = 0.01 * np.random.default_rng(4).chisquare(2, size=(600, 3))
    observed = np.ones(power.shape, bool)
    power[300:], observed[300:] = 1e-24, False
    held = {}
    before = track_noise(power[:300], state=held)
    mean = track_noise(power, observed=observed)
    assert np.array_equal(mean[:300], before)
    last = 0.5 * np.log(enhancer.NOISE_BIAS * held["acc"])
    assert (mean[299 + _NOISE_WINDOW:] == last).all()
    assert (np.diff(mean[299:], axis=0) >= 0).all()     # the window forgets its lower rows
    assert (track_noise(power)[-1] < last - 10).all()   # unmasked: falling to the floor


def test_track_noise_reads_the_floor_until_a_bin_is_observed():
    """A bin not observed yet reads its own frame's floored power, as a
    leading silence reads without the mask, and its smoother starts at its
    first observed power."""
    rng = np.random.default_rng(5)
    power = 0.01 * rng.chisquare(2, size=(300, 2))
    observed = np.ones(power.shape, bool)
    power[:100, 1] = 1e-24 * rng.uniform(1.0, 2.0, 100)    # a floor that moves
    observed[:100, 1] = False
    mean = track_noise(power, observed=observed)
    assert np.array_equal(mean[:100, 1], 0.5 * np.log(enhancer.NOISE_BIAS * power[:100, 1]))
    assert np.array_equal(mean[:, 0], track_noise(power[:, :1])[:, 0])
    p = power[100, 1]
    first = enhancer.NOISE_SMOOTH * p + (1 - enhancer.NOISE_SMOOTH) * p
    assert mean[100, 1] == 0.5 * np.log(enhancer.NOISE_BIAS * first)
    assert np.array_equal(mean[100:, 1], track_noise(power[100:, 1:])[:, 0])


def test_track_noise_all_observed_keeps_the_plain_recursion():
    """With every bin observed, the masked loop gives the bits of the plain
    tracker: the smoother starts at frame 0's power, and each mean is the
    bias times the minimum of the last w smoothed rows (of fewer at the
    start)."""
    rng = np.random.default_rng(6)
    power = 0.01 * rng.chisquare(2, size=(60, 5))
    power[20:30] = 1e-8
    w = 10
    acc, smoothed = power[0], []
    for p in power:
        acc = enhancer.NOISE_SMOOTH * acc + (1 - enhancer.NOISE_SMOOTH) * p
        smoothed.append(acc)
    mins = np.array([np.min(smoothed[max(t - w + 1, 0):t + 1], axis=0) for t in range(60)])
    ref = 0.5 * np.log(enhancer.NOISE_BIAS * mins)
    assert np.array_equal(track_noise(power, window_s=w * FRAME_INCREMENT), ref)
    assert np.array_equal(track_noise(power, window_s=w * FRAME_INCREMENT,
                                      observed=np.ones(power.shape, bool)), ref)


@pytest.mark.parametrize("w", [1, 2, 3, 4, 127, 128, 129, 188, 250])
def test_window_min_matches_minimum_filter(w):
    """The doubling window minimum gives the centred minimum filter's bits
    at the window centres, whose windows never reach past the rows."""
    rng = np.random.default_rng(w)
    for n in (1, 2, 31, 219, 400):
        pad = rng.exponential(size=(n + w - 1, 5))
        pad[rng.random(pad.shape) < 0.2] = 0.0      # ties
        ref = minimum_filter1d(pad, w, axis=0, mode="nearest")[w // 2:w // 2 + n]
        assert np.array_equal(enhancer._window_min(pad, w), ref)


# ---------------------------------------------------------------------------
# single-frame cascade
# ---------------------------------------------------------------------------

def _one_bin(cfg, first_log, noise_mean):
    """The batch path's start state for a single bin."""
    return _FilterState(1, cfg, np.array([first_log]), np.array([noise_mean]))


def test_advance_low_observation_lowers_speech(advance_bin):
    cfg = EnhancerConfig()
    fs = _one_bin(cfg, first_log=0.0, noise_mean=-2.0)
    prior_head = fs.s_mean[0, 0]
    row = advance_bin(fs, -8.0, -2.0, cfg)
    # evidence far below the prior cannot raise the speech belief
    assert row["s_mean"] <= prior_head
    assert np.isfinite(row["t60_est"]) and row["t60_est"] > 0


def test_advance_tracks_y_without_disturbance(advance_bin, monkeypatch):
    monkeypatch.setattr(enhancer, "NOISE_VARIANCE", 1e-4)
    cfg = EnhancerConfig()
    fs = _one_bin(cfg, first_log=0.0, noise_mean=-30.0)
    # kill reverberation: a = 1e-6, b = 1e-6, tight beliefs
    g = 0.5 * np.log(1e-6)
    fs.gamma_m[:], fs.gamma_v[:] = g, 1e-8
    fs.beta_m[:], fs.beta_v[:] = g, 1e-8
    y = 0.3
    for _ in range(20):
        row = advance_bin(fs, y, -30.0, cfg)
    assert abs(row["s_mean"] - y) <= 0.2


def test_advance_z_matches_r_when_noise_negligible(advance_bin):
    cfg = EnhancerConfig()
    fs = _one_bin(cfg, first_log=0.0, noise_mean=0.0)
    fs.r_mean[:], fs.r_var[:] = -1.0, 0.3
    row = advance_bin(fs, 0.0, -1.0 - 40.0, cfg)
    assert abs(row["z_mean"] - row["r_mean"]) <= 0.1


def test_flat_window_keeps_speech_process_noise():
    """A constant pre-cleaned log-spectrum window fits AR coefficients and
    a residual of 0; the speech prediction still has a positive variance,
    so step 7 splits y without falling back."""
    cfg = EnhancerConfig()
    k_bins = 2
    flat = np.full((8, k_bins), -2.0)
    coeffs, resid, loc_mean = speech.estimate_ar(flat, enhancer.AR_ORDER, cfg.modulation_frame)
    assert not coeffs[-1].any() and not resid[-1].any()
    fs = _FilterState(k_bins, cfg, flat[0], np.full(k_bins, -3.0))
    no_priors = (np.zeros(k_bins), np.ones(k_bins), np.zeros(k_bins), np.ones(k_bins),
                 np.zeros(k_bins, bool))
    diag = Diagnostics()
    for _ in range(5):
        frame = enhancer._Frame(flat[-1], np.array([-2.0, -1.0]), np.full(k_bins, -3.0),
                                coeffs[-1], resid[-1], loc_mean[-1], np.ones(k_bins, bool),
                                np.ones(k_bins, bool), no_priors)
        row = enhancer._advance(fs, frame, cfg, diag)
        assert (row["s_var"] > 0).all()
        assert not (row["fallback_flags"] & 1).any()
    assert diag.fallbacks == 0


def test_advance_posterior_variances_nonnegative(advance_bin):
    cfg = EnhancerConfig()
    rng = np.random.default_rng(2)
    fs = _one_bin(cfg, first_log=0.0, noise_mean=-3.0)
    for _ in range(50):
        row = advance_bin(fs, rng.normal(-1.0, 2.0), -3.0, cfg)
        for f in ("s_var", "r_var", "z_var", "gamma_var", "beta_var"):
            assert np.isfinite(row[f]) and row[f] >= 0.0
        assert row["gamma_mean"] < 0.0


# ---------------------------------------------------------------------------
# batch path
# ---------------------------------------------------------------------------

def _random_frames(t_frames=120, k_bins=257, seed=3):
    rng = np.random.default_rng(seed)
    frames = 0.1 * (rng.standard_normal((t_frames, k_bins))
                    + 1j * rng.standard_normal((t_frames, k_bins)))
    return SpectralFrames(frames)


def test_enhance_frames_deterministic():
    spec = _random_frames()
    out1, tr1, _ = enhance_frames(spec)
    out2, tr2, _ = enhance_frames(spec)
    assert np.array_equal(out1.frames, out2.frames)
    for f, arr in tr1.arrays.items():
        assert np.array_equal(arr, tr2.arrays[f])


def test_enhance_frames_gain_bounds():
    cfg = EnhancerConfig()
    spec = _random_frames(seed=4)
    out, _, _ = enhance_frames(spec, cfg)
    gain = np.abs(out.frames) / np.maximum(np.abs(spec.frames), 1e-300)
    floor = 10.0 ** (enhancer.GAIN_FLOOR_DB / 20.0)
    assert np.all(gain <= 1.0 + 1e-9)
    assert np.all(gain >= floor - 1e-9)


def test_enhance_frames_needs_a_frame():
    with pytest.raises(ValueError, match="at least one frame"):
        enhance_frames(SpectralFrames(np.zeros((0, 257), complex)))


def test_enhance_frames_needs_a_bin():
    with pytest.raises(ValueError, match="at least one bin"):
        enhance_frames(SpectralFrames(np.zeros((20, 0), complex)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), 2e100])
def test_enhance_frames_needs_finite_frames(bad):
    """A non-finite frame would run the cascade on NaN and return it, and
    one above 1e100 would overflow the noise tracker's power."""
    spec = _random_frames(t_frames=40, seed=6)
    frames = spec.frames[:, :3].copy()
    frames[:, 1] = bad
    with pytest.raises(ValueError, match="finite frames; frames 0-31 "):
        enhance_frames(SpectralFrames(frames))
    frames = spec.frames.copy()
    frames[35, 200] = bad
    with pytest.raises(ValueError, match="finite frames; frames 32-39 "):
        enhance_frames(SpectralFrames(frames))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(n=st.integers(0, 3 * 512), seed=st.integers(0, 2 ** 32 - 1),
       level=st.sampled_from([0.0, 1e-300, 1e-12, 1.0, 1e30, 1e97, 1e98, 1e300, 1.7e308]))
def test_enhance_short_audio_raises_naming_it_or_returns_its_length(n, seed, level):
    """Audio of 0-3 frames' worth of samples, at any level: a ValueError
    that names the audio, or finite output and Trace of its length."""
    samples = level * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    try:
        out, trace, _ = enhance(AudioBuffer(samples))
    except ValueError as exc:
        assert "audio" in str(exc)
        return
    assert out.samples.shape == (n,) and np.isfinite(out.samples).all()
    assert all(np.isfinite(a).all() for a in trace.arrays.values())


def test_enhance_analyses_the_last_partial_hop():
    """Audio that ends inside a hop is analysed with zeros after it, so its
    last samples are enhanced, not set to 0; frame-aligned audio is
    enhanced as its own frames are."""
    samples = np.random.default_rng(0).standard_normal(4000)
    out, trace, _ = enhance(AudioBuffer(samples))
    assert trace.n_frames == 29 and out.samples.shape == (4000,)
    assert (out.samples[-32:] != 0.0).all()
    assert np.abs(out.samples).max() <= np.abs(samples).max()
    aligned = AudioBuffer(samples[:512 + 27 * 128])
    out, trace, _ = enhance(aligned)
    assert trace.n_frames == 28
    assert np.array_equal(out.samples, istft(enhance_frames(stft(aligned))[0]).samples)


def test_a_loud_onset_after_silence_raises_no_overflow():
    """Where the speech posterior's log-normal correction puts the gain's
    exponent past exp's range, the gain is clipped to 1 with no warning."""
    samples = np.random.default_rng(0).standard_normal(4000)
    samples[:2000] = 0.0
    out, _, _ = enhance(AudioBuffer(1e30 * samples))
    assert np.isfinite(out.samples).all()


@pytest.fixture(scope="module")
def random_spec_80():
    return _random_frames(t_frames=80, seed=8)


_BAD_VALUES = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0), 2e100, 1e300]


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_enhance_frames_with_bad_values_raises_naming_the_frames(random_spec_80, data):
    """inf, nan or too large a magnitude at drawn positions, one of them in
    the second bin group's columns or none at all: a ValueError that names
    the first block of frames holding one, or finite output of the input's
    shape."""
    spec = random_spec_80
    t_frames, k_bins = spec.frames.shape
    cells = data.draw(st.lists(st.tuples(st.integers(0, t_frames - 1), st.integers(0, k_bins - 1)),
                               max_size=3))
    if cells and data.draw(st.booleans()):
        cells[0] = (cells[0][0], data.draw(st.integers(k_bins // 2, k_bins - 1)))
    frames = spec.frames.copy()
    for t, k in cells:
        frames[t, k] = data.draw(st.sampled_from(_BAD_VALUES))
    if cells:
        lo = min(t for t, _ in cells) // 32 * 32
        with pytest.raises(ValueError, match=f"finite frames; frames {lo}-"):
            enhance_frames(SpectralFrames(frames))
        return
    out, trace, _ = enhance_frames(SpectralFrames(frames))
    assert out.frames.shape == frames.shape and np.isfinite(out.frames).all()
    assert all(np.isfinite(a).all() for a in trace.arrays.values())


@pytest.mark.parametrize("shape", [(257,), (4, 257, 2)])
def test_enhance_frames_needs_2d_frames(shape):
    with pytest.raises(ValueError, match=re.escape(f"2-D (frames, bins) frames, got shape {shape}")):
        enhance_frames(SpectralFrames(np.zeros(shape, complex)))


def test_enhance_frames_bounded_look_ahead():
    cfg = EnhancerConfig()
    spec1 = _random_frames(t_frames=100, seed=5)
    frames2 = spec1.frames.copy()
    frames2[60:] *= 3.0                      # change the future only
    spec2 = SpectralFrames(frames2)
    out1, _, _ = enhance_frames(spec1, cfg)
    out2, _, _ = enhance_frames(spec2, cfg)
    # outputs may differ within the look-ahead horizon of the change
    # (the decay-prior path adds one frame of smoothing on top of C)
    horizon = cfg.look_ahead + 2
    assert np.array_equal(out1.frames[:60 - horizon], out2.frames[:60 - horizon])
    assert not np.array_equal(out1.frames[60:], out2.frames[60:])


def test_enhance_preserves_length():
    audio = speechlike_excitation(1.0, seed=6)
    out, trace, diag = enhance(audio)
    assert len(out.samples) == len(audio.samples)


def test_enhance_suppresses_pure_stationary_noise():
    rng = np.random.default_rng(7)
    audio = AudioBuffer(0.1 * rng.standard_normal(4 * FS))
    out, _, _ = enhance(audio)
    drop_db = 10.0 * np.log10(np.sum(audio.samples ** 2)
                              / max(np.sum(out.samples ** 2), 1e-300))
    assert drop_db >= 10.0


@pytest.fixture(scope="module")
def condition_g_1s():
    clean = speechlike_excitation(1.0, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    out, _, _ = enhance(noisy)
    return noisy, out


@pytest.mark.parametrize("c", [0.25, 4.0])
def test_enhance_scale_equivariance(condition_g_1s, c):
    # a gain c shifts every log-spectrum by log c; each log-domain shift
    # must cancel, so the output scales by c up to rounding
    noisy, out = condition_g_1s
    scaled, _, _ = enhance(AudioBuffer(c * noisy.samples))
    ref = c * out.samples
    assert np.max(np.abs(scaled.samples - ref)) <= 1e-14 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# per-bin cascade: bin independence and the RNR gate on steps 10-12
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recorded_frames():
    """(filter state, frame, config) of each frame of a 1 s condition-G
    scene, as enhance_frames passes them to _advance; a replaced _advance
    runs every bin in one group."""
    clean = speechlike_excitation(1.0, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    calls = []
    advance = enhancer._advance

    def record(fs, frame, cfg, diag):
        calls.append((copy.deepcopy(fs), copy.deepcopy(frame), cfg))
        return advance(fs, frame, cfg, diag)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enhancer, "_advance", record)
        enhance(noisy)
    return calls


def _frame_bins(frame, sub):
    """frame on the bins sub alone."""
    return enhancer._Frame(**{f: getattr(frame, f)[sub] for f in frame._fields
                              if f != "priors"},
                           priors=tuple(v[sub] for v in frame.priors))


def _state_bins(fs, sub):
    part = copy.copy(fs)
    for name, value in vars(fs).items():
        setattr(part, name, value[sub])
    return part


def _advance_quietly(fs, frame, cfg, diag):
    """One frame from a copy of fs; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return enhancer._advance(copy.deepcopy(fs), frame, cfg, diag)


# frames 44-63 hold mixed RNR gates and, at frame 58, decay priors
_WINDOW = slice(44, 64)


def _advance_bins(recorded_frames, sub, floored=None):
    """The rows of _advance over the frames of _WINDOW on the bins sub
    alone, from the recorded state at the window's first frame, and the
    state after its last frame. floored, when given, holds a row of K
    bools per frame of the window: the bins to mark as at the magnitude
    floor."""
    fs0, _, cfg = recorded_frames[_WINDOW.start]
    part = _state_bins(fs0, sub)
    window = [frame for _, frame, _ in recorded_frames[_WINDOW]]
    if floored is not None:
        window = [frame._replace(observed=frame.observed & ~row)
                  for frame, row in zip(window, floored, strict=True)]
    rows = [enhancer._advance(part, _frame_bins(frame, sub), cfg, Diagnostics())
            for frame in window]
    return rows, part


def _assert_rows_equal(got, ref, sub):
    """got's rows hold the bits of ref's columns sub, in every field
    _advance returns (t60_est and drr_est follow from gamma and beta after
    the last frame)."""
    for row_got, row_ref in zip(got, ref, strict=True):
        assert row_got.keys() == row_ref.keys()
        for f, v in row_got.items():
            assert v.dtype == row_ref[f].dtype
            assert np.array_equal(v, row_ref[f][sub])


@pytest.fixture(scope="module")
def all_bins(recorded_frames):
    return _advance_bins(recorded_frames, slice(None))


def test_cascade_bins_are_independent(recorded_frames, all_bins):
    k_bins = recorded_frames[0][0].gamma_m.size
    sub = np.random.default_rng(0).permutation(k_bins)[:k_bins // 2]
    window = [frame for _, frame, _ in recorded_frames[_WINDOW]]
    assert any(0 < np.count_nonzero(frame.gate[sub]) < sub.size for frame in window)
    assert any(np.any(pmask[sub]) for *_, pmask in (frame.priors for frame in window))

    rows_full, full = all_bins
    # half the bins, and bins alone: gated in some frames, gated with decay
    # priors, and never gated
    assert 0 < sum(frame.gate[12] for frame in window) < len(window)
    assert any(frame.gate[136] and frame.priors[-1][136] for frame in window)
    assert not any(frame.gate[200] for frame in window)
    for part in (sub, [12], [136], [200]):
        _assert_rows_equal(_advance_bins(recorded_frames, part)[0], rows_full, part)
    # the replay on every bin reproduces the recorded run
    assert np.array_equal(full.gamma_m, recorded_frames[_WINDOW.stop][0].gamma_m)
    assert np.array_equal(full.beta_v, recorded_frames[_WINDOW.stop][0].beta_v)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_any_set_of_bins_gets_the_bits_of_every_bin(recorded_frames, all_bins, data):
    """Per-bin independence as a property: a bin's rows have the same bits
    whatever other bins share the calls, one bin alone included (a step-10
    split holds one bin where one bin of a call passes the RNR gate), and
    whatever bins sit at the magnitude floor in which frames, none, some
    or all of them."""
    k_bins = recorded_frames[0][0].gamma_m.size
    size = data.draw(st.integers(1, k_bins), label="bins")
    sub = np.sort(data.draw(st.permutations(range(k_bins)), label="order")[:size])
    share = data.draw(st.sampled_from((0.0, 0.05, 0.5, 1.0)), label="floored share")
    floored = None
    if share:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        floored = rng.random((_WINDOW.stop - _WINDOW.start, k_bins)) < share
    ref = all_bins[0] if floored is None else _advance_bins(recorded_frames, slice(None),
                                                            floored)[0]
    _assert_rows_equal(_advance_bins(recorded_frames, sub, floored)[0], ref, sub)


def test_gate_restricts_steps_10_to_12(recorded_frames, monkeypatch):
    fs, frame, cfg = recorded_frames[58]
    pg, pgv, pb, pbv, pmask = frame.priors
    assert np.any(pmask)                       # decay priors in this frame
    # three bins whose refreshed speech prior (step 9's smoothed
    # previous-frame speech) contradicts the last posterior (step 4's) by
    # 100 nats: step 10 cannot explain r there and falls back
    fs = copy.deepcopy(fs)
    odd = [10, 100, 200]
    fs.s_mean[odd], fs.s_cov[odd] = -50.0, 1e-6 * np.eye(enhancer.AR_ORDER)
    fs.gamma_v[odd] = fs.beta_v[odd] = fs.r_var[odd] = 1e-6

    def recorrelate_off(*args, _fn=speech.recorrelate_arrays):
        mean, cov = _fn(*args)
        mean[odd, 1] += 100.0
        return mean, cov
    monkeypatch.setattr(speech, "recorrelate_arrays", recorrelate_off)

    # steps 1-2: the random walk fused with the decay priors
    gm, gv = fs.gamma_m, fs.gamma_v + enhancer.Q_GAMMA
    bm, bv = fs.beta_m, fs.beta_v + enhancer.Q_BETA
    fgm, fgv = fuse_moments(gm, gv, pg, pgv)
    fbm, fbv = fuse_moments(bm, bv, pb, pbv)
    priors = {"gamma_mean": clamp_gamma(np.where(pmask, fgm, gm)),
              "gamma_var": np.where(pmask, fgv, gv),
              "beta_mean": np.where(pmask, fbm, bm),
              "beta_var": np.where(pmask, fbv, bv)}

    k_bins = frame.gate.size
    ungated = _advance_quietly(fs, frame._replace(gate=np.ones(k_bins, bool)), cfg,
                               Diagnostics())
    assert np.all(ungated["fallback_flags"][odd] & 4)

    # count the distributed splits (steps 8 and 10) and the line updates
    # (steps 11 and 12) that each frame runs
    calls = {}
    for name in ("split_distributed_obs", "line_constrained_update"):
        def counted(*args, _fn=getattr(lognorm, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lognorm, name, counted)

    mixed = frame.gate.copy()
    mixed[odd] = [True, False, False]
    for mask in (np.ones(k_bins, bool), np.zeros(k_bins, bool), mixed):
        diag = Diagnostics()
        calls.clear()
        row = _advance_quietly(fs, frame._replace(gate=mask), cfg, diag)
        # with no gated bin, steps 9-12 do not run at all: step 8 is the
        # frame's only distributed split
        steps_10_to_12 = 1 if mask.any() else 0
        assert (calls.get("split_distributed_obs", 0),
                calls.get("line_constrained_update", 0)) == (1 + steps_10_to_12,
                                                             2 * steps_10_to_12)
        for f, prior in priors.items():
            assert np.array_equal(row[f][mask], ungated[f][mask])
            assert np.array_equal(row[f][~mask], prior[~mask])
        for f in ("s_mean", "s_var", "r_mean", "r_var", "z_mean", "z_var"):
            assert np.array_equal(row[f], ungated[f])
        flags, ref = row["fallback_flags"], ungated["fallback_flags"]
        assert np.array_equal(flags & 3, ref & 3)
        assert np.array_equal(flags & 4, np.where(mask, ref & 4, 0))
        # every counted fallback is a flagged one
        assert diag.fallbacks == sum(np.count_nonzero(flags & bit) for bit in (1, 2, 4))


def test_floored_bins_keep_their_priors(recorded_frames, monkeypatch):
    """A bin at the magnitude floor has no observed value: the observation
    updates skip it and it keeps its priors exactly, with no fallback,
    while the observed bins get the bits of the call where every bin is
    observed, and the splits and line updates receive them alone."""
    fs, frame, cfg = recorded_frames[58]
    k_bins = frame.y.size
    assert frame.observed.all()
    ref = _advance_quietly(fs, frame, cfg, Diagnostics())
    pg, pgv, pb, pbv, pmask = frame.priors
    mixed = np.zeros(k_bins, bool)
    mixed[np.random.default_rng(1).permutation(k_bins)[:k_bins // 3]] = True
    # floored bins among the gated ones and among those with decay priors
    assert np.any(mixed & frame.gate) and np.any(mixed & pmask)
    assert np.any(~mixed & frame.gate)

    # steps 1-2: the random walk fused with the decay priors
    gm, gv = fs.gamma_m, fs.gamma_v + enhancer.Q_GAMMA
    bm, bv = fs.beta_m, fs.beta_v + enhancer.Q_BETA
    fgm, fgv = fuse_moments(gm, gv, pg, pgv)
    fbm, fbv = fuse_moments(bm, bv, pb, pbv)
    room_priors = {"gamma_mean": clamp_gamma(np.where(pmask, fgm, gm)),
                   "gamma_var": np.where(pmask, fgv, gv),
                   "beta_mean": np.where(pmask, fbm, bm),
                   "beta_var": np.where(pmask, fbv, bv)}

    # the speech prediction and the r and z priors (steps 5 and 6) as the
    # cascade forms them, and the arguments of every update
    calls = {}
    for mod, name in ((speech, "predict_arrays"), (lognorm, "logsum_moments"),
                      (lognorm, "split_scalar_obs"), (lognorm, "split_distributed_obs"),
                      (lognorm, "line_constrained_update")):
        def recorded(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            calls.setdefault(_name, []).append((args, out))
            return out
        monkeypatch.setattr(mod, name, recorded)

    for floored in (mixed, np.ones(k_bins, bool)):
        calls.clear()
        state, diag = copy.deepcopy(fs), Diagnostics()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = enhancer._advance(state, frame._replace(observed=~floored), cfg, diag)
        kept = ~floored
        for f, v in row.items():
            assert np.array_equal(v[kept], ref[f][kept])

        (_, (sm, sc)), = calls["predict_arrays"]
        (_, (rm, rv)), (_, (zm, zv)) = calls["logsum_moments"]
        assert np.array_equal(state.s_mean[floored], sm[floored])
        assert np.array_equal(state.s_cov[floored], sc[floored])
        assert np.array_equal(row["s_mean"][floored], sm[floored, 0])
        assert np.array_equal(row["s_var"][floored], sc[floored, 0, 0])
        for f, prior in {"r_mean": rm, "r_var": rv, "z_mean": zm, "z_var": zv,
                         **room_priors}.items():
            assert np.array_equal(row[f][floored], prior[floored])
        assert np.array_equal(state.r_mean[floored], rm[floored])
        assert not row["fallback_flags"][floored].any()
        assert diag.floored_bins == np.count_nonzero(floored)
        assert diag.fallbacks == sum(np.count_nonzero(row["fallback_flags"] & bit)
                                     for bit in (1, 2, 4))

        # step 7 splits the observed y, step 8 the observed bins' z and step
        # 10 and the line updates the observed bins that pass the RNR gate;
        # with no observed bin none of them runs
        learn = kept & frame.gate
        splits = calls.get("split_scalar_obs", []) + calls.get("split_distributed_obs", [])
        assert [a[0].size for a, _ in splits] == ([kept.sum()] * 2 + [learn.sum()]
                                                  if kept.any() else [])
        if kept.any():
            assert np.array_equal(splits[0][0][4], frame.y[kept])
            assert np.array_equal(splits[1][0][2], frame.n_mean[kept])
        assert [a[0].size for a, _ in calls.get("line_constrained_update", [])] == (
            [learn.sum()] * 2 if kept.any() else [])


def test_floored_bins_run_no_split(criterion_8_audio, monkeypatch):
    """On criterion 8's input, step 7 splits once per frame that has an
    observed bin, the frame's observed log-magnitudes alone, and
    Diagnostics counts every bin-frame at the floor, none of which falls
    back."""
    mag = np.abs(stft(criterion_8_audio).frames)
    floor = magnitude_floor(mag)
    observed = mag > floor
    y = np.log(np.maximum(mag, floor))
    with_obs = np.flatnonzero(observed.any(axis=1))
    assert 0 < with_obs.size < len(mag)         # frames of digital silence, and others
    seen = []

    def counted(ma, va, mb, vb, y, diag=None, _fn=lognorm.split_scalar_obs):
        seen.append(np.array(y, copy=True))
        return _fn(ma, va, mb, vb, y, diag=diag)
    monkeypatch.setattr(lognorm, "split_scalar_obs", counted)
    _, trace, diag = enhance(criterion_8_audio)     # one group: a function is replaced
    assert trace.n_frames == len(mag) and len(seen) == with_obs.size
    for t, got in zip(with_obs, seen):
        assert np.array_equal(got, y[t, observed[t]])
    assert diag.floored_bins == np.count_nonzero(~observed)
    assert all(type(getattr(diag, f.name)) is int for f in dataclasses.fields(diag))
    assert not trace.arrays["fallback_flags"][~observed].any()


def test_noise_tracker_holds_through_digital_silence(criterion_8_audio, monkeypatch):
    """On criterion 8's input the noise tracker takes in no floored power, so
    after the leading silence the DC segment's leakage is not read as far
    above the noise: the RNR gate passes under 5 % of the bin-frames of the
    frames that start in it (over 70 % with the floor taken in), and no
    step falls back (23 with it, at the clipped noise's onset)."""
    gates = []

    def recorded(fs, frame, cfg, diag, _fn=enhancer._advance):
        gates.append(frame.gate)
        return _fn(fs, frame, cfg, diag)
    monkeypatch.setattr(enhancer, "_advance", recorded)
    _, trace, diag = enhance(criterion_8_audio)     # one group: a function is replaced
    dc = slice(2 * FS // HOP_SAMPLES, 4 * FS // HOP_SAMPLES)     # frames that start in 2-4 s
    assert np.mean(gates[dc]) < 0.05
    assert diag.fallbacks == 0 and not trace.arrays["fallback_flags"].any()


@pytest.fixture(scope="module")
def clean_spectrum_2s():
    return stft(speechlike_excitation(2.0, seed=3))


@pytest.mark.parametrize("t60, drr", [(0.61, -1.74), (0.33, 3.13)])
@pytest.mark.parametrize("start_t60, drr_offset", [(1.0, 5.0), (0.3, -5.0)])
def test_learn_room_identifies_the_room_from_true_spectra(clean_spectrum_2s, t60, drr,
                                                          start_t60, drr_offset):
    """Steps 9-12 alone, fed the true log-spectra of an STFT-domain scene
    (the last frame's reverberation and speech, this frame's reverberation)
    with a small variance, converge to the room's T60 and DRR from a start
    far from both."""
    _, truth = stft_domain_reverb(clean_spectrum_2s, RoomParams(t60, drr))
    r, s = truth.r_true, truth.s_true
    k_bins = r.shape[1]
    g0, b0 = reverb.ab_to_gamma_beta(*reverb.room_to_ab(RoomParams(start_t60, drr + drr_offset)))
    gm, bm = np.full(k_bins, g0), np.full(k_bins, b0)
    gv = bv = np.full(k_bins, enhancer.INIT_PARAM_VARIANCE)
    var = np.full(k_bins, 1e-4)
    t60_est, drr_est = [], []
    for t in range(1, r.shape[0]):
        gv, bv = gv + enhancer.Q_GAMMA, bv + enhancer.Q_BETA
        gm, gv, bm, bv, _ = enhancer._learn_room(
            gm, gv, bm, bv, gm + r[t - 1], gv + var, r[t - 1], var, s[t - 1], var,
            r[t], var, Diagnostics())
        room = reverb.gamma_beta_to_room(gm[16:97], bm[16:97])
        t60_est.append(room[0])
        drr_est.append(room[1])
    last_quarter = slice(3 * len(t60_est) // 4, None)
    assert np.median(t60_est[last_quarter]) == pytest.approx(t60, rel=0.05)
    assert np.median(drr_est[last_quarter]) == pytest.approx(drr, abs=0.5)


@pytest.mark.parametrize("selected", [range(6), [], [3], [0, 2, 5]],
                         ids=["every", "none", "one", "some"])
def test_on_bins_steps_the_selected_rows_and_keeps_the_others(selected):
    """_on_bins hands step the selected rows alone (the arrays themselves
    where it selects them all), does not call it where it selects none, and
    never writes keep: every input is read-only here. A partial mask gives
    fresh arrays, step's posts on the selected rows and keep on the others."""
    k_bins = 6
    mask = np.isin(np.arange(k_bins), list(selected))
    rng = np.random.default_rng(0)
    x, scale = rng.normal(size=k_bins), rng.normal(size=(k_bins, 2))
    keep = (rng.normal(size=k_bins), rng.normal(size=(k_bins, 2, 2)), np.zeros(k_bins, bool))
    for a in (x, scale, *keep):
        a.flags.writeable = False
    calls = []

    def step(x, scale, *, diag):
        posts = (x + 1.0, scale[:, :, None] * scale[:, None, :], x > 0)
        calls.append(((x, scale), diag, posts))
        return posts
    diag = Diagnostics()
    out = enhancer._on_bins(mask, keep, step, x, scale, diag=diag)
    if not mask.any():
        assert calls == [] and out is keep
        return
    ((got_x, got_scale), got_diag, posts), = calls
    assert got_diag is diag
    assert got_x.tobytes() == x[mask].tobytes() and got_scale.tobytes() == scale[mask].tobytes()
    if mask.all():
        assert got_x is x and got_scale is scale
        assert all(o is p for o, p in zip(out, posts, strict=True))
        return
    for o, kept, post in zip(out, keep, posts, strict=True):
        assert o.flags.writeable and not np.shares_memory(o, kept)
        assert o[mask].tobytes() == post.tobytes()
        assert o[~mask].tobytes() == kept[~mask].tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1),
       uninformative=st.lists(st.booleans(), max_size=12))
def test_on_bins_fuses_with_the_bits_of_fusing_every_bin(mask, seed, uninformative):
    """fuse_moments on the selected bins alone, through _on_bins, has the
    bits of fusing every bin and keeping the unselected ones by np.where,
    also where an infinite prior variance sends a call down the masked
    branch."""
    mask = np.array(mask)
    rng = np.random.default_rng(seed)
    m1, m2 = rng.normal(0.0, 3.0, (2, mask.size))
    v1, v2 = 10.0 ** rng.uniform(-6.0, 3.0, (2, mask.size))
    v2[np.flatnonzero(uninformative[:mask.size])] = np.inf
    fm, fv = fuse_moments(m1, v1, m2, v2)
    got = enhancer._on_bins(mask, (m1, v1), fuse_moments, m1, v1, m2, v2)
    for g, want in zip(got, (np.where(mask, fm, m1), np.where(mask, fv, v1)), strict=True):
        assert g.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# bin groups: a forked child, or every bin in one group
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def condition_g_spec_1s():
    clean = speechlike_excitation(1.0, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    return stft(noisy)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls that enhance_frames makes, on a host that shows
    it two usable CPUs; fails the test if a call leaves a child
    unreaped."""
    calls = []

    def fork(_fork=os.fork):
        calls.append(os.getpid())
        return _fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_ADVANCE = enhancer._advance


def _no_fork():
    raise AssertionError("os.fork was called")


def _beside_a_thread(fn):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        return fn()
    finally:
        stop.set()
        thread.join()


def test_bin_groups_follow_the_shape_and_the_host(forks, monkeypatch):
    halves = [slice(0, 128), slice(128, 257)]
    assert enhancer._bin_groups(500, 257) == halves
    assert enhancer._bin_groups(enhancer._MIN_FORK_FRAMES, 64) == [slice(0, 32), slice(32, 64)]
    assert enhancer._bin_groups(500, 63) == [slice(0, 63)]
    assert enhancer._bin_groups(enhancer._MIN_FORK_FRAMES - 1, 257) == [slice(0, 257)]
    # a host that cannot run a child beside the caller runs every bin at once
    assert _beside_a_thread(lambda: enhancer._bin_groups(500, 257)) == [slice(0, 257)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert enhancer._bin_groups(500, 257) == [slice(0, 257)]
    # and so does a call that a tracer or a replaced function watches
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tracemalloc.start()
    try:
        assert enhancer._watched()
        assert enhancer._bin_groups(500, 257) == [slice(0, 257)]
    finally:
        tracemalloc.stop()
    assert not enhancer._watched()
    assert enhancer._bin_groups(500, 257) == halves
    monkeypatch.setattr(speech, "estimate_ar", lambda *args, **kwargs: None)
    assert enhancer._watched()
    assert enhancer._bin_groups(500, 257) == [slice(0, 257)]
    assert forks == []


@pytest.fixture
def advance_calls(monkeypatch):
    return _count_advance_calls(monkeypatch)


def _count_advance_calls(monkeypatch):
    """The number of bins of each _advance call; replacing _advance keeps
    enhance_frames from forking."""
    calls = []

    def counted(fs, frame, cfg, diag, _advance=enhancer._advance):
        calls.append(frame.y.size)
        return _advance(fs, frame, cfg, diag)
    monkeypatch.setattr(enhancer, "_advance", counted)
    return calls


@pytest.fixture(scope="module")
def quiet_end_spec_1s(condition_g_spec_1s):
    """The 1 s condition-G spectrum with its last frames 100 dB down, so
    that steps 7 and 8 fall back in both groups, and four frames of digital
    silence, so that both groups count floored bins: the second group's
    counts must reach the caller."""
    frames = condition_g_spec_1s.frames.copy()
    frames[60:] *= 1e-5
    frames[40:44] = 0.0
    return SpectralFrames(frames)


def _assert_bits_of_one_group(spec, forked, monkeypatch):
    """Checks that forked, the (spectrum, Trace, Diagnostics) of a call on
    spec that forked, holds every bit and count of a one-group call, which
    a replaced function makes here."""
    out_f, trace_f, diag_f = forked
    assert trace_f.arrays["fallback_flags"][:, spec.n_bins // 2:].any()
    monkeypatch.setattr(os, "fork", _no_fork)
    advance_calls = _count_advance_calls(monkeypatch)
    out_i, trace_i, diag_i = enhance_frames(spec)
    assert advance_calls == [spec.n_bins] * spec.n_frames
    assert np.array_equal(out_f.frames, out_i.frames)
    assert set(trace_f.arrays) == set(trace_i.arrays) == set(TRACE_FIELDS)
    for f in TRACE_FIELDS:
        assert trace_f.arrays[f].dtype == trace_i.arrays[f].dtype
        assert np.array_equal(trace_f.arrays[f], trace_i.arrays[f])
    assert diag_f == diag_i and diag_f.fallbacks > 0
    assert diag_f.floored_bins == 4 * spec.n_bins


def test_forked_groups_give_the_bits_of_one_group(quiet_end_spec_1s, forks, monkeypatch):
    forked = enhance_frames(quiet_end_spec_1s)
    assert len(forks) == 1
    _assert_bits_of_one_group(quiet_end_spec_1s, forked, monkeypatch)


@pytest.mark.parametrize("where", ["second_group", "caller"])
def test_a_failing_group_raises_in_the_caller_and_leaves_no_child(condition_g_spec_1s, forks,
                                                                  monkeypatch, where):
    """A group that fails in the caller, or the second group in every
    process (its 129-bin gains, in the child and in the caller's rerun),
    raises its own exception in the caller."""
    caller = os.getpid()

    def clip(a, *args, _clip=np.clip, **kwargs):
        if os.getpid() == caller if where == "caller" else np.size(a) == 129:
            raise ZeroDivisionError(f"clip in the {where}")
        return _clip(a, *args, **kwargs)
    monkeypatch.setattr(np, "clip", clip)
    with pytest.raises(ZeroDivisionError, match=f"^clip in the {where}$"):
        enhance_frames(condition_g_spec_1s)
    assert len(forks) == 1


@pytest.mark.parametrize("failure", ["raises", "is_killed"])
def test_a_child_that_fails_alone_has_its_group_run_again_in_the_caller(
        quiet_end_spec_1s, forks, monkeypatch, failure):
    """A child that raises, or that a signal kills, leaves the caller to
    run its group again: the call returns the bits and counts of one group
    and warns, naming the bins."""
    caller = os.getpid()

    def clip(*args, _clip=np.clip, **kwargs):
        if os.getpid() != caller:
            if failure == "raises":
                raise ZeroDivisionError("clip in the child")
            os.kill(os.getpid(), signal.SIGKILL)
        return _clip(*args, **kwargs)
    monkeypatch.setattr(np, "clip", clip)
    with pytest.warns(RuntimeWarning, match="128-256"):
        forked = enhance_frames(quiet_end_spec_1s)
    assert len(forks) == 1
    _assert_bits_of_one_group(quiet_end_spec_1s, forked, monkeypatch)


def test_small_inputs_and_replaced_functions_never_fork(condition_g_spec_1s, forks, monkeypatch,
                                                        advance_calls):
    spec = condition_g_spec_1s
    monkeypatch.setattr(os, "fork", _no_fork)
    short = SpectralFrames(spec.frames[:enhancer._MIN_FORK_FRAMES - 1].copy())
    enhance_frames(short)
    assert advance_calls == [spec.n_bins] * short.n_frames
    # a replaced function's side effects would be lost in a child
    advance_calls.clear()
    enhance_frames(spec)
    assert advance_calls == [spec.n_bins] * spec.n_frames
    # nor under a memory tracer
    monkeypatch.setattr(enhancer, "_advance", _ADVANCE)
    assert not enhancer._watched()
    tracemalloc.start()
    try:
        enhance_frames(spec)
    finally:
        tracemalloc.stop()


def test_a_host_that_cannot_fork_runs_every_bin_at_once(condition_g_spec_1s, forks, monkeypatch,
                                                        advance_calls):
    spec = condition_g_spec_1s
    monkeypatch.setattr(os, "fork", _no_fork)
    _beside_a_thread(lambda: enhance_frames(spec))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    enhance_frames(spec)
    assert advance_calls == [spec.n_bins] * (2 * spec.n_frames)


def test_a_host_whose_threads_or_cpus_cannot_be_read_runs_one_group(forks, monkeypatch):
    """Without /proc/self/task or os.sched_getaffinity no thread count can
    see a BLAS or system-library thread, so the call runs every bin here."""
    halves = [slice(0, 128), slice(128, 257)]
    assert enhancer._bin_groups(500, 257) == halves
    listdir = os.listdir

    def no_proc(path="."):
        if str(path).startswith("/proc"):
            raise FileNotFoundError(path)
        return listdir(path)
    monkeypatch.setattr(os, "listdir", no_proc)
    assert enhancer._bin_groups(500, 257) == [slice(0, 257)]
    monkeypatch.setattr(os, "listdir", listdir)
    assert enhancer._bin_groups(500, 257) == halves
    monkeypatch.delattr(os, "sched_getaffinity")
    assert enhancer._bin_groups(500, 257) == [slice(0, 257)]
    assert forks == []


def _mapping(array):
    """The object whose memory an array views."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


@pytest.mark.parametrize("watched", [False, True])
def test_each_group_converts_its_room_estimates(condition_g_spec_1s, forks, monkeypatch,
                                                watched):
    """Forked or not, t60_est and drr_est hold the bits of one conversion
    of the stored gamma and beta. Forked, every returned array is a view
    of a shared mmap; in one group, every one is a numpy array of its own."""
    spec, cfg = condition_g_spec_1s, EnhancerConfig()
    if watched:
        monkeypatch.setattr(os, "fork", _no_fork)
        advance_calls = _count_advance_calls(monkeypatch)
    out, trace, _ = enhance_frames(spec, cfg)
    assert len(forks) == (0 if watched else 1)
    if watched:
        assert advance_calls == [spec.n_bins] * spec.n_frames
    t60, drr = reverb.gamma_beta_to_room(trace.arrays["gamma_mean"], trace.arrays["beta_mean"])
    assert np.array_equal(trace.arrays["t60_est"], t60)
    assert np.array_equal(trace.arrays["drr_est"], drr)
    for array in [out.frames, *trace.arrays.values()]:
        if watched:
            assert array.base is None
        else:
            assert isinstance(_mapping(array), mmap.mmap)


def test_trace_schema_and_estimates_valid():
    spec = _random_frames(seed=8)
    _, trace, _ = enhance_frames(spec)
    assert trace.n_frames == spec.n_frames
    assert trace.n_bins == spec.n_bins
    assert set(trace.arrays) == set(TRACE_FIELDS)
    assert all(arr.shape == (trace.n_frames, trace.n_bins) for arr in trace.arrays.values())
    assert trace.arrays["fallback_flags"].dtype == np.uint8
    assert all(arr.dtype == np.float64 for f, arr in trace.arrays.items()
               if f != "fallback_flags")
    t60 = trace.arrays["t60_est"]
    assert np.all(np.isfinite(t60)) and np.all(t60 > 0.0)
    assert np.all(np.isfinite(trace.arrays["drr_est"]))


@pytest.mark.parametrize("n_frames", [1, enhancer._BLOCK - 1, enhancer._BLOCK,
                                      enhancer._BLOCK + 1])
def test_room_estimates_are_gamma_and_beta_converted(n_frames):
    """t60_est and drr_est, converted after the last frame a block of rows
    at a time, hold the bits of one conversion of all rows and of one
    conversion per row."""
    cfg = EnhancerConfig()
    _, trace, _ = enhance_frames(_random_frames(t_frames=n_frames, seed=8), cfg)
    gamma, beta = trace.arrays["gamma_mean"], trace.arrays["beta_mean"]
    t60, drr = reverb.gamma_beta_to_room(gamma, beta)
    assert np.array_equal(trace.arrays["t60_est"], t60)
    assert np.array_equal(trace.arrays["drr_est"], drr)
    for t in range(n_frames):
        t60, drr = reverb.gamma_beta_to_room(gamma[t], beta[t])
        assert np.array_equal(trace.arrays["t60_est"][t], t60)
        assert np.array_equal(trace.arrays["drr_est"][t], drr)


def test_trace_csv_export(tmp_path):
    spec = _random_frames(t_frames=30, seed=9)
    _, trace, _ = enhance_frames(spec)
    path = tmp_path / "trace.csv"
    trace.write_csv(path, bins=[32, 40])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("frame,bin,s_mean,s_var")
    assert len(lines) == 1 + 2 * trace.n_frames


def test_trace_csv_rows_match_a_formatting_loop(tmp_path):
    """The rows are those of a loop over bins and frames that writes each
    float with '.6g' and the flags as integers, non-finite values and -0
    included."""
    rng = np.random.default_rng(3)
    arrays = {f: rng.normal(0.0, 1e3, (4, 3)) for f in TRACE_FIELDS}
    arrays["s_mean"][0] = [np.inf, -np.inf, np.nan]
    arrays["r_var"][1] = [-0.0, 1e-300, 123456789.0]
    arrays["fallback_flags"] = rng.integers(0, 8, (4, 3)).astype(np.uint8)
    path = tmp_path / "trace.csv"
    Trace(arrays).write_csv(path, bins=[2, 0])
    rows = ["frame,bin," + ",".join(TRACE_FIELDS)]
    for b in (2, 0):
        for t in range(4):
            rows.append(",".join([str(t), str(b)] + [
                str(int(arrays[f][t, b])) if f == "fallback_flags" else f"{arrays[f][t, b]:.6g}"
                for f in TRACE_FIELDS]))
    assert path.read_text() == "\n".join(rows) + "\n"


@pytest.mark.parametrize("bins", [[-1], [32, 999]])
def test_trace_csv_rejects_out_of_range_bins(tmp_path, bins):
    spec = _random_frames(t_frames=30, seed=9)
    _, trace, _ = enhance_frames(spec)
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="outside 0..256"):
        trace.write_csv(path, bins=bins)
    assert not path.exists()


@pytest.mark.parametrize("bins", [[1.5], [True], [0, 2.0]])
def test_trace_csv_rejects_non_integer_bins(tmp_path, bins):
    spec = _random_frames(t_frames=30, seed=9)
    _, trace, _ = enhance_frames(spec)
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="is not an integer"):
        trace.write_csv(path, bins=bins)
    assert not path.exists()
    trace.write_csv(path, bins=np.array([3, 4]))      # numpy integers are bins
    assert len(path.read_text().splitlines()) == 1 + 2 * trace.n_frames


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        EnhancerConfig(look_ahead=-1)
    # every float field must be finite; the error names the field
    for name, value in (("init_t60", -float("inf")), ("init_drr", float("nan")),
                        ("noise_window_s", float("inf")), ("modulation_frame", float("nan"))):
        with pytest.raises(ValueError, match=name):
            EnhancerConfig(**{name: value})
    # the integer field takes integers only, not floats or bools; the error names it
    for value in (1.5, 2.0, True, np.bool_(True)):
        with pytest.raises(ValueError, match="look_ahead"):
            EnhancerConfig(look_ahead=value)
    # numpy integers are integers
    assert EnhancerConfig(look_ahead=np.arange(3).max()).look_ahead == 2
    # ranges; the error names the field
    for name, value in (("modulation_frame", 0.0), ("modulation_frame", -0.064),
                        ("noise_window_s", -1.0), ("noise_window_s", 0.0)):
        with pytest.raises(ValueError, match=name):
            EnhancerConfig(**{name: value})
    # an initial room the filter cannot start from fails here, naming both fields
    for t60, drr in ((-1.0, 0.0), (1e-9, 0.0), (1e300, 0.0), (0.5, 1e308), (0.5, -1e308)):
        with pytest.raises(ValueError, match="init_t60 .* init_drr"):
            EnhancerConfig(init_t60=t60, init_drr=drr)
    # the boundary values stay valid, with the decay priors' fit and the
    # noise tracker's smoother at theirs
    monkeypatch.setattr(enhancer, "FDR_SKIP", 0)
    monkeypatch.setattr(reverb, "MIN_FDR_LENGTH", 0)
    monkeypatch.setattr(enhancer, "NOISE_SMOOTH", 0.0)
    edge = EnhancerConfig(look_ahead=0)
    out, _, _ = enhance(AudioBuffer(np.random.default_rng(4).normal(0.0, 0.1, FS // 2)), edge)
    assert np.all(np.isfinite(out.samples))


def test_config_fields_reject_bools_and_non_numbers():
    """A number field takes a real number, numpy's included, but not a bool,
    a string or None; the error names the field."""
    for name, value in (("init_t60", True), ("init_drr", np.True_), ("init_t60", "0.5"),
                        ("noise_window_s", None), ("modulation_frame", "inf")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            EnhancerConfig(**{name: value})
    # an int beyond the float range is not finite
    with pytest.raises(ValueError, match="^init_drr must be finite"):
        EnhancerConfig(init_drr=10 ** 400)
    cfg = EnhancerConfig(noise_window_s=np.float32(1.5), init_t60=np.float64(5e-1),
                         init_drr=np.int64(-2))
    assert cfg.noise_window_s == 1.5 and cfg.init_drr == -2


def test_config_windows_must_be_finite_in_frames():
    """enhance counts the noise and modulation windows in frames of 8 ms;
    a window whose count overflows a float would raise OverflowError
    there, so the config refuses it, naming the field. 1e300 s is still
    a window."""
    audio = AudioBuffer(np.random.default_rng(5).normal(0.0, 0.1, FS // 4))
    for name in ("noise_window_s", "modulation_frame"):
        for value in (1e308, 10 ** 308, np.float32(3e38)):
            with pytest.raises(ValueError, match=f"^{name} must be finite in frames"):
                EnhancerConfig(**{name: value})
        out, _, _ = enhance(audio, EnhancerConfig(**{name: 1e300}))
        assert np.isfinite(out.samples).all()


# one of each kind a config field could be handed
_ANY_VALUE = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=3),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_))


@pytest.mark.parametrize("cls, base", [
    (EnhancerConfig, {}), (RoomParams, {"t60": 0.5, "drr": 0.0})])
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_config_fields_raise_naming_the_field_or_store_the_value(cls, base, data):
    """Each value raises a ValueError that names its field, or is stored as
    it is, and then it is of the field's kind: a bool for a bool, an
    integer for an int, a finite number for a float."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    name = data.draw(st.sampled_from(sorted(kinds)))
    value = data.draw(_ANY_VALUE)
    try:
        config = cls(**{**base, name: value})
    except ValueError as exc:
        assert re.search(rf"\b{name}\b", str(exc)), str(exc)
        return
    assert getattr(config, name) is value
    assert isinstance(value, (bool, np.bool_)) == (kinds[name] is bool)
    if kinds[name] is int:
        assert isinstance(value, numbers.Integral)
    elif kinds[name] is float:
        assert isinstance(value, numbers.Real) and math.isfinite(value)
