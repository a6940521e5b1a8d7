"""Block-by-block stages ahead of the cascade, and the memory of enhance.

Each stage that enhance_frames advances block by block takes a carried
state; consecutive uneven blocks must reproduce one whole-array call bit
for bit. Apart from its outputs, enhance_frames must hold a working set
that does not grow with the number of frames, and stft little more than
the spectrum it returns.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reverbtrack import enhancer
from reverbtrack.enhancer import (EnhancerConfig, _decay_run_lengths, _smooth_energy,
                                  enhance_frames, track_noise)
from reverbtrack.reverb import RoomParams
from reverbtrack.simkit import make_scene, speechlike_excitation
from reverbtrack.speech import estimate_ar, log_mmse_preclean
from reverbtrack.stft import AnalysisConfig, SpectralFrames, stft

# uneven blocks of 400 frames: single frames, a block shorter than the AR
# window, and blocks shorter and longer than the 188-frame noise window
SPANS = ((0, 1), (1, 6), (6, 7), (7, 170), (170, 400))


def _in_blocks(fn, *arrays, **kwargs):
    """fn applied to SPANS of the leading axis of arrays with one carried state."""
    state = {}
    return [fn(*(a[lo:hi] for a in arrays), state=state, **kwargs) for lo, hi in SPANS]


def _power(seed):
    """(400, 6) noisy power with silent stretches and a loud burst."""
    rng = np.random.default_rng(seed)
    power = 0.01 * rng.chisquare(2, size=(400, 6))
    power[50:120] = 1e-8
    power[200:230] *= 1e3
    return power


def test_track_noise_blocks_match_whole():
    power = _power(0)
    whole = track_noise(power)
    assert np.array_equal(np.concatenate(_in_blocks(track_noise, power)), whole)


def test_track_noise_history_is_bounded_by_the_frames_seen():
    """A 60 s window over a 1 s input (122 frames) keeps no more rows than
    it has seen, and gives the minimum of a window of the input's length."""
    power = np.random.default_rng(3).exponential(size=(122, 257))
    state = {}
    mean = track_noise(power, window_s=60.0, state=state)
    assert state["history"].shape[0] <= 122
    assert np.array_equal(mean, track_noise(power, window_s=122 * 0.008))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(t_frames=st.integers(1, 199), w=st.integers(1, 7500),
       cuts=st.lists(st.integers(1, 198), max_size=6), seed=st.integers(0, 2 ** 32 - 1))
def test_track_noise_any_blocks_match_whole(t_frames, w, cuts, seed):
    """For windows of 8 ms to 60 s, track_noise in any blocks gives the whole
    call's bits and keeps at most min(w - 1, frames seen) history rows."""
    power = np.random.default_rng(seed).exponential(size=(t_frames, 3))
    window_s = w * 0.008
    whole = track_noise(power, window_s=window_s)
    bounds = [0] + sorted({c for c in cuts if c < t_frames}) + [t_frames]
    state = {}
    parts = [track_noise(power[lo:hi], window_s=window_s, state=state)
             for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), whole)
    assert state["history"].shape[0] <= min(w - 1, t_frames)


def test_log_mmse_preclean_blocks_match_whole():
    power = _power(1)
    mag, noise = np.sqrt(power), np.full(power.shape, 0.02)
    whole = log_mmse_preclean(mag, noise)
    assert np.array_equal(np.concatenate(_in_blocks(log_mmse_preclean, mag, noise)), whole)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_estimate_ar_blocks_match_whole(order):
    x = np.log(_power(2))
    whole = estimate_ar(x, order=order)
    parts = _in_blocks(estimate_ar, x, order=order)
    for i, ref in enumerate(whole):
        assert np.array_equal(np.concatenate([p[i] for p in parts]), ref)


def test_decay_run_lengths_blocks_match_whole():
    # runs that cross every block boundary, ties and rises
    e = np.cumsum(np.random.default_rng(3).normal(-0.2, 1.0, 400))
    e[100:110] = e[99]
    whole = _decay_run_lengths(e)
    assert whole.max() >= 5
    assert np.array_equal(np.concatenate(_in_blocks(_decay_run_lengths, e)), whole)


@pytest.mark.parametrize("t_frames", [1, 2, 3, 4, 400])
def test_smooth_energy_matches_convolve_in_any_blocks(t_frames):
    # the reference is the centred zero-padded average. np.convolve's mode
    # "same" is not: it gives e0/3 at frame 0 when t_frames = 2, and on the
    # scaled input its two-term edge sums differ from it by 1 ulp at the
    # first and last frames
    for e in (np.random.default_rng(4).standard_normal(t_frames),
              10.0 * np.random.default_rng(15).standard_normal(t_frames) - 30.0):
        ref = np.convolve(np.pad(e, 1), np.ones(3) / 3.0, mode="valid")
        assert np.array_equal(_smooth_energy(e), ref)
        spans = [(lo, min(hi, t_frames)) for lo, hi in SPANS if lo < t_frames]
        state, parts = {}, []
        for lo, hi in spans:
            parts.append(_smooth_energy(e[lo:hi], state, final=hi == t_frames))
            # a frame's average waits for the next frame until the end
            assert sum(map(len, parts)) == (hi if hi == t_frames else hi - 1)
        assert np.array_equal(np.concatenate(parts), ref)


@pytest.mark.parametrize("look_ahead", [0, 3])
@pytest.mark.parametrize("t_frames", [1, 2, 5, 90])
def test_enhance_frames_independent_of_block_size(monkeypatch, t_frames, look_ahead):
    # inputs shorter than the look-ahead and than a block pin the end of
    # the input: the frames the front end must have ready, the look-ahead
    # frame of the decay priors and the final smoothed energy
    rng = np.random.default_rng(5)
    frames = 0.1 * (rng.standard_normal((90, 257)) + 1j * rng.standard_normal((90, 257)))
    frames[30:45] *= 1e-3                      # a decay-like drop for the priors
    spec = SpectralFrames(frames[:t_frames], AnalysisConfig(), 16000)
    cfg = EnhancerConfig(look_ahead=look_ahead)
    runs = []
    for block in (1, 2, 7, 1000):
        monkeypatch.setattr(enhancer, "_BLOCK", block)
        runs.append(enhance_frames(spec, cfg))
    ref_out, ref_trace, _ = runs[-1]
    for out, trace, _ in runs[:-1]:
        assert np.array_equal(out.frames, ref_out.frames)
        for f, arr in trace.arrays.items():
            assert np.array_equal(arr, ref_trace.arrays[f])


def _scene_spectrum(seconds):
    clean = speechlike_excitation(seconds, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    return noisy, stft(noisy)


def test_stft_in_blocks_matches_whole_signal_and_peaks_near_its_result():
    noisy, spec = _scene_spectrum(4.0)
    cfg = AnalysisConfig()
    n, hop = cfg.frame_samples(16000), cfg.hop_samples(16000)
    # the reference frames the whole signal at once through an index array
    idx = np.arange(n)[None, :] + hop * np.arange(spec.n_frames)[:, None]
    ref = np.fft.rfft(noisy.samples[idx] * cfg.make_window(16000), n, axis=1)
    assert np.array_equal(spec.frames, ref)
    tracemalloc.start()
    try:
        stft(noisy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the complex result is 2 (T, K) float64 arrays; the reference's index
    # array and two framed copies take it to 6
    assert peak <= 2.5 * spec.n_frames * spec.n_bins * 8


def _excess_bytes(seconds):
    """(tracemalloc peak of enhance_frames on a condition-G scene less the
    bytes of the Trace and the output spectrum it returns, bytes of one
    (T, K) float64 array). The input spectrum exists before tracing starts,
    so it is not in the peak."""
    _, spec = _scene_spectrum(seconds)
    tracemalloc.start()
    try:
        out, trace, _ = enhance_frames(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = out.frames.nbytes + sum(a.nbytes for a in trace.arrays.values())
    return peak - returned, spec.n_frames * spec.n_bins * 8


def test_enhance_frames_working_set_does_not_grow_with_length():
    excess_1s, array_1s = _excess_bytes(1.0)
    excess_4s, array_4s = _excess_bytes(4.0)
    # from 1 s to 4 s the working set may grow by at most half of one
    # (T, K) float64 array of the added frames; whole-utterance
    # intermediates grow by about 11 such arrays
    assert excess_4s - excess_1s <= 0.5 * (array_4s - array_1s)
