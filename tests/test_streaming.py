"""Block-by-block stages ahead of the cascade, and the memory of enhance.

Each stage that enhance_frames advances block by block takes a carried
state; consecutive uneven blocks must reproduce one whole-array call bit
for bit. Apart from its outputs, enhance_frames must hold a working set
that does not grow with the number of frames, nor with a setting beyond
the rows that setting makes its front end hold, and stft little more
than the spectrum it returns.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reverbtrack import enhancer
from reverbtrack.enhancer import (EnhancerConfig, _decay_run_lengths, _smooth_energy,
                                  enhance_frames, track_noise)
from reverbtrack.reverb import RoomParams
from reverbtrack.simkit import make_scene, speechlike_excitation
from reverbtrack.speech import estimate_ar, log_mmse_preclean
from reverbtrack.stft import (FRAME_INCREMENT, FRAME_SAMPLES, HOP_SAMPLES, WINDOW,
                              SpectralFrames, stft)

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
       cuts=st.lists(st.integers(1, 198), max_size=6), seed=st.integers(0, 2 ** 32 - 1),
       p_floored=st.sampled_from([None, 0.0, 0.3, 0.9, 1.0]), silence=st.integers(0, 198))
@example(t_frames=50, w=188, cuts=[], seed=0, p_floored=0.0, silence=20)
def test_track_noise_any_blocks_match_whole(t_frames, w, cuts, seed, p_floored, silence):
    """For windows of 8 ms to 60 s, with no observed mask or one that floors
    a leading silence and a drawn share of the other bin-frames, track_noise
    in any blocks, one of them starting where the silence ends, gives the
    whole call's bits and keeps at most min(w - 1, frames seen) history
    rows."""
    rng = np.random.default_rng(seed)
    power = rng.exponential(size=(t_frames, 3))
    observed = None
    if p_floored is not None:
        observed = rng.random(power.shape) >= p_floored
        observed[:silence] = False
        power[~observed] = 1e-24
        cuts = [*cuts, silence]
    window_s = w * 0.008
    whole = track_noise(power, window_s=window_s, observed=observed)
    bounds = [0] + sorted({c for c in cuts if 0 < c < t_frames}) + [t_frames]
    state = {}
    parts = [track_noise(power[lo:hi], window_s=window_s, state=state,
                         observed=None if observed is None else observed[lo:hi])
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
    spec = SpectralFrames(frames[:t_frames])
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
    n, hop = FRAME_SAMPLES, HOP_SAMPLES
    # the reference frames the whole signal at once through an index array
    idx = np.arange(n)[None, :] + hop * np.arange(spec.n_frames)[:, None]
    ref = np.fft.rfft(noisy.samples[idx] * WINDOW, n, axis=1)
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


def _traced_bytes(a):
    """a's bytes where numpy allocated them, which tracemalloc traces; 0
    where they belong to another buffer, such as an mmap, which it does not."""
    owner = a
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    return a.nbytes if owner.base is None else 0


def _excess_bytes(seconds):
    """(tracemalloc peak of enhance_frames on a condition-G scene less the
    traced bytes of the Trace and the output spectrum it returns, bytes of
    one (T, K) float64 array). The input spectrum exists before tracing
    starts, so it is not in the peak."""
    _, spec = _scene_spectrum(seconds)
    tracemalloc.start()
    try:
        out, trace, _ = enhance_frames(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = _traced_bytes(out.frames) + sum(map(_traced_bytes, trace.arrays.values()))
    return peak - returned, spec.n_frames * spec.n_bins * 8


def test_enhance_frames_working_set_does_not_grow_with_length():
    # a warm-up call builds the first-use caches (the dilogarithm table,
    # the quadrature rules and the modules they import), so that neither
    # measured call holds them, whichever tests ran before this one
    enhance_frames(_scene_spectrum(0.25)[1])
    # both lengths lie past the 1.5 s noise window, whose history a
    # shorter call ends before it fills
    excess_2s, array_2s = _excess_bytes(2.0)
    excess_5s, array_5s = _excess_bytes(5.0)
    # from 2 s to 5 s the working set may grow by at most half of one
    # (T, K) float64 array of the added frames; whole-utterance
    # intermediates grow by about 11 such arrays
    assert excess_5s - excess_2s <= 0.5 * (array_5s - array_2s)


@pytest.mark.parametrize("look_ahead", [0, 3])
def test_front_end_store_holds_a_bounded_number_of_rows(monkeypatch, look_ahead):
    """The front end keeps one store of rows, every _Frame field but priors
    and the decay-run lengths from one base frame on, trimmed before each
    block to the rows a decay prior can still read. Wrapping _append runs
    the call as one group in this process (_watched), where every store the
    3 s call appends to is seen."""
    _, spec = _scene_spectrum(3.0)
    append, held = enhancer._append, []

    def recording(store, **blocks):
        append(store, **blocks)
        assert set(store) == set(enhancer._Frame._fields[:-1]) | {"runs"}
        # one base: every field but the lagging run lengths spans the same frames
        assert len({v.shape[0] for k, v in store.items() if k != "runs"}) == 1
        held.append(max(v.shape[0] for v in store.values()))

    monkeypatch.setattr(enhancer, "_append", recording)
    enhance_frames(spec, EnhancerConfig(look_ahead=look_ahead))
    assert len(held) >= spec.n_frames // enhancer._BLOCK
    assert max(held) <= enhancer._FDR_MAX_LEN + look_ahead + enhancer._BLOCK + 2


def _traced_peak(spec, cfg):
    tracemalloc.start()
    try:
        enhance_frames(spec, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _held_bytes(cfg, t_frames, k_bins):
    """Bytes of the rows whose count a setting sets, that the front end
    holds at most: the row store (p + 7 float64 per bin, at p = AR_ORDER,
    bounds the p + 5
    fields, the gate and the run lengths), the AR fits' carried window and
    the noise tracker's carried window, none longer than the input."""
    inc = FRAME_INCREMENT
    store = enhancer._FDR_MAX_LEN + cfg.look_ahead + enhancer._BLOCK + 2
    p = enhancer.AR_ORDER
    ar = max(round(cfg.modulation_frame / inc), p + 2) - 1
    noise = max(round(cfg.noise_window_s / inc), 1) - 1
    return 8 * k_bins * sum(min(rows, t_frames) * width
                            for rows, width in ((store, p + 7), (ar, 1), (noise, 1)))


@pytest.fixture(scope="module")
def scene_1s_default_peak():
    """A 1 s condition-G spectrum and the traced peak of enhance_frames on
    it at the default config, after a warm-up call builds the first-use
    caches."""
    _, spec = _scene_spectrum(1.0)
    enhance_frames(spec)
    return spec, _traced_peak(spec, EnhancerConfig())


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@example(setting=("look_ahead", 122))         # the top of each range
@example(setting=("modulation_frame", 1.0))
@example(setting=("noise_window_s", 2.0))
@given(setting=st.one_of(
    st.tuples(st.just("look_ahead"), st.integers(0, 122)),
    st.tuples(st.just("modulation_frame"), st.floats(0.0, 1.0, exclude_min=True)),
    st.tuples(st.just("noise_window_s"), st.floats(0.0, 2.0, exclude_min=True))))
def test_enhance_frames_memory_follows_the_rows_a_setting_holds(scene_1s_default_peak, setting):
    """A look-ahead up to the frame count, a modulation frame up to 1 s or
    a noise window up to 2 s raises the traced peak of enhance_frames on a
    1 s spectrum (122 frames) over the default's by at most twice the
    bytes of the extra rows the setting makes the front end hold, plus one
    block of rows of the spectrum for the allocator's slack."""
    spec, default_peak = scene_1s_default_peak
    t_frames, k_bins = spec.frames.shape
    assert t_frames == 122
    cfg = EnhancerConfig(**dict([setting]))
    extra = (_held_bytes(cfg, t_frames, k_bins)
             - _held_bytes(EnhancerConfig(), t_frames, k_bins))
    slack = enhancer._BLOCK * k_bins * 8
    assert _traced_peak(spec, cfg) - default_peak <= 2 * max(extra, 0) + slack
