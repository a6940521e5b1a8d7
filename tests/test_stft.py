"""Analysis/synthesis and log-magnitude tests."""

import numpy as np
import pytest

from reverbtrack.stft import (FRAME_INCREMENT, FRAME_SAMPLES, HOP_SAMPLES,
                              MAG_FLOOR_ABS, N_BINS, WINDOW, AudioBuffer,
                              SpectralFrames, StftError, floored_magnitude, istft,
                              stft)

FS = 16000


def test_default_geometry():
    assert (FRAME_SAMPLES, HOP_SAMPLES, N_BINS) == (512, 128, 257)
    assert FRAME_INCREMENT == 0.008         # the double of the literal, L of the model
    spec = stft(AudioBuffer(np.zeros(FS)))
    assert spec.n_bins == 257
    assert spec.n_frames == (FS - 512) // 128 + 1


def test_window_squared_overlap_adds_to_a_constant():
    """COLA of the squared window at the hop: the frames of a 4x overlap
    sum to 2 everywhere, to a few ulps."""
    assert not WINDOW.flags.writeable
    n = np.arange(FRAME_SAMPLES)
    assert np.array_equal(WINDOW, np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / FRAME_SAMPLES)))
    acc = np.zeros(3 * FRAME_SAMPLES)
    for start in range(0, 2 * FRAME_SAMPLES + 1, HOP_SAMPLES):
        acc[start:start + FRAME_SAMPLES] += WINDOW ** 2
    np.testing.assert_allclose(acc[FRAME_SAMPLES:2 * FRAME_SAMPLES], 2.0, rtol=1e-14)


def test_silence_hits_magnitude_floor():
    spec = stft(AudioBuffer(np.zeros(FS)))
    assert np.all(floored_magnitude(spec.frames) == MAG_FLOOR_ABS)


def test_sinusoid_concentrates_at_1khz_bin():
    t = np.arange(FS) / FS
    spec = stft(AudioBuffer(np.sin(2.0 * np.pi * 1000.0 * t)))
    mag_db = 20.0 * np.log10(floored_magnitude(spec.frames))
    k = np.arange(spec.n_bins)
    far = np.abs(k - 32) > 2
    # every frame: bin 32 at least 20 dB above all bins more than 2 away
    assert np.all(mag_db[:, 32][:, None] - mag_db[:, far] >= 20.0)


def test_too_short_input_raises():
    with pytest.raises(StftError):
        stft(AudioBuffer(np.zeros(100)))


def test_round_trip_interior_identity():
    """Interior error of istft(stft(x)) on white noise, in dB of x."""
    x = np.random.default_rng(0).standard_normal(FS)
    out = istft(stft(AudioBuffer(x)))
    n = FRAME_SAMPLES
    m = min(len(out.samples), len(x))
    err = np.linalg.norm(out.samples[n:m - n] - x[n:m - n])
    assert 20.0 * np.log10(err / np.linalg.norm(x[n:m - n])) <= -100.0


def test_zero_frames_give_zero_audio():
    spec = stft(AudioBuffer(np.zeros(FS)))
    zeros = SpectralFrames(np.zeros_like(spec.frames))
    assert np.all(istft(zeros).samples == 0.0)


def test_istft_rejects_mismatched_bins():
    spec = stft(AudioBuffer(np.zeros(FS)))
    bad = SpectralFrames(spec.frames[:, :100])
    with pytest.raises(StftError, match=r"frame bins \(100\) do not match the frame size \(512\)"):
        istft(bad)


def test_parseval_per_frame():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(FS)
    spec = stft(AudioBuffer(x))
    hop, n = 128, 512
    for t in (0, 5, 20):
        frame = x[t * hop:t * hop + n] * WINDOW
        e_time = np.sum(frame ** 2)
        f = spec.frames[t]
        e_freq = (np.abs(f[0]) ** 2 + np.abs(f[-1]) ** 2
                  + 2.0 * np.sum(np.abs(f[1:-1]) ** 2)) / n
        assert abs(e_time - e_freq) <= 1e-8 * e_time


def test_log_magnitude_values_and_monotonicity():
    frames = np.array([[1.0 + 0j, np.e, 0.0, 2.0]])
    lm = np.log(floored_magnitude(frames))
    assert lm[0, 0] == pytest.approx(0.0)
    assert lm[0, 1] == pytest.approx(1.0)
    assert np.isfinite(lm[0, 2])            # zero magnitude floored, not -inf
    assert lm[0, 3] > lm[0, 0] > lm[0, 2]


def test_synthesis_with_replaced_magnitude_keeps_length():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(FS)
    spec = stft(AudioBuffer(x))
    new_mag = np.exp(np.log(floored_magnitude(spec.frames)) - 0.5)
    phase = np.angle(spec.frames)
    replaced = SpectralFrames(new_mag * np.exp(1j * phase))
    out = istft(replaced)
    assert len(out.samples) == (spec.n_frames - 1) * 128 + 512


def test_audio_buffer_rejects_nonfinite():
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]))


def test_audio_buffer_names_a_bad_field():
    """Samples must be 1-D."""
    for samples in (np.zeros((FS, 2)), np.float64(0.0)):
        with pytest.raises(ValueError, match=r"samples must be 1-D, got shape \("):
            AudioBuffer(samples)

