"""Analysis/synthesis and log-magnitude tests."""

import numpy as np
import pytest

from reverbtrack.stft import (MAG_FLOOR_ABS, AnalysisConfig, AudioBuffer,
                              SpectralFrames, StftError, istft, log_magnitude,
                              stft)

FS = 16000


def test_default_geometry():
    cfg = AnalysisConfig()
    assert cfg.frame_samples(FS) == 512
    assert cfg.hop_samples(FS) == 128
    spec = stft(AudioBuffer(np.zeros(FS)), cfg)
    assert spec.n_bins == 257
    assert spec.n_frames == (FS - 512) // 128 + 1


def test_silence_hits_magnitude_floor():
    spec = stft(AudioBuffer(np.zeros(FS)))
    assert np.all(spec.magnitude() == MAG_FLOOR_ABS)
    assert np.all(spec.log_magnitude() == np.log(MAG_FLOOR_ABS))


def test_sinusoid_concentrates_at_1khz_bin():
    t = np.arange(FS) / FS
    spec = stft(AudioBuffer(np.sin(2.0 * np.pi * 1000.0 * t)))
    mag_db = 20.0 * np.log10(spec.magnitude())
    k = np.arange(spec.n_bins)
    far = np.abs(k - 32) > 2
    # every frame: bin 32 at least 20 dB above all bins more than 2 away
    assert np.all(mag_db[:, 32][:, None] - mag_db[:, far] >= 20.0)


def test_too_short_input_raises():
    with pytest.raises(StftError):
        stft(AudioBuffer(np.zeros(100)))


def _round_trip_error_db(cfg):
    """Interior error of istft(stft(x, cfg)) on white noise, in dB of x."""
    x = np.random.default_rng(0).standard_normal(FS)
    out = istft(stft(AudioBuffer(x), cfg))
    n = cfg.frame_samples(FS)
    m = min(len(out.samples), len(x))
    err = np.linalg.norm(out.samples[n:m - n] - x[n:m - n])
    return 20.0 * np.log10(err / np.linalg.norm(x[n:m - n]))


def test_round_trip_interior_identity():
    assert _round_trip_error_db(AnalysisConfig()) <= -100.0


@pytest.mark.parametrize("frame_length, frame_increment", [(0.032, 0.016), (0.064, 0.016)])
def test_round_trip_uses_the_spectrum_geometry(frame_length, frame_increment):
    """istft takes its geometry from the spectrum it is given."""
    assert _round_trip_error_db(AnalysisConfig(frame_length, frame_increment)) <= -100.0


def test_zero_frames_give_zero_audio():
    spec = stft(AudioBuffer(np.zeros(FS)))
    zeros = SpectralFrames(np.zeros_like(spec.frames), spec.config, FS)
    assert np.all(istft(zeros).samples == 0.0)


def test_istft_rejects_mismatched_bins():
    spec = stft(AudioBuffer(np.zeros(FS)))
    bad = SpectralFrames(spec.frames[:, :100], spec.config, FS)
    with pytest.raises(StftError):
        istft(bad)


def test_parseval_per_frame():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(FS)
    cfg = AnalysisConfig()
    spec = stft(AudioBuffer(x), cfg)
    win = cfg.make_window(FS)
    hop, n = 128, 512
    for t in (0, 5, 20):
        frame = x[t * hop:t * hop + n] * win
        e_time = np.sum(frame ** 2)
        f = spec.frames[t]
        e_freq = (np.abs(f[0]) ** 2 + np.abs(f[-1]) ** 2
                  + 2.0 * np.sum(np.abs(f[1:-1]) ** 2)) / n
        assert abs(e_time - e_freq) <= 1e-8 * e_time


def test_log_magnitude_values_and_monotonicity():
    cfg = AnalysisConfig()
    frames = np.array([[1.0 + 0j, np.e, 0.0, 2.0]])
    spec = SpectralFrames(frames, cfg, FS)
    lm = log_magnitude(spec)
    assert lm[0, 0] == pytest.approx(0.0)
    assert lm[0, 1] == pytest.approx(1.0)
    assert np.isfinite(lm[0, 2])            # zero magnitude floored, not -inf
    assert lm[0, 3] > lm[0, 0] > lm[0, 2]


def test_synthesis_with_replaced_magnitude_keeps_length():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(FS)
    spec = stft(AudioBuffer(x))
    new_mag = np.exp(np.log(spec.magnitude()) - 0.5)
    phase = np.angle(spec.frames)
    replaced = SpectralFrames(new_mag * np.exp(1j * phase), spec.config, FS)
    out = istft(replaced)
    assert len(out.samples) == (spec.n_frames - 1) * 128 + 512


def test_cola_violation_detected():
    cfg = AnalysisConfig(frame_length=0.032, frame_increment=0.012)
    with pytest.raises(StftError):
        stft(AudioBuffer(np.zeros(FS)), cfg)


def test_audio_buffer_rejects_nonfinite():
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]))
