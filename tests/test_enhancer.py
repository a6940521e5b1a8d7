"""Filter-cascade orchestration tests."""

import numpy as np
import pytest

from reverbtrack.enhancer import (EnhancerConfig, NoiseBelief, enhance,
                                  enhance_frames, initial_bin_state,
                                  process_frame, track_noise)
from reverbtrack.lognorm import LogGaussian
from reverbtrack.reverb import RoomParams
from reverbtrack.speech import ARModel
from reverbtrack.simkit import make_scene, speechlike_excitation
from reverbtrack.stft import AnalysisConfig, AudioBuffer, SpectralFrames, stft

FS = 16000


# ---------------------------------------------------------------------------
# noise tracking
# ---------------------------------------------------------------------------

def test_track_noise_stationary_accuracy():
    rng = np.random.default_rng(0)
    sigma2 = 0.04
    power = sigma2 * rng.chisquare(2, size=(1000, 8)) / 2.0
    mean, var = track_noise(power)
    est_db = 20.0 * mean[-1] / np.log(10.0)          # nats -> power dB
    true_db = 10.0 * np.log10(sigma2)
    # after the 1.5 s window has filled, within +-2 dB of truth
    assert np.all(np.abs(est_db - true_db) <= 2.0)
    assert var == 0.5


def test_track_noise_follows_silence_floor():
    rng = np.random.default_rng(1)
    t_frames = 1500
    power = 1e-6 * np.ones((t_frames, 4))
    speech = np.abs(rng.standard_normal((t_frames, 4)))
    active = (np.arange(t_frames) // 50) % 2 == 0
    power[active] += speech[active]
    mean, _ = track_noise(power)
    speech_db = 10.0 * np.log10(np.median(power[active]))
    floor_db = 20.0 * np.median(mean[500:]) / np.log(10.0)
    assert speech_db - floor_db >= 10.0


def test_track_noise_constant_input():
    mean, _ = track_noise(np.full((400, 2), 0.01), bias=1.5)
    assert np.allclose(mean[-1], 0.5 * np.log(0.015))


# ---------------------------------------------------------------------------
# single-frame cascade
# ---------------------------------------------------------------------------

def _ar():
    return ARModel(np.array([1.0, 0.0]), 0.01, local_mean=0.0)


def test_process_frame_low_observation_lowers_speech():
    cfg = EnhancerConfig()
    state = initial_bin_state(cfg, first_log=0.0, noise_mean=-2.0)
    new_state, s_post, rec = process_frame(state, y=-8.0,
                                           noise=NoiseBelief(-2.0, 0.5),
                                           ar=_ar(), cfg=cfg)
    # evidence far below the prior cannot raise the speech belief
    assert s_post.mean <= state.speech.mean[0]
    assert np.isfinite(rec.t60_est) and rec.t60_est > 0


def test_process_frame_tracks_y_without_disturbance():
    cfg = EnhancerConfig()
    state = initial_bin_state(cfg, first_log=0.0, noise_mean=-30.0)
    # kill reverberation: a = 1e-6, b = 1e-6, tight beliefs
    g = 0.5 * np.log(1e-6)
    state.params.gamma = LogGaussian(g, 1e-8)
    state.params.beta = LogGaussian(g, 1e-8)
    noise = NoiseBelief(-30.0, 1e-4)
    y = 0.3
    s_post = None
    for _ in range(20):
        state, s_post, _ = process_frame(state, y, noise, _ar(), cfg)
    assert abs(s_post.mean - y) <= 0.2


def test_process_frame_z_matches_r_when_noise_negligible():
    cfg = EnhancerConfig()
    state = initial_bin_state(cfg, first_log=0.0, noise_mean=0.0)
    state.reverb_r = LogGaussian(-1.0, 0.3)
    noise = NoiseBelief(state.reverb_r.mean - 40.0, 0.5)
    _, _, rec = process_frame(state, y=0.0, noise=noise, ar=_ar(), cfg=cfg)
    assert abs(rec.z_mean - rec.r_mean) <= 0.1


def test_process_frame_posterior_variances_nonnegative():
    cfg = EnhancerConfig()
    rng = np.random.default_rng(2)
    state = initial_bin_state(cfg, first_log=0.0, noise_mean=-3.0)
    for _ in range(50):
        y = float(rng.normal(-1.0, 2.0))
        state, s_post, rec = process_frame(state, y, NoiseBelief(-3.0, 0.5),
                                           _ar(), cfg)
        for v in (rec.s_var, rec.r_var, rec.z_var, rec.gamma_var, rec.beta_var):
            assert np.isfinite(v) and v >= 0.0
        assert rec.gamma_mean < 0.0


# ---------------------------------------------------------------------------
# batch path
# ---------------------------------------------------------------------------

def _random_frames(t_frames=120, k_bins=257, seed=3):
    rng = np.random.default_rng(seed)
    frames = 0.1 * (rng.standard_normal((t_frames, k_bins))
                    + 1j * rng.standard_normal((t_frames, k_bins)))
    return SpectralFrames(frames, AnalysisConfig(), FS)


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
    floor = 10.0 ** (cfg.gain_floor_db / 20.0)
    assert np.all(gain <= 1.0 + 1e-9)
    assert np.all(gain >= floor - 1e-9)


def test_enhance_frames_bounded_look_ahead():
    cfg = EnhancerConfig()
    spec1 = _random_frames(t_frames=100, seed=5)
    frames2 = spec1.frames.copy()
    frames2[60:] *= 3.0                      # change the future only
    spec2 = SpectralFrames(frames2, spec1.config, FS)
    out1, _, _ = enhance_frames(spec1, cfg)
    out2, _, _ = enhance_frames(spec2, cfg)
    # outputs may differ within the look-ahead horizon of the change
    # (the decay-prior path adds one frame of smoothing on top of C)
    horizon = cfg.look_ahead + 2
    assert np.array_equal(out1.frames[:60 - horizon], out2.frames[:60 - horizon])
    assert not np.array_equal(out1.frames[60:], out2.frames[60:])


def test_enhance_preserves_length_and_rejects_bad_rate():
    audio = speechlike_excitation(1.0, seed=6)
    out, trace, diag = enhance(audio)
    assert len(out.samples) == len(audio.samples)
    assert out.sample_rate == FS
    with pytest.raises(ValueError):
        enhance(AudioBuffer(np.zeros(8000), sample_rate=8000))


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
    scaled, _, _ = enhance(AudioBuffer(c * noisy.samples, noisy.sample_rate))
    ref = c * out.samples
    assert np.max(np.abs(scaled.samples - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_trace_schema_and_estimates_valid():
    spec = _random_frames(seed=8)
    _, trace, _ = enhance_frames(spec)
    assert trace.n_frames == spec.n_frames
    assert trace.n_bins == spec.n_bins
    rec = trace.record(10, 32)
    assert rec.frame == 10 and rec.bin == 32
    t60 = trace.arrays["t60_est"]
    assert np.all(np.isfinite(t60)) and np.all(t60 > 0.0)
    assert np.all(np.isfinite(trace.arrays["drr_est"]))


def test_trace_csv_export(tmp_path):
    spec = _random_frames(t_frames=30, seed=9)
    _, trace, _ = enhance_frames(spec)
    path = tmp_path / "trace.csv"
    trace.write_csv(path, bins=[32, 40])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("frame,bin,s_mean,s_var")
    assert len(lines) == 1 + 2 * trace.n_frames


def test_config_validation():
    with pytest.raises(ValueError):
        EnhancerConfig(k_phase=0)
    with pytest.raises(ValueError):
        EnhancerConfig(look_ahead=-1)
    with pytest.raises(ValueError):
        NoiseBelief(0.0, 0.0)
