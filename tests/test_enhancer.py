"""Filter-cascade orchestration tests."""

import copy
import warnings

import numpy as np
import pytest

from reverbtrack import enhancer
from reverbtrack.enhancer import (TRACE_FIELDS, EnhancerConfig, _FilterState,
                                  enhance, enhance_frames, track_noise)
from reverbtrack.lognorm import Diagnostics, fuse_moments
from reverbtrack.reverb import RoomParams, clamp_gamma
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

def _one_bin(cfg, first_log, noise_mean):
    """The batch path's start state for a single bin."""
    return _FilterState(1, cfg, np.array([first_log]), np.array([noise_mean]))


def test_advance_low_observation_lowers_speech(advance_bin):
    cfg = EnhancerConfig()
    fs = _one_bin(cfg, first_log=0.0, noise_mean=-2.0)
    prior_head = fs.s_mean[0, 0]
    row = advance_bin(fs, -8.0, (-2.0, 0.5), cfg)
    # evidence far below the prior cannot raise the speech belief
    assert row["s_mean"] <= prior_head
    assert np.isfinite(row["t60_est"]) and row["t60_est"] > 0


def test_advance_tracks_y_without_disturbance(advance_bin):
    cfg = EnhancerConfig()
    fs = _one_bin(cfg, first_log=0.0, noise_mean=-30.0)
    # kill reverberation: a = 1e-6, b = 1e-6, tight beliefs
    g = 0.5 * np.log(1e-6)
    fs.gamma_m[:], fs.gamma_v[:] = g, 1e-8
    fs.beta_m[:], fs.beta_v[:] = g, 1e-8
    y = 0.3
    for _ in range(20):
        row = advance_bin(fs, y, (-30.0, 1e-4), cfg)
    assert abs(row["s_mean"] - y) <= 0.2


def test_advance_z_matches_r_when_noise_negligible(advance_bin):
    cfg = EnhancerConfig()
    fs = _one_bin(cfg, first_log=0.0, noise_mean=0.0)
    fs.r_mean[:], fs.r_var[:] = -1.0, 0.3
    row = advance_bin(fs, 0.0, (-1.0 - 40.0, 0.5), cfg)
    assert abs(row["z_mean"] - row["r_mean"]) <= 0.1


def test_advance_posterior_variances_nonnegative(advance_bin):
    cfg = EnhancerConfig()
    rng = np.random.default_rng(2)
    fs = _one_bin(cfg, first_log=0.0, noise_mean=-3.0)
    for _ in range(50):
        row = advance_bin(fs, rng.normal(-1.0, 2.0), (-3.0, 0.5), cfg)
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


# ---------------------------------------------------------------------------
# per-bin cascade: bin independence and the RNR gate on steps 10-12
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recorded_frames():
    """(filter state, inputs, update mask, config) of each frame of a 1 s
    condition-G scene, as enhance_frames passes them to _advance.

    The inputs are _advance's positional arguments from y to the decay
    prior mask; the noise variance among them is a scalar, the rest are
    per-bin arrays.
    """
    clean = speechlike_excitation(1.0, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    calls = []
    advance = enhancer._advance

    def record(fs, *args, update_mask=None):
        calls.append((copy.deepcopy(fs), copy.deepcopy(args[:11]), update_mask.copy(), args[11]))
        return advance(fs, *args, update_mask=update_mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enhancer, "_advance", record)
        enhance(noisy)
    return calls


def _bins(values, sub):
    """The bins sub of each per-bin array in values (scalars pass through)."""
    return tuple(v if np.ndim(v) == 0 else v[sub] for v in values)


def _state_bins(fs, sub):
    part = copy.copy(fs)
    for name, value in vars(fs).items():
        setattr(part, name, value[sub])
    return part


def _advance_quietly(fs, inputs, cfg, update_mask, diag):
    """One frame from a copy of fs; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return enhancer._advance(copy.deepcopy(fs), *inputs, cfg, diag,
                                 update_mask=update_mask)


def _assert_close(got, ref):
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_cascade_bins_are_independent(recorded_frames):
    # frames 44-63 hold mixed RNR gates and, at frame 58, decay priors
    start, count = 44, 20
    fs0, cfg = recorded_frames[start][0], recorded_frames[start][3]
    k_bins = fs0.gamma_m.size
    sub = np.random.default_rng(0).permutation(k_bins)[:k_bins // 2]
    window = recorded_frames[start:start + count]
    assert any(0 < np.count_nonzero(mask[sub]) < sub.size for _, _, mask, _ in window)
    assert any(np.any(inputs[10][sub]) for _, inputs, _, _ in window)

    full, part = _state_bins(fs0, slice(None)), _state_bins(fs0, sub)
    for _, inputs, mask, _ in window:
        row_full = enhancer._advance(full, *inputs, cfg, Diagnostics(), update_mask=mask)
        row_part = enhancer._advance(part, *_bins(inputs, sub), cfg, Diagnostics(),
                                     update_mask=mask[sub])
        for f in TRACE_FIELDS:
            if f == "fallback_flags":
                assert np.array_equal(row_part[f], row_full[f][sub])
            else:
                _assert_close(row_part[f], row_full[f][sub])
    # the replay on every bin reproduces the recorded run
    assert np.array_equal(full.gamma_m, recorded_frames[start + count][0].gamma_m)
    assert np.array_equal(full.beta_v, recorded_frames[start + count][0].beta_v)


def test_gate_restricts_steps_10_to_12(recorded_frames):
    fs, inputs, gate, cfg = recorded_frames[58]
    assert np.any(inputs[10])                  # decay priors in this frame
    # three bins whose refreshed speech prior contradicts the last
    # posterior by 100 nats: step 10 cannot explain r there and falls back
    fs = copy.deepcopy(fs)
    odd = [10, 100, 200]
    fs.s_post_m[odd], fs.s_post_v[odd] = 50.0, 1e-6
    fs.s_mean[odd], fs.s_cov[odd] = -50.0, 1e-6 * np.eye(cfg.p)
    fs.gamma_v[odd] = fs.beta_v[odd] = fs.r_var[odd] = 1e-6

    # steps 1-2: the random walk fused with the decay priors
    gm, gv = fs.gamma_m, fs.gamma_v + cfg.q_gamma
    bm, bv = fs.beta_m, fs.beta_v + cfg.q_beta
    pg, pgv, pb, pbv, pmask = inputs[6:11]
    fgm, fgv = fuse_moments(gm, gv, pg, pgv)
    fbm, fbv = fuse_moments(bm, bv, pb, pbv)
    priors = {"gamma_mean": clamp_gamma(np.where(pmask, fgm, gm)),
              "gamma_var": np.where(pmask, fgv, gv),
              "beta_mean": np.where(pmask, fbm, bm),
              "beta_var": np.where(pmask, fbv, bv)}

    ungated = _advance_quietly(fs, inputs, cfg, None, Diagnostics())
    assert np.all(ungated["fallback_flags"][odd] & 4)
    mixed = gate.copy()
    mixed[odd] = [True, False, False]
    k_bins = gate.size
    for mask in (np.ones(k_bins, bool), np.zeros(k_bins, bool), mixed):
        diag = Diagnostics()
        row = _advance_quietly(fs, inputs, cfg, mask, diag)
        for f, prior in priors.items():
            _assert_close(row[f][mask], ungated[f][mask])
            assert np.array_equal(row[f][~mask], prior[~mask])
        for f in ("s_mean", "s_var", "r_mean", "r_var", "z_mean", "z_var"):
            assert np.array_equal(row[f], ungated[f])
        flags, ref = row["fallback_flags"], ungated["fallback_flags"]
        assert np.array_equal(flags & 3, ref & 3)
        assert np.array_equal(flags & 4, np.where(mask, ref & 4, 0))
        # every counted fallback is a flagged one
        assert diag.fallbacks == sum(np.count_nonzero(flags & bit) for bit in (1, 2, 4))


def test_trace_schema_and_estimates_valid():
    spec = _random_frames(seed=8)
    _, trace, _ = enhance_frames(spec)
    assert trace.n_frames == spec.n_frames
    assert trace.n_bins == spec.n_bins
    assert set(trace.arrays) == set(TRACE_FIELDS)
    assert all(arr.shape == (trace.n_frames, trace.n_bins) for arr in trace.arrays.values())
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
    for bad in ({"q_gamma": -1.0}, {"q_beta": -1.0}, {"init_param_variance": -1.0},
                {"noise_variance": 0.0}, {"noise_variance": -0.5},
                {"q_gamma": float("nan")}):
        with pytest.raises(ValueError):
            EnhancerConfig(**bad)
    # the boundary values stay valid
    EnhancerConfig(q_gamma=0.0, q_beta=0.0, init_param_variance=0.0)
