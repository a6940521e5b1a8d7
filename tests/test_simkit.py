"""Synthetic scene generation and metric tests."""

import numpy as np
import pytest

from oracles import schroeder_t60

from reverbtrack.reverb import RoomParams, room_to_ab
from reverbtrack.simkit import (add_stft_noise, cepstral_distance,
                                log_spectral_distance, make_scene, mix_noise,
                                polack_rir, segmental_snr,
                                speechlike_excitation, stft_domain_reverb)
from reverbtrack.stft import AudioBuffer, SpectralFrames, stft

FS = 16000


# ---------------------------------------------------------------------------
# frame-domain reverberation
# ---------------------------------------------------------------------------

def _impulse_frames(t_frames=60, k_bins=257, hit=5):
    frames = np.zeros((t_frames, k_bins), dtype=complex)
    frames[hit] = 1.0
    return SpectralFrames(frames)


def test_reverb_vanishes_for_tiny_a_and_b():
    clean = _impulse_frames()
    # T60 so short that a ~ 1e-24; huge DRR makes b ~ 1e-30
    room = RoomParams(0.002, 300.0)
    out, truth = stft_domain_reverb(clean, room, seed=0)
    assert np.allclose(out.frames, clean.frames, atol=1e-12)


def test_reverb_tail_decays_sqrt_a_per_frame():
    a = 0.7
    drr = 10.0 * np.log10(1.0 - a)        # makes b = 1 exactly
    room = RoomParams(-6.0 * 0.008 / np.log10(a), drr)
    aa, bb = room_to_ab(room)
    assert aa == pytest.approx(a, rel=1e-12)
    assert bb == pytest.approx(1.0, rel=1e-12)
    _, truth = stft_domain_reverb(_impulse_frames(hit=5), room, seed=1)
    # reverberation appears one frame after the impulse, then decays
    diffs = truth.r_true[7:20, 0] - truth.r_true[8:21, 0]
    assert np.allclose(diffs, -0.5 * np.log(a), atol=1e-9)


def test_condition_g_tail_slope_matches_t60():
    rng = np.random.default_rng(2)
    t_frames, k_bins = 400, 64
    frames = np.zeros((t_frames, k_bins), dtype=complex)
    frames[10] = rng.standard_normal(k_bins) + 1j * rng.standard_normal(k_bins)
    clean = SpectralFrames(frames)
    room = RoomParams(0.61, -1.74)
    _, truth = stft_domain_reverb(clean, room, seed=3)
    # energy decay of the Monte-Carlo tail across bins
    tail = np.arange(15, 120)
    energy_db = 10.0 * np.log10(np.mean(np.exp(2.0 * truth.r_true[tail]), axis=1))
    slope, _ = np.polyfit(tail * 0.008, energy_db, 1)
    t60_measured = -60.0 / slope
    assert t60_measured == pytest.approx(0.61, rel=0.1)


def test_add_stft_noise_power_and_truth():
    clean = _impulse_frames()
    room = RoomParams(0.5, 0.0)
    rev, truth = stft_domain_reverb(clean, room, seed=4)
    noisy = add_stft_noise(rev, truth, snr_db=10.0, kind="white", seed=5)
    noise = noisy.frames - rev.frames
    snr = 10.0 * np.log10(np.mean(np.abs(rev.frames) ** 2)
                          / np.mean(np.abs(noise) ** 2))
    assert snr == pytest.approx(10.0, abs=0.2)
    # z is the log magnitude of reverberation plus noise
    z_ref = np.log(np.maximum(np.abs(truth._r_frames + noise), 1e-12))
    assert np.allclose(truth.z_true, z_ref, atol=1e-6)
    with pytest.raises(ValueError, match="unknown noise kind 'brown'"):
        add_stft_noise(rev, truth, 10.0, kind="brown")


@pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf])
def test_add_stft_noise_rejects_non_finite_snr(snr_db):
    rev, truth = stft_domain_reverb(_impulse_frames(), RoomParams(0.5, 0.0), seed=4)
    z_true, n_true = truth.z_true, truth.n_true
    with pytest.raises(ValueError, match="SNR must be finite"):
        add_stft_noise(rev, truth, snr_db, seed=5)
    # the truth keeps its noiseless z and n
    assert truth.z_true is z_true and truth.n_true is n_true


def test_make_scene_deterministic():
    clean = speechlike_excitation(1.0, seed=6)
    room = RoomParams(0.4, 1.0)
    a1, t1, f1 = make_scene(clean, room, 15.0, seed=9)
    a2, t2, f2 = make_scene(clean, room, 15.0, seed=9)
    assert np.array_equal(a1.samples, a2.samples)
    assert np.array_equal(f1.frames, f2.frames)
    assert np.array_equal(t1.z_true, t2.z_true)


# ---------------------------------------------------------------------------
# time-domain RIR path
# ---------------------------------------------------------------------------

def test_polack_rir_t60_by_schroeder():
    for t60 in (0.2, 0.5, 1.0):
        rir = polack_rir(RoomParams(t60, 0.0), seed=7)
        assert schroeder_t60(rir, FS) == pytest.approx(t60, rel=0.1)


def test_polack_rir_drr_energy_ratio():
    for drr in (-3.0, 0.0, 6.0):
        rir = polack_rir(RoomParams(0.5, drr), seed=8)
        cut = int(round(0.002 * FS))
        direct = np.sum(rir[:cut] ** 2)
        tail = np.sum(rir[cut:] ** 2)
        assert 10.0 * np.log10(direct / tail) == pytest.approx(drr, abs=1.0)


def test_polack_rir_infinite_drr_limit():
    rir = polack_rir(RoomParams(0.5, 200.0), seed=9)
    assert np.sum(rir[int(0.002 * FS):] ** 2) <= 1e-18


# ---------------------------------------------------------------------------
# noise mixing
# ---------------------------------------------------------------------------

def test_mix_noise_snr_zero_db():
    rng = np.random.default_rng(10)
    sig = AudioBuffer(0.1 * rng.standard_normal(4 * FS))
    mixed = mix_noise(sig, "white", 0.0, seed=11)
    noise = mixed.samples - sig.samples
    snr = 10.0 * np.log10(np.mean(sig.samples ** 2) / np.mean(noise ** 2))
    assert snr == pytest.approx(0.0, abs=0.01)


def test_mix_noise_high_snr_is_identity():
    rng = np.random.default_rng(12)
    sig = AudioBuffer(0.1 * rng.standard_normal(FS))
    mixed = mix_noise(sig, "white", 200.0, seed=13)
    assert np.allclose(mixed.samples, sig.samples, atol=1e-6)
    with pytest.raises(ValueError):
        mix_noise(sig, "white", np.inf)
    with pytest.raises(ValueError, match="unknown noise kind 'brown'"):
        mix_noise(sig, "brown")


def test_mix_noise_white_spectrum_flat():
    sig = AudioBuffer(np.full(30 * FS, 1e-3))
    noise = mix_noise(sig, "white", 0.0, seed=14).samples - sig.samples
    frame = 512
    n_frames = len(noise) // frame
    spec = np.abs(np.fft.rfft(noise[:n_frames * frame].reshape(n_frames, frame),
                              axis=1)) ** 2
    avg_db = 10.0 * np.log10(np.mean(spec, axis=0))
    interior = avg_db[1:-1]
    assert interior.max() - interior.min() <= 2.0   # +-1 dB about the mean


def test_mix_noise_pink_tilts_down():
    sig = AudioBuffer(np.full(30 * FS, 1e-3))
    noise = mix_noise(sig, "pink", 0.0, seed=15).samples - sig.samples
    spec = np.abs(np.fft.rfft(noise)) ** 2
    low = np.mean(spec[10:200])
    high = np.mean(spec[-2000:])
    assert 10.0 * np.log10(low / high) > 6.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _speech_pair():
    ref = speechlike_excitation(2.0, seed=20)
    return ref


def test_cepstral_distance_identity_and_gain():
    ref = _speech_pair()
    assert cepstral_distance(ref, ref) == pytest.approx(0.0, abs=1e-9)
    double = AudioBuffer(2.0 * ref.samples)
    assert cepstral_distance(ref, double) == pytest.approx(
        10.0 / np.log(10.0) * np.log(2.0), abs=0.02)
    # per-frame the distance is symmetric; the frame average is too when
    # both signals share the same active set (here: two stationary noises)
    rng = np.random.default_rng(21)
    n1 = AudioBuffer(0.1 * rng.standard_normal(FS))
    n2 = AudioBuffer(0.1 * rng.standard_normal(FS))
    assert cepstral_distance(n1, n2) == pytest.approx(
        cepstral_distance(n2, n1), abs=1e-9)


def test_log_spectral_distance_and_segsnr():
    ref = _speech_pair()
    assert log_spectral_distance(ref, ref) == pytest.approx(0.0, abs=1e-9)
    assert segmental_snr(ref, ref) == pytest.approx(35.0)
    noisy = mix_noise(ref, "white", 20.0, seed=22)
    assert 15.0 <= segmental_snr(ref, noisy) <= 25.0
    neg = AudioBuffer(-noisy.samples)
    assert log_spectral_distance(ref, neg) == pytest.approx(
        log_spectral_distance(ref, noisy), abs=1e-9)


def test_metric_length_mismatch():
    ref = _speech_pair()
    short = AudioBuffer(ref.samples[:-100])
    for metric in (cepstral_distance, log_spectral_distance, segmental_snr):
        with pytest.raises(ValueError):
            metric(ref, short)


def test_metric_too_short_for_a_frame():
    short = AudioBuffer(_speech_pair().samples[:511])
    for metric in (cepstral_distance, log_spectral_distance, segmental_snr):
        with pytest.raises(ValueError, match="too short"):
            metric(short, short)


def test_metric_sanity_ordering():
    ref = _speech_pair()
    noisy = mix_noise(ref, "white", 5.0, seed=23)
    assert cepstral_distance(ref, ref) < cepstral_distance(ref, noisy)
    assert log_spectral_distance(ref, ref) < log_spectral_distance(ref, noisy)
    assert segmental_snr(ref, ref) > segmental_snr(ref, noisy)


# ---------------------------------------------------------------------------
# excitation generator
# ---------------------------------------------------------------------------

def test_excitation_reproducible_and_shaped():
    x1 = speechlike_excitation(3.0, seed=30)
    x2 = speechlike_excitation(3.0, seed=30)
    assert np.array_equal(x1.samples, x2.samples)
    assert len(x1.samples) == 3 * FS
    assert np.max(np.abs(x1.samples)) > 0.0
    # silences must exist so free decay regions occur
    frame = 512
    fe = np.array([np.sum(x1.samples[i:i + frame] ** 2)
                   for i in range(0, len(x1.samples) - frame, frame)])
    assert fe.min() < fe.max() * 1e-6
