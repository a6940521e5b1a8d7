"""Synthetic scenes and objective metrics.

Two reverberation paths are provided: the exact STFT-domain recursion
(matched to the filter's own signal model) and a time-domain Polack-model
RIR (exponentially decaying noise tail) for model-mismatch testing.
Metrics: cepstral distance, log-spectral distance and segmental SNR.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .reverb import RoomParams, room_to_ab
from .stft import SAMPLE_RATE, AudioBuffer, SpectralFrames, floored_magnitude, stft, istft

ACTIVE_RANGE_DB = 40.0     # frames within this of the utterance max count as active
DIRECT_WINDOW_S = 0.002    # RIR direct-path window for DRR scaling
METRIC_FRAME = 512         # samples per metric frame (32 ms at 16 kHz)
METRIC_HOP = 256           # samples between metric frames
CEPSTRUM_ORDER = 24
_Z_BLOCK = 256             # frames of the noisy disturbance formed at a time


@dataclass
class GroundTruth:
    s_true: np.ndarray   # (T, K) nats
    r_true: np.ndarray
    z_true: np.ndarray
    n_true: np.ndarray
    room: RoomParams


def stft_domain_reverb(clean_frames: SpectralFrames, room: RoomParams, seed=0):
    """Run R_t = sqrt(a) R_{t-1} e^{j theta} + sqrt(b) S_{t-1} e^{j psi}.

    Phases are uniform per frame/bin from the seeded generator. Returns
    (reverberant SpectralFrames holding S + R, GroundTruth). The truth's
    z/n fields are filled as if noiseless (z = r); add noise with
    add_stft_noise to update them.
    """
    rng = np.random.default_rng(seed)
    s = clean_frames.frames
    t_frames, k_bins = s.shape
    a, b = room_to_ab(room)
    sqrt_a, sqrt_b = np.sqrt(a), np.sqrt(b)
    r = np.zeros_like(s)
    prev_r = np.zeros(k_bins, dtype=complex)
    prev_s = np.zeros(k_bins, dtype=complex)
    for t in range(t_frames):
        theta = rng.uniform(-np.pi, np.pi, k_bins)
        psi = rng.uniform(-np.pi, np.pi, k_bins)
        r[t] = sqrt_a * prev_r * np.exp(1j * theta) + sqrt_b * prev_s * np.exp(1j * psi)
        prev_r = r[t]
        prev_s = s[t]
    out = SpectralFrames(s + r)
    s_log = np.log(floored_magnitude(s))
    r_log = np.log(floored_magnitude(r))
    truth = GroundTruth(s_log, r_log, r_log.copy(),
                        np.full_like(s_log, np.log(1e-12)), room)
    truth._r_frames = r          # kept for noise addition
    return out, truth


def _snr_ratio(snr_db):
    """The power ratio 10^(snr_db/10), as the noise scaling divides by it.

    Raises ValueError unless snr_db is finite and the ratio a normal
    float, so snr_db lies within about [-3076, +3082] dB: a larger one
    overflows and a smaller one gives a ratio of 0, and so infinite noise.
    """
    if not np.isfinite(snr_db):
        raise ValueError("SNR must be finite")
    try:
        with np.errstate(over="ignore"):
            ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not sys.float_info.min <= ratio < math.inf:
        raise ValueError(f"SNR {snr_db!r} dB is out of range: 10^(SNR/10) must be a normal float")
    return ratio


def add_stft_noise(reverberant: SpectralFrames, truth: GroundTruth, snr_db,
                   kind="white", seed=1):
    """Add seeded noise in the STFT domain at the given SNR (vs S + R
    power) and update the ground-truth z/n logs. Returns new frames."""
    ratio = _snr_ratio(snr_db)
    if kind not in ("white", "pink"):
        raise ValueError(f"unknown noise kind {kind!r}")
    rng = np.random.default_rng(seed)
    y = reverberant.frames
    t_frames, k_bins = y.shape
    # real parts first, then imaginary parts, written in place
    noise = np.empty((t_frames, k_bins), dtype=complex)
    noise.real = rng.standard_normal((t_frames, k_bins))
    noise.imag = rng.standard_normal((t_frames, k_bins))
    if kind == "pink":
        noise *= 1.0 / np.sqrt(np.maximum(np.arange(k_bins), 1.0))
    noise *= np.sqrt(_mean_power(y) / _mean_power(noise) / ratio)
    # z = r + n a block of frames at a time, so that it never exists whole
    z_true = np.empty((t_frames, k_bins))
    for a in range(0, t_frames, _Z_BLOCK):
        z_true[a:a + _Z_BLOCK] = np.log(floored_magnitude(
            truth._r_frames[a:a + _Z_BLOCK] + noise[a:a + _Z_BLOCK]))
    truth.z_true = z_true
    n_mag = floored_magnitude(noise)
    truth.n_true = np.log(n_mag, out=n_mag)
    noise += y
    return SpectralFrames(noise)


def _mean_power(frames):
    """Mean of |X|^2 over all frames and bins."""
    power = np.abs(frames)
    power *= power
    return np.mean(power)


def make_scene(clean: AudioBuffer, room: RoomParams, snr_db, noise_kind="white", seed=0):
    """Full STFT-domain synthetic scene: clean -> reverberant + noise.

    Returns (noisy AudioBuffer, GroundTruth, noisy SpectralFrames).
    """
    # no reference to the clean spectrum outlives the reverberation step
    rev, truth = stft_domain_reverb(stft(clean), room, seed=seed)
    noisy = add_stft_noise(rev, truth, snr_db, kind=noise_kind, seed=seed + 1)
    audio = istft(noisy)
    return audio, truth, noisy


def polack_rir(room: RoomParams, seed=0):
    """Unit direct impulse plus an exponentially decaying noise tail.

    The RIR lasts max(1.5 T60, 0.1 s). The tail starts after 2 ms and is
    scaled so the direct/tail energy ratio equals the requested DRR.
    """
    rng = np.random.default_rng(seed)
    n = int(round(max(1.5 * room.t60, 0.1) * SAMPLE_RATE))
    h = np.zeros(n)
    h[0] = 1.0
    start = int(round(DIRECT_WINDOW_S * SAMPLE_RATE))
    t = np.arange(start, n) / SAMPLE_RATE
    tail = rng.standard_normal(n - start) * np.exp(-3.0 * np.log(10.0) * t / room.t60)
    tail_energy = np.sum(tail ** 2)
    if tail_energy > 0:
        target = 1.0 / 10.0 ** (room.drr / 10.0)   # direct energy is 1
        tail *= np.sqrt(target / tail_energy)
    h[start:] = tail
    return h


def mix_noise(signal: AudioBuffer, kind="white", snr_db=20.0, seed=0) -> AudioBuffer:
    """Add seeded noise scaled to the requested SNR over the active region."""
    ratio = _snr_ratio(snr_db)
    rng = np.random.default_rng(seed)
    x = signal.samples
    noise = rng.standard_normal(len(x))
    if kind == "pink":
        spec = np.fft.rfft(noise)
        f = np.arange(len(spec))
        spec[1:] /= np.sqrt(f[1:])
        noise = np.fft.irfft(spec, len(x))
        noise /= np.std(noise) + 1e-300
    elif kind != "white":
        raise ValueError(f"unknown noise kind {kind!r}")
    # active region: samples in frames with energy within 40 dB of max
    frame = 512
    n_frames = max(len(x) // frame, 1)
    fe = np.array([np.sum(x[i * frame:(i + 1) * frame] ** 2) for i in range(n_frames)])
    active = fe >= fe.max() * 10.0 ** (-ACTIVE_RANGE_DB / 10.0)
    sig_pow = fe[active].sum() / (active.sum() * frame)
    noise_pow = np.mean(noise ** 2)
    noise *= np.sqrt(sig_pow / noise_pow / ratio)
    return AudioBuffer(x + noise)


def _voiced_syllable(burst, rng):
    """Harmonic source through two formant resonators plus breath noise."""
    f0 = rng.uniform(100.0, 200.0)
    t = np.arange(burst) / SAMPLE_RATE
    n_harm = max(int(6000.0 / f0), 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_harm)
    y = np.zeros(burst)
    for h in range(1, n_harm + 1):
        y += np.cos(2.0 * np.pi * f0 * h * t + phases[h - 1]) / h
    for fc, bw in ((rng.uniform(300.0, 800.0), 80.0),
                   (rng.uniform(1000.0, 2200.0), 120.0)):
        r = np.exp(-np.pi * bw / SAMPLE_RATE)
        w = 2.0 * np.pi * fc / SAMPLE_RATE
        y = lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(w), r * r], y)
    y /= np.std(y) + 1e-12
    # aspiration noise keeps inter-harmonic valleys at a realistic level
    breath = lfilter([0.3], [1.0, -0.7], rng.standard_normal(burst))
    breath /= np.std(breath) + 1e-12
    return y + 10.0 ** (-25.0 / 20.0) * breath


def _unvoiced_syllable(burst, rng):
    """Lowpassed noise burst (fricative-like)."""
    y = lfilter([0.3], [1.0, -0.7], rng.standard_normal(burst))
    return y / (np.std(y) + 1e-12)


def speechlike_excitation(duration_s, seed=0):
    """Syllable-like voiced/unvoiced bursts with pauses, at 16 kHz.

    Not speech, but with speech-like harmonic structure, formant-like
    resonances, spectral tilt, syllabic rhythm and frequent abrupt
    energy offsets so free decay regions occur.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * SAMPLE_RATE))
    x = np.zeros(n)
    pos = 0
    syllables = 0
    next_pause = int(rng.integers(5, 9))
    while pos < n:
        burst = int(rng.uniform(0.12, 0.30) * SAMPLE_RATE)
        if syllables >= next_pause:
            # sentence-level pause: long enough for the reverberant tail
            # to decay to the noise floor
            gap = int(rng.uniform(0.4, 0.6) * SAMPLE_RATE)
            syllables = 0
            next_pause = int(rng.integers(5, 9))
        else:
            gap = int(rng.uniform(0.06, 0.22) * SAMPLE_RATE)
        syllables += 1
        burst = min(burst, n - pos)
        if burst > 80:
            if rng.uniform() < 0.75:
                y = _voiced_syllable(burst, rng)
            else:
                y = _unvoiced_syllable(burst, rng)
            # fast attack, sustained body, sharp release: abrupt offsets
            # leave clean free-decay regions in the reverberant mixture
            env = np.ones(burst)
            attack = min(int(0.020 * SAMPLE_RATE), burst // 2)
            release = min(int(0.005 * SAMPLE_RATE), burst // 2)
            env[:attack] = np.linspace(0.0, 1.0, attack, endpoint=False)
            env[burst - release:] = np.linspace(1.0, 0.0, release)
            amp = rng.uniform(0.5, 1.0)
            x[pos:pos + burst] = amp * env * y / (np.std(y) + 1e-12)
        pos += burst + gap
    return AudioBuffer(0.05 * x)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _frame_index(ref: AudioBuffer, test: AudioBuffer):
    """(frames, METRIC_FRAME) sample indices of two equal-length signals' metric frames."""
    if len(ref.samples) != len(test.samples):
        raise ValueError("metric inputs must have equal length")
    n_frames = (len(ref.samples) - METRIC_FRAME) // METRIC_HOP + 1
    if n_frames < 1:
        raise ValueError("signals too short for metric framing")
    return np.arange(METRIC_FRAME)[None, :] + METRIC_HOP * np.arange(n_frames)[:, None]


def _metric_frames(ref: AudioBuffer, test: AudioBuffer):
    idx = _frame_index(ref, test)
    win = np.hanning(METRIC_FRAME)
    rf = np.fft.rfft(ref.samples[idx] * win, axis=1)
    tf = np.fft.rfft(test.samples[idx] * win, axis=1)
    energy = np.sum((ref.samples[idx] * win) ** 2, axis=1)
    active = energy >= energy.max() * 10.0 ** (-ACTIVE_RANGE_DB / 10.0)
    return rf, tf, active


def cepstral_distance(ref: AudioBuffer, test: AudioBuffer) -> float:
    """Truncated-cepstrum distance (order 24) in dB, averaged over active
    reference frames."""
    rf, tf, active = _metric_frames(ref, test)
    lr = np.log(floored_magnitude(rf))
    lt = np.log(floored_magnitude(tf))
    cr = np.fft.irfft(lr, axis=1)
    ct = np.fft.irfft(lt, axis=1)
    d0 = (cr[:, 0] - ct[:, 0]) ** 2
    dk = np.sum((cr[:, 1:CEPSTRUM_ORDER + 1] - ct[:, 1:CEPSTRUM_ORDER + 1]) ** 2, axis=1)
    per_frame = (10.0 / np.log(10.0)) * np.sqrt(d0 + 2.0 * dk)
    return float(np.mean(per_frame[active]))


def log_spectral_distance(ref: AudioBuffer, test: AudioBuffer) -> float:
    """RMS log-magnitude spectral difference in dB over active frames."""
    rf, tf, active = _metric_frames(ref, test)
    diff_db = 20.0 * (np.log10(floored_magnitude(rf)) - np.log10(floored_magnitude(tf)))
    per_frame = np.sqrt(np.mean(diff_db ** 2, axis=1))
    return float(np.mean(per_frame[active]))


def segmental_snr(ref: AudioBuffer, test: AudioBuffer) -> float:
    """Frame SNR clamped to [-10, 35] dB, averaged over active frames."""
    idx = _frame_index(ref, test)
    r = ref.samples[idx]
    e = ref.samples[idx] - test.samples[idx]
    energy = np.sum(r ** 2, axis=1)
    active = energy >= energy.max() * 10.0 ** (-ACTIVE_RANGE_DB / 10.0)
    snr = 10.0 * np.log10(np.maximum(energy, 1e-300) / np.maximum(np.sum(e ** 2, axis=1), 1e-300))
    return float(np.mean(np.clip(snr[active], -10.0, 35.0)))
