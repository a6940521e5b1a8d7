"""Per-frame, per-bin orchestration of the tracking cascade.

Each frame runs: speech KF prediction + decorrelation, random-walk
prediction of the reverberation parameters with decay-region priors,
prediction of the reverberation and total-disturbance log-spectra,
then the observation-driven decompositions (y -> s, z; z -> r, n;
r -> old/new reverberation) and straight-line constrained updates of
gamma and beta. All bins advance in lockstep (vectorised); a bounded
look-ahead of C frames feeds the decay priors. The r -> old/new split
and the gamma/beta updates (steps 10-12) run only on the bins that pass
the per-bin RNR gate in that frame; the other bins keep their gamma and
beta priors.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.ndimage import minimum_filter1d

from . import lognorm, reverb, speech
from .lognorm import Diagnostics, LogGaussian
from .reverb import ReverbParams
from .speech import ARModel, SpeechState
from .stft import AnalysisConfig, AudioBuffer, SpectralFrames, istft, log_magnitude, stft


@dataclass
class NoiseBelief:
    mean: float          # nats (log-amplitude)
    variance: float      # nats^2, fixed

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("noise belief variance must be positive")


@dataclass
class BinState:
    speech: SpeechState
    reverb_r: LogGaussian
    params: ReverbParams
    last_speech_posterior: LogGaussian
    smoothed_prev_speech: LogGaussian


@dataclass
class EnhancerConfig:
    p: int = 2
    k_gauss: int = 3
    k_phase: int = 6
    k_u: int = 15
    k_obs: int = 3
    q_gamma: float = 1e-4
    q_beta: float = 4e-4
    look_ahead: int = 3
    gain_floor_db: float = -14.0
    noise_variance: float = 0.5
    preclean_gain_floor_db: float = -20.0
    min_fdr_length: int = reverb.MIN_FDR_LENGTH
    rnr_threshold_db: float = reverb.RNR_THRESHOLD_DB
    fdr_skip: int = 2
    fdr_beta_extra_var: float = 4.0
    init_t60: float = 0.5
    init_drr: float = 0.0
    init_param_variance: float = 1.0
    lognormal_correction: bool = True
    noise_window_s: float = 1.5
    noise_smooth: float = 0.9
    noise_bias: float = 1.5
    frame_length: float = 0.032
    frame_increment: float = 0.008
    modulation_frame: float = 0.064

    def __post_init__(self):
        if min(self.k_gauss, self.k_phase, self.k_u, self.k_obs) < 1:
            raise ValueError("sigma-point counts must be >= 1")
        if self.look_ahead < 0:
            raise ValueError("look-ahead must be >= 0")

    def analysis(self):
        return AnalysisConfig(self.frame_length, self.frame_increment)


TRACE_FIELDS = [
    "s_mean", "s_var", "r_mean", "r_var", "z_mean", "z_var",
    "gamma_mean", "gamma_var", "beta_mean", "beta_var",
    "t60_est", "drr_est", "fallback_flags",
]


@dataclass
class TraceRecord:
    frame: int
    bin: int
    s_mean: float
    s_var: float
    r_mean: float
    r_var: float
    z_mean: float
    z_var: float
    gamma_mean: float
    gamma_var: float
    beta_mean: float
    beta_var: float
    t60_est: float
    drr_est: float
    fallback_flags: int


@dataclass
class Trace:
    """Per-frame, per-bin posterior log as (T, K) arrays."""

    arrays: dict
    frame_increment: float

    @property
    def n_frames(self):
        return self.arrays["s_mean"].shape[0]

    @property
    def n_bins(self):
        return self.arrays["s_mean"].shape[1]

    def record(self, frame, bin_):
        vals = {f: self.arrays[f][frame, bin_] for f in TRACE_FIELDS}
        vals["fallback_flags"] = int(vals["fallback_flags"])
        return TraceRecord(frame=frame, bin=bin_, **vals)

    def write_csv(self, path, bins=None):
        bins = range(self.n_bins) if bins is None else bins
        with open(path, "w", newline="") as fh:
            fh.write("frame,bin," + ",".join(TRACE_FIELDS) + "\n")
            for b in bins:
                for t in range(self.n_frames):
                    row = [str(t), str(b)]
                    for f in TRACE_FIELDS:
                        v = self.arrays[f][t, b]
                        row.append(str(int(v)) if f == "fallback_flags" else f"{v:.6g}")
                    fh.write(",".join(row) + "\n")


def track_noise(noisy_power, frame_increment=0.008, window_s=1.5, smooth=0.9,
                bias=1.5, noise_variance=0.5):
    """Minimum-statistics style noise tracker.

    Sliding-window minimum of exponentially smoothed power over window_s,
    bias-compensated by a fixed factor. Returns (mean (T, K) in nats of
    log-amplitude, variance scalar).
    """
    power = np.asarray(noisy_power, dtype=float)
    smoothed = np.empty_like(power)
    acc = power[0]
    for t in range(power.shape[0]):
        acc = smooth * acc + (1 - smooth) * power[t]
        smoothed[t] = acc
    w = max(int(round(window_s / frame_increment)), 1)
    # causal window [t-w+1, t]: pad the front, then take the centred
    # filter output at the window's centre index
    pad = np.concatenate([np.repeat(smoothed[:1], w - 1, axis=0), smoothed], axis=0)
    mins = minimum_filter1d(pad, size=w, axis=0, mode="nearest")
    mins = mins[w // 2:w // 2 + power.shape[0]]
    est = bias * np.maximum(mins, 1e-300)
    return 0.5 * np.log(est), noise_variance


class _FilterState:
    """Vectorised filter state across K bins."""

    def __init__(self, k_bins, cfg: EnhancerConfig, first_log, noise_mean0):
        p = cfg.p
        self.s_mean = np.tile(first_log[:, None], (1, p))
        self.s_cov = np.tile(np.eye(p) * cfg.init_param_variance, (k_bins, 1, 1))
        self.r_mean = noise_mean0.copy()
        self.r_var = np.full(k_bins, 1.0)
        a, b = reverb.room_to_ab(reverb.RoomParams(cfg.init_t60, cfg.init_drr,
                                                   cfg.frame_increment))
        g0, b0 = reverb.ab_to_gamma_beta(a, b)
        self.gamma_m = np.full(k_bins, g0)
        self.gamma_v = np.full(k_bins, cfg.init_param_variance)
        self.beta_m = np.full(k_bins, b0)
        self.beta_v = np.full(k_bins, cfg.init_param_variance)
        self.s_post_m = first_log.copy()
        self.s_post_v = np.full(k_bins, cfg.init_param_variance)


def _advance(fs: _FilterState, y, n_mean, n_var, coeffs, resid, loc_mean,
             prior_gm, prior_gv, prior_bm, prior_bv, prior_mask,
             cfg: EnhancerConfig, diag: Diagnostics, update_mask=None):
    """One frame of the cascade for all bins. Returns the trace row dict.

    update_mask, a (bins,) bool array, selects the bins whose decay is
    informative in this frame; steps 9-12 (the r -> old/new split and the
    gamma/beta line updates) run on those bins only, and the others keep
    their gamma/beta priors with fallback bit 4 clear. None updates every
    bin. Bins never interact, so the results on a bin do not depend on
    which other bins are present.
    """
    kg, kp, ku, ko = cfg.k_gauss, cfg.k_phase, cfg.k_u, cfg.k_obs

    # speech KF prediction + decorrelation
    sm, sc = speech.predict_arrays(fs.s_mean, fs.s_cov, coeffs, resid, loc_mean)
    head_m, head_v, tail_m, tail_c, c = speech.decorrelate_arrays(sm, sc)
    head_v = np.maximum(head_v, 0.0)

    # steps 1-2: random walk + decay priors
    gm, gv = fs.gamma_m, fs.gamma_v + cfg.q_gamma
    bm, bv = fs.beta_m, fs.beta_v + cfg.q_beta
    if prior_mask is not None and np.any(prior_mask):
        fgm, fgv = lognorm.fuse_moments(gm, gv, prior_gm, prior_gv)
        fbm, fbv = lognorm.fuse_moments(bm, bv, prior_bm, prior_bv)
        gm = np.where(prior_mask, fgm, gm)
        gv = np.where(prior_mask, fgv, gv)
        bm = np.where(prior_mask, fbm, bm)
        bv = np.where(prior_mask, fbv, bv)
    gm = reverb.clamp_gamma(gm)

    # steps 3-4: old/new reverberation priors
    dm, dv = gm + fs.r_mean, gv + fs.r_var
    em, ev = bm + fs.s_post_m, bv + fs.s_post_v

    # step 5: reverberation prior; step 6: total disturbance prior
    rm, rv = lognorm.logsum_moments(dm, dv, em, ev, kg, kp, diag)
    zm, zv = lognorm.logsum_moments(rm, rv, n_mean, n_var, kg, kp, diag)

    # step 7: scalar observation split y -> (s, z)
    spm, spv, zpm, zpv, fb7 = lognorm.split_scalar_obs(
        head_m, head_v, zm, zv, y, k_u=ku, k_phase=kp, diag=diag)

    # recorrelate; smoothed previous-frame speech
    new_s_mean, new_s_cov = speech.recorrelate_arrays(spm, spv, tail_m, tail_c, c)
    if cfg.p >= 2:
        sprev_m = new_s_mean[:, 1]
        sprev_v = np.maximum(new_s_cov[:, 1, 1], 0.0)
    else:
        sprev_m, sprev_v = fs.s_post_m, fs.s_post_v

    # step 8: distributed split z -> (r, n); the n posterior is unused,
    # so only the r posterior is computed
    rpm, rpv, _, _, fb8 = lognorm.split_distributed_obs(
        rm, rv, n_mean, n_var, zpm, zpv, k_u=ku, k_phase=kp, k_obs=ko, diag=diag,
        b_moments=False)

    # steps 9-12 run on the gated bins only. Where a bin is
    # noise-dominated the old/new decomposition carries no information
    # about the decay, so gamma and beta keep their priors there. Step 10
    # runs even when no bin is gated, so every frame has two distributed
    # splits.
    idx = slice(None) if update_mask is None else np.flatnonzero(update_mask)
    gpm, gpv, bpm, bpv = gm.copy(), gv.copy(), bm.copy(), bv.copy()
    fb10 = np.zeros(fb8.shape, dtype=bool)

    # step 9: refreshed new-reverberation prior
    epm, epv = bm[idx] + sprev_m[idx], bv[idx] + sprev_v[idx]

    # step 10: distributed split r -> (old, new)
    dpm, dpv, eppm, eppv, fb10[idx] = lognorm.split_distributed_obs(
        dm[idx], dv[idx], epm, epv, rpm[idx], rpv[idx],
        k_u=ku, k_phase=kp, k_obs=ko, diag=diag)

    # steps 11-12: straight-line constrained updates of gamma and beta
    gpm[idx], gpv[idx], _, _ = lognorm.line_constrained_update(
        gm[idx], gv[idx], fs.r_mean[idx], fs.r_var[idx], dpm, dpv)
    bpm[idx], bpv[idx], _, _ = lognorm.line_constrained_update(
        bm[idx], bv[idx], sprev_m[idx], sprev_v[idx], eppm, eppv)
    gpm = reverb.clamp_gamma(gpm)

    # step 13: shift posteriors to priors
    fs.s_mean, fs.s_cov = new_s_mean, new_s_cov
    fs.s_post_m, fs.s_post_v = spm, spv
    fs.r_mean, fs.r_var = rpm, rpv
    fs.gamma_m, fs.gamma_v = gpm, gpv
    fs.beta_m, fs.beta_v = bpm, bpv

    t60 = -3.0 * np.log(10.0) * cfg.frame_increment / gpm
    drr = 10.0 * np.log10(np.maximum(
        (1.0 - np.exp(2.0 * gpm)) / np.exp(2.0 * bpm), 1e-300))
    flags = fb7.astype(int) | (fb8.astype(int) << 1) | (fb10.astype(int) << 2)
    return {
        "s_mean": spm, "s_var": spv, "r_mean": rpm, "r_var": rpv,
        "z_mean": zpm, "z_var": zpv, "gamma_mean": gpm, "gamma_var": gpv,
        "beta_mean": bpm, "beta_var": bpv, "t60_est": t60, "drr_est": drr,
        "fallback_flags": flags,
    }


def _decay_run_lengths(frame_energy):
    """Length of the maximal strictly-decreasing run of the broadband
    frame energy ending at each frame; (T,) ints.

    Detection uses the energy summed across bins so that per-bin
    magnitude fluctuations do not truncate (or, worse, select for)
    decay runs; per-bin gating happens at fit time instead.
    """
    e = np.asarray(frame_energy, dtype=float)
    run = np.ones(len(e), dtype=int)
    for t in range(1, len(e)):
        if e[t] < e[t - 1]:
            run[t] = run[t - 1] + 1
    return run


def _fdr_priors_at(j, m, z_fdr, gate, cfg: EnhancerConfig, max_len=100):
    """Decay-line priors from the FDR of length m ending at frame j.

    z_fdr is the (T, K) denoised log-magnitude; gate is the per-bin
    RNR inclusion mask. Returns (gm, gv, bm, bv, mask). The FDR's first
    frame is the energy peak. The first fdr_skip frames after the peak
    still carry windowed-out speech and are excluded from the fit; per
    bin, the fit stops at the first frame that fails the RNR gate. The
    line's intercept is referenced to the frame after the peak, so
    beta = intercept - peak value.
    """
    k_bins = z_fdr.shape[1]
    gm = np.zeros(k_bins)
    gv = np.ones(k_bins)
    bm = np.zeros(k_bins)
    bv = np.ones(k_bins)
    mask = np.zeros(k_bins, dtype=bool)
    m = min(int(m), j + 1, max_len)
    skip = max(int(cfg.fdr_skip), 1)
    if m < max(cfg.min_fdr_length, skip + 3):
        return gm, gv, bm, bv, mask
    sigma_r2 = reverb.FDR_R_VARIANCE
    l = cfg.frame_increment
    win = z_fdr[j - m + 1:j + 1]                # (m, K)
    wg = gate[j - m + 1:j + 1]                  # (m, K) inclusion mask
    # leading gated prefix: frame count before the first gate failure
    lead = np.where(wg.all(axis=0), m, np.argmin(wg, axis=0))
    idx = np.arange(m)
    w = ((idx[:, None] >= skip) & (idx[:, None] < lead[None, :])).astype(float)
    x = (idx - 1.0) * l                          # x = 0 one frame after the peak
    n = w.sum(axis=0)
    sx = (w * x[:, None]).sum(axis=0)
    sxx = (w * (x * x)[:, None]).sum(axis=0)
    sy = (w * win).sum(axis=0)
    sxy = (w * x[:, None] * win).sum(axis=0)
    det0 = n * sxx - sx * sx
    enough = n >= max(cfg.min_fdr_length - 1, 3)
    det0 = np.where(det0 > 0, det0, 1.0)
    theta1 = (n * sxy - sx * sy) / det0
    theta2 = np.where(n > 0, (sy - theta1 * sx) / np.maximum(n, 1.0), 0.0)
    var1 = sigma_r2 * n / det0
    var2 = sigma_r2 * sxx / det0
    ok = enough & (theta1 < 0)
    gm[ok] = l * theta1[ok]
    gv[ok] = l * l * var1[ok]
    # the intercept-minus-peak construction assumes the decay starts
    # from the last excited frame; residual contamination of the peak by
    # the accumulated tail keeps this prior weaker than the slope prior
    bm[ok] = theta2[ok] - win[0][ok]
    bv[ok] = var2[ok] + sigma_r2 + cfg.fdr_beta_extra_var
    mask[ok] = True
    return gm, gv, bm, bv, mask


def enhance_frames(spec: SpectralFrames, cfg: EnhancerConfig | None = None):
    """Run the tracking cascade on STFT frames.

    Returns (enhanced SpectralFrames, Trace, Diagnostics). This is the
    core of enhance(); it also serves callers whose data originates in
    the STFT domain.
    """
    cfg = cfg or EnhancerConfig()
    y_log = log_magnitude(spec)
    t_frames, k_bins = y_log.shape
    mag = spec.magnitude()

    n_mean_all, n_var = track_noise(
        mag ** 2, cfg.frame_increment, cfg.noise_window_s,
        cfg.noise_smooth, cfg.noise_bias, cfg.noise_variance)

    precleaned = speech.log_mmse_preclean(
        mag, np.exp(2.0 * n_mean_all), gain_floor_db=cfg.preclean_gain_floor_db)
    pre_log = np.log(np.maximum(precleaned, 1e-300))
    coeffs, resid, loc_mean = speech.estimate_ar(
        pre_log, cfg.p, cfg.modulation_frame, cfg.frame_increment)

    # decay-region detection on broadband energy; per-bin RNR gate for fits
    gate = (pre_log - n_mean_all) > cfg.rnr_threshold_db * reverb.DB_TO_NATS
    frame_energy = np.log(np.maximum(np.sum(precleaned ** 2, axis=1), 1e-300))
    # a 3-frame moving average keeps frame-to-frame wiggle from cutting
    # genuine decay runs short
    frame_energy = np.convolve(frame_energy, np.ones(3) / 3.0, mode="same")
    run_len = _decay_run_lengths(frame_energy)

    diag = Diagnostics()
    fs = _FilterState(k_bins, cfg, pre_log[0], n_mean_all[0])
    trace = {f: np.zeros((t_frames, k_bins)) for f in TRACE_FIELDS}
    trace["fallback_flags"] = np.zeros((t_frames, k_bins), dtype=int)

    for t in range(t_frames):
        j = min(t + cfg.look_ahead, t_frames - 1)
        pg, pgv, pb, pbv, pmask = _fdr_priors_at(j, run_len[j], pre_log, gate, cfg)
        row = _advance(fs, y_log[t], n_mean_all[t], n_var,
                       coeffs[t], resid[t], loc_mean[t],
                       pg, pgv, pb, pbv, pmask, cfg, diag,
                       update_mask=gate[t])
        for f in TRACE_FIELDS:
            trace[f][t] = row[f]

    out_log = trace["s_mean"] + (0.5 * trace["s_var"] if cfg.lognormal_correction else 0.0)
    gain = np.exp(out_log - y_log)
    gain = np.clip(gain, 10.0 ** (cfg.gain_floor_db / 20.0), 1.0)
    enhanced = SpectralFrames(gain * spec.frames, spec.config, spec.sample_rate)
    return enhanced, Trace(trace, cfg.frame_increment), diag


def enhance(audio: AudioBuffer, cfg: EnhancerConfig | None = None):
    """Enhance one utterance. Returns (enhanced AudioBuffer, Trace, Diagnostics)."""
    cfg = cfg or EnhancerConfig()
    if audio.sample_rate != 16000:
        raise ValueError(f"unsupported sample rate {audio.sample_rate}; need 16000")
    spec = stft(audio, cfg.analysis())
    enhanced, trace, diag = enhance_frames(spec, cfg)
    out = istft(enhanced)
    samples = np.zeros(len(audio.samples))
    n_copy = min(len(out.samples), len(samples))
    samples[:n_copy] = out.samples[:n_copy]
    return AudioBuffer(samples, audio.sample_rate), trace, diag


def process_frame(state: BinState, y: float, noise: NoiseBelief, ar: ARModel,
                  cfg: EnhancerConfig | None = None, priors=None,
                  diag: Diagnostics | None = None):
    """Single-bin, single-frame cascade (the scalar contract).

    priors, when given, is the (gamma, beta) LogGaussian pair from the
    decay-region fit. Returns (new BinState, speech posterior, TraceRecord).
    """
    cfg = cfg or EnhancerConfig()
    diag = diag if diag is not None else Diagnostics()
    fs = _FilterState.__new__(_FilterState)
    fs.s_mean = state.speech.mean[None].copy()
    fs.s_cov = state.speech.covariance[None].copy()
    fs.r_mean = np.array([state.reverb_r.mean])
    fs.r_var = np.array([state.reverb_r.variance])
    fs.gamma_m = np.array([state.params.gamma.mean])
    fs.gamma_v = np.array([state.params.gamma.variance])
    fs.beta_m = np.array([state.params.beta.mean])
    fs.beta_v = np.array([state.params.beta.variance])
    fs.s_post_m = np.array([state.last_speech_posterior.mean])
    fs.s_post_v = np.array([state.last_speech_posterior.variance])

    if priors is None:
        pmask = None
        pg = pgv = pb = pbv = None
    else:
        pmask = np.array([True])
        pg = np.array([priors[0].mean])
        pgv = np.array([priors[0].variance])
        pb = np.array([priors[1].mean])
        pbv = np.array([priors[1].variance])

    row = _advance(fs, np.array([float(y)]), np.array([noise.mean]),
                   noise.variance, ar.coefficients[None],
                   np.array([ar.residual_variance]), np.array([ar.local_mean]),
                   pg, pgv, pb, pbv, pmask, cfg, diag)
    new_state = BinState(
        speech=SpeechState(fs.s_mean[0], fs.s_cov[0]),
        reverb_r=LogGaussian(float(fs.r_mean[0]), float(fs.r_var[0])),
        params=ReverbParams(
            LogGaussian(float(fs.gamma_m[0]), float(fs.gamma_v[0])),
            LogGaussian(float(fs.beta_m[0]), float(fs.beta_v[0]))),
        last_speech_posterior=LogGaussian(float(fs.s_post_m[0]), float(fs.s_post_v[0])),
        smoothed_prev_speech=LogGaussian(float(fs.s_mean[0][1]) if cfg.p >= 2 else float(fs.s_post_m[0]),
                                         float(max(fs.s_cov[0][1, 1], 0.0)) if cfg.p >= 2 else float(fs.s_post_v[0])),
    )
    s_post = LogGaussian(float(row["s_mean"][0]), float(row["s_var"][0]))
    rec = TraceRecord(frame=0, bin=0,
                      **{f: (int(row[f][0]) if f == "fallback_flags" else float(row[f][0]))
                         for f in TRACE_FIELDS})
    return new_state, s_post, rec


def initial_bin_state(cfg: EnhancerConfig, first_log: float, noise_mean: float) -> BinState:
    """Convenience initialiser matching the batch path's per-bin start state."""
    fs = _FilterState(1, cfg, np.array([first_log]), np.array([noise_mean]))
    return BinState(
        speech=SpeechState(fs.s_mean[0], fs.s_cov[0]),
        reverb_r=LogGaussian(float(fs.r_mean[0]), float(fs.r_var[0])),
        params=ReverbParams(LogGaussian(float(fs.gamma_m[0]), float(fs.gamma_v[0])),
                            LogGaussian(float(fs.beta_m[0]), float(fs.beta_v[0]))),
        last_speech_posterior=LogGaussian(float(fs.s_post_m[0]), float(fs.s_post_v[0])),
        smoothed_prev_speech=LogGaussian(float(fs.s_post_m[0]), float(fs.s_post_v[0])),
    )
