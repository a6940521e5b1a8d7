"""Per-frame, per-bin orchestration of the tracking cascade.

Each frame runs: speech KF prediction + decorrelation, random-walk
prediction of the reverberation parameters with decay-region priors,
prediction of the reverberation and total-disturbance log-spectra,
then the observation-driven decompositions (y -> s, z; z -> r, n;
r -> old/new reverberation) and straight-line constrained updates of
gamma and beta. All bins advance in lockstep (vectorised); a bounded
look-ahead of C frames feeds the decay priors. One generator,
_front_end, runs the stages ahead of the cascade (noise tracking,
pre-cleaning, AR fits, decay-run detection) a block of frames at a time
just ahead of it and yields each frame's inputs, RNR gate and decay
priors. Each frame's gain is applied as soon as the frame is done, so
nothing but the input, the Trace and the output grows with the number
of frames. The r -> old/new split and the gamma/beta updates (steps
10-12) run only on the bins that pass the per-bin RNR gate in that
frame; the other bins keep their gamma and beta priors.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import lognorm, reverb, speech
from .lognorm import Diagnostics
from .stft import (SAMPLE_RATE, AnalysisConfig, AudioBuffer, SpectralFrames,
                   floored_magnitude, istft, stft)


@dataclass
class EnhancerConfig:
    p: int = 2
    q_gamma: float = 1e-4
    q_beta: float = 4e-4
    look_ahead: int = 3
    gain_floor_db: float = -14.0
    noise_variance: float = 0.5
    preclean_gain_floor_db: float = speech.PRECLEAN_GAIN_FLOOR_DB
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.type is int and (not isinstance(value, numbers.Integral)
                                  or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p!r}")
        for name in ("look_ahead", "fdr_skip", "min_fdr_length"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("frame_length", "frame_increment", "modulation_frame",
                     "noise_window_s", "noise_bias"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not 0 <= self.noise_smooth < 1:
            raise ValueError(f"noise_smooth must lie in [0, 1), got {self.noise_smooth!r}")
        if not (self.q_gamma >= 0 and self.q_beta >= 0):
            raise ValueError("drift variances q_gamma, q_beta must be >= 0")
        if not self.init_param_variance >= 0:
            raise ValueError("init_param_variance must be >= 0")
        if not self.noise_variance > 0:
            raise ValueError("noise_variance must be > 0")
        # a room the filter cannot start from fails here, naming its fields
        try:
            reverb.ab_to_gamma_beta(*reverb.room_to_ab(reverb.RoomParams(
                self.init_t60, self.init_drr, self.frame_increment)))
        except ValueError as exc:
            raise ValueError(f"init_t60 = {self.init_t60!r} and init_drr = {self.init_drr!r} "
                             f"give no initial room: {exc}") from None

    def analysis(self):
        return AnalysisConfig(self.frame_length, self.frame_increment)


TRACE_FIELDS = [
    "s_mean", "s_var", "r_mean", "r_var", "z_mean", "z_var",
    "gamma_mean", "gamma_var", "beta_mean", "beta_var",
    "t60_est", "drr_est", "fallback_flags",
]


@dataclass
class Trace:
    """Per-frame, per-bin posterior log as (T, K) arrays.

    Every field is float64 except fallback_flags, a uint8 that holds one
    bit per cascade step that fell back: 1 for step 7, 2 for step 8 and
    4 for step 10.
    """

    arrays: dict

    @property
    def n_frames(self):
        return self.arrays["s_mean"].shape[0]

    @property
    def n_bins(self):
        return self.arrays["s_mean"].shape[1]

    def write_csv(self, path, bins=None):
        """Write the rows of the given bins (all by default) as CSV.

        Raises ValueError, before the file is opened, if a bin lies
        outside 0..K-1.
        """
        bins = range(self.n_bins) if bins is None else list(bins)
        for b in bins:
            if not 0 <= b < self.n_bins:
                raise ValueError(f"bin {b} is outside 0..{self.n_bins - 1}")
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
                bias=1.5, state=None):
    """Minimum-statistics style noise tracker.

    Sliding-window minimum of exponentially smoothed power over window_s,
    bias-compensated by a fixed factor. Returns the noise mean, (T, K) in
    nats of log-amplitude; the cascade takes its variance from the
    config's noise_variance. state, when given, is a dict carried
    from the call on the previous block of frames (empty before the first
    block) and is updated in place; it keeps the smoother's last value
    and the last min(w - 1, frames seen) smoothed rows, for a window of w
    frames: a window longer than the frames seen has their minimum.

    The window minimum is taken by doubling (_window_min): at most
    floor(log2 w) np.minimum passes over the carried rows and the block,
    then one pass that joins two overlapping power-of-two spans. A minimum
    is exact, so this gives the same bits as any other way of taking it.
    """
    power = np.asarray(noisy_power, dtype=float)
    state = {} if state is None else state
    smoothed = np.empty_like(power)
    acc = state.get("acc", power[0])
    for t in range(power.shape[0]):
        acc = smooth * acc + (1 - smooth) * power[t]
        smoothed[t] = acc
    w = max(int(round(window_s / frame_increment)), 1)
    # causal window [t-w+1, t] of at most the frames seen: prepend the carried
    # rows and copies of frame 0, so that row t is the minimum of pad[t:t + span]
    history = state.get("history", smoothed[:0])
    h, n = history.shape[0], smoothed.shape[0]
    span = min(w, h + n)
    first = history[:1] if h else smoothed[:1]
    pad = np.concatenate([np.repeat(first, span - 1 - h, axis=0), history, smoothed])
    mins = _window_min(pad, span)
    state["acc"] = acc
    state["history"] = pad[pad.shape[0] - min(w - 1, h + n):].copy()
    est = bias * np.maximum(mins, 1e-300)
    return 0.5 * np.log(est)


def _window_min(x, w):
    """min(x[j:j + w]) along axis 0, for j = 0 .. len(x) - w.

    After each doubling pass, row j holds the minimum of the next `span`
    rows from j on; the last pass joins the spans at j and j + w - span,
    which overlap and together cover the w rows.
    """
    span = 1
    while 2 * span <= w:
        x = np.minimum(x[:-span], x[span:])
        span *= 2
    return np.minimum(x[:x.shape[0] - (w - span)], x[w - span:])


class _FilterState:
    """Vectorised filter state across K bins; the head of the speech
    state, s_mean[:, 0] and s_cov[:, 0, 0], is the last speech posterior."""

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


def _advance(fs: _FilterState, y, n_mean, n_var, coeffs, resid, loc_mean,
             prior_gm, prior_gv, prior_bm, prior_bv, prior_mask,
             cfg: EnhancerConfig, diag: Diagnostics, update_mask):
    """One frame of the cascade for all bins. Returns the trace row dict.

    n_var is the noise log-magnitude's variance, one scalar for every bin.
    prior_mask, a (bins,) bool array, selects the bins whose gamma/beta
    predictions are fused with the decay priors prior_gm...prior_bv.
    update_mask, a (bins,) bool array, selects the bins whose decay is
    informative in this frame; steps 9-12 (the r -> old/new split and the
    gamma/beta line updates) run on those bins only, and the others keep
    their gamma/beta priors with fallback bit 4 clear. In a frame where no
    bin is selected, steps 9-12 do not run at all.
    Bins never interact, so the results on a bin do not depend on which
    other bins are present.
    """
    # one variance per bin, so that no cascade operation has to broadcast
    n_var = np.full(n_mean.shape, n_var, dtype=float)

    # speech KF prediction + decorrelation
    sm, sc = speech.predict_arrays(fs.s_mean, fs.s_cov, coeffs, resid, loc_mean)
    head_m, head_v, tail_m, tail_c, c = speech.decorrelate_arrays(sm, sc)
    head_v = np.maximum(head_v, 0.0)

    # steps 1-2: random walk + decay priors
    gm, gv = fs.gamma_m, fs.gamma_v + cfg.q_gamma
    bm, bv = fs.beta_m, fs.beta_v + cfg.q_beta
    if prior_mask.any():
        fgm, fgv = lognorm.fuse_moments(gm, gv, prior_gm, prior_gv)
        fbm, fbv = lognorm.fuse_moments(bm, bv, prior_bm, prior_bv)
        gm = np.where(prior_mask, fgm, gm)
        gv = np.where(prior_mask, fgv, gv)
        bm = np.where(prior_mask, fbm, bm)
        bv = np.where(prior_mask, fbv, bv)
    gm = reverb.clamp_gamma(gm)

    # steps 3-4: old/new reverberation priors, from the last speech posterior
    post_m, post_v = fs.s_mean[:, 0], fs.s_cov[:, 0, 0]
    dm, dv = gm + fs.r_mean, gv + fs.r_var
    em, ev = bm + post_m, bv + post_v

    # step 5: reverberation prior; step 6: total disturbance prior
    rm, rv = lognorm.logsum_moments(dm, dv, em, ev, diag=diag)
    zm, zv = lognorm.logsum_moments(rm, rv, n_mean, n_var, diag=diag)

    # step 7: scalar observation split y -> (s, z)
    spm, spv, zpm, zpv, fb7 = lognorm.split_scalar_obs(
        head_m, head_v, zm, zv, y, diag=diag)

    # recorrelate; smoothed previous-frame speech
    new_s_mean, new_s_cov = speech.recorrelate_arrays(spm, spv, tail_m, tail_c, c)
    if cfg.p >= 2:
        sprev_m = new_s_mean[:, 1]
        sprev_v = np.maximum(new_s_cov[:, 1, 1], 0.0)
    else:
        sprev_m, sprev_v = post_m, post_v

    # step 8: distributed split z -> (r, n); the n posterior is unused,
    # so only the r posterior is computed
    rpm, rpv, _, _, fb8 = lognorm.split_distributed_obs(
        rm, rv, n_mean, n_var, zpm, zpv, diag=diag, b_moments=False)

    # steps 9-12 run on the gated bins only. Where a bin is
    # noise-dominated the old/new decomposition carries no information
    # about the decay, so gamma and beta keep their priors there. In a
    # frame with no gated bin they do not run, so such a frame has one
    # distributed split (step 8), not two.
    idx = np.flatnonzero(update_mask)
    gpm, gpv, bpm, bpv = gm.copy(), gv.copy(), bm.copy(), bv.copy()
    fb10 = np.zeros(fb8.shape, dtype=bool)
    if idx.size:
        # step 9: refreshed new-reverberation prior
        epm, epv = bm[idx] + sprev_m[idx], bv[idx] + sprev_v[idx]

        # step 10: distributed split r -> (old, new)
        dpm, dpv, eppm, eppv, fb10[idx] = lognorm.split_distributed_obs(
            dm[idx], dv[idx], epm, epv, rpm[idx], rpv[idx], diag=diag)

        # steps 11-12: straight-line constrained updates of gamma and beta
        gpm[idx], gpv[idx], _, _ = lognorm.line_constrained_update(
            gm[idx], gv[idx], fs.r_mean[idx], fs.r_var[idx], dpm, dpv)
        bpm[idx], bpv[idx], _, _ = lognorm.line_constrained_update(
            bm[idx], bv[idx], sprev_m[idx], sprev_v[idx], eppm, eppv)
    gpm = reverb.clamp_gamma(gpm)

    # step 13: shift posteriors to priors
    fs.s_mean, fs.s_cov = new_s_mean, new_s_cov
    fs.r_mean, fs.r_var = rpm, rpv
    fs.gamma_m, fs.gamma_v = gpm, gpv
    fs.beta_m, fs.beta_v = bpm, bpv

    t60, drr = reverb.gamma_beta_to_room(gpm, bpm, cfg.frame_increment)
    flags = fb7.astype(np.uint8) | (fb8.astype(np.uint8) << 1) | (fb10.astype(np.uint8) << 2)
    return {
        "s_mean": spm, "s_var": spv, "r_mean": rpm, "r_var": rpv,
        "z_mean": zpm, "z_var": zpv, "gamma_mean": gpm, "gamma_var": gpv,
        "beta_mean": bpm, "beta_var": bpv, "t60_est": t60, "drr_est": drr,
        "fallback_flags": flags,
    }


def _decay_run_lengths(frame_energy, state=None):
    """Length of the maximal strictly-decreasing run of the broadband
    frame energy ending at each frame; (T,) ints.

    Detection uses the energy summed across bins so that per-bin
    magnitude fluctuations do not truncate (or, worse, select for)
    decay runs; per-bin gating happens at fit time instead. state, when
    given, is a dict carried from the call on the previous block of
    frames (empty before the first block) and is updated in place.
    """
    e = np.asarray(frame_energy, dtype=float)
    state = {} if state is None else state
    run = np.ones(len(e), dtype=int)
    prev_e, prev_run = state.get("energy", np.inf), state.get("run", 0)
    for t in range(len(e)):
        if e[t] < prev_e:
            run[t] = prev_run + 1
        prev_e, prev_run = e[t], run[t]
    state["energy"], state["run"] = prev_e, prev_run
    return run


_ENERGY_KERNEL = np.ones(3) / 3.0


def _smooth_energy(frame_energy, state=None, final=True):
    """Centred 3-frame moving average of the broadband frame energy,
    zero-padded at both ends.

    A frame's average needs the next frame. So with a carried state (a
    dict as in _decay_run_lengths) a call returns the averages of the
    frames not yet returned up to the one before the last frame seen, and
    through the last frame when final is true. The state holds the last
    two energies (at first the left pad's zero), and the final call adds
    the right pad's zero; every average then comes from one mode "valid"
    np.convolve, so any split into blocks gives identical values.
    """
    state = {} if state is None else state
    x = np.concatenate([state.get("tail", np.zeros(1)), frame_energy, np.zeros(int(final))])
    state["tail"] = x[-2:].copy()
    return np.convolve(x, _ENERGY_KERNEL, mode="valid") if len(x) >= 3 else np.empty(0)


# the longest FDR the decay priors fit, in frames
_FDR_MAX_LEN = 100


def _fdr_priors_at(j, m, z_fdr, gate, cfg: EnhancerConfig):
    """Decay-line priors from the FDR of length m ending at row j.

    z_fdr holds rows of the (T, K) denoised log-magnitude and gate the
    matching rows of the per-bin RNR inclusion mask; row j is the FDR's
    last frame. The rows must start at frame 0 or reach _FDR_MAX_LEN rows
    back from j, so that no FDR the fit can use is cut short. Returns (gm,
    gv, bm, bv, mask). The FDR's first frame is the energy peak. The first
    fdr_skip frames after the peak still carry windowed-out speech and are
    excluded from the fit; per bin, the fit stops at the first frame that
    fails the RNR gate. The line's intercept is referenced to the frame
    after the peak, so beta = intercept - peak value.
    """
    k_bins = z_fdr.shape[1]
    gm = np.zeros(k_bins)
    gv = np.ones(k_bins)
    bm = np.zeros(k_bins)
    bv = np.ones(k_bins)
    mask = np.zeros(k_bins, dtype=bool)
    m = min(int(m), j + 1, _FDR_MAX_LEN)
    skip = max(cfg.fdr_skip, 1)
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


# frames the stages ahead of the cascade process per call
_BLOCK = 32


def _front_end(frames, cfg: EnhancerConfig):
    """The stages ahead of the cascade, run block by block with carried state.

    The noise tracker, the Log-MMSE pre-clean, the AR fits, the RNR gate,
    the smoothed broadband energy and the decay-run counter advance one
    block of frames at a time, just far enough ahead of the cascade for
    its look-ahead. For each frame t this yields (pre_log, y, n_mean,
    coeffs, resid, loc_mean, gate, priors): the frame's pre-cleaned
    log-magnitude, from which (with n_mean) the filter state starts at
    t = 0; its observation, noise mean and AR model; its RNR gate; and the
    _fdr_priors_at tuple of its decay priors, fitted at frame t +
    look_ahead. Only rows the cascade or the fits can still read are kept
    (the per-frame inputs from frame t on, pre_log and gate from frame
    t - _FDR_MAX_LEN + 1 on), so memory does not grow with the input length.
    """
    n_frames = frames.shape[0]
    states = {k: {} for k in ("noise", "preclean", "ar", "energy", "runs")}
    rows, base = {}, 0          # per-frame cascade inputs and decay-run lengths
    hist, hist_base = {}, 0     # pre-cleaned log-magnitude and RNR gate
    ready = 0                   # frames processed
    for t in range(n_frames):
        # the priors read the run length at t + look_ahead, and its
        # smoothed energy reads the frame after that
        need = min(t + cfg.look_ahead + 2, n_frames)
        if ready < need:
            lo = max(t - _FDR_MAX_LEN + 1, 0)
            rows = {k: v[t - base:] for k, v in rows.items()}
            hist = {k: v[lo - hist_base:] for k, v in hist.items()}
            base, hist_base = t, lo
        while ready < need:
            b = min(ready + _BLOCK, n_frames)
            _front_block(frames[ready:b], cfg, states, rows, hist, final=b == n_frames)
            ready = b
        i, h = t - base, t - hist_base
        j = min(t + cfg.look_ahead, n_frames - 1)
        priors = _fdr_priors_at(j - hist_base, rows["runs"][j - base],
                                hist["pre_log"], hist["gate"], cfg)
        yield (hist["pre_log"][h], rows["y_log"][i], rows["n_mean"][i], rows["coeffs"][i],
               rows["resid"][i], rows["loc_mean"][i], hist["gate"][h], priors)


def _front_block(frames, cfg: EnhancerConfig, states, rows, hist, final):
    """The stages ahead of the cascade on one block of frames, with the
    carried states; appends the block's per-frame inputs and decay-run
    lengths to rows and its pre_log and gate to hist. Its block-sized
    temporaries are freed on return, not kept alive across a yield."""
    mag = floored_magnitude(frames)
    n_mean = track_noise(mag ** 2, cfg.frame_increment, cfg.noise_window_s,
                         cfg.noise_smooth, cfg.noise_bias, state=states["noise"])
    precleaned = speech.log_mmse_preclean(
        mag, np.exp(2.0 * n_mean), gain_floor_db=cfg.preclean_gain_floor_db,
        state=states["preclean"])
    pre_log = np.log(np.maximum(precleaned, 1e-300))
    coeffs, resid, loc_mean = speech.estimate_ar(
        pre_log, cfg.p, cfg.modulation_frame, cfg.frame_increment, state=states["ar"])
    # decay-region detection on broadband energy; per-bin RNR gate for fits
    gate = (pre_log - n_mean) > cfg.rnr_threshold_db * reverb.DB_TO_NATS
    energy = np.log(np.maximum(np.sum(precleaned ** 2, axis=1), 1e-300))
    # a 3-frame moving average keeps frame-to-frame wiggle from cutting
    # genuine decay runs short
    energy = _smooth_energy(energy, states["energy"], final=final)
    # the run lengths are one frame behind the other rows until the end
    _append(rows, y_log=np.log(mag), n_mean=n_mean, coeffs=coeffs, resid=resid,
            loc_mean=loc_mean, runs=_decay_run_lengths(energy, states["runs"]))
    _append(hist, pre_log=pre_log, gate=gate)


def _append(store, **blocks):
    for k, v in blocks.items():
        store[k] = np.concatenate([store[k], v]) if k in store else v


def enhance_frames(spec: SpectralFrames, cfg: EnhancerConfig | None = None):
    """Run the tracking cascade on STFT frames.

    Returns (enhanced SpectralFrames, Trace, Diagnostics). This is the
    core of enhance(); it also serves callers whose data originates in
    the STFT domain. The spectrum needs at least one frame, analysed
    with cfg's frame_length and frame_increment, from which every time
    constant of the cascade is taken. Apart from its input, the Trace and
    the output spectrum, its memory does not grow with the number of
    frames.
    """
    cfg = cfg or EnhancerConfig()
    t_frames, k_bins = spec.frames.shape
    if t_frames == 0:
        raise ValueError("enhance_frames needs at least one frame")
    if spec.config != cfg.analysis():
        raise ValueError(f"spectrum analysed with {spec.config}, but the config's "
                         f"time constants assume {cfg.analysis()}")
    diag = Diagnostics()
    trace = {f: np.zeros((t_frames, k_bins)) for f in TRACE_FIELDS}
    trace["fallback_flags"] = np.zeros((t_frames, k_bins), dtype=np.uint8)
    out = np.empty_like(spec.frames)
    gain_floor = 10.0 ** (cfg.gain_floor_db / 20.0)

    frames_in = _front_end(spec.frames, cfg)
    for t, (pre_log, y, n_mean, coeffs, resid, loc_mean, gate, priors) in enumerate(frames_in):
        if t == 0:
            fs = _FilterState(k_bins, cfg, pre_log, n_mean)
        row = _advance(fs, y, n_mean, cfg.noise_variance, coeffs, resid, loc_mean,
                       *priors, cfg, diag, update_mask=gate)
        for f in TRACE_FIELDS:
            trace[f][t] = row[f]
        out_log = row["s_mean"] + (0.5 * row["s_var"] if cfg.lognormal_correction else 0.0)
        out[t] = np.clip(np.exp(out_log - y), gain_floor, 1.0) * spec.frames[t]

    enhanced = SpectralFrames(out, spec.config, spec.sample_rate)
    return enhanced, Trace(trace), diag


def enhance(audio: AudioBuffer, cfg: EnhancerConfig | None = None):
    """Enhance one utterance. Returns (enhanced AudioBuffer, Trace, Diagnostics)."""
    cfg = cfg or EnhancerConfig()
    if audio.sample_rate != SAMPLE_RATE:
        raise ValueError(f"unsupported sample rate {audio.sample_rate}; need {SAMPLE_RATE}")
    spec = stft(audio, cfg.analysis())
    enhanced, trace, diag = enhance_frames(spec, cfg)
    del spec                        # synthesis needs only the enhanced spectrum
    out = istft(enhanced)
    samples = np.zeros(len(audio.samples))
    n_copy = min(len(out.samples), len(samples))
    samples[:n_copy] = out.samples[:n_copy]
    return AudioBuffer(samples, audio.sample_rate), trace, diag
