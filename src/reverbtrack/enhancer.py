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
priors from one store of rows, which it trims to the rows a decay prior
can still read. Each frame's gain is applied as soon as the frame is
done, so nothing but the input, the Trace and the output grows with the
number of frames. No frame reads the T60/DRR estimates, so each group of bins
converts its stored gamma/beta once, after its last frame.

A bin that a step has nothing to update from keeps its priors through
that step, as a Kalman filter keeps its prediction through a missing
observation, and each such step runs through one helper, _on_bins, on
the bins its mask selects: the decay-prior fusion on the bins that have
a decay prior; steps 7-8 on the observed bins; steps 9-12 on the
observed bins that pass the per-bin RNR gate in that frame. A bin whose
magnitude sat at its frame's floor (stft.magnitude_floor) is not
observed: it has no value, only a bound. A skipped bin takes no
fallback, Diagnostics.floored_bins counts the floored ones, and a frame
of digital silence costs the predictions alone. The noise tracker takes
the observed mask, on every bin, and holds a floored bin's smoothed
power, so digital silence does not pull the noise mean down to the
floor, which would open the RNR gate on every bin for the tracker's
window after it.

No stage mixes bins but the decay-run detector's broadband energy, and no
sum of the cascade depends on how many bins share a call, so the bins
can run in groups (_bin_groups) at the bits of one group. There are two,
the contiguous halves, where this process can fork a child beside it
(_host_forks), nothing would miss the child's work (_watched) and the
spectrum has at least 64 bins and 16 frames; elsewhere one group holds
every bin. Each group has its own front end, which pre-cleans every bin
for the broadband energy, and its own filter state. One runner
(_run_groups) runs the first group in the caller; only a second group
forks a child, which runs at the same time, writes its columns into the
shared anonymous mmaps that back the returned arrays (_output_arrays)
and its Diagnostics counts into one more, and reports through its exit
status alone. A child that fails, for whatever reason, has its group run
again in the caller, with a RuntimeWarning. One group writes into numpy
arrays, which cost it less to write.
"""

import mmap
import numbers
import os
import signal
import sys
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import lognorm, reverb, speech
from .lognorm import Diagnostics
from .stft import (FRAME_INCREMENT, FRAME_SAMPLES, HOP_SAMPLES, AudioBuffer,
                   SpectralFrames, check_number, istft, magnitude_floor, stft)


# The cascade's fixed parameters. Each is read where it is used, never
# bound as a default, so that a script can patch it on the module.
AR_ORDER = 2                # frames in the speech state, the AR model's order
Q_GAMMA = 1e-4              # per-frame drift variance of gamma
Q_BETA = 4e-4               # per-frame drift variance of beta
INIT_PARAM_VARIANCE = 1.0   # initial variance of the speech state, gamma and beta
NOISE_VARIANCE = 0.5        # variance of the noise log-magnitude, nats^2
GAIN_FLOOR_DB = -14.0       # floor of the output gain
NOISE_SMOOTH = 0.9          # the noise tracker's smoothing weight
NOISE_BIAS = 1.5            # the noise tracker's bias factor on its minimum
FDR_SKIP = 2                # frames after an FDR's peak that its fit skips (at least 1)
FDR_BETA_EXTRA_VAR = 4.0    # variance added to beta's decay prior


@dataclass
class EnhancerConfig:
    look_ahead: int = 3
    init_t60: float = 0.5
    init_drr: float = 0.0
    noise_window_s: float = 1.5
    modulation_frame: float = 0.064

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not check_number(f.name, value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.type is int and (isinstance(value, bool)
                                  or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
        if self.look_ahead < 0:
            raise ValueError(f"look_ahead must be >= 0, got {self.look_ahead!r}")
        for name in ("modulation_frame", "noise_window_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
            # the windows are counted in frames, so that count must be finite
            with np.errstate(over="ignore"):
                frames = getattr(self, name) / FRAME_INCREMENT
            if not np.isfinite(frames):
                raise ValueError(f"{name} must be finite in frames of {FRAME_INCREMENT} s, "
                                 f"got {getattr(self, name)!r}")
        # a room the filter cannot start from fails here, naming its fields
        try:
            reverb.ab_to_gamma_beta(*reverb.room_to_ab(reverb.RoomParams(
                self.init_t60, self.init_drr)))
        except ValueError as exc:
            raise ValueError(f"init_t60 = {self.init_t60!r} and init_drr = {self.init_drr!r} "
                             f"give no initial room: {exc}") from None


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

        Raises ValueError, before the file is opened, if a bin is not an
        integer (a Python or numpy int, not a bool) or lies outside 0..K-1.
        """
        bins = range(self.n_bins) if bins is None else list(bins)
        for b in bins:
            if isinstance(b, bool) or not isinstance(b, (int, np.integer)):
                raise ValueError(f"bin {b!r} is not an integer")
            if not 0 <= b < self.n_bins:
                raise ValueError(f"bin {b} is outside 0..{self.n_bins - 1}")
        with open(path, "w", newline="") as fh:
            write_bin_rows(fh, {f: self.arrays[f] for f in TRACE_FIELDS}, bins)


def write_bin_rows(fh, arrays, bins):
    """Write CSV rows frame,bin,<one column per (T, K) array> to the open
    text file fh, after their header: every frame of each bin in turn,
    integer arrays as integers and floats to 6 significant digits."""
    fh.write("frame,bin," + ",".join(arrays) + "\n")
    fmt = ["%d", "%d"] + ["%d" if np.issubdtype(a.dtype, np.integer) else "%.6g"
                          for a in arrays.values()]
    t_frames = len(next(iter(arrays.values())))
    for b in bins:
        rows = np.column_stack([np.arange(t_frames), np.full(t_frames, b),
                                *(a[:, b] for a in arrays.values())])
        np.savetxt(fh, rows, fmt=fmt, delimiter=",")


def track_noise(noisy_power, window_s=1.5, state=None, observed=None):
    """Minimum-statistics style noise tracker.

    Sliding-window minimum over window_s of the power, exponentially
    smoothed with weight NOISE_SMOOTH, bias-compensated by the factor
    NOISE_BIAS. Returns the noise mean, (T, K) in nats of log-amplitude;
    the cascade takes its variance from NOISE_VARIANCE. state, when given,
    is a dict carried from the call on the previous block of frames (empty
    before the first block) and is updated in place; it keeps the smoother's last value
    and the last min(w - 1, frames seen) smoothed rows, for a window of w
    frames: a window longer than the frames seen has their minimum.

    observed, when given, is a (T, K) bool mask, false where the bin's
    magnitude sat at its frame's floor: such a power is a bound, not a
    value, so the smoother holds its last value there. None marks every
    bin observed. A bin not observed yet has no value to hold; it puts +inf
    into the window minimum, and while its whole window is +inf its mean
    reads its own frame's power, as a leading silence reads with every bin
    marked observed. Its smoother starts at its first observed power.

    The window minimum is taken by doubling (_window_min): at most
    floor(log2 w) np.minimum passes over the carried rows and the block,
    then one pass that joins two overlapping power-of-two spans. A minimum
    is exact, so this gives the same bits as any other way of taking it.

    The smoother's frame loop does only what the frame needs: the power's
    share (1 - NOISE_SMOOTH)*power is formed for the whole block, the test
    for bins not observed yet stops once every bin has been (a smoothed
    value turns infinite again only from an infinite power), and the hold
    of unobserved bins is skipped in a block where every bin is observed.
    """
    power = np.asarray(noisy_power, dtype=float)
    state = {} if state is None else state
    smoothed = np.empty_like(power)
    # +inf: not observed yet; a bin observed for the first time starts from its power
    acc = state.get("acc", np.full(power.shape[1:], np.inf))
    unseen = lognorm.count_nonzero(np.isinf(acc))
    infinite_power = lognorm.count_nonzero(np.isinf(power))
    every_observed = observed is None or lognorm.count_nonzero(observed) == observed.size
    fresh = (1 - NOISE_SMOOTH) * power
    for t in range(power.shape[0]):
        start = np.where(np.isinf(acc), power[t], acc) if unseen else acc
        start = NOISE_SMOOTH * start
        start += fresh[t]
        acc = start if every_observed else np.where(observed[t], start, acc)
        if unseen or infinite_power:
            unseen = lognorm.count_nonzero(np.isinf(acc))
        smoothed[t] = acc
    w = max(int(round(window_s / FRAME_INCREMENT)), 1)
    # causal window [t-w+1, t] of at most the frames seen: prepend the carried
    # rows and copies of frame 0, so that row t is the minimum of pad[t:t + span]
    history = state.pop("history", smoothed[:0])
    h, n = history.shape[0], smoothed.shape[0]
    span = min(w, h + n)
    first = history[:1] if h else smoothed[:1]
    pad = np.concatenate([np.repeat(first, span - 1 - h, axis=0), history, smoothed])
    del history, first          # freed before the next history is copied out of pad
    state["acc"] = acc
    state["history"] = pad[pad.shape[0] - min(w - 1, h + n):].copy()
    mins = _window_min(pad, span)
    # a window holds +inf alone where its bin was never observed
    mins = np.where(np.isinf(mins), power, mins)
    est = NOISE_BIAS * np.maximum(mins, 1e-300)
    return 0.5 * np.log(est)


def _window_min(x, w):
    """min(x[j:j + w]) along axis 0, for j = 0 .. len(x) - w; overwrites x.

    After each doubling pass, row j holds the minimum of the next `span`
    rows from j on; the last pass joins the spans at j and j + w - span,
    which overlap and together cover the w rows. A pass writes row j from
    rows j and j + span, behind where it reads, so it runs in place: numpy
    takes no copy of such an overlap, and the window costs no array
    beyond x and the result.
    """
    span, n = 1, x.shape[0]
    while 2 * span <= w:
        np.minimum(x[:n - span], x[span:n], out=x[:n - span])
        n -= span
        span *= 2
    return np.minimum(x[:n - (w - span)], x[w - span:n])


class _FilterState:
    """Vectorised filter state across K bins; the head of the speech
    state, s_mean[:, 0] and s_cov[:, 0, 0], is the last speech posterior.
    n_var is the noise variance, NOISE_VARIANCE on every bin, so that no
    cascade operation has to broadcast."""

    def __init__(self, k_bins, cfg: EnhancerConfig, first_log, noise_mean0):
        self.n_var = np.full(k_bins, NOISE_VARIANCE, dtype=float)
        self.s_mean = np.tile(first_log[:, None], (1, AR_ORDER))
        self.s_cov = np.tile(np.eye(AR_ORDER) * INIT_PARAM_VARIANCE, (k_bins, 1, 1))
        self.r_mean = noise_mean0.copy()
        self.r_var = np.full(k_bins, 1.0)
        g0, b0 = reverb.ab_to_gamma_beta(*reverb.room_to_ab(reverb.RoomParams(
            cfg.init_t60, cfg.init_drr)))
        self.gamma_m = np.full(k_bins, g0)
        self.gamma_v = np.full(k_bins, INIT_PARAM_VARIANCE)
        self.beta_m = np.full(k_bins, b0)
        self.beta_v = np.full(k_bins, INIT_PARAM_VARIANCE)


# the floor of the speech KF's process noise, as a fraction of
# NOISE_VARIANCE: a flat pre-cleaned window fits an AR residual of 0,
# and a prediction with no process noise has zero variance, which step 7
# cannot split. At 5e-4 nats^2 it lies 15 times below the 1st
# percentile of the fitted residuals on the 4 s room-G scene, so it raises
# only the flat and near-flat windows (0.8 % of that scene's).
_RESID_FLOOR = 1e-3


class _Frame(NamedTuple):
    """One frame's inputs to the cascade, as _front_end yields them: the
    pre-cleaned log-magnitude, from which (with n_mean) the filter state
    starts at frame 0; the observed log-magnitude y; the noise mean; the AR
    model (speech.estimate_ar); the RNR gate; observed, false where the
    bin's magnitude sat at its frame's floor, so that y holds only the
    floor's log and the observation updates skip the bin; and the
    _fdr_priors_at tuple of the decay priors, fitted at frame t +
    look_ahead. Every field but priors is an array with the bins on its
    first axis."""

    pre_log: np.ndarray
    y: np.ndarray
    n_mean: np.ndarray
    coeffs: np.ndarray
    resid: np.ndarray
    loc_mean: np.ndarray
    gate: np.ndarray
    observed: np.ndarray
    priors: tuple


def _advance(fs: _FilterState, frame: _Frame, diag: Diagnostics):
    """One frame of the cascade for all bins, updating fs in place. Returns
    the trace row dict, without t60_est and drr_est, which _run_group
    converts from the stored gamma_mean and beta_mean after the last frame.
    The masked stages run through _on_bins: step 2's fusion on the bins
    with a decay prior, steps 7-8 (_observe) on the bins frame.observed
    marks and steps 9-12 (_learn_room) on those of them that pass
    frame.gate. A bin a stage skips keeps its priors, and a stage whose
    mask selects no bin is not called.

    Bins never interact, and no sum runs in an order that depends on the
    number of bins, so a bin's results have the same bits in any set of
    bins. Every parameter a frame reads is a module constant, so it takes
    no config."""
    y, n_mean, n_var = frame.y, frame.n_mean, fs.n_var
    *priors, prior_mask = frame.priors

    # speech KF prediction + decorrelation
    resid = np.maximum(frame.resid, _RESID_FLOOR * NOISE_VARIANCE)
    sm, sc = speech.predict_arrays(fs.s_mean, fs.s_cov, frame.coeffs, resid, frame.loc_mean)
    head_m, head_v, tail_m, tail_c, c = speech.decorrelate_arrays(sm, sc)
    head_v = np.maximum(head_v, 0.0)

    # steps 1-2: random walk, fused with the decay priors on the bins that have one
    walk = fs.gamma_m, fs.gamma_v + Q_GAMMA, fs.beta_m, fs.beta_v + Q_BETA
    gm, gv, bm, bv = _on_bins(prior_mask, walk, _fuse_priors, *walk, *priors)
    gm = reverb.clamp_gamma(gm)

    # steps 3-4: old/new reverberation priors, from the last speech posterior
    post_m, post_v = fs.s_mean[:, 0], fs.s_cov[:, 0, 0]
    dm, dv = gm + fs.r_mean, gv + fs.r_var
    em, ev = bm + post_m, bv + post_v

    # step 5: reverberation prior; step 6: total disturbance prior
    rm, rv = lognorm.logsum_moments(dm, dv, em, ev, diag=diag)
    zm, zv = lognorm.logsum_moments(rm, rv, n_mean, n_var, diag=diag)

    # steps 7-8 on the observed bins; a floored bin keeps the speech
    # prediction and the z and r priors, with no fallback
    diag.floored_bins += y.size - int(lognorm.count_nonzero(frame.observed))
    no_fb = np.zeros(y.shape, dtype=bool)
    spm, spv, zpm, zpv, fb7, new_s_mean, new_s_cov, rpm, rpv, fb8 = _on_bins(
        frame.observed, (head_m, head_v, zm, zv, no_fb, sm, sc, rm, rv, no_fb),
        _observe, head_m, head_v, zm, zv, y, tail_m, tail_c, c, rm, rv, n_mean, n_var, diag=diag)

    # steps 9-12 on the gated bins that are observed, so that step 10 never
    # runs without step 8; the others keep gamma and beta
    sprev_m = new_s_mean[:, 1]
    sprev_v = np.maximum(new_s_cov[:, 1, 1], 0.0)
    gpm, gpv, bpm, bpv, fb10 = _on_bins(
        frame.gate & frame.observed, (gm, gv, bm, bv, no_fb),
        _learn_room, gm, gv, bm, bv, dm, dv, fs.r_mean, fs.r_var, sprev_m, sprev_v, rpm, rpv,
        diag=diag)

    # step 13: shift posteriors to priors
    fs.s_mean, fs.s_cov = new_s_mean, new_s_cov
    fs.r_mean, fs.r_var = rpm, rpv
    fs.gamma_m, fs.gamma_v = gpm, gpv
    fs.beta_m, fs.beta_v = bpm, bpv

    flags = fb10.astype(np.uint8)          # fb7 | fb8 << 1 | fb10 << 2, in place
    flags <<= 1
    flags |= fb8
    flags <<= 1
    flags |= fb7
    return {
        "s_mean": spm, "s_var": spv, "r_mean": rpm, "r_var": rpv,
        "z_mean": zpm, "z_var": zpv, "gamma_mean": gpm, "gamma_var": gpv,
        "beta_mean": bpm, "beta_var": bpv, "fallback_flags": flags,
    }


def _on_bins(mask, keep, step, *arrays, **kwargs):
    """step(*arrays, **kwargs) on the bins the 1-D mask selects, and keep,
    a tuple of arrays with the bins on their first axis, on the others:
    how a cascade step leaves a bin it does not update with its priors.

    Where the mask selects every bin (lognorm._all_or_where's full
    slice), step's outputs on the arrays themselves, with nothing copied;
    where it selects none, keep itself, with step not called; else step on
    the selected rows, written into copies of keep. keep's arrays are
    never written."""
    rows = lognorm._all_or_where(mask)
    if rows is None:
        return keep
    if isinstance(rows, slice):
        return step(*arrays, **kwargs)
    posts = step(*[a[rows] for a in arrays], **kwargs)
    merged = [k.copy() for k in keep]
    for out, post in zip(merged, posts, strict=True):
        out[rows] = post
    return merged


def _fuse_priors(gm, gv, bm, bv, prior_gm, prior_gv, prior_bm, prior_bv):
    """Step 2: the gamma and beta predictions fused with their decay priors."""
    return (*lognorm.fuse_moments(gm, gv, prior_gm, prior_gv),
            *lognorm.fuse_moments(bm, bv, prior_bm, prior_bv))


def _observe(head_m, head_v, zm, zv, y, tail_m, tail_c, c, rm, rv, n_mean, n_var, diag):
    """Steps 7-8 on observed bins: the (s, z) posterior and its fallbacks,
    the recorrelated speech state and the (r, fallbacks) posterior."""
    # step 7: scalar observation split y -> (s, z)
    post7 = lognorm.split_scalar_obs(head_m, head_v, zm, zv, y, diag=diag)
    # recorrelate
    post_s = speech.recorrelate_arrays(*post7[:2], tail_m, tail_c, c)
    # step 8: distributed split z -> (r, n); the n posterior is unused,
    # so only the r posterior is computed. The z posterior is narrow
    # against the r prior, so two observation points do as well as three
    rpm, rpv, _, _, fb8 = lognorm.split_distributed_obs(
        rm, rv, n_mean, n_var, *post7[2:4], diag=diag, b_moments=False, obs_points=2)
    return (*post7, *post_s, rpm, rpv, fb8)


def _learn_room(gm, gv, bm, bv, dm, dv, r_prev_m, r_prev_v, s_m, s_v, rp_m, rp_v, diag):
    """Steps 9-12: the (gm, gv, bm, bv, step-10 fallbacks) posterior of gamma
    and beta, from their priors, step 3's old-reverberation prior, the last
    frame's reverberation and smoothed speech, and this frame's
    reverberation posterior, each a mean and a variance array over the
    bins it runs on. _advance runs it on the gated bins alone: a
    noise-dominated bin's old/new split tells nothing of the decay."""
    # step 9: the new-reverberation prior, refreshed from the smoothed speech
    epm, epv = bm + s_m, bv + s_v

    # step 10: distributed split r -> (old, new)
    dpm, dpv, eppm, eppv, fb10 = lognorm.split_distributed_obs(
        dm, dv, epm, epv, rp_m, rp_v, diag=diag)

    # steps 11-12: straight-line constrained updates of gamma and beta
    gpm, gpv, _, _ = lognorm.line_constrained_update(gm, gv, r_prev_m, r_prev_v, dpm, dpv)
    bpm, bpv, _, _ = lognorm.line_constrained_update(bm, bv, s_m, s_v, eppm, eppv)
    return reverb.clamp_gamma(gpm), gpv, bpm, bpv, fb10


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


def _fdr_priors_at(j, m, z_fdr, gate):
    """Decay-line priors from the FDR of length m ending at row j.

    z_fdr holds rows of the (T, K) denoised log-magnitude and gate the
    matching rows of the per-bin RNR inclusion mask; row j is the FDR's
    last frame. The rows must start at frame 0 or reach _FDR_MAX_LEN rows
    back from j, so that no FDR the fit can use is cut short. Returns (gm,
    gv, bm, bv, mask). The FDR's first frame is the energy peak. The first
    FDR_SKIP frames after the peak still carry windowed-out speech and are
    excluded from the fit; per bin, the fit stops at the first frame that
    fails the RNR gate. The line's intercept is referenced to the frame
    after the peak, so beta = intercept - peak value.

    A bin without a prior reads mean 0 and variance 1 in each.
    """
    m = min(int(m), j + 1, _FDR_MAX_LEN)
    skip = max(FDR_SKIP, 1)
    if m < max(reverb.MIN_FDR_LENGTH, skip + 3):
        k_bins = z_fdr.shape[1]
        return (np.zeros(k_bins), np.ones(k_bins), np.zeros(k_bins), np.ones(k_bins),
                np.zeros(k_bins, dtype=bool))
    sigma_r2 = reverb.FDR_R_VARIANCE
    l = FRAME_INCREMENT
    win = z_fdr[j - m + 1:j + 1]                # (m, K)
    wg = gate[j - m + 1:j + 1]                  # (m, K) inclusion mask
    # leading gated prefix: frame count before the first gate failure
    lead = np.where(np.logical_and.reduce(wg, axis=0), m, wg.argmin(axis=0))
    idx = np.arange(m)
    w = ((idx[:, None] >= skip) & (idx[:, None] < lead[None, :])).astype(float)
    x = (idx - 1.0) * l                          # x = 0 one frame after the peak
    n = np.add.reduce(w, axis=0)
    sx = np.add.reduce(w * x[:, None], axis=0)
    sxx = np.add.reduce(w * (x * x)[:, None], axis=0)
    sy = np.add.reduce(w * win, axis=0)
    sxy = np.add.reduce(w * x[:, None] * win, axis=0)
    det0 = n * sxx - sx * sx
    enough = n >= max(reverb.MIN_FDR_LENGTH - 1, 3)
    det0 = np.where(det0 > 0, det0, 1.0)
    theta1 = (n * sxy - sx * sy) / det0
    theta2 = np.where(n > 0, (sy - theta1 * sx) / np.maximum(n, 1.0), 0.0)
    var1 = sigma_r2 * n / det0
    var2 = sigma_r2 * sxx / det0
    ok = enough & (theta1 < 0)
    # the intercept-minus-peak construction assumes the decay starts
    # from the last excited frame; residual contamination of the peak by
    # the accumulated tail keeps this prior weaker than the slope prior
    return (np.where(ok, l * theta1, 0.0), np.where(ok, l * l * var1, 1.0),
            np.where(ok, theta2 - win[0], 0.0),
            np.where(ok, var2 + sigma_r2 + FDR_BETA_EXTRA_VAR, 1.0), ok)


# frames the stages ahead of the cascade process per call, and rows per
# call of a group's T60/DRR conversion after it
_BLOCK = 32
# the largest spectral magnitude enhance_frames takes: the noise tracker
# and the pre-clean square it and divide by a noise power that frames of
# silence floor near 1e-24, which stays far from overflow below this
_MAX_MAGNITUDE = 1e100


def _front_end(frames, cfg: EnhancerConfig, bins):
    """The stages ahead of the cascade, run block by block with carried state.

    The noise tracker, the Log-MMSE pre-clean, the AR fits, the RNR gate,
    the smoothed broadband energy and the decay-run counter advance one
    block of frames at a time, just far enough ahead of the cascade for
    its look-ahead; this yields each frame's inputs on the bins slice as
    a _Frame. Their rows live in one store, a dict of arrays by field name
    (every _Frame field but priors, and runs, the decay-run lengths), whose
    row 0 is frame base. Before a block is appended it is trimmed to the
    rows from frame max(t - _FDR_MAX_LEN + 1, 0) on, the oldest a decay
    prior can read, so memory does not grow with the input length.
    """
    n_frames = frames.shape[0]
    states = {k: {} for k in ("noise", "preclean", "ar", "energy", "runs")}
    store, base = {}, 0
    ready = 0                   # frames processed
    for t in range(n_frames):
        # the priors read the run length at t + look_ahead, and its
        # smoothed energy reads the frame after that
        need = min(t + cfg.look_ahead + 2, n_frames)
        if ready < need:
            lo = max(t - _FDR_MAX_LEN + 1, 0)
            store = {k: v[lo - base:] for k, v in store.items()}
            base = lo
        while ready < need:
            b = min(ready + _BLOCK, n_frames)
            _front_block(frames[ready:b], cfg, bins, states, store, final=b == n_frames)
            ready = b
        i, j = t - base, min(t + cfg.look_ahead, n_frames - 1) - base
        priors = _fdr_priors_at(j, store["runs"][j], store["pre_log"], store["gate"])
        yield _Frame(priors=priors, **{f: store[f][i] for f in _Frame._fields[:-1]})


def _front_block(frames, cfg: EnhancerConfig, bins, states, store, final):
    """The stages ahead of the cascade on one block of frames, with the
    carried states; appends the block's rows of every _Frame field but
    priors, on the bins slice, and its decay-run lengths (runs) to the
    store. The broadband energy of the decay-run detector sums every bin's
    pre-cleaned power, so the noise tracker and the pre-clean run on every
    bin; the per-bin stages after them run on the slice alone. Its
    block-sized temporaries are freed on return, not kept alive across a
    yield."""
    mag = np.abs(frames)
    floor = magnitude_floor(mag)
    observed = mag > floor
    mag = np.maximum(mag, floor, out=mag)       # as stft.floored_magnitude floors it
    n_mean = track_noise(mag ** 2, cfg.noise_window_s, state=states["noise"], observed=observed)
    observed = observed[:, bins]
    precleaned = speech.log_mmse_preclean(mag, np.exp(2.0 * n_mean), state=states["preclean"])
    # decay-region detection on broadband energy; per-bin RNR gate for fits
    energy = np.log(np.maximum(np.sum(precleaned ** 2, axis=1), 1e-300))
    mag, n_mean = mag[:, bins], n_mean[:, bins]
    pre_log = np.log(np.maximum(precleaned[:, bins], 1e-300))
    coeffs, resid, loc_mean = speech.estimate_ar(
        pre_log, AR_ORDER, cfg.modulation_frame, state=states["ar"])
    gate = (pre_log - n_mean) > reverb.RNR_THRESHOLD_DB * reverb.DB_TO_NATS
    # a 3-frame moving average keeps frame-to-frame wiggle from cutting
    # genuine decay runs short
    energy = _smooth_energy(energy, states["energy"], final=final)
    # the run lengths are one frame behind the other rows until the end
    _append(store, pre_log=pre_log, y=np.log(mag), n_mean=n_mean, coeffs=coeffs, resid=resid,
            loc_mean=loc_mean, gate=gate, observed=observed,
            runs=_decay_run_lengths(energy, states["runs"]))


def _append(store, **blocks):
    for k, v in blocks.items():
        store[k] = np.concatenate([store[k], v]) if k in store else v


# spectra with fewer bins, or fewer frames, run as one group: a child
# process would not repay its fork
_MIN_SPLIT_BINS = 64
_MIN_FORK_FRAMES = 16


def _bin_groups(t_frames, k_bins):
    """The bin slices that the cascade runs one group at a time: two
    contiguous halves where a forked child could run the second beside
    the caller (_host_forks), nothing would miss its work (_watched) and
    the spectrum has _MIN_SPLIT_BINS bins and _MIN_FORK_FRAMES frames,
    else every bin in one group. The groups do not change the bits."""
    if (k_bins < _MIN_SPLIT_BINS or t_frames < _MIN_FORK_FRAMES or _watched()
            or not _host_forks()):
        return [slice(0, k_bins)]
    return [slice(0, k_bins // 2), slice(k_bins // 2, k_bins)]


def _host_forks():
    """Whether this process can fork a child to compute beside it: os.fork
    exists, os.sched_getaffinity shows two usable CPUs and /proc/self/task
    shows no other thread (a BLAS pool counts: pin it to one thread). A
    host where either cannot be read does not fork: a Python-level count
    misses BLAS and system-library threads, and a child forked beside one
    can inherit the locks it held."""
    try:
        return (hasattr(os, "fork") and len(os.sched_getaffinity(0)) >= 2
                and len(os.listdir("/proc/self/task")) == 1)
    except (AttributeError, OSError):   # no os.sched_getaffinity, no /proc
        return False


def _watched():
    """Whether a forked child's work would escape this process's view: a
    tracer, a profiler or tracemalloc is on, or a module-level function of
    the package is not the one it was at import, whose side effects a
    child would lose. Such a call runs every bin in one group."""
    tracemalloc = sys.modules.get("tracemalloc")
    if (sys.gettrace() or sys.getprofile()
            or (tracemalloc is not None and tracemalloc.is_tracing())):
        return True
    return not all(getattr(mod, name, None) is v for mod, name, v in _AT_IMPORT)


def _run_group(spec, cfg: EnhancerConfig, bins, trace, out, diag: Diagnostics):
    """The cascade on one group: its own front end and filter state on the
    bins slice, writing the slice's columns of the output spectrum and of
    every trace field. No frame reads the room estimates, so the group
    converts its gamma/beta columns to t60_est and drr_est after its last
    frame, _BLOCK rows at a time so that no (T, K) temporary is formed."""
    gain_floor = 10.0 ** (GAIN_FLOOR_DB / 20.0)
    for t, frame in enumerate(_front_end(spec.frames, cfg, bins)):
        if t == 0:
            fs = _FilterState(frame.y.size, cfg, frame.pre_log, frame.n_mean)
        row = _advance(fs, frame, diag)
        for f, v in row.items():
            trace[f][t, bins] = v
        out_log = row["s_mean"] + 0.5 * row["s_var"]
        # a gain above 1 is clipped to 1, so its exponent is first: exp cannot overflow
        gain = np.exp(np.minimum(out_log - frame.y, 0.0))
        out[t, bins] = np.clip(gain, gain_floor, 1.0) * spec.frames[t, bins]
    for lo in range(0, len(out), _BLOCK):
        rows = slice(lo, lo + _BLOCK), bins
        trace["t60_est"][rows], trace["drr_est"][rows] = reverb.gamma_beta_to_room(
            trace["gamma_mean"][rows], trace["beta_mean"][rows])


def _package_functions():
    """(module, name, object) of every module-level function of the
    package's loaded modules."""
    prefix = __name__.rpartition(".")[0] + "."
    return [(mod, name, v) for mod_name, mod in list(sys.modules.items())
            if mod_name.startswith(prefix) and mod is not None
            for name, v in vars(mod).items() if callable(v) and not isinstance(v, type)]


def _output_arrays(t_frames, k_bins, out_dtype, shared):
    """The trace dict and the output spectrum, zeroed. Where shared, each
    is a view of its own anonymous shared mmap, so that a forked child
    writes its columns where the caller reads them; else a numpy array,
    which a one-group call writes faster than shared pages."""
    def zeros(dtype):
        if not shared:
            return np.zeros((t_frames, k_bins), dtype)
        buf = mmap.mmap(-1, t_frames * k_bins * np.dtype(dtype).itemsize)
        return np.frombuffer(buf, dtype).reshape(t_frames, k_bins)
    arrays = {f: zeros(np.float64) for f in TRACE_FIELDS}
    arrays["fallback_flags"] = zeros(np.uint8)
    return arrays, zeros(out_dtype)


def _run_groups(spec, cfg: EnhancerConfig, groups, trace, out, diag: Diagnostics):
    """Runs the first group here and the second, if there is one, at the
    same time in a forked child, which writes its columns into the shared
    trace and out and its Diagnostics counts into shared ones, and exits
    with status 0, or 1 if anything raised. The child is reaped before
    this returns, and killed first if this raises. A child that ends in
    any other way (it raised, or a signal killed it) has its group run
    again here, into the same columns, with a
    RuntimeWarning: a failure of that group alone then gives the bits of
    one group, and one in every process raises here with its own type
    and traceback. The child's own warnings go where the caller's filters,
    as it forked, sent them; its stderr is the caller's."""
    if len(groups) == 1:
        return _run_group(spec, cfg, groups[0], trace, out, diag)
    first, second = groups
    names = [f.name for f in fields(Diagnostics)]
    counts = np.frombuffer(mmap.mmap(-1, 8 * len(names)), np.int64)
    pid = os.fork()
    if pid == 0:
        try:
            child = Diagnostics()
            _run_group(spec, cfg, second, trace, out, child)
            counts[:] = [getattr(child, name) for name in names]
            os._exit(0)
        finally:
            os._exit(1)
    try:
        _run_group(spec, cfg, first, trace, out, diag)
    except BaseException:
        os.kill(pid, signal.SIGKILL)    # an unreaped child can always be signalled
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status == 0:
        for name, count in zip(names, counts.tolist()):
            setattr(diag, name, getattr(diag, name) + count)
        return
    _run_group(spec, cfg, second, trace, out, diag)
    warnings.warn(f"the forked process of bins {second.start}-{second.stop - 1} ended with "
                  f"status {os.waitstatus_to_exitcode(status)}; they ran again in the caller",
                  RuntimeWarning)


def enhance_frames(spec: SpectralFrames, cfg: EnhancerConfig | None = None):
    """Run the tracking cascade on STFT frames.

    Returns (enhanced SpectralFrames, Trace, Diagnostics). This is the
    core of enhance(); it also serves callers whose data originates in
    the STFT domain. The spectrum needs 2-D frames, at least one frame
    and one bin, all finite and of magnitude at most _MAX_MAGNITUDE (else
    ValueError), FRAME_INCREMENT apart as stft makes them, from which every
    time constant of the cascade is taken. Apart from its input, the Trace
    and the output spectrum, its memory does not grow with the number of
    frames.

    The bins run in the groups of _bin_groups, each with its own front
    end and filter state, the second, if any, in a forked child
    (_run_groups); one group and two give the same bits.
    """
    cfg = cfg or EnhancerConfig()
    if np.ndim(spec.frames) != 2:
        raise ValueError(f"enhance_frames needs 2-D (frames, bins) frames, "
                         f"got shape {np.shape(spec.frames)}")
    t_frames, k_bins = spec.frames.shape
    if t_frames == 0:
        raise ValueError("enhance_frames needs at least one frame")
    if k_bins == 0:
        raise ValueError("enhance_frames needs at least one bin")
    # a block of rows at a time, so that no (T, K) temporary is formed
    for lo in range(0, t_frames, _BLOCK):
        if not (np.abs(spec.frames[lo:lo + _BLOCK]) <= _MAX_MAGNITUDE).all():
            raise ValueError(f"enhance_frames needs finite frames; frames {lo}-"
                             f"{min(lo + _BLOCK, t_frames) - 1} hold a NaN, an inf or a "
                             f"magnitude above {_MAX_MAGNITUDE:g}")
    diag = Diagnostics()
    groups = _bin_groups(t_frames, k_bins)
    trace, out = _output_arrays(t_frames, k_bins, spec.frames.dtype, shared=len(groups) == 2)
    _run_groups(spec, cfg, groups, trace, out, diag)
    enhanced = SpectralFrames(out)
    return enhanced, Trace(trace), diag


def enhance(audio: AudioBuffer, cfg: EnhancerConfig | None = None):
    """Enhance one utterance. Returns (enhanced AudioBuffer, Trace, Diagnostics).

    The audio needs at least one frame of samples (else StftError) and a
    peak of at most _MAX_MAGNITUDE divided by the frame's length in
    samples, so that no frame's magnitude exceeds _MAX_MAGNITUDE (else
    ValueError). Audio that ends inside a hop is analysed with zeros
    after it, up to the end of one more frame, so that every sample is
    enhanced; the output has the input's length."""
    cfg = cfg or EnhancerConfig()
    limit = _MAX_MAGNITUDE / FRAME_SAMPLES
    peak = np.max(np.abs(audio.samples), initial=0.0)
    if peak > limit:
        raise ValueError(f"audio peak {peak:.3g} exceeds {limit:.3g}, above which a "
                         f"frame's magnitude could exceed {_MAX_MAGNITUDE:g}")
    # stft drops a partial last frame; audio shorter than a frame raises there
    padded = audio
    pad = -(len(audio.samples) - FRAME_SAMPLES) % HOP_SAMPLES
    if len(audio.samples) > FRAME_SAMPLES and pad:
        padded = AudioBuffer(np.concatenate([audio.samples, np.zeros(pad)]))
    spec = stft(padded)
    del padded
    enhanced, trace, diag = enhance_frames(spec, cfg)
    del spec                        # synthesis needs only the enhanced spectrum
    out = istft(enhanced)
    return AudioBuffer(out.samples[:len(audio.samples)]), trace, diag


# every module-level function of the package as imported; _watched
# compares them by identity
_AT_IMPORT = _package_functions()
