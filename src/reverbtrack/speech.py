"""Pre-cleaning, AR modelling of log-spectra, and the linear speech KF.

The speech state per bin is the last p frames' log-magnitudes. AR
coefficients are re-fit every modulation frame increment on pre-cleaned
log-magnitudes, on deviations from the local (modulation-frame) mean.
The KF update touches only the current frame, so the state is
decorrelated (tail conditioned on head) before the update and
recorrelated afterwards. The Log-MMSE gain's exponential integral E1
comes from reverbtrack.special.
"""

import numpy as np

from .special import exp1

PRECLEAN_GAIN_FLOOR_DB = -20.0
DD_ALPHA = 0.98     # decision-directed a-priori SNR weight


# ---------------------------------------------------------------------------
# Log-MMSE pre-cleaning
# ---------------------------------------------------------------------------

def log_mmse_gain(xi, gamma_post):
    """Log-spectral-amplitude MMSE gain: (xi/(1+xi)) * exp(0.5*E1(v))."""
    xi = np.asarray(xi, dtype=float)
    a = xi / (1.0 + xi)
    v = np.maximum(a * gamma_post, 1e-10)
    return a * np.exp(0.5 * exp1(v))


def log_mmse_preclean(noisy_mag, noise_power, gain_floor_db=PRECLEAN_GAIN_FLOOR_DB, state=None):
    """Apply per-bin Log-MMSE gains with decision-directed a-priori SNR,
    weight DD_ALPHA = 0.98 (Ephraim & Malah, IEEE TASSP 32(6), 1984).

    noisy_mag and noise_power are (T, K); returns cleaned magnitudes.
    state, when given, is a dict carried from the call on the previous
    block of frames (empty before the first block) and is updated in
    place, so that consecutive blocks give the rows of one whole call.
    """
    noisy_mag = np.asarray(noisy_mag, dtype=float)
    noise_power = np.asarray(noise_power, dtype=float)
    if noisy_mag.shape != noise_power.shape:
        raise ValueError("noisy_mag and noise_power must have the same shape")
    gmin = 10.0 ** (gain_floor_db / 20.0)
    xi_min = 10.0 ** (-25.0 / 10.0)
    state = {} if state is None else state
    out = np.empty_like(noisy_mag)
    prev_clean_pow = state.get("clean_pow")
    for t in range(noisy_mag.shape[0]):
        npow = np.maximum(noise_power[t], 1e-300)
        gamma_post = np.minimum(noisy_mag[t] ** 2 / npow, 1e4)
        if prev_clean_pow is None:
            xi = np.maximum(gamma_post - 1.0, xi_min)
        else:
            xi = (DD_ALPHA * prev_clean_pow / npow
                  + (1 - DD_ALPHA) * np.maximum(gamma_post - 1.0, 0.0))
            xi = np.maximum(xi, xi_min)
        gain = np.clip(log_mmse_gain(xi, gamma_post), gmin, 1.0)
        out[t] = gain * noisy_mag[t]
        prev_clean_pow = out[t] ** 2
    state["clean_pow"] = prev_clean_pow
    return out


# ---------------------------------------------------------------------------
# AR estimation on modulation frames
# ---------------------------------------------------------------------------

def estimate_ar(log_mag, order=2, modulation_frame=0.064, frame_increment=0.008,
                state=None):
    """Per-bin, per-frame AR(order) fits over a causal modulation window.

    log_mag is (T, K). Returns (coeffs (T, K, p), residual_var (T, K),
    local_mean (T, K)). The window holds the last `modulation_frame /
    frame_increment` acoustic frames; early frames use what is available.
    Degenerate (constant) windows get zero coefficients and residual.
    state, when given, is a dict carried from the call on the previous
    block of frames (empty before the first block) and is updated in
    place; it keeps the rows the next block's windows reach back to.
    """
    log_mag = np.asarray(log_mag, dtype=float)
    t_frames, k_bins = log_mag.shape
    p = order
    win = max(int(round(modulation_frame / frame_increment)), p + 2)
    state = {} if state is None else state
    history = state.get("history", log_mag[:0])
    h = history.shape[0]
    rows = np.concatenate([history, log_mag]) if h else log_mag
    state["history"] = rows[max(rows.shape[0] - (win - 1), 0):].copy()
    coeffs = np.zeros((t_frames, k_bins, p))
    resid = np.zeros((t_frames, k_bins))
    mean = np.zeros((t_frames, k_bins))
    # the window of frame t ends at row h + t; until the input has win
    # rows it starts at row 0 and is shorter, so those frames (at most the
    # first win - 1) are fitted one at a time, the others in one pass
    full = min(max(win - 1 - h, 0), t_frames)
    for t in range(full):
        _fit_windows(rows, 0, 1, h + t + 1, p, coeffs[t:t + 1], resid[t:t + 1],
                     mean[t:t + 1])
    if full < t_frames:
        _fit_windows(rows, h + full - win + 1, t_frames - full, win, p,
                     coeffs[full:], resid[full:], mean[full:])
    return coeffs, resid, mean


def _fit_windows(rows, first, count, n, p, coeffs, resid, mean):
    """Yule-Walker AR(p) fits of the count windows rows[s:s + n], s = first,
    first + 1, ..., written into coeffs (count, K, p), resid and mean
    (count, K).

    The windows are taken as n shifted (count, K) views of rows, so every
    sum over a window runs over its rows in order, and each fit is bit for
    bit the one of its window alone.
    """
    seg = [rows[first + j:first + j + count] for j in range(n)]
    m = mean
    m[...] = seg[0]
    for x in seg[1:]:
        m += x
    m /= n
    if n < p + 2:
        return
    dev = [x - m for x in seg]
    # biased autocorrelation, lags 0..p
    lags = []
    for j in range(p + 1):
        acc = dev[j] * dev[0]
        for i in range(1, n - j):
            acc += dev[j + i] * dev[i]
        acc /= n
        lags.append(acc)
    r0 = lags[0]
    ok = r0 > 1e-12
    # Yule-Walker: Toeplitz(r0..r_{p-1}) a = (r1..rp)
    toep = np.empty(r0.shape + (p, p))
    for i in range(p):
        for j in range(p):
            toep[..., i, j] = lags[abs(i - j)]
    toep[..., np.arange(p), np.arange(p)] += np.maximum(r0[..., None], 1e-12) * 1e-9
    rhs = np.stack(lags[1:], axis=-1)        # (count, K, p)
    if ok.all():
        a = np.linalg.solve(toep, rhs[..., None])[..., 0]
    else:
        a = np.zeros(rhs.shape)
        if ok.any():
            a[ok] = np.linalg.solve(toep[ok], rhs[ok][..., None])[..., 0]
    # a^T r, its terms added in order, as one window's einsum adds them
    rv = a[..., 0] * lags[1]
    for j in range(1, p):
        rv = rv + a[..., j] * lags[j + 1]
    coeffs[...] = a
    resid[...] = np.where(ok, np.maximum(r0 - rv, 0.0), 0.0)


# ---------------------------------------------------------------------------
# KF prediction / decorrelation, vectorised over leading (bin) axes
# ---------------------------------------------------------------------------

def predict_arrays(mean, cov, coeffs, resid, local_mean):
    """Companion-matrix AR prediction on deviations from the local mean.

    mean (..., p), cov (..., p, p), coeffs (..., p), resid/local_mean (...,).
    The companion matrix F has the coefficients c in its first row and a
    shifted identity below, so F C F^T needs no matrix product: its head
    variance is c^T C c, the rest of its first row is (c^T C)[:-1], the
    rest of its first column (C c)[:-1], and its lower block C[:-1, :-1].
    """
    dev = mean - local_mean[..., None]
    new_mean = np.empty_like(dev)
    new_mean[..., 0] = np.einsum("...j,...j->...", coeffs, dev)
    new_mean[..., 1:] = dev[..., :-1]
    new_mean += local_mean[..., None]
    # each sum runs term by term from the first, as in the multiplied-out
    # product, so that p = 1 and p = 2 reproduce its rounding exactly
    cc = coeffs[..., :, None] * cov                 # c_j C_jk
    ccc = cc * coeffs[..., None, :]                 # c_j C_jk c_k
    cl = cov[..., :-1, :] * coeffs[..., None, :]    # C_ik c_k
    per_j, row, col = ccc[..., 0], cc[..., 0, :-1], cl[..., 0]
    for i in range(1, mean.shape[-1]):
        per_j = per_j + ccc[..., i]
        row = row + cc[..., i, :-1]
        col = col + cl[..., i]
    head = per_j[..., 0]
    for j in range(1, mean.shape[-1]):
        head = head + per_j[..., j]
    new_cov = np.empty_like(cov)
    new_cov[..., 0, 0] = head + resid
    new_cov[..., 0, 1:] = row
    new_cov[..., 1:, 0] = col
    new_cov[..., 1:, 1:] = cov[..., :-1, :-1]
    return new_mean, new_cov


def decorrelate_arrays(mean, cov):
    """Condition the tail on the head: returns (head_m, head_v, tail_m,
    tail_cov, c) with c = cov[1:,0]/cov[0,0] so that the tail is
    uncorrelated with the head."""
    v0 = cov[..., 0, 0]
    c = np.where(v0[..., None] > 1e-12, cov[..., 1:, 0] / np.maximum(v0[..., None], 1e-12), 0.0)
    tail_m = mean[..., 1:] - c * mean[..., :1]
    tail_cov = cov[..., 1:, 1:] - c[..., :, None] * cov[..., :1, 1:]
    return mean[..., 0], v0, tail_m, tail_cov, c


def recorrelate_arrays(head_m, head_v, tail_m, tail_cov, c):
    """Reassemble the joint state after the head has been updated."""
    p = tail_m.shape[-1] + 1
    mean = np.empty(tail_m.shape[:-1] + (p,))
    mean[..., 0] = head_m
    mean[..., 1:] = tail_m + c * head_m[..., None]
    cov = np.empty(tail_m.shape[:-1] + (p, p))
    cov[..., 0, 0] = head_v
    cov[..., 0, 1:] = head_v[..., None] * c
    cov[..., 1:, 0] = head_v[..., None] * c
    cov[..., 1:, 1:] = tail_cov + c[..., :, None] * c[..., None, :] * head_v[..., None, None]
    return mean, cov
