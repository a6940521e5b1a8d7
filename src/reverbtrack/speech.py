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

from .lognorm import c_einsum
from .special import exp1
from .stft import FRAME_INCREMENT

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


def log_mmse_preclean(noisy_mag, noise_power, state=None):
    """Apply per-bin Log-MMSE gains with decision-directed a-priori SNR,
    weight DD_ALPHA = 0.98 (Ephraim & Malah, IEEE TASSP 32(6), 1984),
    floored at PRECLEAN_GAIN_FLOOR_DB.

    noisy_mag and noise_power are (T, K); returns cleaned magnitudes.
    state, when given, is a dict carried from the call on the previous
    block of frames (empty before the first block) and is updated in
    place, so that consecutive blocks give the rows of one whole call.

    Only the a-priori SNR and the gain depend on the previous frame; the
    floored noise power, the a-posteriori SNR and the decision-directed
    term (1 - DD_ALPHA)*max(gamma - 1, 0) are formed for every frame of the
    call at once.
    """
    noisy_mag = np.asarray(noisy_mag, dtype=float)
    noise_power = np.asarray(noise_power, dtype=float)
    if noisy_mag.shape != noise_power.shape:
        raise ValueError("noisy_mag and noise_power must have the same shape")
    gmin = 10.0 ** (PRECLEAN_GAIN_FLOOR_DB / 20.0)
    xi_min = 10.0 ** (-25.0 / 10.0)
    state = {} if state is None else state
    out = np.empty_like(noisy_mag)
    prev_clean_pow = state.get("clean_pow")
    npow = np.maximum(noise_power, 1e-300)
    gamma_post = np.minimum(noisy_mag ** 2 / npow, 1e4)
    dd_term = (1 - DD_ALPHA) * np.maximum(gamma_post - 1.0, 0.0)
    for t in range(noisy_mag.shape[0]):
        if prev_clean_pow is None:
            xi = np.maximum(gamma_post[t] - 1.0, xi_min)
        else:
            xi = DD_ALPHA * prev_clean_pow / npow[t] + dd_term[t]
            xi = np.maximum(xi, xi_min)
        gain = log_mmse_gain(xi, gamma_post[t])
        np.maximum(gain, gmin, out=gain)            # clipped to [gmin, 1]
        np.minimum(gain, 1.0, out=gain)
        np.multiply(gain, noisy_mag[t], out=out[t])
        prev_clean_pow = out[t] ** 2
    state["clean_pow"] = prev_clean_pow
    return out


# ---------------------------------------------------------------------------
# AR estimation on modulation frames
# ---------------------------------------------------------------------------

def estimate_ar(log_mag, order=2, modulation_frame=0.064, state=None):
    """Per-bin, per-frame AR(order) fits over a causal modulation window.

    log_mag is (T, K). Returns (coeffs (T, K, p), residual_var (T, K),
    local_mean (T, K)). The window holds the last `modulation_frame /
    FRAME_INCREMENT` acoustic frames; early frames use what is available.
    Degenerate (constant) windows get zero coefficients and residual.
    state, when given, is a dict carried from the call on the previous
    block of frames (empty before the first block) and is updated in
    place; it keeps the rows the next block's windows reach back to.

    All the call's windows, the start-up ones that hold fewer rows
    included, are fitted in one _fit_windows pass, which holds p + 1 (T, K)
    deviation arrays and p + 1 lag sums, however long modulation_frame is.
    """
    log_mag = np.asarray(log_mag, dtype=float)
    t_frames, k_bins = log_mag.shape
    p = order
    win = max(int(round(modulation_frame / FRAME_INCREMENT)), p + 2)
    state = {} if state is None else state
    history = state.get("history", log_mag[:0])
    h = history.shape[0]
    # frame t's window holds the last min(win, h + t + 1) rows up to row
    # h + t of history and log_mag; the zero rows put ahead of them let
    # every window span the same n rows, at least p + 2 so that each lag
    # has its views, and n, unlike win, fits an int64
    n = min(win, max(h + t_frames, p + 2))
    pad = max(n - 1 - h, 0)
    rows = np.concatenate([np.zeros((pad, k_bins)), history, log_mag])
    state["history"] = rows[max(rows.shape[0] - (win - 1), pad):].copy()
    coeffs = np.zeros((t_frames, k_bins, p))
    resid = np.zeros((t_frames, k_bins))
    mean = np.empty((t_frames, k_bins))
    _fit_windows(rows, np.minimum(np.arange(h + 1, h + t_frames + 1), n), p,
                 coeffs, resid, mean)
    return coeffs, resid, mean


def _fit_windows(rows, n_rows, p, coeffs, resid, mean):
    """Yule-Walker AR(p) fits of the windows that end at each of the last
    count = len(n_rows) rows of rows, written into coeffs (count, K, p),
    resid and mean (count, K). Window t holds the last n_rows[t] rows up
    to its end (n_rows rising); the rows ahead of a window shorter than
    the longest are zero, so that every window spans the same n rows.

    The windows are taken as n shifted (count, K) views of rows. Each sum
    over a window runs over its rows in order after exact zeros (its mean
    divides by n_rows, its deviations on the zero rows are set to 0), so
    each fit is bit for bit the one of its window alone. The deviations
    from the mean are formed one view at a time, and at most p + 1 of
    them are held, however many rows the windows span. A window of fewer
    than p + 2 rows keeps its mean and a zero fit.

    Every window's Yule-Walker system is solved in one batched
    np.linalg.solve, which factors each matrix on its own, so a window's
    fit has the same bits in any batch. A degenerate window (r0 <= 1e-12)
    then gets a zero fit and residual. Its diagonally loaded Toeplitz
    matrix stays positive definite, since |r_k| <= r0 < r0 + load, so its
    solve cannot fail.
    """
    count = n_rows.shape[0]
    seg = [rows[j:j + count] for j in range(rows.shape[0] - count + 1)]
    n = len(seg)
    mean[...] = seg[0]
    for x in seg[1:]:
        mean += x
    mean /= n_rows[:, None]
    # only the windows from s on have p + 2 rows or more
    s = np.searchsorted(n_rows, p + 2)
    m, n_rows = mean[s:], n_rows[s:]
    # biased autocorrelation, lags 0..p: deviation view k adds term k - j
    # of lag j, so each lag's terms are added in order, and only the last
    # p + 1 views (newest first) are kept
    lags, recent = [], []
    for k, (x, cut) in enumerate(zip(seg, np.searchsorted(n_rows, n - np.arange(n)))):
        d = x[s:] - m
        d[:cut] = 0.0           # view k is a zero row of the windows with fewer than n - k rows
        recent = [d] + recent[:p]
        for j in range(min(k, p) + 1):
            if j == k:
                lags.append(d * recent[j])
            else:
                lags[j] += d * recent[j]
    for acc in lags:
        acc /= n_rows[:, None]
    r0 = lags[0]
    ok = r0 > 1e-12
    # Yule-Walker: Toeplitz(r0..r_{p-1}) a = (r1..rp)
    toep = np.empty(r0.shape + (p, p))
    for i in range(p):
        for j in range(p):
            toep[..., i, j] = lags[abs(i - j)]
    toep[..., np.arange(p), np.arange(p)] += np.maximum(r0[..., None], 1e-12) * 1e-9
    rhs = np.stack(lags[1:], axis=-1)        # (count, K, p)
    a = np.where(ok[..., None], np.linalg.solve(toep, rhs[..., None])[..., 0], 0.0)
    # a^T r, its terms added in order
    rv = a[..., 0] * lags[1]
    for j in range(1, p):
        rv = rv + a[..., j] * lags[j + 1]
    coeffs[s:] = a
    resid[s:] = np.where(ok, np.maximum(r0 - rv, 0.0), 0.0)


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
    These are taken one entry of C at a time, on (...,) views along the
    bins: an operation on a whole (..., p, p) array runs its innermost
    loop along p, so that its cost grows with the bins several times as
    fast.
    """
    dev = mean - local_mean[..., None]
    new_mean = np.empty(dev.shape, dev.dtype)
    new_mean[..., 0] = c_einsum("...j,...j->...", coeffs, dev)
    new_mean[..., 1:] = dev[..., :-1]
    new_mean += local_mean[..., None]
    # each sum runs term by term from the first, as in the multiplied-out
    # product, so that p = 1 and p = 2 reproduce its rounding exactly
    p = mean.shape[-1]
    c = [coeffs[..., j] for j in range(p)]
    cc = [[c[i] * cov[..., i, j] for j in range(p)] for i in range(p)]     # c_i C_ij
    for i in range(p):
        per_i = cc[i][0] * c[0]                             # sum_j c_i C_ij c_j
        for j in range(1, p):
            per_i = per_i + cc[i][j] * c[j]
        head = per_i if i == 0 else head + per_i
    new_cov = np.empty(cov.shape, cov.dtype)
    for j in range(p - 1):
        row = cc[0][j]                                      # (c^T C)_j
        col = cov[..., j, 0] * c[0]                         # (C c)_j
        for i in range(1, p):
            row = row + cc[i][j]
            col = col + cov[..., j, i] * c[i]
        new_cov[..., 0, j + 1] = row
        new_cov[..., j + 1, 0] = col
    new_cov[..., 0, 0] = head + resid
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
    cov[..., 0, 1:] = cov[..., 1:, 0] = head_v[..., None] * c
    cov[..., 1:, 1:] = tail_cov + c[..., :, None] * c[..., None, :] * head_v[..., None, None]
    return mean, cov
