"""Pre-cleaning, AR modelling of log-spectra, and the linear speech KF.

The speech state per bin is the last p frames' log-magnitudes. AR
coefficients are re-fit every modulation frame increment on pre-cleaned
log-magnitudes, on deviations from the local (modulation-frame) mean.
The KF update touches only the current frame, so the state is
decorrelated (tail conditioned on head) before the update and
recorrelated afterwards.
"""

import numpy as np
from scipy.special import exp1

PRECLEAN_GAIN_FLOOR_DB = -20.0


# ---------------------------------------------------------------------------
# Log-MMSE pre-cleaning
# ---------------------------------------------------------------------------

def log_mmse_gain(xi, gamma_post):
    """Log-spectral-amplitude MMSE gain: (xi/(1+xi)) * exp(0.5*E1(v))."""
    xi = np.asarray(xi, dtype=float)
    a = xi / (1.0 + xi)
    v = np.maximum(a * gamma_post, 1e-10)
    return a * np.exp(0.5 * exp1(v))


def log_mmse_preclean(noisy_mag, noise_power, alpha=0.98,
                      gain_floor_db=PRECLEAN_GAIN_FLOOR_DB):
    """Apply per-bin Log-MMSE gains with decision-directed a-priori SNR.

    noisy_mag and noise_power are (T, K); returns cleaned magnitudes.
    """
    noisy_mag = np.asarray(noisy_mag, dtype=float)
    noise_power = np.asarray(noise_power, dtype=float)
    if noisy_mag.shape != noise_power.shape:
        raise ValueError("noisy_mag and noise_power must have the same shape")
    gmin = 10.0 ** (gain_floor_db / 20.0)
    xi_min = 10.0 ** (-25.0 / 10.0)
    out = np.empty_like(noisy_mag)
    prev_clean_pow = None
    for t in range(noisy_mag.shape[0]):
        npow = np.maximum(noise_power[t], 1e-300)
        gamma_post = np.minimum(noisy_mag[t] ** 2 / npow, 1e4)
        if prev_clean_pow is None:
            xi = np.maximum(gamma_post - 1.0, xi_min)
        else:
            xi = alpha * prev_clean_pow / npow + (1 - alpha) * np.maximum(gamma_post - 1.0, 0.0)
            xi = np.maximum(xi, xi_min)
        gain = np.clip(log_mmse_gain(xi, gamma_post), gmin, 1.0)
        out[t] = gain * noisy_mag[t]
        prev_clean_pow = out[t] ** 2
    return out


# ---------------------------------------------------------------------------
# AR estimation on modulation frames
# ---------------------------------------------------------------------------

def estimate_ar(log_mag, order=2, modulation_frame=0.064, frame_increment=0.008):
    """Per-bin, per-frame AR(order) fits over a causal modulation window.

    log_mag is (T, K). Returns (coeffs (T, K, p), residual_var (T, K),
    local_mean (T, K)). The window holds the last `modulation_frame /
    frame_increment` acoustic frames; early frames use what is available.
    Degenerate (constant) windows get zero coefficients and residual.
    """
    log_mag = np.asarray(log_mag, dtype=float)
    t_frames, k_bins = log_mag.shape
    p = order
    win = max(int(round(modulation_frame / frame_increment)), p + 2)
    coeffs = np.zeros((t_frames, k_bins, p))
    resid = np.zeros((t_frames, k_bins))
    mean = np.zeros((t_frames, k_bins))
    for t in range(t_frames):
        lo = max(0, t - win + 1)
        seg = log_mag[lo:t + 1]
        m = seg.mean(axis=0)
        mean[t] = m
        n = seg.shape[0]
        if n < p + 2:
            continue
        dev = seg - m
        # biased autocorrelation, lags 0..p
        lags = np.stack(
            [np.sum(dev[j:] * dev[:n - j] if j else dev * dev, axis=0) / n
             for j in range(p + 1)], axis=0
        )  # (p+1, K)
        r0 = lags[0]
        ok = r0 > 1e-12
        # Yule-Walker: Toeplitz(r0..r_{p-1}) a = (r1..rp)
        toep = np.empty((k_bins, p, p))
        for i in range(p):
            for j in range(p):
                toep[:, i, j] = lags[abs(i - j)]
        toep[:, np.arange(p), np.arange(p)] += np.maximum(r0[:, None], 1e-12) * 1e-9
        rhs = lags[1:].T  # (K, p)
        a = np.zeros((k_bins, p))
        if np.any(ok):
            a[ok] = np.linalg.solve(toep[ok], rhs[ok][..., None])[..., 0]
        rv = r0 - np.einsum("kp,kp->k", a, rhs)
        coeffs[t] = a
        resid[t] = np.where(ok, np.maximum(rv, 0.0), 0.0)
    return coeffs, resid, mean


# ---------------------------------------------------------------------------
# KF prediction / decorrelation, vectorised over leading (bin) axes
# ---------------------------------------------------------------------------

def predict_arrays(mean, cov, coeffs, resid, local_mean):
    """Companion-matrix AR prediction on deviations from the local mean.

    mean (..., p), cov (..., p, p), coeffs (..., p), resid/local_mean (...,).
    """
    p = mean.shape[-1]
    f = np.zeros(mean.shape[:-1] + (p, p))
    f[..., 0, :] = coeffs
    for i in range(1, p):
        f[..., i, i - 1] = 1.0
    dev = mean - local_mean[..., None]
    new_mean = np.einsum("...ij,...j->...i", f, dev) + local_mean[..., None]
    new_cov = np.einsum("...ij,...jk,...lk->...il", f, cov, f)
    new_cov[..., 0, 0] += resid
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
