"""Reference implementations used only by tests.

The production code computes moments of log|A + B| (and its posterior
decompositions) analytically / by quadrature. Most oracles here estimate
the same quantities from raw samples, so the two can be compared without
sharing any numerical machinery beyond the elementary log-phasor-sum
formula itself. Two are exact references for the fast kernels instead:
the direct 120-term dilogarithm series that lognorm tabulates, and the
unfolded split quadrature (three separate Gaussian log-pdfs on the full
(u, phi) node grid) that lognorm's folded kernel must reproduce.
"""

import numpy as np
from scipy.special import log_ndtr, roots_hermitenorm
from scipy.stats import norm

LOG_TINY = np.log(1e-300)
VAR_FLOOR = 1e-12


def log_phasor_sum_ref(a, b, phi):
    """log|e^a + e^{b + j phi}| computed directly from complex numbers."""
    return np.log(np.abs(np.exp(a) + np.exp(b) * np.exp(1j * phi)))


def mc_logsum_moments(ma, va, mb, vb, n=1_000_000, seed=0):
    """Plain Monte-Carlo moments of r = log|A + B| under the priors."""
    rng = np.random.default_rng(seed)
    a = ma + np.sqrt(va) * rng.standard_normal(n)
    b = mb + np.sqrt(vb) * rng.standard_normal(n)
    phi = rng.uniform(-np.pi, np.pi, n)
    f = log_phasor_sum_ref(a, b, phi)
    return float(np.mean(f)), float(np.var(f))


class BinnedPool:
    """A shared sample pool of (a, b, log|A+B|) binned on the sum value.

    Binning the raw-moment sums of a and b against f = log|A+B| lets the
    rejection-style conditional estimates (select samples with f near y)
    be evaluated for many y values without rescanning the pool.
    """

    def __init__(self, ma, va, mb, vb, n=1_000_000, seed=0, width=0.005):
        rng = np.random.default_rng(seed)
        a = ma + np.sqrt(va) * rng.standard_normal(n)
        b = mb + np.sqrt(vb) * rng.standard_normal(n)
        phi = rng.uniform(-np.pi, np.pi, n)
        f = log_phasor_sum_ref(a, b, phi)
        self.width = width
        lo = float(f.min())
        idx = np.floor((f - lo) / width).astype(int)
        nb = int(idx.max()) + 1
        self.centers = lo + (np.arange(nb) + 0.5) * width
        self.count = np.bincount(idx, minlength=nb).astype(float)
        self.sa = np.bincount(idx, weights=a, minlength=nb)
        self.sa2 = np.bincount(idx, weights=a * a, minlength=nb)
        self.sb = np.bincount(idx, weights=b, minlength=nb)
        self.sb2 = np.bincount(idx, weights=b * b, minlength=nb)
        self.mean_f = float(np.mean(f))
        self.var_f = float(np.var(f))

    def _band_raw(self, y, tol):
        """Raw conditional moments from samples with |f - y| <= tol."""
        sel = np.abs(self.centers - y) <= tol
        c = self.count[sel].sum()
        if c < 200:
            raise ValueError(f"too few oracle samples in band around y={y}")
        return np.array([self.sa[sel].sum(), self.sa2[sel].sum(),
                         self.sb[sel].sum(), self.sb2[sel].sum()]) / c

    def split_scalar(self, y, tol=0.02):
        """Rejection estimate of E{a|y}, var{a|y}, E{b|y}, var{b|y}.

        The finite acceptance band biases the estimate by O(tol^2);
        Richardson extrapolation of the band estimates at tol and 2 tol
        removes the leading term.
        """
        m1 = self._band_raw(y, tol)
        m2 = self._band_raw(y, 2.0 * tol)
        ea, ea2, eb, eb2 = (4.0 * m1 - m2) / 3.0
        return ea, max(ea2 - ea * ea, 0.0), eb, max(eb2 - eb * eb, 0.0)

    def split_distributed(self, mo, vo, n_quant=101, h=0.03):
        """Mixture-of-scalar-posteriors moments for a Gaussian observation.

        The observation distribution is represented by equal-weight
        quantile points; at each point the conditional raw moments are
        taken with a narrow Gaussian kernel on f, then the raw moments
        are averaged across points before conversion to variance.
        """
        q = norm.ppf((np.arange(n_quant) + 0.5) / n_quant,
                     loc=mo, scale=np.sqrt(vo))
        k = np.exp(-0.5 * ((self.centers[None, :] - q[:, None]) / h) ** 2)
        z = k @ self.count
        keep = z > 200.0
        if not np.any(keep):
            raise ValueError("oracle kernel found no mass near the observation")
        zk = z[keep]
        ea = float(np.mean((k @ self.sa)[keep] / zk))
        ea2 = float(np.mean((k @ self.sa2)[keep] / zk))
        eb = float(np.mean((k @ self.sb)[keep] / zk))
        eb2 = float(np.mean((k @ self.sb2)[keep] / zk))
        return ea, max(ea2 - ea * ea, 0.0), eb, max(eb2 - eb * eb, 0.0)


def grid_conditional_gaussian(mx, vx, my, vy, total_mean, n_grid=20001, span=10.0):
    """Brute-force conditioning of independent Gaussians on x + y = total.

    Discretises x, weights each point by N(x; mx, vx) * N(total - x; my, vy)
    and returns the posterior means/variances of x and y = total - x.
    """
    s = np.sqrt(vx + vy)
    x = np.linspace(total_mean - my - span * s, total_mean - my + span * s, n_grid)
    logw = (-0.5 * (x - mx) ** 2 / vx
            - 0.5 * (total_mean - x - my) ** 2 / vy)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    ex = float(np.sum(w * x))
    vx_post = float(np.sum(w * (x - ex) ** 2))
    y = total_mean - x
    ey = float(np.sum(w * y))
    vy_post = float(np.sum(w * (y - ey) ** 2))
    return ex, vx_post, ey, vy_post


def schroeder_t60(rir, sample_rate, hi_db=-5.0, lo_db=-35.0):
    """Backward-integrated decay-fit T60 measurement of an impulse response."""
    energy = np.cumsum(rir[::-1] ** 2)[::-1]
    edc = 10.0 * np.log10(np.maximum(energy / energy[0], 1e-30))
    t = np.arange(len(rir)) / sample_rate
    sel = (edc <= hi_db) & (edc >= lo_db)
    slope, _ = np.polyfit(t[sel], edc[sel], 1)
    return -60.0 / slope


def mean_dilog_series_ref(md, vd, terms=120):
    """E{Li2(e^{-2|d|})} for d ~ N(md, vd) by the direct series.

    Li2(x) = sum_k x^k / k^2, with the folded-normal moment generating
    function E{e^{-2k|d|}} taken term by term in the log domain.
    """
    md = np.abs(np.asarray(md, dtype=float))
    vd = np.asarray(vd, dtype=float)
    s = np.sqrt(np.maximum(vd, VAR_FLOOR))
    k = np.arange(1, terms + 1).reshape((-1,) + (1,) * md.ndim)
    t = 2.0 * k
    upper = np.exp(t * md + t * t * vd / 2.0 + log_ndtr(-md / s - t * s))
    lower = np.exp(-t * md + t * t * vd / 2.0 + log_ndtr(md / s - t * s))
    return np.sum((upper + lower) / (k * k), axis=0)


def _log_normal_pdf(x, mean, var):
    v = np.maximum(var, VAR_FLOOR)
    return -0.5 * ((x - mean) ** 2 / v) - 0.5 * np.log(2.0 * np.pi * v)


def _log_phasor_sum_cosh(la, lb, cos_phi):
    """0.5*(la+lb) + 0.5*log(2*cosh(la-lb) + 2*cos_phi), asymptotic for large gaps."""
    d = np.asarray(la, dtype=float) - lb
    ad = np.abs(d)
    small = ad < 25.0
    inner = np.where(
        small,
        np.log(np.maximum(2.0 * np.cosh(np.where(small, d, 0.0)) + 2.0 * cos_phi, 1e-300)),
        ad + np.log1p(np.exp(-2.0 * np.minimum(ad, 700.0))
                      + 2.0 * cos_phi * np.exp(-np.minimum(ad, 700.0))),
    )
    return 0.5 * (np.asarray(la, dtype=float) + lb) + 0.5 * inner


def split_core_ref(ma, va, mb, vb, y, k_u=15, k_phase=6):
    """Conditional raw moments of (a, b) given log|A+B| = y, unfolded.

    Gauss-Hermite nodes along the prior of u = b - a times k_phase
    midpoint phases; at each node a is solved from the constraint and
    the node is weighted by N(a) N(b) / N(u). y may carry extra trailing
    axes. Returns (E a, E a^2, E b, E b^2, fallback) with y's shape; the
    fallback flag marks a non-finite or < 1e-300 unnormalised maximum
    weight.
    """
    ma, va, mb, vb = (np.asarray(v, dtype=float) for v in (ma, va, mb, vb))
    y = np.asarray(y, dtype=float)
    sl = (...,) + (None,) * (y.ndim - ma.ndim)
    ma_e, va_e, mb_e, vb_e = ma[sl], va[sl], mb[sl], vb[sl]

    mu_u = mb_e - ma_e
    vu = np.maximum(va_e + vb_e, VAR_FLOOR)
    x, wu = roots_hermitenorm(k_u)
    wu = wu / wu.sum()
    phi = (np.arange(1, k_phase + 1) - 0.5) * np.pi / k_phase
    cos_phi = np.cos(phi)

    u = mu_u[..., None, None] + np.sqrt(vu)[..., None, None] * x[:, None]
    a_pt = y[..., None, None] - _log_phasor_sum_cosh(np.zeros_like(u), u, cos_phi)
    b_pt = a_pt + u
    logw = (
        np.log(wu)[:, None]
        + np.log(np.full(k_phase, 1.0 / k_phase))[None, :]
        + _log_normal_pdf(a_pt, ma_e[..., None, None], va_e[..., None, None])
        + _log_normal_pdf(b_pt, mb_e[..., None, None], vb_e[..., None, None])
        - _log_normal_pdf(u, mu_u[..., None, None], vu[..., None, None])
    )
    mx = np.max(logw, axis=(-2, -1), keepdims=True)
    fallback = ~np.isfinite(mx[..., 0, 0]) | (mx[..., 0, 0] < LOG_TINY)
    wts = np.exp(logw - np.where(np.isfinite(mx), mx, 0.0))
    z = np.sum(wts, axis=(-2, -1))
    z_safe = np.where(z > 0, z, 1.0)
    fallback |= z <= 0

    def _m(f):
        return np.sum(f * wts, axis=(-2, -1)) / z_safe

    return _m(a_pt), _m(a_pt * a_pt), _m(b_pt), _m(b_pt * b_pt), fallback


def split_scalar_ref(ma, va, mb, vb, y, k_u=15, k_phase=6):
    """(ma', va', mb', vb', fallback) of the scalar split, from split_core_ref."""
    ma, va, mb, vb, y = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                              for v in (ma, va, mb, vb, y)))
    ea, ea2, eb, eb2, fb = split_core_ref(ma, va, mb, vb, y, k_u, k_phase)
    return (np.where(fb, ma, ea), np.where(fb, va, np.maximum(ea2 - ea * ea, 0.0)),
            np.where(fb, mb, eb), np.where(fb, vb, np.maximum(eb2 - eb * eb, 0.0)), fb)


def split_distributed_ref(ma, va, mb, vb, mo, vo, k_u=15, k_phase=6, k_obs=3):
    """Distributed split from split_core_ref: raw moments mixed over k_obs
    Gauss-Hermite points of the observation, then turned into variances."""
    ma, va, mb, vb, mo, vo = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                   for v in (ma, va, mb, vb, mo, vo)))
    x, w = roots_hermitenorm(k_obs)
    w = w / w.sum()
    y = mo[..., None] + np.sqrt(np.maximum(vo, 0.0))[..., None] * x
    ea, ea2, eb, eb2, fb = split_core_ref(ma, va, mb, vb, y, k_u, k_phase)
    wts = np.broadcast_to(w, fb.shape) * (~fb)
    z = np.sum(wts, axis=-1)
    all_fb = z <= 0
    z_safe = np.where(all_fb, 1.0, z)

    def _m(f):
        return np.sum(np.where(fb, 0.0, f) * wts, axis=-1) / z_safe

    a1, a2, b1, b2 = _m(ea), _m(ea2), _m(eb), _m(eb2)
    return (np.where(all_fb, ma, a1), np.where(all_fb, va, np.maximum(a2 - a1 * a1, 0.0)),
            np.where(all_fb, mb, b1), np.where(all_fb, vb, np.maximum(b2 - b1 * b1, 0.0)),
            all_fb)
