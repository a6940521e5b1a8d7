"""Gaussian calculus in the log-magnitude spectral domain.

All tracked quantities are scalar Gaussians over log-magnitudes (nats).
This module provides the sigma-point machinery used to propagate those
Gaussians through the non-linear "phasor sum" relation

    |C| = |A + B|,  c = 0.5*log(e^{2a} + e^{2b} + 2*cos(phi)*e^{a+b})

with a uniformly distributed phase difference phi, plus the linear
operations (straight-line constrained updates and Gaussian-Gaussian
fusion) that the filter cascade needs; sums of independent Gaussians
are formed inline by the caller.

The two non-linear kernels carry almost all of the cascade's cost and
are written for fewer operations per bin:
- logsum_moments (the prior of log|A+B|) is closed-form except for the
  mean dilogarithm E{Li2(e^{-2|a-b|})}, which is read from a table over
  (|m|/s, log s) built lazily from a Chebyshev fit of its series;
- _split_core (the posterior given log|A+B|) folds the three Gaussian
  log-pdfs of its (u, phi) quadrature into one quadratic per node, sums
  the nodes by a matrix product relative to the heaviest node, and
  clamps the shifted log-weights at -700 so that no exponential
  underflows.

Every operation works on numpy arrays of means and variances,
elementwise over any shape of bins; the frame loop calls each one once
per frame on all bins at once.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, roots_hermitenorm, spence

_LOG_TINY = np.log(1e-300)
_VAR_FLOOR = 1e-12


@dataclass
class Diagnostics:
    """Counters for numerical events; exposed instead of silently masked."""

    variance_clamps: int = 0
    fallbacks: int = 0

    def add(self, other):
        self.variance_clamps += other.variance_clamps
        self.fallbacks += other.fallbacks


# cached Gauss-Hermite (probabilists') nodes/weights, weights sum to 1
_GH_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gh_nodes(count):
    if count not in _GH_CACHE:
        x, w = roots_hermitenorm(count)
        _GH_CACHE[count] = (x, w / w.sum())
    return _GH_CACHE[count]


def phase_sigma_points(count: int):
    """Equal-weight points ((i-0.5)*pi/count, i=1..count) on (0, pi).

    Returns (points, weights). Integrates sums of cos(n*phi) terms
    exactly for every n that is not a positive multiple of 2*count -- in
    particular all n <= 2*count-1 and n = 2*count+1.
    """
    if count < 1:
        raise ValueError("phase sigma-point count must be >= 1")
    i = np.arange(1, count + 1)
    return (i - 0.5) * np.pi / count, np.full(count, 1.0 / count)


def log_phasor_sum(la, lb, cos_phi):
    """log|A + B| from la=log|A|, lb=log|B| and the cosine of the phase gap.

    Branch-free: max(la, lb) + 0.5*log1p(q*(q + 2*cos_phi)) with
    q = e^{-|la-lb|} <= 1, so nothing overflows for any gap. Exact
    cancellation (la == lb, cos_phi == -1) gives -inf.
    """
    q = np.subtract(lb, la, dtype=float)
    np.abs(q, out=q)
    np.negative(q, out=q)
    np.exp(q, out=q)
    out = q + 2.0 * np.asarray(cos_phi)
    out *= q
    np.log1p(out, out=out)
    out *= 0.5
    out += np.maximum(la, lb)
    return out


def _clamp_var(v, diag=None):
    """Variances with rounding-level negatives set to 0, counted in diag."""
    neg = v < 0
    if diag is not None and np.any(neg):
        diag.variance_clamps += int(np.count_nonzero(neg))
    return np.where(neg, 0.0, v)


# ---------------------------------------------------------------------------
# array-level operations (vectorised over any leading shape)
# ---------------------------------------------------------------------------

def _dilog(x):
    """Dilogarithm Li2(x) for x in [0, 1]."""
    return spence(1.0 - np.asarray(x, dtype=float))


_DILOG_SERIES_TERMS = 120


def _mean_dilog_series(md, vd):
    """E{Li2(e^{-2|d|})} for d ~ N(md, vd) by a 120-term series.

    Expands the dilogarithm as sum_k x^k / k^2 and uses the folded-normal
    moment generating function E{e^{-2k|d|}} term by term; each term is
    assembled in the log domain so the Gaussian tail factors never
    overflow. The tail of the series decays like k^-3. This is the
    definition that _mean_dilog_exp tabulates.
    """
    md = np.abs(np.asarray(md, dtype=float))
    vd = np.asarray(vd, dtype=float)
    s = np.sqrt(np.maximum(vd, _VAR_FLOOR))
    k = np.arange(1, _DILOG_SERIES_TERMS + 1).reshape((-1,) + (1,) * md.ndim)
    t = 2.0 * k
    upper = np.exp(t * md + t * t * vd / 2.0 + log_ndtr(-md / s - t * s))
    lower = np.exp(-t * md + t * t * vd / 2.0 + log_ndtr(md / s - t * s))
    return np.sum((upper + lower) / (k * k), axis=0)


# The series as a function of r = |m|/s and log s (d ~ N(m, s^2)) is
# tabulated for r <= _DILOG_R_MAX and s in _DILOG_S_RANGE; the table is
# built on first use into _DILOG_CACHE.
_DILOG_R_MAX = 8.0
_DILOG_S_RANGE = (0.05, 20.0)
_DILOG_STEPS = (320, 240)       # table intervals along r and along log s
_DILOG_CHEB_NODES = 32          # Chebyshev fit of the series, per axis
_DILOG_GH_NODES = 8             # Gauss-Hermite nodes for r > _DILOG_R_MAX
_DILOG_CACHE: dict = {}
# 4-point Lagrange interpolation on nodes -1, 0, 1, 2: row i holds the
# coefficients of p^i in the four weights, for the offset p in [0, 1)
_LAGRANGE4 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0 / 3.0, -0.5, 1.0, -1.0 / 6.0],
    [0.5, -1.0, 0.5, 0.0],
    [-1.0 / 6.0, 0.5, -0.5, 1.0 / 6.0],
])


def _chebyshev_basis(v, lo, hi, count):
    """T_k((2v - lo - hi)/(hi - lo)), k < count, as a (len(v), count) matrix."""
    x = np.clip((2.0 * v - lo - hi) / (hi - lo), -1.0, 1.0)
    return np.cos(np.arccos(x)[:, None] * np.arange(count))


def _dilog_table():
    """The lookup table of _mean_dilog_exp, built on first call (20-35 ms).

    Rows sit at r = (i - 1)*h_r and columns at log s = log s_lo + (j - 1)*h_t:
    one node before the start of each range and two past its end, so
    every point in range has its full 4 x 4 stencil. The row at r = -h_r
    mirrors r = h_r, as the function is even in m. The values come from
    a Chebyshev interpolant of the series on _DILOG_CHEB_NODES^2 nodes
    over the grid's box (~1e-8 from the series), which costs far less
    than the series on every grid point.
    """
    if not _DILOG_CACHE:
        nr, nt = _DILOG_STEPS
        hr = _DILOG_R_MAX / nr
        t_lo, t_hi = np.log(_DILOG_S_RANGE)
        ht = (t_hi - t_lo) / nt
        r = np.abs(np.arange(-1, nr + 3) * hr)
        t = t_lo + np.arange(-1, nt + 3) * ht
        n = _DILOG_CHEB_NODES
        theta = np.pi * (np.arange(n) + 0.5) / n
        x = np.cos(theta)
        r_nodes = 0.5 * (x + 1.0) * r[-1]
        s_nodes = np.exp(t[0] + 0.5 * (x + 1.0) * (t[-1] - t[0]))
        f = _mean_dilog_series(r_nodes[:, None] * s_nodes, s_nodes * s_nodes)
        dct = np.cos(np.outer(np.arange(n), theta))
        coef = (2.0 / n) ** 2 * (dct @ f @ dct.T)
        coef[0] *= 0.5
        coef[:, 0] *= 0.5
        table = (_chebyshev_basis(r, 0.0, r[-1], n) @ coef
                 @ _chebyshev_basis(t, t[0], t[-1], n).T)
        cols = table.shape[1]
        _DILOG_CACHE.update(
            table=table.ravel(), cols=cols, inv_hr=1.0 / hr, inv_ht=1.0 / ht,
            t_lo=t_lo, t_hi=t_hi,
            stencil=(np.arange(4)[:, None] * cols + np.arange(4)).reshape(16, 1))
    return _DILOG_CACHE


def _lagrange4(p):
    """(4,) + p.shape cubic interpolation weights of nodes -1, 0, 1, 2 at offsets p."""
    c = _LAGRANGE4.reshape((4, 4) + (1,) * p.ndim)
    return ((c[3] * p + c[2]) * p + c[1]) * p + c[0]


def _mean_dilog_exp(md, vd):
    """E{Li2(e^{-2|d|})} for d ~ N(md, vd), elementwise over arrays.

    Equals the 120-term series of _mean_dilog_series (to ~2e-8), for a
    small fraction of its cost:
    - where s = sqrt(vd) lies in _DILOG_S_RANGE and r = |md|/s <= 8, by a
      bicubic (4 x 4 point Lagrange) lookup in a table over (r, log s);
    - where r > 8, by an 8-node Gauss-Hermite sum of Li2(e^{-2|d|}): the
      kink at d = 0 lies 8 standard deviations out and carries no weight;
    - outside the table's range of s, by the series itself.
    The v = 0 limit Li2(e^{-2|m|}) is left to the caller.
    """
    md, vd = np.broadcast_arrays(np.abs(np.asarray(md, dtype=float)),
                                 np.asarray(vd, dtype=float))
    shape = md.shape
    md, vd = md.ravel(), vd.ravel()
    tab = _dilog_table()
    s = np.sqrt(np.maximum(vd, _VAR_FLOOR))
    r = md / s
    t = np.log(s)
    # table coordinates, clamped to the table (fmin/fmax keep NaN in it too)
    pos = np.empty((2,) + r.shape)
    np.multiply(np.fmin(r, _DILOG_R_MAX), tab["inv_hr"], out=pos[0])
    np.multiply(np.fmin(np.fmax(t, tab["t_lo"]), tab["t_hi"]) - tab["t_lo"],
                tab["inv_ht"], out=pos[1])
    cell = pos.astype(np.intp)
    w = _lagrange4(pos - cell)
    vals = tab["table"].take(tab["stencil"] + (cell[0] * tab["cols"] + cell[1]))
    out = np.einsum("ij,ij->j", (w[:, None, 0] * w[:, 1]).reshape(16, -1), vals)

    wide = (t < tab["t_lo"]) | (t > tab["t_hi"])
    far = np.flatnonzero((r > _DILOG_R_MAX) & ~wide)
    if far.size:
        x, wx = _gh_nodes(_DILOG_GH_NODES)
        d = np.abs(md[far, None] + s[far, None] * x)
        out[far] = spence(-np.expm1(-2.0 * d)) @ wx
    if np.any(wide):
        out[wide] = _mean_dilog_series(md[wide], vd[wide])
    out[np.isnan(r)] = np.nan
    return out.reshape(shape)


def logsum_moments(ma, va, mb, vb, diag=None):
    """Moments of r = log|A+B| for independent log-Gaussians a, b, uniform phase.

    Evaluated in closed form rather than by nested sigma-point sums:
    conditional on (a, b), the phase average of log|A+B| is exactly
    max(a, b) and the conditional variance is 0.5*Li2(e^{-2|a-b|})
    (Fourier expansion of log|1 + q e^{j phi}|), so the outer Gaussian
    expectation reduces to the moments of max(a, b) (Clark, 1961), taken
    relative to mb, plus the mean dilogarithm E{Li2(e^{-2|a-b|})}, which
    _mean_dilog_exp reads from a table. Where both variances are 0 the
    dilogarithm is taken in closed form. The closed form is the converged
    limit of a sigma-point evaluation over (a, b, phi).
    """
    ma, va, mb, vb = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (ma, va, mb, vb)))
    theta2 = np.maximum(va, 0.0) + np.maximum(vb, 0.0)
    degenerate = theta2 <= 0.0
    theta = np.sqrt(np.where(degenerate, 1.0, theta2))
    d = ma - mb
    alpha = d / theta
    cdf = ndtr(alpha)
    tpdf = theta * np.exp(-0.5 * alpha * alpha) / np.sqrt(2.0 * np.pi)
    # moments of max(a, b) - mb
    e1 = d * cdf + tpdf
    e2 = (d * d + va) * cdf + vb * (1.0 - cdf) + d * tpdf
    phase_var = _mean_dilog_exp(d, np.where(degenerate, 1.0, theta2))
    if np.any(degenerate):
        e1 = np.where(degenerate, np.maximum(d, 0.0), e1)
        e2 = np.where(degenerate, e1 * e1, e2)
        phase_var = np.where(degenerate, _dilog(np.exp(-2.0 * np.abs(d))), phase_var)
    return mb + e1, _clamp_var(e2 - e1 * e1 + 0.5 * phase_var, diag)


# (u, phi) quadrature of the split, keyed by (k_u, k_phase)
_SPLIT_CACHE: dict[tuple[int, int], tuple] = {}


def _split_nodes(k_u, k_phase):
    """Nodes of the split's quadrature, shaped for (k_u, k_phase, bins) arrays.

    Returns (x, cos_phi, const): the standard normal nodes of u as a
    (k_u, 1) column, the phase cosines as a (k_phase, 1) column, and the
    constant part of each u node's log-weight, log w_u + log w_phi + x^2/2,
    as a (k_u, 1, 1) array (the phase weights are all 1/k_phase).
    """
    key = (k_u, k_phase)
    if key not in _SPLIT_CACHE:
        x, wu = _gh_nodes(k_u)
        phi, w_phi = phase_sigma_points(k_phase)
        const = np.log(wu) + np.log(w_phi[0]) + 0.5 * x * x
        _SPLIT_CACHE[key] = (x[:, None], np.cos(phi)[:, None], const[:, None, None])
    return _SPLIT_CACHE[key]


def _split_core(ma, va, mb, vb, obs, k_u, k_phase, b_moments=True):
    """Conditional moments of (a, b) given log|A+B| = y, at each y in obs.

    Change of variables (a, b, phi) -> (u, y, phi) with u = b - a; the
    u-integral is Gaussian quadrature along the prior of u, solving the
    constraint for a at each (u, phi); the Jacobian is unity.

    At node (x, phi), u = m_b - m_a + s_u*x and the offsets from the prior
    means are e = a - m_a = y - m_a - log|1 + e^{u + j phi}| and
    f = b - m_b = e + s_u*x. The three Gaussian log-pdfs of a, b and u
    then fold into one quadratic in e, whose per-bin constants cancel in
    the normalised weights; they are added back only to test the
    unnormalised maximum against _LOG_TINY. The shifted log-weights are
    clamped at -700 before the exponential: a weight below e^-700 is
    under one ulp of their sum (>= 1), and np.exp is many times slower
    on arguments that underflow. The five weighted sums over the
    k_u*k_phase nodes are one matrix-vector product, taken relative to
    the heaviest node so that a narrow posterior keeps a non-negative
    variance.

    Everything that does not depend on y is computed once, per u node
    where it does not depend on the phase. The observation points are
    then taken one at a time, on (k_u, k_phase, bins) arrays that stay in
    cache; with the bins last, every per-bin or per-node operand
    broadcasts along whole rows of bins.

    With b_moments False, f is never formed: only the sums of w, w e and
    w e^2 are taken, which drops 5 of the ~17 passes over the nodes per
    observation point, and E f, var f are returned as None.

    The priors are (bins,) arrays and obs is (observation points, bins).
    Returns (E e, var e, E f, var f, fallback), each (observation points,
    bins); the variances are not yet clamped at 0.
    """
    x, cos_phi, const = _split_nodes(k_u, k_phase)

    va_f = np.maximum(va, _VAR_FLOOR)
    vb_f = np.maximum(vb, _VAR_FLOOR)
    vu = np.maximum(va + vb, _VAR_FLOOR)
    sx = (np.sqrt(vu) * x)[:, None]                  # s_u*x, (k_u, 1, bins)
    lps = log_phasor_sum(0.0, mb - ma + sx, cos_phi)  # (k_u, k_phase, bins)
    # log-weight = const - e^2/(2 va) - (e + s_u x)^2/(2 vb) + per-bin terms
    #            = quad - e*(curv*e + lin)
    hb = 0.5 / vb_f
    curv = 0.5 / va_f + hb
    lin = 2.0 * hb * sx
    quad = const - hb * sx * sx
    lconst = 0.5 * (np.log(2.0 * np.pi * vu) - np.log(2.0 * np.pi * va_f)
                    - np.log(2.0 * np.pi * vb_f))

    # per observation point: the top node's log-weight, e and f, and the
    # sums of w, w e, w e^2, w f, w f^2 (the f rows only with b_moments)
    # with e and f taken relative to the top node, so that the sums stay
    # small where the posterior is narrow
    rows, tops = (5, 3) if b_moments else (3, 2)
    top_vals = np.empty((tops,) + obs.shape)
    sums = np.empty((rows,) + obs.shape)
    buf = np.empty((rows,) + lps.shape)
    logw, we, e = buf[:3]
    if b_moments:
        wf, f = buf[3:]
    nodes = lps.shape[0] * lps.shape[1]
    cols = np.arange(ma.size)
    ones = np.ones(nodes)
    for i, y_i in enumerate(obs):
        np.subtract(y_i - ma, lps, out=e)
        np.multiply(e, curv, out=logw)
        logw += lin
        logw *= e
        np.subtract(quad, logw, out=logw)
        top = logw.reshape(nodes, -1).argmax(axis=0) * ma.size + cols
        mx, e0 = top_vals[:2, i]
        logw.take(top, out=mx)
        e.take(top, out=e0)
        if b_moments:
            np.add(e, sx, out=f)
            f.take(top, out=top_vals[2, i])
            f -= top_vals[2, i]
        logw -= np.where(np.isfinite(mx), mx, 0.0)
        np.maximum(logw, -700.0, out=logw)
        w = np.exp(logw, out=logw)
        e -= e0
        np.multiply(w, e, out=we)
        e *= we
        if b_moments:
            np.multiply(w, f, out=wf)
            f *= wf
        np.matmul(ones, buf.reshape(rows, nodes, -1), out=sums[:, i])

    mx, e0 = top_vals[:2]
    z, s_e, s_e2 = sums[:3]
    lmax = mx + lconst
    fallback = ~np.isfinite(lmax) | (lmax < _LOG_TINY) | (z <= 0)
    inv_z = 1.0 / np.where(z > 0, z, 1.0)
    de = s_e * inv_z
    a_post = (e0 + de, s_e2 * inv_z - de * de)
    if not b_moments:
        return (*a_post, None, None, fallback)
    df = sums[3] * inv_z
    return (*a_post, top_vals[2] + df, sums[4] * inv_z - df * df, fallback)


def split_scalar_obs(ma, va, mb, vb, y, k_u=15, k_phase=6, diag=None):
    """Posterior moments of (a, b) given the scalar observation log|A+B| = y.

    Where the observation is numerically inconsistent with the priors the
    priors are returned unchanged and the fallback flag is set.
    """
    ma, va, mb, vb, y = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (ma, va, mb, vb, y))
    )
    ea, va_post, eb, vb_post, fb = (r.reshape(y.shape) for r in _split_core(
        ma.ravel(), va.ravel(), mb.ravel(), vb.ravel(), y.reshape(1, -1), k_u, k_phase))
    if diag is not None and np.any(fb):
        diag.fallbacks += int(np.count_nonzero(fb))
    ma_out = np.where(fb, ma, ma + ea)
    va_out = np.where(fb, va, _clamp_var(va_post, diag))
    mb_out = np.where(fb, mb, mb + eb)
    vb_out = np.where(fb, vb, _clamp_var(vb_post, diag))
    return ma_out, va_out, mb_out, vb_out, fb


def split_distributed_obs(ma, va, mb, vb, mo, vo, k_u=15, k_phase=6, k_obs=3, diag=None,
                          b_moments=True):
    """Posterior moments of (a, b) when the observation is itself Gaussian.

    Outer sigma-point sum over the observation distribution of the
    scalar-observation split; conditional moments are combined across
    observation points before conversion to variance. With b_moments
    False only the posterior of a is computed, and the posterior mean and
    variance of b are returned as None; the posterior of a and the
    fallback flags are the same as with b_moments True, and diag counts
    variance clamps of a only.
    """
    ma, va, mb, vb, mo, vo = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (ma, va, mb, vb, mo, vo))
    )
    shape = ma.shape
    ma, va, mb, vb, mo, vo = (v.ravel() for v in (ma, va, mb, vb, mo, vo))
    x, w = _gh_nodes(k_obs)
    obs = mo + np.sqrt(np.maximum(vo, 0.0)) * x[:, None]       # (k_obs, bins)
    ea, va_obs, eb, vb_obs, fb = _split_core(ma, va, mb, vb, obs, k_u, k_phase, b_moments)

    wts = np.where(fb, 0.0, w[:, None])
    z = np.sum(wts, axis=0)
    all_fb = z <= 0
    z_safe = np.where(all_fb, 1.0, z)
    if diag is not None and np.any(all_fb):
        diag.fallbacks += int(np.count_nonzero(all_fb))

    def _m(f):
        return np.sum(np.where(fb, 0.0, f) * wts, axis=0) / z_safe

    # mixture over the observation points: mean of the means, and mean of
    # the variances plus the spread of the means
    ea1 = _m(ea)
    va_mix = _m(va_obs + (ea - ea1) ** 2)
    ma_out = np.where(all_fb, ma, ma + ea1).reshape(shape)
    va_out = np.where(all_fb, va, _clamp_var(va_mix, diag)).reshape(shape)
    if not b_moments:
        return ma_out, va_out, None, None, all_fb.reshape(shape)
    eb1 = _m(eb)
    vb_mix = _m(vb_obs + (eb - eb1) ** 2)
    return (ma_out, va_out, np.where(all_fb, mb, mb + eb1).reshape(shape),
            np.where(all_fb, vb, _clamp_var(vb_mix, diag)).reshape(shape), all_fb.reshape(shape))


def line_constrained_update(mx, vx, my, vy, mt, vt):
    """Condition the diagonal Gaussian (x, y, w) on x + y - w = mt.

    w is a zero-mean slack with variance vt. Returns the posterior
    marginals (mx', vx', my', vy'). Degenerate bins (all three variances
    zero) keep their priors.
    """
    mx, vx, my, vy, mt, vt = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (mx, vx, my, vy, mt, vt))
    )
    denom = vx + vy + vt
    ok = denom > 0
    d_safe = np.where(ok, denom, 1.0)
    innov = mt - (mx + my)
    mx_out = np.where(ok, mx + vx / d_safe * innov, mx)
    my_out = np.where(ok, my + vy / d_safe * innov, my)
    vx_out = np.where(ok, vx * (1.0 - vx / d_safe), vx)
    vy_out = np.where(ok, vy * (1.0 - vy / d_safe), vy)
    return mx_out, np.maximum(vx_out, 0.0), my_out, np.maximum(vy_out, 0.0)


def fuse_moments(m1, v1, m2, v2):
    """Gaussian-Gaussian multiplication (precision-weighted fusion)."""
    m1, v1, m2, v2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (m1, v1, m2, v2))
    )
    tot = v1 + v2
    # masked arithmetic: an infinite factor would give inf/inf here
    ok = np.isfinite(tot) & (tot > 0)
    v1_ok, v2_ok = np.where(ok, v1, 0.0), np.where(ok, v2, 0.0)
    mean = np.divide(m1 * v2_ok + m2 * v1_ok, tot, out=np.array(m1), where=ok)
    var = np.divide(v1_ok * v2_ok, tot, out=np.zeros_like(tot), where=ok)
    # infinite-variance inputs: the other factor wins
    mean = np.where(np.isinf(v1), m2, np.where(np.isinf(v2), m1, mean))
    var = np.where(np.isinf(v1), v2, np.where(np.isinf(v2), v1, var))
    return mean, var
