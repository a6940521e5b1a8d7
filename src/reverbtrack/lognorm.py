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
  (|m|/s, log s) that one exact quadrature fills on first use; each cell
  holds the 16 coefficients of its bicubic, so a lookup is one gather and
  one einsum;
- _split_core (the posterior given log|A+B|) folds the three Gaussian
  log-pdfs of its (u, phi) quadrature into one quadratic per node, sums
  the nodes by a matrix product relative to each observation point's
  heaviest node, and clamps the shifted log-weights at -700 so that no
  exponential underflows.
The split's quadrature orders are constants of the module: _K_U = 15
Gauss-Hermite nodes along u = b - a, _K_PHASE = 6 phase nodes, and
_K_OBS = 3 Gauss-Hermite points of a Gaussian observation.

The normal CDF and the dilogarithm come from reverbtrack.special, and
the quadrature rules from numpy.polynomial, so no scipy module is loaded.

Every operation works on numpy arrays of means and variances,
elementwise over any shape of bins; the frame loop calls each one once
per frame on all bins at once. A call costs tens of microseconds even
on one bin, so the operations skip their broadcasting and masking
where the frame loop's equal-shape inputs and fallback-free results
make them a no-op.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from .special import li2_exp, ndtr

_LOG_TINY = np.log(1e-300)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_VAR_FLOOR = 1e-12
_K_U, _K_PHASE, _K_OBS = 15, 6, 3     # the split's quadrature orders


@dataclass
class Diagnostics:
    """Counters for numerical events; exposed instead of silently masked."""

    variance_clamps: int = 0
    fallbacks: int = 0


@functools.cache
def _gh_nodes(count):
    """Gauss-Hermite (probabilists') nodes and weights; the weights sum to 1."""
    x, w = hermegauss(count)
    return x, w / w.sum()


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


def log_phasor_sum(u, cos_phi):
    """log|A + B| - log|A| from the gap u = log|B| - log|A| and the cosine
    of the phase gap; the split references each sum to its first term.

    Branch-free: max(0, u) + 0.5*log1p(q*(q + 2*cos_phi)) with
    q = e^{-|u|} <= 1, so nothing overflows for any gap. Exact
    cancellation (u == 0, cos_phi == -1) gives -inf.
    """
    q = np.abs(u, dtype=float)
    np.negative(q, out=q)
    np.exp(q, out=q)
    out = q + 2.0 * np.asarray(cos_phi)
    out *= q
    np.log1p(out, out=out)
    out *= 0.5
    out += np.maximum(0.0, u)
    return out


def _clamp_var(v, diag=None):
    """Variances with rounding-level negatives set to 0, counted in diag.

    v itself is returned where nothing is negative.
    """
    neg = v < 0
    if not neg.any():
        return v
    if diag is not None:
        diag.variance_clamps += int(np.count_nonzero(neg))
    return np.where(neg, 0.0, v)


def _float_arrays(*values):
    """The values as float64 arrays of one shape.

    Arrays that already are (as the frame loop passes them) are returned
    as they are, without the cost of broadcasting.
    """
    shape = np.shape(values[0])
    for v in values:
        if type(v) is not np.ndarray or v.dtype != np.float64 or v.shape != shape:
            return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    return values


# ---------------------------------------------------------------------------
# array-level operations (vectorised over any leading shape)
# ---------------------------------------------------------------------------

# E{Li2(e^{-2|d|})} is tabulated as a function of r = |m|/s and log s
# (d ~ N(m, s^2)) for r <= _DILOG_R_MAX and s in _DILOG_S_RANGE; the
# table is built on first use.
_DILOG_R_MAX = 8.0
_DILOG_S_RANGE = (0.05, 20.0)
_DILOG_STEPS = (120, 90)        # table intervals along r and along log s
_DILOG_GH_NODES = 8             # Gauss-Hermite nodes for r > _DILOG_R_MAX
_DILOG_VAR_MIN = np.finfo(float).tiny   # floor of the variance, so that s > 0
# 4-point Lagrange interpolation on nodes -1, 0, 1, 2: row i holds the
# coefficients of p^0..p^3 in the weight of node i - 1, for the offset p
# in [0, 1)
_LAGRANGE4 = np.array([
    [0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0],
    [1.0, -0.5, -1.0, 0.5],
    [0.0, 1.0, 0.5, -0.5],
    [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0],
])


@functools.cache
def _quad_rule():
    """The 48-point Gauss-Legendre rule of _mean_dilog_quad as (t^2, weights).

    t lies in [0, 1]; the weights carry the Jacobian 2t of
    u = lo + span*t^2 and the normal density's 1/sqrt(2 pi). The rule
    comes from numpy.polynomial, which, unlike scipy's roots_legendre,
    loads no scipy module into a process that calls enhance.
    """
    t, w = leggauss(48)
    t = 0.5 * (t + 1.0)
    return t * t, w * t / np.sqrt(2.0 * np.pi)


def _mean_dilog_quad(md, vd):
    """E{Li2(e^{-2|d|})} for d ~ N(md, vd), vd > 0, elementwise by quadrature.

    With s = sqrt(vd), r = |md|/s and u = |d|/s, the density of u on
    u >= 0 is phi(u - r) + phi(u + r). The integral runs over
    [max(r - 9, 0), r + 9], cut at u = 20/s where Li2(e^{-2su}) < 1e-17,
    by Gauss-Legendre in t with u = lo + span*t^2: the map packs the nodes
    at u = 0, where Li2(e^{-2x}) has an x*log(x) kink. Within 1e-10 of
    the exact integral for s in [1e-12, 1e4] and r <= 8.
    """
    t2, w = _quad_rule()
    md = np.abs(np.asarray(md, dtype=float))[..., None]
    s = np.sqrt(np.asarray(vd, dtype=float))[..., None]
    r = md / s
    lo = np.maximum(r - 9.0, 0.0)
    span = np.maximum(np.minimum(r + 9.0, 20.0 / s) - lo, 0.0)
    u = lo + span * t2
    dens = np.exp(-0.5 * (u - r) ** 2) + np.exp(-0.5 * (u + r) ** 2)
    return (li2_exp(s * u) * dens) @ w * span[..., 0]


@functools.cache
def _dilog_table():
    """The lookup table of _mean_dilog_exp, built on first call (~40 ms).

    Nodes sit at r = (i - 1)*h_r and log s = log s_lo + (j - 1)*h_t: one
    node before the start of each range and two past its end, so every
    point in range has its full 4 x 4 stencil. The row at r = -h_r
    mirrors r = h_r, as the function is even in m. Every node value is
    read from _mean_dilog_quad, one column of s at a time so that the
    build stays small in memory. Each cell then holds the 16
    coefficients C_kl of its bicubic sum_kl C_kl p^k q^l in the offsets
    (p, q) in [0, 1)^2, which is the 4 x 4 point Lagrange interpolation
    of its stencil: C = L^T V L with L = _LAGRANGE4 and V the stencil.
    """
    nr, nt = _DILOG_STEPS
    hr = _DILOG_R_MAX / nr
    t_lo, t_hi = np.log(_DILOG_S_RANGE)
    ht = (t_hi - t_lo) / nt
    r = np.arange(-1, nr + 3) * hr
    s = np.exp(t_lo + np.arange(-1, nt + 3) * ht)
    nodes = np.stack([_mean_dilog_quad(r * s_j, s_j * s_j) for s_j in s], axis=1)
    coef = (_LAGRANGE4.T @ sliding_window_view(nodes, (4, 4)) @ _LAGRANGE4).transpose(2, 3, 0, 1)
    return dict(coef=np.ascontiguousarray(coef.reshape(16, -1)), cols=nt + 1,
                inv_hr=1.0 / hr, inv_ht=1.0 / ht, t_lo=t_lo, t_hi=t_hi,
                pos_max=np.array([[nr], [nt]], dtype=float))


def _all_or_where(mask):
    """A full slice where every entry of the 1-D mask is True, else the
    indices of its True entries: a slice indexes without a copy."""
    return slice(None) if mask.all() else mask.nonzero()[0]


def _mean_dilog_exp(md, vd):
    """E{Li2(e^{-2|d|})} for d ~ N(md, vd), elementwise over arrays.

    Within 4e-7 of the exact integral where the table is read and 1e-10
    elsewhere; the table and the Gauss-Hermite sum cost a small fraction
    of the quadrature:
    - where s = sqrt(vd) lies in _DILOG_S_RANGE and r = |md|/s <= 8, by a
      bicubic (4 x 4 point Lagrange) lookup in a table over (r, log s);
    - where r > 8, whatever s, by an 8-node Gauss-Hermite sum of
      Li2(e^{-2|d|}): the kink at d = 0 lies 8 standard deviations out
      and carries no weight;
    - where r <= 8 and s lies outside the table's range, by the
      quadrature itself.
    vd is floored at the smallest normal double, so vd <= 0 takes one of
    the last two branches, which give the limit Li2(e^{-2|md|}) to 1e-14.
    Each point reads its cell's 16 bicubic coefficients and sums them
    against the powers of its offsets in one einsum. Where every point
    lies in the table, as in the frame loop's common case, the branches
    cost only the three range checks.
    """
    md, vd = _float_arrays(np.abs(md), vd)
    shape = md.shape
    md, vd = md.ravel(), np.maximum(vd.ravel(), _DILOG_VAR_MIN)
    tab = _dilog_table()
    s = np.sqrt(vd)
    r = md / s
    t = np.log(s)
    pos = np.empty((2,) + r.shape)                      # table coordinates
    np.multiply(r, tab["inv_hr"], out=pos[0])
    np.subtract(t, tab["t_lo"], out=pos[1])
    pos[1] *= tab["inv_ht"]
    # NaN fails every comparison, so it never counts as inside
    inside = not r.size or (r.max() <= _DILOG_R_MAX and t.min() >= tab["t_lo"]
                            and t.max() <= tab["t_hi"])
    if not inside:
        # clamped into the table (fmin/fmax keep NaN in it too); what is
        # read there for points outside the table is replaced below
        np.fmax(np.fmin(pos, tab["pos_max"], out=pos), 0.0, out=pos)
    cell = pos.astype(np.intp)
    powers = np.empty((4,) + pos.shape)                # (power, coordinate, point)
    powers[0] = 1.0
    np.subtract(pos, cell, out=powers[1])
    np.multiply(powers[1], powers[1], out=powers[2])
    np.multiply(powers[2], powers[1], out=powers[3])
    coef = tab["coef"].take(cell[0] * tab["cols"] + cell[1], axis=1).reshape(4, 4, -1)
    out = np.einsum("kn,ln,kln->n", powers[:, 0], powers[:, 1], coef)
    if inside:
        return out.reshape(shape)

    far = r > _DILOG_R_MAX
    if far.any():
        far = _all_or_where(far)
        x, wx = _gh_nodes(_DILOG_GH_NODES)
        out[far] = li2_exp(np.abs(md[far, None] + s[far, None] * x)) @ wx
    wide = ((t < tab["t_lo"]) | (t > tab["t_hi"])) & (r <= _DILOG_R_MAX)
    if wide.any():
        wide = _all_or_where(wide)
        out[wide] = _mean_dilog_quad(md[wide], vd[wide])
    nan = np.isnan(r)
    if nan.any():
        out[nan] = np.nan
    return out.reshape(shape)


def logsum_moments(ma, va, mb, vb, diag=None):
    """Moments of r = log|A+B| for independent log-Gaussians a, b, uniform phase.

    Evaluated in closed form rather than by nested sigma-point sums:
    conditional on (a, b), the phase average of log|A+B| is exactly
    max(a, b) and the conditional variance is 0.5*Li2(e^{-2|a-b|})
    (Fourier expansion of log|1 + q e^{j phi}|), so the outer Gaussian
    expectation reduces to the moments of max(a, b) (Clark, 1961), taken
    relative to mb, plus the mean dilogarithm E{Li2(e^{-2|a-b|})} of
    _mean_dilog_exp, which is exact where both variances are 0 and
    continuous as they go to 0. The closed form is the converged
    limit of a sigma-point evaluation over (a, b, phi).
    """
    # every result broadcasts over all four inputs, so none is broadcast here
    ma, va, mb, vb = (np.asarray(x, dtype=float) for x in (ma, va, mb, vb))
    theta2 = np.maximum(va, 0.0) + np.maximum(vb, 0.0)
    degenerate = theta2 <= 0.0
    some_degenerate = degenerate.any()
    theta = np.sqrt(np.where(degenerate, 1.0, theta2) if some_degenerate else theta2)
    d = ma - mb
    alpha = d / theta
    cdf = ndtr(alpha)
    tpdf = theta * np.exp(-0.5 * alpha * alpha) / _SQRT_2PI
    # moments of max(a, b) - mb
    e1 = d * cdf + tpdf
    e2 = (d * d + va) * cdf + vb * (1.0 - cdf) + d * tpdf
    if some_degenerate:
        e1 = np.where(degenerate, np.maximum(d, 0.0), e1)
        e2 = np.where(degenerate, e1 * e1, e2)
    return mb + e1, _clamp_var(e2 - e1 * e1 + 0.5 * _mean_dilog_exp(d, theta2), diag)


@functools.cache
def _split_nodes():
    """Nodes of the split's quadrature, shaped for (_K_U, _K_PHASE, bins) arrays.

    Returns (x, cos_phi, const): the standard normal nodes of u as a
    (_K_U, 1) column, the phase cosines as a (_K_PHASE, 1) column, and the
    constant part of each u node's log-weight, log w_u + log w_phi + x^2/2,
    as a (_K_U, 1, 1) array (the phase weights are all 1/_K_PHASE).
    """
    x, wu = _gh_nodes(_K_U)
    phi, w_phi = phase_sigma_points(_K_PHASE)
    const = np.log(wu) + np.log(w_phi[0]) + 0.5 * x * x
    return x[:, None], np.cos(phi)[:, None], const[:, None, None]


def _split_core(ma, va, mb, vb, obs, b_moments=True):
    """Conditional moments of (a, b) given log|A+B| = y, at each y in obs.

    Change of variables (a, b, phi) -> (u, y, phi) with u = b - a; the
    u-integral is Gaussian quadrature along the prior of u, solving the
    constraint for a at each (u, phi); the Jacobian is unity.

    At node (x, phi), u = m_b - m_a + s_u*x and the offsets from the prior
    means are e = a - m_a = y - m_a - log|1 + e^{u + j phi}| and
    f = b - m_b = e + s_u*x. The three Gaussian log-pdfs of a, b and u
    then fold into one quadratic in e, whose per-bin constants cancel in
    the normalised weights; they are added back only to test the
    unnormalised maximum against _LOG_TINY. Each point's log-weights are
    shifted by their maximum and clamped at -700 before the exponential:
    a weight below e^-700 is under one ulp of their sum (>= 1), and
    np.exp is many times slower on arguments that underflow. The five
    weighted sums over the _K_U*_K_PHASE nodes are one matrix-vector
    product, taken relative to a reference node so that a narrow
    posterior keeps its variance.

    Each observation point's reference is its own heaviest node, found by
    one argmax per point.

    Everything that does not depend on y is computed once, per u node
    where it does not depend on the phase. The observation points are
    then taken one at a time, on (_K_U, _K_PHASE, bins) arrays that stay in
    cache; with the bins last, every per-bin or per-node operand
    broadcasts along whole rows of bins.

    With b_moments False, f is never formed: only the sums of w, w e and
    w e^2 are taken, and E f, var f are returned as None.

    The priors are (bins,) arrays and obs is (observation points, bins).
    Returns (E e, var e, E f, var f, fallback), each (observation points,
    bins); the variances are not yet clamped at 0.
    """
    x, cos_phi, const = _split_nodes()

    va_f = np.maximum(va, _VAR_FLOOR)
    vb_f = np.maximum(vb, _VAR_FLOOR)
    vu = np.maximum(va + vb, _VAR_FLOOR)
    sx = (np.sqrt(vu) * x)[:, None]                  # s_u*x, (_K_U, 1, bins)
    lps = log_phasor_sum(mb - ma + sx, cos_phi)      # (_K_U, _K_PHASE, bins)
    # log-weight = const - e^2/(2 va) - (e + s_u x)^2/(2 vb) + per-bin terms
    #            = quad - e*(curv*e + lin)
    hb = 0.5 / vb_f
    curv = 0.5 / va_f + hb
    lin = 2.0 * hb * sx
    quad = const - hb * sx * sx
    lconst = 0.5 * (np.log(2.0 * np.pi * vu) - np.log(2.0 * np.pi * va_f)
                    - np.log(2.0 * np.pi * vb_f))

    # per observation point: the maximum log-weight, and the sums of w,
    # w de, w de^2, w df, w df^2 (the df rows only with b_moments), where
    # de = e - e_ref and df = f - f_ref are the offsets from the point's
    # heaviest node
    rows = 5 if b_moments else 3
    mx = np.empty(obs.shape)
    e_ref = np.empty(obs.shape)
    f_ref = np.empty(obs.shape)
    sums = np.empty((rows,) + obs.shape)
    buf = np.empty((rows,) + lps.shape)
    logw, de = buf[0], np.empty(lps.shape)
    nodes = lps.shape[0] * lps.shape[1]
    cols = np.arange(ma.size)
    ones = np.ones(nodes)
    for i, y_i in enumerate(obs):
        np.subtract(y_i - ma, lps, out=de)
        np.multiply(de, curv, out=logw)
        np.add(logw, lin, out=logw)
        np.multiply(logw, de, out=logw)
        np.subtract(quad, logw, out=logw)
        node = logw.reshape(nodes, -1).argmax(axis=0)
        top = node * ma.size + cols
        logw.take(top, out=mx[i])
        de.take(top, out=e_ref[i])
        de -= e_ref[i]
        logw -= np.where(np.isfinite(mx[i]), mx[i], 0.0)
        np.maximum(logw, -700.0, out=logw)
        w = np.exp(logw, out=logw)
        np.multiply(w, de, out=buf[1])
        np.multiply(buf[1], de, out=buf[2])
        if b_moments:
            sx_ref = sx[node // lps.shape[1], 0, cols]
            f_ref[i] = e_ref[i] + sx_ref
            np.add(de, sx - sx_ref, out=buf[4])
            np.multiply(w, buf[4], out=buf[3])
            buf[4] *= buf[3]
        np.matmul(ones, buf.reshape(rows, nodes, -1), out=sums[:, i])

    z, s_e, s_e2 = sums[:3]
    lmax = mx + lconst
    fallback = ~np.isfinite(lmax) | (lmax < _LOG_TINY) | (z <= 0)
    inv_z = 1.0 / np.where(z > 0, z, 1.0)
    d_e = s_e * inv_z
    a_post = (e_ref + d_e, s_e2 * inv_z - d_e * d_e)
    if not b_moments:
        return (*a_post, None, None, fallback)
    d_f = sums[3] * inv_z
    return (*a_post, f_ref + d_f, sums[4] * inv_z - d_f * d_f, fallback)


def split_scalar_obs(ma, va, mb, vb, y, diag=None):
    """Posterior moments of (a, b) given the scalar observation log|A+B| = y.

    Where the observation is numerically inconsistent with the priors the
    priors are returned unchanged and the fallback flag is set.
    """
    ma, va, mb, vb, y = _float_arrays(ma, va, mb, vb, y)
    ea, va_post, eb, vb_post, fb = (r.reshape(y.shape) for r in _split_core(
        ma.ravel(), va.ravel(), mb.ravel(), vb.ravel(), y.reshape(1, -1)))
    va_post, vb_post = _clamp_var(va_post, diag), _clamp_var(vb_post, diag)
    if not fb.any():
        return ma + ea, va_post, mb + eb, vb_post, fb
    if diag is not None:
        diag.fallbacks += int(np.count_nonzero(fb))
    return (np.where(fb, ma, ma + ea), np.where(fb, va, va_post),
            np.where(fb, mb, mb + eb), np.where(fb, vb, vb_post), fb)


def split_distributed_obs(ma, va, mb, vb, mo, vo, diag=None, b_moments=True):
    """Posterior moments of (a, b) when the observation is itself Gaussian.

    Outer sigma-point sum over the observation distribution of the
    scalar-observation split; conditional moments are combined across
    observation points before conversion to variance. With b_moments
    False only the posterior of a is computed, and the posterior mean and
    variance of b are returned as None; the posterior of a and the
    fallback flags are the same as with b_moments True, and diag counts
    variance clamps of a only.
    """
    ma, va, mb, vb, mo, vo = _float_arrays(ma, va, mb, vb, mo, vo)
    shape = ma.shape
    ma, va, mb, vb, mo, vo = (v.ravel() for v in (ma, va, mb, vb, mo, vo))
    x, w = _gh_nodes(_K_OBS)
    obs = mo + np.sqrt(np.maximum(vo, 0.0)) * x[:, None]       # (_K_OBS, bins)
    ea, va_obs, eb, vb_obs, fb = _split_core(ma, va, mb, vb, obs, b_moments)

    # mixture over the observation points that did not fall back: mean of
    # the means, and mean of the variances plus the spread of the means
    some_fb = fb.any()
    if some_fb:
        wts = np.where(fb, 0.0, w[:, None])
        z = wts.sum(axis=0)
        all_fb = z <= 0
        z = np.where(all_fb, 1.0, z)
        if diag is not None:
            diag.fallbacks += int(np.count_nonzero(all_fb))
    else:
        # the weights added first to last, as the sum over the rows of a
        # (_K_OBS, bins) array adds them (np.sum over w itself may not)
        wts, z = w[:, None], np.add.accumulate(w)[-1]
        all_fb = np.zeros(ma.shape, dtype=bool)

    def _kept(f):
        return np.where(fb, 0.0, f) if some_fb else f

    def _post(prior_m, prior_v, m, v):
        m1 = (_kept(m) * wts).sum(axis=0) / z
        v1 = _clamp_var((_kept(v + (m - m1) ** 2) * wts).sum(axis=0) / z, diag)
        post_m, post_v = prior_m + m1, v1
        if some_fb:
            post_m, post_v = np.where(all_fb, prior_m, post_m), np.where(all_fb, prior_v, v1)
        return post_m.reshape(shape), post_v.reshape(shape)

    a_out = _post(ma, va, ea, va_obs)
    b_out = _post(mb, vb, eb, vb_obs) if b_moments else (None, None)
    return (*a_out, *b_out, all_fb.reshape(shape))


def line_constrained_update(mx, vx, my, vy, mt, vt):
    """Condition the diagonal Gaussian (x, y, w) on x + y - w = mt.

    w is a zero-mean slack with variance vt. Returns the posterior
    marginals (mx', vx', my', vy'). Degenerate bins (all three variances
    zero) keep their priors.
    """
    mx, vx, my, vy, mt, vt = _float_arrays(mx, vx, my, vy, mt, vt)
    denom = vx + vy + vt
    ok = denom > 0
    all_ok = ok.all()
    d = denom if all_ok else np.where(ok, denom, 1.0)
    innov = mt - (mx + my)
    mx_out, my_out = mx + vx / d * innov, my + vy / d * innov
    vx_out, vy_out = vx * (1.0 - vx / d), vy * (1.0 - vy / d)
    if not all_ok:
        mx_out, my_out = np.where(ok, mx_out, mx), np.where(ok, my_out, my)
        vx_out, vy_out = np.where(ok, vx_out, vx), np.where(ok, vy_out, vy)
    return mx_out, np.maximum(vx_out, 0.0), my_out, np.maximum(vy_out, 0.0)


def fuse_moments(m1, v1, m2, v2):
    """Gaussian-Gaussian multiplication (precision-weighted fusion)."""
    m1, v1, m2, v2 = _float_arrays(m1, v1, m2, v2)
    tot = v1 + v2
    # masked arithmetic: an infinite factor would give inf/inf here
    ok = np.isfinite(tot) & (tot > 0)
    all_ok = ok.all()
    if all_ok:
        v1_ok, v2_ok, t = v1, v2, tot
    else:
        v1_ok, v2_ok, t = np.where(ok, v1, 0.0), np.where(ok, v2, 0.0), np.where(ok, tot, 1.0)
    mean = (m1 * v2_ok + m2 * v1_ok) / t
    var = v1_ok * v2_ok / t
    if not all_ok:
        mean, var = np.where(ok, mean, m1), np.where(ok, var, 0.0)
        # infinite-variance inputs: the other factor wins
        mean = np.where(np.isinf(v1), m2, np.where(np.isinf(v2), m1, mean))
        var = np.where(np.isinf(v1), v2, np.where(np.isinf(v2), v1, var))
    return mean, var
