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
  log-pdfs of its (u, phi) quadrature into one quadratic per node and
  takes all observation points in one stacked pass. It shifts each
  point's log-weights by their maximum and clamps them at -600, so that
  no exponential underflows, and takes each point's moments about its
  own weighted mean by einsum reductions that form no product array; a
  weighted square w*de^2 of an offset de from that mean falls subnormal
  only for |de| below ~3e-24.

Both public splits run one path, _split: _split_core at observation
points (one of weight 1 in split_scalar_obs, Gauss-Hermite points of the
observation in split_distributed_obs), mixed over those that did not
fall back by one formula, _mixed. Only in a call where a point fell back
does it first zero that point's weight and posterior; otherwise a single
point is its own posterior and several are mixed as they are, at the
same bits.
Its (u, phi) rule comes from _split_nodes(k_u, k_phase); the
public splits pass _K_U = 15 nodes along u = b - a and _K_PHASE = 6
phase nodes, with by default _K_OBS = 3 observation points (the
obs_points keyword of split_distributed_obs).

The normal CDF and the dilogarithm come from reverbtrack.special, and
the quadrature rules from numpy.polynomial, imported on first use, so
no scipy module is loaded and an import loads no numpy.polynomial.

Every operation works on numpy arrays of means and variances,
elementwise over any shape of bins; the frame loop calls each one once
per frame on all bins at once. A call costs tens of microseconds even
on one bin, so the operations skip their broadcasting where the frame
loop's equal-shape inputs make it a no-op, and the splits their masking
where no observation point fell back. Each operation takes the variances
that enhance gives it, finite with a positive total (each docstring
states its domain), and has no branch for others; tests/test_enhancer.py
checks that domain on the inputs of enhance calls.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# np.einsum without optimize, and np.count_nonzero without an axis, only
# pass their arguments on to these C functions; the frame loop calls them
# directly, without the Python wrappers' dispatch. tests/test_lognorm.py
# checks that they give the wrappers' results
try:
    from numpy._core.multiarray import c_einsum, count_nonzero
except ImportError:     # numpy < 2
    from numpy.core.multiarray import c_einsum, count_nonzero

from .special import li2_exp, ndtr

_LOG_TINY = np.log(1e-300)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_VAR_FLOOR = 1e-12
_FLOAT64 = np.dtype(np.float64)
_K_U, _K_PHASE, _K_OBS = 15, 6, 3     # the split's quadrature orders
_ONE_POINT = np.ones(1)               # split_scalar_obs's weight, never written
# floor of the split's shifted log-weights: e^-600 is far below one ulp
# of their sum (>= 1), and w*de^2 stays a normal double for any |de| above
# ~3e-24, where e^-700 let it fall subnormal below |de| ~ 0.015
_LOG_W_MIN = -600.0


@dataclass
class Diagnostics:
    """Counters for numerical events; exposed instead of silently masked.

    floored_bins counts the bin-frames whose magnitude sat at the floor, so
    that the cascade skipped their observation updates and they kept their
    priors; they are not fallbacks."""

    variance_clamps: int = 0
    fallbacks: int = 0
    floored_bins: int = 0


@functools.cache
def _gh_nodes(count):
    """Gauss-Hermite (probabilists') nodes and weights; the weights sum to 1."""
    from numpy.polynomial.hermite_e import hermegauss
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
    count = count_nonzero(neg)
    if not count:
        return v
    if diag is not None:
        diag.variance_clamps += int(count)
    return np.where(neg, 0.0, v)


def _float_arrays(*values):
    """The values as float64 arrays of one shape.

    Arrays that already are (as the frame loop passes them) are returned
    as they are, without the cost of broadcasting. The dtype is tested by
    identity, which is cheaper than ==; an equal dtype that is another
    object (one with metadata) only takes the broadcasting path. enhance
    never takes that path; library callers do, with scalars (acceptance
    criterion 2) or arrays of any shape.
    """
    first = values[0]
    shape = first.shape if type(first) is np.ndarray else None
    for v in values:
        if type(v) is not np.ndarray or v.dtype is not _FLOAT64 or v.shape != shape:
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
    from numpy.polynomial.legendre import leggauss
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
    return c_einsum("...n,n->...", li2_exp(s * u) * dens, w) * span[..., 0]


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
    """None where no entry of the 1-D mask is True, a full slice where every
    entry is (a slice indexes without a copy), else the indices of its True
    entries. One count_nonzero tells the three apart."""
    count = count_nonzero(mask)
    if count == mask.size:
        return slice(None)
    return mask.nonzero()[0] if count else None


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
    The lookup itself is _dilog_lookup, which logsum_moments calls with
    the s and r it already holds.
    """
    md, vd = _float_arrays(md, vd)
    shape = md.shape
    md, vd = md.ravel(), np.maximum(vd.ravel(), _DILOG_VAR_MIN)
    s = np.sqrt(vd)
    return _dilog_lookup(md, vd, s, np.abs(md) / s).reshape(shape)


def _dilog_lookup(md, vd, s, r):
    """_mean_dilog_exp on 1-D arrays of one shape: the means md (of either
    sign), the variances vd >= _DILOG_VAR_MIN (or NaN), s = sqrt(vd) and
    r = |md|/s. md and vd are read only at points outside the table.

    Each point reads its cell's 16 bicubic coefficients and sums them
    against the powers of its offsets in one einsum. Where every point
    lies in the table, as in the frame loop's common case, the branches
    cost only the three range checks. The frame loop also reaches the
    branches outside the table: r > 8 on most frames, and theta outside
    _DILOG_S_RANGE wherever the total variance falls below 0.0025 or
    rises above 400. NaN it never gives, but a library caller can
    (tests/test_lognorm.py's test_fast_kernels_emit_no_warnings).

    Every sum over nodes here and in _mean_dilog_quad is an einsum, not a
    BLAS @, whose order for a point changes with the number of points in
    the call.
    """
    tab = _dilog_table()
    t = np.log(s)
    pos = np.empty((2,) + r.shape)                      # table coordinates
    np.multiply(r, tab["inv_hr"], out=pos[0])
    np.subtract(t, tab["t_lo"], out=pos[1])
    pos[1] *= tab["inv_ht"]
    # NaN fails every comparison, so it never counts as inside
    inside = not r.size or (np.maximum.reduce(r) <= _DILOG_R_MAX
                            and np.minimum.reduce(t) >= tab["t_lo"]
                            and np.maximum.reduce(t) <= tab["t_hi"])
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
    out = c_einsum("kn,ln,kln->n", powers[:, 0], powers[:, 1], coef)
    if inside:
        return out

    far = _all_or_where(r > _DILOG_R_MAX)
    if far is not None:
        x, wx = _gh_nodes(_DILOG_GH_NODES)
        out[far] = c_einsum("pn,n->p", li2_exp(np.abs(np.abs(md[far])[:, None] + s[far, None] * x)),
                            wx)
    wide = _all_or_where(((t < tab["t_lo"]) | (t > tab["t_hi"])) & (r <= _DILOG_R_MAX))
    if wide is not None:
        out[wide] = _mean_dilog_quad(md[wide], vd[wide])
    nan = np.isnan(r)
    if count_nonzero(nan):
        out[nan] = np.nan
    return out


def logsum_moments(ma, va, mb, vb, diag=None):
    """Moments of r = log|A+B| for independent log-Gaussians a, b, uniform phase.

    Evaluated in closed form rather than by nested sigma-point sums:
    conditional on (a, b), the phase average of log|A+B| is exactly
    max(a, b) and the conditional variance is 0.5*Li2(e^{-2|a-b|})
    (Fourier expansion of log|1 + q e^{j phi}|), so the outer Gaussian
    expectation reduces to the moments of max(a, b) (Clark, 1961), taken
    relative to mb, plus the mean dilogarithm E{Li2(e^{-2|a-b|})} of
    _mean_dilog_exp. The closed form is the converged limit of a
    sigma-point evaluation over (a, b, phi).

    The variances are finite and >= 0, and theta^2 = va + vb is at least
    the smallest normal double (_DILOG_VAR_MIN): in the frame loop, vb is
    NOISE_VARIANCE at step 6, and va >= gamma's variance > 0 at step 5.
    Where both variances go to 0 the moments go to max(a, b) and
    0.5*Li2(e^{-2|a-b|}); at theta^2 = 0 itself they are NaN. The mean
    dilogarithm's s and r are theta and |alpha| = |ma - mb|/theta, which
    this holds already, where the inputs are 1-D arrays of one shape, as
    the frame loop's are; for other shapes (scalars, N-D bins) it is read
    from _mean_dilog_exp, which broadcasts them. A variance that rounding
    leaves negative is clamped to 0 and counted in diag.variance_clamps.
    """
    # every result broadcasts over all four inputs, so none is broadcast here
    ma, va = np.asarray(ma, dtype=float), np.asarray(va, dtype=float)
    mb, vb = np.asarray(mb, dtype=float), np.asarray(vb, dtype=float)
    theta2 = va + vb
    theta = np.sqrt(theta2)
    d = ma - mb
    alpha = d / theta
    cdf = ndtr(alpha)
    tpdf = theta * np.exp(-0.5 * alpha * alpha) / _SQRT_2PI
    # moments of max(a, b) - mb
    e1 = d * cdf + tpdf
    e2 = (d * d + va) * cdf + vb * (1.0 - cdf) + d * tpdf
    if theta.ndim != 1 or d.shape != theta.shape:
        dilog = _mean_dilog_exp(d, theta2)
    else:
        dilog = _dilog_lookup(d, theta2, theta, np.abs(alpha))
    return mb + e1, _clamp_var(e2 - e1 * e1 + 0.5 * dilog, diag)


@functools.cache
def _split_nodes(k_u, k_phase):
    """The split's (u, phi) rule, k_u Gauss-Hermite nodes along u by k_phase
    phase nodes, for (k_phase, k_u, bins) arrays; built once per order.

    Returns (x, cos_phi, const): the standard normal nodes of u as a
    (k_u, 1) column, the phase cosines as a (k_phase, 1, 1) array, and the
    constant part of each u node's log-weight, log w_u + log w_phi + x^2/2,
    as a (k_u, 1) column (the phase weights are all 1/k_phase).
    """
    x, wu = _gh_nodes(k_u)
    phi, w_phi = phase_sigma_points(k_phase)
    const = np.log(wu) + np.log(w_phi[0]) + 0.5 * x * x
    return x[:, None], np.cos(phi)[:, None, None], const[:, None]


def _split_core(ma, va, mb, vb, obs, nodes, b_moments=True):
    """Conditional moments of (a, b) given log|A+B| = y, at each y in obs,
    on the (u, phi) rule nodes = _split_nodes(k_u, k_phase); _split's kernel.

    Change of variables (a, b, phi) -> (u, y, phi) with u = b - a; the
    u-integral is Gaussian quadrature along the prior of u, solving the
    constraint for a at each (u, phi); the Jacobian is unity.

    At node (x, phi), u = m_b - m_a + s_u*x and the offsets from the prior
    means are e = a - m_a = y - m_a - log|1 + e^{u + j phi}| and
    f = b - m_b = e + s_u*x. The three Gaussian log-pdfs of a, b and u
    then fold into one quadratic in e, whose per-bin constants cancel in
    the normalised weights; they are added back only to test the
    unnormalised maximum against _LOG_TINY.

    All observation points are taken in one pass over
    (points, k_phase, k_u, bins) arrays: one log-weight pass, one maximum
    over the nodes, one shift and clamp and one exponential, whatever the
    number of points. Each point's log-weights are shifted by their
    maximum, so that its heaviest node weighs 1, and clamped at
    _LOG_W_MIN before the exponential. Each point's moments are taken
    about its own weighted mean: E e from the sums of w and w e, then
    var e from the sum of w (e - E e)^2, a sum of non-negative terms, so a
    narrow posterior keeps its variance. f - E f is the centred e plus
    s_u*x - E[s_u*x], where E[s_u*x] comes from the summed weight of each
    u node. The sums over the k_u*k_phase nodes are einsum reductions that
    form no product array.

    Everything that does not depend on y is computed once, per u node
    where it does not depend on the phase. With the bins last, every
    per-bin or per-node operand broadcasts along whole rows of bins, and
    with the u nodes next to them, a per-u-node operand along whole
    (k_u, bins) blocks.

    With b_moments False, f is never formed: only E e and var e are
    taken, by the same calls as with b_moments True, and E f, var f are
    returned as None.

    The priors are (bins,) arrays and obs is (points, bins). Returns (E e,
    var e, E f, var f, fallback), each (points, bins).
    """
    x, cos_phi, const = nodes

    va_f = np.maximum(va, _VAR_FLOOR)
    vb_f = np.maximum(vb, _VAR_FLOOR)
    vu = np.maximum(va + vb, _VAR_FLOOR)
    sx = np.sqrt(vu) * x                             # s_u*x, (k_u, bins)
    lps = log_phasor_sum(mb - ma + sx, cos_phi)      # (k_phase, k_u, bins)
    # log-weight = const - e^2/(2 va) - (e + s_u x)^2/(2 vb) + per-bin terms
    #            = quad - e*(curv*e + lin)
    hb = 0.5 / vb_f
    curv = 0.5 / va_f + hb
    lin = 2.0 * hb * sx
    quad = const - hb * sx * sx
    lconst = 0.5 * np.log(vu / va_f / vb_f / (2.0 * np.pi))

    # one workspace for e (then e - E e, then f - E f) and the log-weights
    # (then w): a fresh array per step, at this size, cost page faults per
    # call
    points, bins = obs.shape
    k_phase, k_u = lps.shape[:2]
    work = np.empty((2, points, k_phase, k_u, bins))
    np.subtract((obs - ma)[:, None, None, :], lps, out=work[0])
    np.multiply(work[0], curv, out=work[1])
    work[1] += lin
    work[1] *= work[0]
    np.subtract(quad, work[1], out=work[1])
    e, logw = work.reshape(2, points, k_phase * k_u, bins)
    mx = np.maximum.reduce(logw, axis=1)
    logw -= np.where(np.isfinite(mx), mx, 0.0)[:, None]
    np.maximum(logw, _LOG_W_MIN, out=logw)
    w = np.exp(logw, out=logw)

    # a point falls back unless its unnormalised maximum is a finite number
    # >= 1e-300. Where it is, the heaviest node's log-weight is finite, so
    # that node weighs 1, no node is NaN, and 1 <= z <= k_u*k_phase
    lmax = mx + lconst
    fallback = ~((lmax >= _LOG_TINY) & (lmax < np.inf))
    w_u = c_einsum("opuk->ouk", work[1])                    # each u node's weight
    inv_z = 1.0 / c_einsum("ouk->ok", w_u)
    e_mean = c_einsum("onk,onk->ok", w, e) * inv_z
    e -= e_mean[:, None]
    e_var = c_einsum("onk,onk,onk->ok", w, e, e) * inv_z
    if not b_moments:
        return e_mean, e_var, None, None, fallback
    sx_mean = c_einsum("ouk,uk->ok", w_u, sx) * inv_z
    df = np.add(work[0], (sx - sx_mean[:, None])[:, None], out=work[0]).reshape(e.shape)
    return (e_mean, e_var, e_mean + sx_mean,
            c_einsum("onk,onk,onk->ok", w, df, df) * inv_z, fallback)


def _split(ma, va, mb, vb, obs, weights, nodes, diag=None, b_moments=True):
    """Posterior moments of (a, b) given log|A+B| at the observation points
    obs, mixed with the (points,) weights: the one path of both public
    splits. The priors are float arrays of one shape, and obs stacks the
    points on a first axis before it; priors of any shape but 1-D, which
    enhance never passes but library callers do (scalars in acceptance
    criterion 2), are split as one row of bins.

    _split_core takes each point on the (u, phi) rule nodes, and _mixed
    mixes the points that did not fall back: the mean of their means, and
    the mean of their variances plus the spread of their means. Those
    variances are sums of non-negative terms, so none is clamped here.
    Where all points fall back, the priors are kept, flagged and counted
    in diag. Returns (ma', va', mb', vb', fallback), with mb' and vb' None
    where b_moments is False.

    Only in a call where a point fell back are the points masked: a point
    that fell back gets weight 0 and a posterior of 0, as its NaN or inf
    would otherwise reach the sums. A single point of which none fell back
    is its own mixture, and points of which none fell back are mixed as
    they are, at the bits of the masked mixture, whose sums over the
    points run in the same order.
    """
    if ma.ndim != 1:
        out = _split(*(v.ravel() for v in (ma, va, mb, vb)), obs.reshape(len(obs), -1),
                     weights, nodes, diag, b_moments)
        return tuple(None if v is None else v.reshape(ma.shape) for v in out)
    # einsum's sums of z, of w e and of w_u s_u x over the nodes add a lone
    # bin's terms in another order than a row's, so a lone bin runs as two
    # copies of itself
    if ma.size == 1:
        core = _split_core(*(np.repeat(v, 2, axis=-1) for v in (ma, va, mb, vb, obs)),
                           nodes, b_moments)
        ea, va_obs, eb, vb_obs, fb = (None if v is None else v[:, :1] for v in core)
    else:
        ea, va_obs, eb, vb_obs, fb = _split_core(ma, va, mb, vb, obs, nodes, b_moments)
    if not count_nonzero(fb):
        if len(fb) == 1:
            b_out = (mb + eb[0], vb_obs[0]) if b_moments else (None, None)
            return ma + ea[0], va_obs[0], *b_out, fb[0]
        wts, kept = weights[:, None], None
        z = weights[0]
        for w in weights[1:]:       # in the order of np.add.reduce over the points
            z = z + w
    else:
        wts = np.where(fb, 0.0, weights[:, None])
        z = np.add.reduce(wts, axis=0)
        kept = z <= 0               # every point fell back: the priors are kept
        z = np.where(kept, 1.0, z)
        if diag is not None:
            diag.fallbacks += int(count_nonzero(kept))
        ea, va_obs, eb, vb_obs = (None if v is None else np.where(fb, 0.0, v)
                                  for v in (ea, va_obs, eb, vb_obs))
    b_out = _mixed(mb, vb, eb, vb_obs, wts, z, kept) if b_moments else (None, None)
    return (*_mixed(ma, va, ea, va_obs, wts, z, kept), *b_out, fb[0] if kept is None else kept)


def _mixed(prior_m, prior_v, m, v, wts, z, kept=None):
    """prior_m plus the mixture of the points' posteriors (m, v), each
    (points, bins), with the weights wts that sum to z over the points:
    the mean of their means, and the mean of their variances plus the
    spread of their means. Where the (bins,) mask kept is set, the priors
    (prior_m, prior_v) instead."""
    m1 = np.add.reduce(m * wts, axis=0) / z
    mean, var = prior_m + m1, np.add.reduce((v + (m - m1) ** 2) * wts, axis=0) / z
    if kept is None:
        return mean, var
    return np.where(kept, prior_m, mean), np.where(kept, prior_v, var)


def split_scalar_obs(ma, va, mb, vb, y, diag=None):
    """Posterior moments of (a, b) given the scalar observation log|A+B| = y.

    The one-point case of _split. Where the observation is numerically
    inconsistent with the priors the priors are returned unchanged and
    the fallback flag is set.
    """
    ma, va, mb, vb, y = _float_arrays(ma, va, mb, vb, y)
    return _split(ma, va, mb, vb, y[None], _ONE_POINT, _split_nodes(_K_U, _K_PHASE), diag)


def split_distributed_obs(ma, va, mb, vb, mo, vo, diag=None, b_moments=True,
                          obs_points=_K_OBS):
    """Posterior moments of (a, b) when the observation is itself Gaussian.

    _split at obs_points Gauss-Hermite points of the observation. With
    b_moments False only the posterior of a is computed, and the
    posterior mean and variance of b are returned as None; the posterior
    of a, the fallback flags and the counts in diag are the same as with
    b_moments True.
    """
    ma, va, mb, vb, mo, vo = _float_arrays(ma, va, mb, vb, mo, vo)
    x, w = _gh_nodes(obs_points)
    obs = mo + np.multiply.outer(x, np.sqrt(np.maximum(vo, 0.0)))    # (obs_points, ...)
    return _split(ma, va, mb, vb, obs, w, _split_nodes(_K_U, _K_PHASE), diag, b_moments)


def line_constrained_update(mx, vx, my, vy, mt, vt):
    """Condition the diagonal Gaussian (x, y, w) on x + y - w = mt.

    w is a zero-mean slack with variance vt. Returns the posterior
    marginals (mx', vx', my', vy').

    The variances are finite and >= 0 with a total d = vx + vy + vt > 0:
    in the frame loop vx is gamma's or beta's variance, which is > 0. In
    floating point d >= vx, so vx/d <= 1 and vx*(1 - vx/d) is never
    below 0, and likewise for vy. Where d = 0 the result is NaN.
    """
    mx, vx, my, vy, mt, vt = _float_arrays(mx, vx, my, vy, mt, vt)
    d = vx + vy + vt
    innov = mt - (mx + my)
    return mx + vx / d * innov, vx * (1.0 - vx / d), my + vy / d * innov, vy * (1.0 - vy / d)


def fuse_moments(m1, v1, m2, v2):
    """Gaussian-Gaussian multiplication (precision-weighted fusion).

    Both variances are finite and >= 0 with a sum > 0. In the frame loop
    one factor is gamma's or beta's random walk, whose variance is at least
    Q_GAMMA or Q_BETA, and the other its decay prior, whose variance is
    finite and > 0 wherever the prior's mask is set (enhancer's
    _fdr_priors_at). An infinite variance gives NaN; a factor that adds
    no information is left out by the caller instead.
    """
    m1, v1, m2, v2 = _float_arrays(m1, v1, m2, v2)
    tot = v1 + v2
    return (m1 * v2 + m2 * v1) / tot, v1 * v2 / tot
