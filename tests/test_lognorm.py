"""Log-domain Gaussian calculus tests, backed by Monte-Carlo oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermitenorm, roots_legendre, spence

from oracles import (BinnedPool, grid_conditional_gaussian, mc_logsum_moments,
                     mean_dilog_ref, split_distributed_ref, split_mixture_ref,
                     split_scalar_ref)

from reverbtrack import lognorm
from reverbtrack.lognorm import (_DILOG_VAR_MIN, _K_OBS, _K_PHASE, _K_U, Diagnostics,
                                 _dilog_lookup, _gh_nodes, _mean_dilog_exp, _quad_rule,
                                 _split, _split_core,
                                 _split_nodes, fuse_moments, line_constrained_update,
                                 logsum_moments, phase_sigma_points,
                                 split_distributed_obs, split_scalar_obs)


# ---------------------------------------------------------------------------
# sigma points
# ---------------------------------------------------------------------------

def test_gaussian_sigma_points_standard_three():
    points, weights = _gh_nodes(3)
    assert np.allclose(sorted(points), [-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
    assert np.allclose(sorted(weights), [1 / 6, 1 / 6, 2 / 3])
    # exact for polynomials up to degree 5
    std_moments = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0}
    for deg, ref in std_moments.items():
        assert np.sum(weights * points ** deg) == pytest.approx(ref, abs=1e-12)


def test_quadrature_rules_match_scipy():
    """numpy.polynomial's rules are scipy's roots_hermitenorm/roots_legendre
    to within 4 ulp of 1."""
    tol = 4 * np.finfo(float).eps
    for count in (3, 8, 15):
        x, w = _gh_nodes(count)
        x_ref, w_ref = roots_hermitenorm(count)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=tol)
        np.testing.assert_allclose(w, w_ref / w_ref.sum(), rtol=0, atol=tol)
    t, w = roots_legendre(48)
    t = 0.5 * (t + 1.0)
    t2, wq = _quad_rule()
    np.testing.assert_allclose(t2, t * t, rtol=0, atol=tol)
    np.testing.assert_allclose(wq, w * t / np.sqrt(2.0 * np.pi), rtol=0, atol=tol)


def test_gaussian_sigma_points_degenerate_and_moment_match():
    # the nodes scaled to N(m, v) as the splits use them: m + sqrt(v)*x
    x, w = _gh_nodes(5)
    assert np.all(1.7 + np.sqrt(0.0) * x == 1.7)
    mean, var = -2.3, 0.37
    x, w = _gh_nodes(7)
    points = mean + np.sqrt(var) * x
    assert np.sum(w * points) == pytest.approx(mean)
    assert np.sum(w * (points - mean) ** 2) == pytest.approx(var)
    with pytest.raises(ValueError):
        _gh_nodes(0)


def test_phase_sigma_points():
    points, weights = phase_sigma_points(6)
    assert np.allclose(points, np.array([1, 3, 5, 7, 9, 11]) * np.pi / 12)
    assert np.allclose(weights, 1 / 6)
    points, weights = phase_sigma_points(1)
    assert points[0] == pytest.approx(np.pi / 2)
    assert weights[0] == 1.0
    with pytest.raises(ValueError, match="count must be >= 1"):
        phase_sigma_points(0)
    for count in (1, 3, 6):
        points, weights = phase_sigma_points(count)
        # exact for cos(n phi) except at multiples of 2*count (aliasing)
        for n in range(1, 2 * count + 2):
            if n % (2 * count) == 0:
                continue
            assert np.sum(weights * np.cos(n * points)) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# linear ops
# ---------------------------------------------------------------------------

def test_add_independent():
    # fusion adds the precisions of independent factors; a factor of
    # variance 1e300 adds a precision far below one ulp of the other's
    m, v = fuse_moments(-1.2, 0.3, 5.0, 1e300)
    assert (float(m), float(v)) == pytest.approx((-1.2, 0.3), rel=1e-15)
    m, v = fuse_moments(-0.307, 0.01, -2.0, 0.25)
    assert 1.0 / float(v) == pytest.approx(1.0 / 0.01 + 1.0 / 0.25)
    assert float(m) == pytest.approx(float(v) * (-0.307 / 0.01 - 2.0 / 0.25))
    # the order of the factors does not matter
    assert fuse_moments(0.5, 0.1, -0.5, 0.2) == fuse_moments(-0.5, 0.2, 0.5, 0.1)


def test_fuse():
    m, v = fuse_moments(1.5, 0.4, 1.5, 0.4)
    assert float(m) == pytest.approx(1.5)
    assert float(v) == pytest.approx(0.2)
    m, v = fuse_moments(-0.7, 0.1, 100.0, 1e12)
    assert float(m) == pytest.approx(-0.7, abs=1e-9)
    assert float(v) == pytest.approx(0.1, rel=1e-9)
    m, v = fuse_moments(0.0, 1.0, 2.0, 1.0)
    assert float(m) == pytest.approx(1.0)
    assert float(v) == pytest.approx(0.5)


def test_constrained_linear_update():
    # exact constraint propagation with a fixed partner
    mx, vx, my, vy = line_constrained_update(0.0, 1.0, 0.5, 0.0, 2.0, 0.0)
    assert float(mx) == pytest.approx(1.5)
    assert float(vx) == pytest.approx(0.0)
    # symmetric unit-variance case, worked by hand
    mx, vx, my, vy = line_constrained_update(0.0, 1.0, 0.0, 1.0, 2.0, 1.0)
    assert float(mx) == pytest.approx(2 / 3)
    assert float(vx) == pytest.approx(2 / 3)
    # means land on the constraint surface when the slack is zero
    mx, vx, my, vy = line_constrained_update(0.3, 0.7, -1.1, 1.9, 0.25, 0.0)
    assert float(mx + my) == pytest.approx(0.25, abs=1e-12)


def test_constrained_update_matches_grid_oracle():
    ox, ovx, oy, ovy = grid_conditional_gaussian(0.3, 0.7, -1.1, 1.9, 0.25)
    mx, vx, my, vy = line_constrained_update(0.3, 0.7, -1.1, 1.9, 0.25, 0.0)
    assert float(mx) == pytest.approx(ox, abs=1e-3)
    assert float(vx) == pytest.approx(ovx, abs=1e-3)
    assert float(my) == pytest.approx(oy, abs=1e-3)
    assert float(vy) == pytest.approx(ovy, abs=1e-3)


# a variance of the line update: 0, or anywhere from 1e-300 to 1e300
_LINE_VARIANCE = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_line_update_variances_are_never_negative(data):
    """line_constrained_update on variances >= 0 with a total > 0 returns
    variances >= 0, none of them -0.0, and no warning: in floating point
    the total d is at least vx, so vx/d <= 1. So it needs no clamp."""
    n = data.draw(st.integers(1, 8), label="bins")
    vx, vy, vt = (np.array(data.draw(st.lists(_LINE_VARIANCE, min_size=n, max_size=n),
                                     label=name)) for name in ("vx", "vy", "vt"))
    vt[vx + vy + vt == 0] = 1.0
    mx, my, mt = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
                                       ).normal(0.0, 3.0, (3, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, vx_out, _, vy_out = line_constrained_update(mx, vx, my, vy, mt, vt)
    for v in (vx_out, vy_out):
        assert np.all(v >= 0.0) and not np.signbit(v).any()


# ---------------------------------------------------------------------------
# log-domain phasor-sum moments
# ---------------------------------------------------------------------------

def test_logsum_prior_equal_point_masses():
    # (1/pi) * int 0.5 log(2 + 2 cos(phi)) dphi = 0, and the variance is
    # 0.5*Li2(1) = pi^2/12; here at variances of 1e-20, near the limit
    m, v = logsum_moments(0.0, 1e-20, 0.0, 1e-20)
    assert float(m) == pytest.approx(0.0, abs=1e-9)
    assert float(v) == pytest.approx(np.pi ** 2 / 12, abs=1e-8)


def test_logsum_prior_dominance_limit():
    m, v = logsum_moments(0.0, 0.04, -20.0, 0.0)
    assert abs(float(m) - 0.0) <= 1e-6
    assert float(v) == pytest.approx(0.04, rel=1e-4)


def test_logsum_prior_symmetry():
    m1, v1 = logsum_moments(-1.0, 0.25, -1.5, 0.4)
    m2, v2 = logsum_moments(-1.5, 0.4, -1.0, 0.25)
    assert float(m1) == pytest.approx(float(m2), abs=1e-12)
    assert float(v1) == pytest.approx(float(v2), abs=1e-12)


def test_logsum_prior_against_monte_carlo():
    m_mc, v_mc = mc_logsum_moments(-1.0, 0.25, -1.5, 0.25, n=1_000_000, seed=42)
    m, v = logsum_moments(-1.0, 0.25, -1.5, 0.25)
    assert abs(float(m) - m_mc) <= 0.05
    assert abs(float(v) - v_mc) / v_mc <= 0.1


def test_logsum_prior_phasor_bounds_on_point_masses():
    for da, db in [(0.0, 0.0), (-1.0, -1.5), (0.5, -2.0)]:
        m, _ = logsum_moments(da, 1e-20, db, 1e-20)
        assert float(m) >= max(da, db) - 0.35
        assert float(m) <= 0.5 * np.log((np.exp(da) + np.exp(db)) ** 2) + 1e-12


def test_logsum_moments_always_finite_nonneg():
    rng = np.random.default_rng(3)
    ma = rng.normal(0, 3, 200)
    mb = rng.normal(0, 3, 200)
    va = rng.uniform(0, 4, 200)
    vb = rng.uniform(0, 4, 200)
    m, v = logsum_moments(ma, va, mb, vb)
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(v))
    assert np.all(v >= 0)


def test_logsum_moments_clamps_a_variance_that_rounding_leaves_negative():
    """Where e2 - e1^2 cancels to below -0.5*dilog, the variance is clamped
    to 0 and counted, on that bin alone. The input came from a
    derandomized hypothesis search over (alpha, log theta, va's share of
    theta^2, mb): va = 0, so the true variance is tiny, while e2 and e1^2
    are ~26,000 and their difference rounds below 0."""
    theta = np.exp(3.0625)
    ma, va = np.array([7.5625 * theta, -1.0]), np.array([0.0, 0.25])
    mb, vb = np.array([0.0, -1.5]), np.array([theta * theta, 0.4])
    diag = Diagnostics()
    m, v = logsum_moments(ma, va, mb, vb, diag=diag)
    assert diag.variance_clamps == 1 and v[0] == 0.0 and not np.signbit(v[0])
    alone = logsum_moments(ma[1:], va[1:], mb[1:], vb[1:])
    assert m[1] == alone[0][0] and v[1] == alone[1][0] > 0


# ---------------------------------------------------------------------------
# posterior decompositions
# ---------------------------------------------------------------------------

def _scalar_split(a, b, y, diag=None):
    """(a mean, a variance), (b mean, b variance) of the split given y,
    for priors a = (mean, variance) and b = (mean, variance)."""
    ma, va, mb, vb, _ = split_scalar_obs(*a, *b, y, diag=diag)
    return (float(ma), float(va)), (float(mb), float(vb))


def _distributed_split(a, b, obs):
    """As _scalar_split, for the observation obs = (mean, variance)."""
    ma, va, mb, vb, _ = split_distributed_obs(*a, *b, *obs)
    return (float(ma), float(va)), (float(mb), float(vb))


def test_scalar_split_degenerate_priors_dominate():
    a, b = (0.0, 1e-8), (-10.0, 1e-8)
    y = 0.5 * np.log(1.0 + np.exp(-20.0) + 2.0 * np.cos(np.pi / 2) * np.exp(-10.0))
    pa, pb = _scalar_split(a, b, y)
    assert pa[0] == pytest.approx(a[0], abs=1e-3)
    assert pb[0] == pytest.approx(b[0], abs=1e-3)


def test_scalar_split_exchange_symmetry():
    a = (-1.0, 0.25)
    for y in (-1.3, -0.8, -0.2):
        pa, pb = _scalar_split(a, a, y)
        assert pa[0] == pytest.approx(pb[0], abs=1e-10)
        assert pa[1] == pytest.approx(pb[1], abs=1e-10)


def test_scalar_split_against_rejection_oracle():
    a, b, y = (-1.0, 0.25), (-1.5, 0.25), -0.7
    pool = BinnedPool(*a, *b, seed=17)
    ea, va, eb, vb = pool.split_scalar(y)
    pa, pb = _scalar_split(a, b, y)
    assert abs(pa[0] - ea) <= 0.05
    assert abs(pb[0] - eb) <= 0.05


def test_distributed_split_degenerate_obs_matches_scalar():
    a, b = (-1.0, 0.25), (-1.5, 0.25)
    sa, sb = _scalar_split(a, b, -0.7)
    da, db = _distributed_split(a, b, (-0.7, 0.0))
    assert da[0] == pytest.approx(sa[0], abs=1e-8)
    assert db[0] == pytest.approx(sb[0], abs=1e-8)
    assert da[1] == pytest.approx(sa[1], abs=1e-8)


def test_distributed_split_exchange_symmetry():
    a, b = (-1.0, 0.25), (-1.5, 0.4)
    obs = (-0.7, 0.09)
    pa, pb = _distributed_split(a, b, obs)
    qb, qa = _distributed_split(b, a, obs)
    assert pa[0] == pytest.approx(qa[0], abs=1e-10)
    assert pb[0] == pytest.approx(qb[0], abs=1e-10)


def test_distributed_split_against_mixture_oracle():
    a, b = (-1.0, 0.25), (-1.5, 0.25)
    obs = (-0.7, 0.09)
    pool = BinnedPool(*a, *b, seed=19)
    ea, va, eb, vb = pool.split_distributed(*obs)
    pa, pb = _distributed_split(a, b, obs)
    assert abs(pa[0] - ea) <= 0.07
    assert abs(pb[0] - eb) <= 0.07


def test_split_output_bounds_observation():
    # a zero-variance re-substitution of the posterior means must bracket
    # the observation across the possible phase alignments
    a, b, y = (-1.0, 0.25), (-1.5, 0.25), -0.7
    pa, pb = _scalar_split(a, b, y)
    ea, eb = np.exp(pa[0]), np.exp(pb[0])
    lo = 0.5 * np.log(max((ea - eb) ** 2, 1e-300))
    hi = 0.5 * np.log((ea + eb) ** 2)
    assert lo <= y <= hi


def test_inconsistent_observation_falls_back_to_priors():
    diag = Diagnostics()
    a, b = (0.0, 1e-6), (0.0, 1e-6)
    # an observation hundreds of nats away cannot be explained
    pa, pb = _scalar_split(a, b, 500.0, diag=diag)
    assert pa == a
    assert pb == b
    assert diag.fallbacks >= 1


# ---------------------------------------------------------------------------
# fast kernels against their exact references
# ---------------------------------------------------------------------------

def test_mean_dilog_matches_integral():
    # the table (|m|/s <= 8), the Gauss-Hermite tail (|m|/s > 8), the
    # quadrature (s outside the table) and v = 0, all within 1e-6 of the
    # exact integral
    m = np.linspace(0.0, 50.0, 51)
    v = np.concatenate([[0.0], np.geomspace(1e-6, 400.0, 61)])
    mm, vv = np.meshgrid(m, v)
    err = np.abs(_mean_dilog_exp(mm, vv) - mean_dilog_ref(mm, vv))
    assert err.max() <= 1e-6
    # off-grid points inside the table, both signs of m
    rng = np.random.default_rng(5)
    s = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 1500))
    r = rng.uniform(-8.0, 8.0, 1500)
    # the table's edges: r = 8 and s = 0.05, 20, each on, just in and just
    # out; and s far outside the table, from 1e-8 to 1e4
    eps = 1.0 + np.array([-1e-12, 0.0, 1e-12])
    r_edge, s_edge = np.meshgrid(8.0 * eps, np.geomspace(0.05, 20.0, 13))
    r_side, s_side = np.meshgrid(np.linspace(0.0, 10.0, 21), np.concatenate(
        [np.outer([0.05, 20.0], eps).ravel(), np.geomspace(1e-8, 1e-2, 7), np.geomspace(50.0, 1e4, 6)]))
    r = np.concatenate([r, r_edge.ravel(), r_side.ravel()])
    s = np.concatenate([s, s_edge.ravel(), s_side.ravel()])
    err = np.abs(_mean_dilog_exp(r * s, s * s) - mean_dilog_ref(r * s, s * s))
    assert err.max() <= 1e-6


def test_mean_dilog_outside_the_table_has_the_bits_of_any_subset():
    # the Gauss-Hermite tail (r > 8) and the quadrature (s outside the
    # table) sum each point's nodes in an order that does not depend on how
    # many points share the call
    rng = np.random.default_rng(11)
    lo, hi = lognorm._DILOG_S_RANGE
    s = np.concatenate([np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 24)),
                        np.exp(rng.uniform(np.log(1e-6), np.log(lo), 12)),
                        np.exp(rng.uniform(np.log(hi), np.log(1e4), 12))])
    r = np.concatenate([rng.uniform(8.5, 60.0, 24), rng.uniform(0.0, 8.0, 24)])
    md, vd = r * s * rng.choice([-1.0, 1.0], r.size), s * s
    full = _mean_dilog_exp(md, vd)
    for i in range(r.size):
        assert np.array_equal(_mean_dilog_exp(md[i:i + 1], vd[i:i + 1]), full[i:i + 1])
    for size in (2, 3, 7, 17, 31):
        sub = np.sort(rng.choice(r.size, size, replace=False))
        assert np.array_equal(_mean_dilog_exp(md[sub], vd[sub]), full[sub])


def test_c_functions_give_the_bits_of_numpy_wrappers():
    """c_einsum and count_nonzero, which the frame loop calls without
    numpy's Python wrappers, against np.einsum and np.count_nonzero: on
    every subscript string the package passes, with operands of the shapes
    it passes, non-contiguous ones among them."""
    rng = np.random.default_rng(3)
    o, p, u, k, n = 3, 6, 15, 37, 8
    work = rng.exponential(size=(2, o, p, u, k))
    w_u = rng.exponential(size=(o, u, k))
    w, e = work[1].reshape(o, p * u, k), work[0].reshape(o, p * u, k)
    powers = rng.uniform(size=(4, 2, k))
    cases = [
        ("opuk->ouk", work[1]), ("ouk->ok", w_u), ("onk,onk->ok", w, e),
        ("onk,onk,onk->ok", w, e, e), ("ouk,uk->ok", w_u, rng.normal(size=(u, k))),
        ("kn,ln,kln->n", powers[:, 0], powers[:, 1], rng.normal(size=(4, 4, k))),
        ("pn,n->p", rng.uniform(size=(k, n)), rng.uniform(size=n)),
        ("...n,n->...", rng.uniform(size=(5, k, n)), rng.uniform(size=n)),
        ("...j,...j->...", rng.normal(size=(k, 2)), rng.normal(size=(2, k)).T),
    ]
    for subscripts, *operands in cases:
        got, ref = lognorm.c_einsum(subscripts, *operands), np.einsum(subscripts, *operands)
        assert _same_bits(got, ref), subscripts
    for mask in (np.zeros(0, bool), np.ones(7, bool), rng.uniform(size=(4, 9)) < 0.3,
                 (rng.uniform(size=(6, 5)) < 0.5)[:, ::2]):
        got, ref = lognorm.count_nonzero(mask), np.count_nonzero(mask)
        assert got == ref and type(got) is type(ref)


_DILOG_BRANCHES = {
    # (r range, s range) of each branch of the lookup
    "table": ((0.0, 8.0), (0.05, 20.0)),
    "r > 8": ((8.0, 60.0), (1e-6, 1e3)),
    "s < 0.05": ((0.0, 8.0), (1e-8, 0.05)),
    "s > 20": ((0.0, 8.0), (20.0, 1e4)),
}


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_dilog_lookup_fed_theta_and_alpha_gives_the_bits_of_mean_dilog_exp(data):
    """logsum_moments feeds _dilog_lookup the theta and |alpha| it holds
    on 1-D inputs, and calls _mean_dilog_exp(d, theta^2), which floors
    theta^2 at _DILOG_VAR_MIN, on others. The two give the same bits on
    points of every branch, alone or mixed in one call: inside the table,
    r > 8, s outside [0.05, 20], a zero total variance (theta^2 = 0 or
    negative, as the floor takes it) and NaN in the mean or the
    variance."""
    kinds = data.draw(st.lists(st.sampled_from(sorted(_DILOG_BRANCHES) + ["zero", "nan"]),
                               min_size=1, max_size=12), label="branches")
    d, theta2 = [], []
    for i, kind in enumerate(kinds):
        sign = data.draw(st.sampled_from([-1.0, 1.0]), label=f"sign {i}")
        if kind == "zero":
            d.append(sign * data.draw(st.floats(0.0, 30.0), label=f"|d| {i}"))
            theta2.append(data.draw(st.sampled_from([0.0, -1e-300, -2.0]), label=f"var {i}"))
        elif kind == "nan":
            nan_var = data.draw(st.booleans(), label=f"nan var {i}")
            d.append(1.5 if nan_var else np.nan)
            theta2.append(np.nan if nan_var else 0.7)
        else:
            (r_lo, r_hi), (s_lo, s_hi) = _DILOG_BRANCHES[kind]
            r = data.draw(st.floats(r_lo, r_hi, exclude_min=kind == "r > 8"), label=f"r {i}")
            log_s = data.draw(st.floats(np.log(s_lo), np.log(s_hi)), label=f"log s {i}")
            s = np.exp(log_s)
            d.append(sign * r * s)
            theta2.append(s * s)
    d, theta2 = np.array(d), np.array(theta2)
    vd = np.maximum(theta2, _DILOG_VAR_MIN)
    theta = np.sqrt(vd)
    got = _dilog_lookup(d, vd, theta, np.abs(d / theta))
    assert _same_bits(got, _mean_dilog_exp(d, theta2))


def test_logsum_moments_continuous_at_zero_variance():
    # as both variances go to 0, the moments meet their point-mass limit:
    # max(a, b) and 0.5*Li2(e^{-2|a - b|}), with Li2(x) = spence(1 - x)
    d = np.array([0.0, 0.3, -2.0, 9.0])
    limit = np.maximum(d, 0.0), 0.5 * spence(1.0 - np.exp(-2.0 * np.abs(d)))
    for got, ref in zip(logsum_moments(d, 0.5e-20, 0.0, 0.5e-20), limit):
        assert np.all(np.abs(got - ref) <= 1e-8)


def _split_cases():
    """Random and degenerate priors with observations (ma, va, mb, vb, y, vo)."""
    rng = np.random.default_rng(23)
    n = 300
    ma, mb = rng.normal(-1.0, 3.0, (2, n))
    va, vb = np.exp(rng.uniform(np.log(1e-3), np.log(8.0), (2, n)))
    y = np.logaddexp(2 * ma, 2 * mb) / 2 + rng.normal(0.0, 1.0, n)
    vo = rng.uniform(0.0, 2.0, n)
    va_zero = np.where(np.arange(n) < 60, 0.0, va)          # v_a = 0
    vb_zero = np.where(np.arange(n) >= n - 60, 0.0, vb)     # v_b = 0
    big = 300.0 + rng.uniform(0.0, 100.0, (2, n))           # variances >= 300
    sign = rng.choice([-1.0, 1.0], n)
    far = y + sign * rng.uniform(20.0, 400.0, n)
    tail = y + sign * rng.uniform(4.0, 12.0, n) * np.sqrt(va + vb)
    # narrow priors with the unnormalised maximum weight near 1e-300, the
    # fallback threshold
    narrow = np.exp(rng.uniform(np.log(1e-4), np.log(1e-2), (2, n)))
    edge = np.logaddexp(2 * ma, 2 * mb) / 2 + sign * np.sqrt(
        rng.uniform(100.0, 800.0, n) * narrow.sum(axis=0))
    # narrow priors under a wide observation (vo 10-50): the observation
    # points lie 5-12 nats apart, so their heaviest nodes differ. The mean
    # sits an outer point's offset (sqrt(3 vo)) from the priors' log-sum,
    # give or take a nat, so that an outer point, not the middle one, is
    # the one the priors can explain
    wide_vo = rng.uniform(10.0, 50.0, n)
    spread = (np.logaddexp(2 * ma, 2 * mb) / 2 + sign * np.sqrt(3.0 * wide_vo)
              + rng.uniform(-1.0, 1.0, n))
    return [
        (ma, va, mb, vb, y, vo),
        (ma, va_zero, mb, vb_zero, y, vo),
        (ma, big[0], mb, big[1], y, vo),
        (ma, big[0], mb, vb, far, vo),
        (ma, va, mb, vb, far, vo),
        (ma, va, mb, vb, tail, vo),
        (ma, narrow[0], mb, narrow[1], edge, vo),
        (30.0 + ma, va, mb - 40.0, vb, y + 30.0, vo),
        (ma, narrow[0], mb, narrow[1], spread, wide_vo),
    ]


def test_split_core_variances_are_never_negative():
    """_split_core's per-point variances of a and b are sums of
    non-negative terms: on _split_cases() at 1, 2 and 3 observation
    points, fallbacks included, none is negative or NaN. So the split
    mixes them with no clamp."""
    nodes = _split_nodes(_K_U, _K_PHASE)
    fell_back = 0
    for ma, va, mb, vb, y, vo in _split_cases():
        for points in (1, 2, 3):
            obs = y[None] if points == 1 else y + np.sqrt(vo) * _gh_nodes(points)[0][:, None]
            _, va_obs, _, vb_obs, fb = _split_core(ma, va, mb, vb, obs, nodes)
            assert np.all(va_obs >= 0) and np.all(vb_obs >= 0)
            fell_back += np.count_nonzero(fb)
    assert fell_back > 0


def _assert_split_matches(got, ref):
    assert np.array_equal(got[4], ref[4])
    ok = ~ref[4]
    for g, r in zip(got[:4], ref[:4]):
        assert np.all(np.abs(g[ok] - r[ok]) <= 1e-9 * np.maximum(1.0, np.abs(r[ok])))


def test_split_scalar_matches_unfolded_reference():
    for ma, va, mb, vb, y, _ in _split_cases():
        _assert_split_matches(split_scalar_obs(ma, va, mb, vb, y),
                              split_scalar_ref(ma, va, mb, vb, y))


@pytest.mark.parametrize("points", [2, 3])
def test_split_distributed_matches_unfolded_reference(points):
    """At the enhancer's two rules: 2 observation points (step 8) and the
    default _K_OBS = 3 (step 10)."""
    for ma, va, mb, vb, y, vo in _split_cases():
        full = split_distributed_obs(ma, va, mb, vb, y, vo, obs_points=points)
        _assert_split_matches(full, split_distributed_ref(ma, va, mb, vb, y, vo, k_obs=points))
        # without the b posterior: the same a posterior and fallback flags
        a_only = split_distributed_obs(ma, va, mb, vb, y, vo, b_moments=False,
                                       obs_points=points)
        assert a_only[2] is None and a_only[3] is None
        for got, ref in zip(a_only[:2] + a_only[4:], full[:2] + full[4:]):
            assert np.array_equal(got, ref)


def test_split_distributed_outer_points_keep_their_variance():
    """_split_cases' narrow priors under a wide observation, one prior decade
    at a time from 1e-10 to 1e-4: an outer point's weight lies nats from
    the middle point's, and taken about anything but the point's own
    weighted mean, its variance cancels so far below 0 that the mixture
    clamps on a few bins per decade. Every point's variances of a and b
    stay >= 0 wherever the point does not fall back."""
    rng = np.random.default_rng(23)
    n = 2000
    ma, mb = rng.normal(-1.0, 3.0, (2, n))
    sign = rng.choice([-1.0, 1.0], n)
    vo = rng.uniform(10.0, 50.0, n)
    y = (np.logaddexp(2 * ma, 2 * mb) / 2 + sign * np.sqrt(3.0 * vo)
         + rng.uniform(-1.0, 1.0, n))
    for lo in range(-10, -4):
        va, vb = np.exp(rng.uniform(lo * np.log(10.0), (lo + 1) * np.log(10.0), (2, n)))
        diag = Diagnostics()
        full = split_distributed_obs(ma, va, mb, vb, y, vo, diag=diag)
        a_only = split_distributed_obs(ma, va, mb, vb, y, vo, diag=diag, b_moments=False)
        assert diag.variance_clamps == 0
        obs = y + np.sqrt(vo) * _gh_nodes(_K_OBS)[0][:, None]
        _, va_obs, _, vb_obs, fb = _split_core(ma, va, mb, vb, obs, _split_nodes(_K_U, _K_PHASE))
        assert np.all(va_obs[~fb] >= 0) and np.all(vb_obs[~fb] >= 0)
        _assert_split_matches(full, split_distributed_ref(ma, va, mb, vb, y, vo))
        for got, ref in zip(a_only[:2] + a_only[4:], full[:2] + full[4:]):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("k_u, k_phase", [(7, 4), (31, 12)])
def test_split_at_other_orders_matches_unfolded_reference(k_u, k_phase):
    """The split path on (u, phi) rules other than the public splits' own:
    one observation point of weight 1, and 2 and 3 Gauss-Hermite points of
    a Gaussian observation."""
    nodes = _split_nodes(k_u, k_phase)
    for ma, va, mb, vb, y, vo in _split_cases():
        _assert_split_matches(_split(ma, va, mb, vb, y[None], np.ones(1), nodes),
                              split_scalar_ref(ma, va, mb, vb, y, k_u, k_phase))
        for k_obs in (2, 3):
            x, w = _gh_nodes(k_obs)
            _assert_split_matches(
                _split(ma, va, mb, vb, y + np.sqrt(vo) * x[:, None], w, nodes),
                split_distributed_ref(ma, va, mb, vb, y, vo, k_u, k_phase, k_obs))


def _mixture_inputs(points):
    """Priors and points of an observation (ma, va, mb, vb, obs, far) on 300
    bins. The points lie within a nat or so of the priors' log-sum, but
    those that far marks lie 500 nats above it and fall back: by bin
    mod 3, no point, the first point only (with more than one point) and
    every point."""
    rng = np.random.default_rng(5)
    n = 300
    ma, mb = rng.normal(-1.0, 2.0, (2, n))
    va, vb = rng.uniform(0.1, 2.0, (2, n))
    group = np.arange(n) % 3
    first = (np.arange(points) == 0)[:, None] & (points > 1)
    far = (group == 2) | ((group == 1) & first)
    obs = (np.logaddexp(2 * ma, 2 * mb) / 2 + np.sqrt(0.5) * _gh_nodes(points)[0][:, None]
           + np.where(far, 500.0, 0.0))
    return ma, va, mb, vb, obs, far


def _same_bits(got, ref):
    return (got is None and ref is None) or (
        got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes())


@pytest.mark.parametrize("b_moments", [True, False])
@pytest.mark.parametrize("points", [1, 2, 3])
def test_split_mixture_matches_masked_reference(points, b_moments):
    """_split against the mixture that masks its points on every call
    (tests/oracles.py), bit for bit in its outputs and Diagnostics, on
    the kernel's own per-point posteriors: on the bins where no point
    falls back, which take the unmasked path, and on all bins, where no
    point, some points or every point falls back. The kernel's variances
    are sums of non-negative terms, so the reference clamps none and
    _split, which has no clamp, counts none. The weights of several
    points are not the Gauss-Hermite ones: their sum depends on the order
    it is taken in."""
    ma, va, mb, vb, obs, far = _mixture_inputs(points)
    weights = np.array([0.1, 0.2, 0.3])[:points] if points > 1 else np.ones(1)
    nodes = _split_nodes(_K_U, _K_PHASE)
    assert np.array_equal(_split_core(ma, va, mb, vb, obs, nodes)[4], far)
    for bins in (~far.any(axis=0), slice(None)):
        priors = tuple(v[bins] for v in (ma, va, mb, vb))
        diag, ref_diag = Diagnostics(), Diagnostics()
        got = _split(*priors, obs[:, bins], weights, nodes, diag, b_moments)
        ref = split_mixture_ref(*priors, _split_core(*priors, obs[:, bins], nodes, b_moments),
                                weights, ref_diag)
        assert all(_same_bits(g, r) for g, r in zip(got, ref))
        assert diag == ref_diag and diag.variance_clamps == 0
        assert diag.fallbacks == np.count_nonzero(far.all(axis=0)[bins])


def test_split_keeps_input_shapes():
    empty = np.zeros(0)
    for got in (split_scalar_obs(*[empty] * 5), split_distributed_obs(*[empty] * 6)):
        assert all(np.shape(g) == (0,) for g in got)
    a_only = split_distributed_obs(*[empty] * 6, b_moments=False)
    assert all(np.shape(a_only[i]) == (0,) for i in (0, 1, 4))
    # 2-D priors: bins on both axes
    ma, va, mb, vb, y, vo = (c.reshape(20, 15) for c in _split_cases()[0])
    _assert_split_matches(split_scalar_obs(ma, va, mb, vb, y),
                          split_scalar_ref(ma, va, mb, vb, y))
    _assert_split_matches(split_distributed_obs(ma, va, mb, vb, y, vo),
                          split_distributed_ref(ma, va, mb, vb, y, vo))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_split_on_any_set_of_bins_gets_the_bits_of_every_bin(data):
    """_split on some of _split_cases' bins, fallbacks included, gives
    those bins the bits of the call on all of them: one bin, two bins, a
    run of half of them or the first half of a random permutation, at 1, 2
    and 3 observation points, with and without the b posterior. So no sum
    over the nodes or the points runs in an order that depends on how many
    bins share the call."""
    cases = _split_cases()
    ma, va, mb, vb, y, vo = cases[data.draw(st.integers(0, len(cases) - 1), label="case")]
    points = data.draw(st.sampled_from([1, 2, 3]), label="points")
    b_moments = data.draw(st.booleans(), label="b_moments")
    n = ma.size
    kind = data.draw(st.sampled_from(["one", "two", "half", "permuted half"]), label="bins")
    if kind == "one":
        sub = [data.draw(st.integers(0, n - 1), label="bin")]
    elif kind == "two":
        sub = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                        label="two bins")
    elif kind == "half":
        start = data.draw(st.integers(0, n - n // 2), label="start")
        sub = list(range(start, start + n // 2))
    else:
        sub = data.draw(st.permutations(range(n)), label="order")[:n // 2]
    if points == 1:
        obs, weights = y[None], np.ones(1)
    else:
        x, weights = _gh_nodes(points)
        obs = y + np.sqrt(vo) * x[:, None]
    nodes = _split_nodes(_K_U, _K_PHASE)
    full = _split(ma, va, mb, vb, obs, weights, nodes, b_moments=b_moments)
    sub = np.array(sub)
    part = _split(ma[sub], va[sub], mb[sub], vb[sub], obs[:, sub], weights, nodes,
                  b_moments=b_moments)
    assert all(_same_bits(p, None if f is None else f[sub]) for p, f in zip(part, full))


def test_fast_kernels_emit_no_warnings():
    diag = Diagnostics()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ma, va, mb, vb, y, vo in _split_cases():
            split_scalar_obs(ma, va, mb, vb, y, diag=diag)
            split_distributed_obs(ma, va, mb, vb, y, vo, diag=diag)
            split_distributed_obs(ma, va, mb, vb, y, vo, diag=diag, b_moments=False)
            logsum_moments(ma, va, mb, vb, diag=diag)
            logsum_moments(ma, 1e-20, mb, 1e-20, diag=diag)
            _mean_dilog_exp(ma - mb, np.concatenate([[0.0], np.geomspace(1e-6, 400.0, 299)]))
            for vd in (0.0, 1e-300, 900.0):
                assert np.all(np.isfinite(_mean_dilog_exp(ma - mb, vd)))
            assert np.all(np.isnan(_mean_dilog_exp(ma - mb, np.nan)))
            assert np.all(np.isnan(_mean_dilog_exp(np.nan, va)))
    assert diag.fallbacks > 0
