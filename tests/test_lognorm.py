"""Log-domain Gaussian calculus tests, backed by Monte-Carlo oracles."""

import warnings

import numpy as np
import pytest

from oracles import (BinnedPool, grid_conditional_gaussian, mc_logsum_moments,
                     mean_dilog_series_ref, split_distributed_ref, split_scalar_ref)

from reverbtrack.lognorm import (Diagnostics, _gh_nodes, _mean_dilog_exp,
                                 fuse_moments, line_constrained_update,
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
    # infinite variance adds none and leaves the other unchanged
    m, v = fuse_moments(-1.2, 0.3, 5.0, np.inf)
    assert (float(m), float(v)) == (-1.2, 0.3)
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
    # a literally infinite (uninformative) factor
    m, v = fuse_moments(-0.7, 0.1, 100.0, np.inf)
    assert float(m) == pytest.approx(-0.7)
    assert float(v) == pytest.approx(0.1)
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
    # all three variances 0: nothing can move, so the priors are kept
    out = line_constrained_update(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert [float(o) for o in out] == [0.0, 0.0, 0.0, 0.0]


def test_constrained_update_matches_grid_oracle():
    ox, ovx, oy, ovy = grid_conditional_gaussian(0.3, 0.7, -1.1, 1.9, 0.25)
    mx, vx, my, vy = line_constrained_update(0.3, 0.7, -1.1, 1.9, 0.25, 0.0)
    assert float(mx) == pytest.approx(ox, abs=1e-3)
    assert float(vx) == pytest.approx(ovx, abs=1e-3)
    assert float(my) == pytest.approx(oy, abs=1e-3)
    assert float(vy) == pytest.approx(ovy, abs=1e-3)


# ---------------------------------------------------------------------------
# log-domain phasor-sum moments
# ---------------------------------------------------------------------------

def test_logsum_prior_equal_point_masses():
    # (1/pi) * int 0.5 log(2 + 2 cos(phi)) dphi = 0
    m, _ = logsum_moments(0.0, 0.0, 0.0, 0.0)
    assert float(m) == pytest.approx(0.0, abs=1e-12)


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
        m, _ = logsum_moments(da, 0.0, db, 0.0)
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

def test_mean_dilog_matches_series():
    # the table (|m|/s <= 8), the Gauss-Hermite tail (|m|/s > 8) and the
    # series itself (s outside the table, v = 0) all within 1e-6 of the series
    m = np.linspace(0.0, 50.0, 251)
    v = np.concatenate([[0.0], np.geomspace(1e-6, 400.0, 181)])
    mm, vv = np.meshgrid(m, v)
    err = np.abs(_mean_dilog_exp(mm, vv) - mean_dilog_series_ref(mm, vv))
    assert err.max() <= 1e-6
    # off-grid points inside the table, both signs of m
    rng = np.random.default_rng(5)
    s = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 4000))
    m = rng.uniform(-8.0, 8.0, 4000) * s
    err = np.abs(_mean_dilog_exp(m, s * s) - mean_dilog_series_ref(m, s * s))
    assert err.max() <= 1e-6


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
    return [
        (ma, va, mb, vb, y, vo),
        (ma, va_zero, mb, vb_zero, y, vo),
        (ma, big[0], mb, big[1], y, vo),
        (ma, big[0], mb, vb, far, vo),
        (ma, va, mb, vb, far, vo),
        (ma, va, mb, vb, tail, vo),
        (ma, narrow[0], mb, narrow[1], edge, vo),
        (30.0 + ma, va, mb - 40.0, vb, y + 30.0, vo),
    ]


def _assert_split_matches(got, ref):
    assert np.array_equal(got[4], ref[4])
    ok = ~ref[4]
    for g, r in zip(got[:4], ref[:4]):
        assert np.all(np.abs(g[ok] - r[ok]) <= 1e-9 * np.maximum(1.0, np.abs(r[ok])))


def test_split_scalar_matches_unfolded_reference():
    for ma, va, mb, vb, y, _ in _split_cases():
        _assert_split_matches(split_scalar_obs(ma, va, mb, vb, y),
                              split_scalar_ref(ma, va, mb, vb, y))


def test_split_distributed_matches_unfolded_reference():
    for ma, va, mb, vb, y, vo in _split_cases():
        full = split_distributed_obs(ma, va, mb, vb, y, vo)
        _assert_split_matches(full, split_distributed_ref(ma, va, mb, vb, y, vo))
        # without the b posterior: the same a posterior and fallback flags
        a_only = split_distributed_obs(ma, va, mb, vb, y, vo, b_moments=False)
        assert a_only[2] is None and a_only[3] is None
        for got, ref in zip(a_only[:2] + a_only[4:], full[:2] + full[4:]):
            assert np.array_equal(got, ref)


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


def test_fast_kernels_emit_no_warnings():
    diag = Diagnostics()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ma, va, mb, vb, y, vo in _split_cases():
            split_scalar_obs(ma, va, mb, vb, y, diag=diag)
            split_distributed_obs(ma, va, mb, vb, y, vo, diag=diag)
            split_distributed_obs(ma, va, mb, vb, y, vo, diag=diag, b_moments=False)
            logsum_moments(ma, va, mb, vb, diag=diag)
            logsum_moments(ma, 0.0, mb, 0.0, diag=diag)
            _mean_dilog_exp(ma - mb, np.concatenate([[0.0], np.geomspace(1e-6, 400.0, 299)]))
    assert diag.fallbacks > 0
