"""Log-domain Gaussian calculus tests, backed by Monte-Carlo oracles."""

import warnings

import numpy as np
import pytest

from oracles import (BinnedPool, grid_conditional_gaussian, mc_logsum_moments,
                     mean_dilog_series_ref, split_distributed_ref, split_scalar_ref)

from reverbtrack.lognorm import (Diagnostics, InconsistentConstraintError,
                                 LogGaussian, _mean_dilog_exp, add_independent,
                                 constrained_linear_update, fuse,
                                 gaussian_sigma_points, logsum_moments,
                                 logsum_posterior_distributed,
                                 logsum_posterior_scalar, logsum_prior,
                                 phase_sigma_points, split_distributed_obs,
                                 split_scalar_obs)


# ---------------------------------------------------------------------------
# sigma points
# ---------------------------------------------------------------------------

def test_gaussian_sigma_points_standard_three():
    sp = gaussian_sigma_points(LogGaussian(0.0, 1.0), 3)
    assert np.allclose(sorted(sp.points), [-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
    assert np.allclose(sorted(sp.weights), [1 / 6, 1 / 6, 2 / 3])
    # exact for polynomials up to degree 5
    std_moments = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0}
    for deg, ref in std_moments.items():
        assert np.sum(sp.weights * sp.points ** deg) == pytest.approx(ref, abs=1e-12)


def test_gaussian_sigma_points_degenerate_and_moment_match():
    sp = gaussian_sigma_points(LogGaussian(1.7, 0.0), 5)
    assert np.all(sp.points == 1.7)
    g = LogGaussian(-2.3, 0.37)
    sp = gaussian_sigma_points(g, 7)
    assert np.sum(sp.weights * sp.points) == pytest.approx(g.mean)
    assert np.sum(sp.weights * (sp.points - g.mean) ** 2) == pytest.approx(g.variance)
    with pytest.raises(ValueError):
        gaussian_sigma_points(g, 0)


def test_phase_sigma_points():
    sp = phase_sigma_points(6)
    assert np.allclose(sp.points, np.array([1, 3, 5, 7, 9, 11]) * np.pi / 12)
    assert np.allclose(sp.weights, 1 / 6)
    sp1 = phase_sigma_points(1)
    assert sp1.points[0] == pytest.approx(np.pi / 2)
    assert sp1.weights[0] == 1.0
    for count in (1, 3, 6):
        sp = phase_sigma_points(count)
        # exact for cos(n phi) except at multiples of 2*count (aliasing)
        for n in range(1, 2 * count + 2):
            if n % (2 * count) == 0:
                continue
            assert np.sum(sp.weights * np.cos(n * sp.points)) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# linear ops
# ---------------------------------------------------------------------------

def test_add_independent():
    g = LogGaussian(-1.2, 0.3)
    assert add_independent(LogGaussian(0.0, 0.0), g) == g
    s = add_independent(LogGaussian(-0.307, 0.01), LogGaussian(-2.0, 0.25))
    assert s.mean == pytest.approx(-2.307)
    assert s.variance == pytest.approx(0.26)
    a, b = LogGaussian(0.5, 0.1), LogGaussian(-0.5, 0.2)
    assert add_independent(a, b) == add_independent(b, a)


def test_fuse():
    g = fuse(LogGaussian(1.5, 0.4), LogGaussian(1.5, 0.4))
    assert g.mean == pytest.approx(1.5)
    assert g.variance == pytest.approx(0.2)
    g = fuse(LogGaussian(-0.7, 0.1), LogGaussian(100.0, 1e12))
    assert g.mean == pytest.approx(-0.7, abs=1e-9)
    assert g.variance == pytest.approx(0.1, rel=1e-9)
    # the array form accepts a literally infinite (uninformative) factor
    from reverbtrack.lognorm import fuse_moments
    m, v = fuse_moments(-0.7, 0.1, 100.0, np.inf)
    assert float(m) == pytest.approx(-0.7)
    assert float(v) == pytest.approx(0.1)
    g = fuse(LogGaussian(0.0, 1.0), LogGaussian(2.0, 1.0))
    assert g.mean == pytest.approx(1.0)
    assert g.variance == pytest.approx(0.5)
    with pytest.raises(InconsistentConstraintError):
        fuse(LogGaussian(0.0, 0.0), LogGaussian(1.0, 0.0))


def test_constrained_linear_update():
    # exact constraint propagation with a fixed partner
    x, y = constrained_linear_update(LogGaussian(0.0, 1.0), LogGaussian(0.5, 0.0),
                                     LogGaussian(2.0, 0.0))
    assert x.mean == pytest.approx(1.5)
    assert x.variance == pytest.approx(0.0)
    # symmetric unit-variance case, worked by hand
    x, y = constrained_linear_update(LogGaussian(0.0, 1.0), LogGaussian(0.0, 1.0),
                                     LogGaussian(2.0, 1.0))
    assert x.mean == pytest.approx(2 / 3)
    assert x.variance == pytest.approx(2 / 3)
    # means land on the constraint surface when the slack is zero
    x, y = constrained_linear_update(LogGaussian(0.3, 0.7), LogGaussian(-1.1, 1.9),
                                     LogGaussian(0.25, 0.0))
    assert x.mean + y.mean == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(InconsistentConstraintError):
        constrained_linear_update(LogGaussian(0.0, 0.0), LogGaussian(0.0, 0.0),
                                  LogGaussian(1.0, 0.0))


def test_constrained_update_matches_grid_oracle():
    ox, ovx, oy, ovy = grid_conditional_gaussian(0.3, 0.7, -1.1, 1.9, 0.25)
    x, y = constrained_linear_update(LogGaussian(0.3, 0.7), LogGaussian(-1.1, 1.9),
                                     LogGaussian(0.25, 0.0))
    assert x.mean == pytest.approx(ox, abs=1e-3)
    assert x.variance == pytest.approx(ovx, abs=1e-3)
    assert y.mean == pytest.approx(oy, abs=1e-3)
    assert y.variance == pytest.approx(ovy, abs=1e-3)


# ---------------------------------------------------------------------------
# log-domain phasor-sum moments
# ---------------------------------------------------------------------------

def test_logsum_prior_equal_point_masses():
    # (1/pi) * int 0.5 log(2 + 2 cos(phi)) dphi = 0
    g = logsum_prior(LogGaussian(0.0, 0.0), LogGaussian(0.0, 0.0))
    assert g.mean == pytest.approx(0.0, abs=1e-12)


def test_logsum_prior_dominance_limit():
    a = LogGaussian(0.0, 0.04)
    g = logsum_prior(a, LogGaussian(-20.0, 0.0))
    assert abs(g.mean - a.mean) <= 1e-6
    assert g.variance == pytest.approx(a.variance, rel=1e-4)


def test_logsum_prior_symmetry():
    a, b = LogGaussian(-1.0, 0.25), LogGaussian(-1.5, 0.4)
    g1, g2 = logsum_prior(a, b), logsum_prior(b, a)
    assert g1.mean == pytest.approx(g2.mean, abs=1e-12)
    assert g1.variance == pytest.approx(g2.variance, abs=1e-12)


def test_logsum_prior_against_monte_carlo():
    a, b = LogGaussian(-1.0, 0.25), LogGaussian(-1.5, 0.25)
    m_mc, v_mc = mc_logsum_moments(a.mean, a.variance, b.mean, b.variance,
                                   n=1_000_000, seed=42)
    g = logsum_prior(a, b)
    assert abs(g.mean - m_mc) <= 0.05
    assert abs(g.variance - v_mc) / v_mc <= 0.1


def test_logsum_prior_phasor_bounds_on_point_masses():
    for da, db in [(0.0, 0.0), (-1.0, -1.5), (0.5, -2.0)]:
        g = logsum_prior(LogGaussian(da, 0.0), LogGaussian(db, 0.0))
        assert g.mean >= max(da, db) - 0.35
        assert g.mean <= 0.5 * np.log((np.exp(da) + np.exp(db)) ** 2) + 1e-12


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

def test_scalar_split_degenerate_priors_dominate():
    a = LogGaussian(0.0, 1e-8)
    b = LogGaussian(-10.0, 1e-8)
    y = 0.5 * np.log(1.0 + np.exp(-20.0) + 2.0 * np.cos(np.pi / 2) * np.exp(-10.0))
    pa, pb = logsum_posterior_scalar(a, b, y)
    assert pa.mean == pytest.approx(a.mean, abs=1e-3)
    assert pb.mean == pytest.approx(b.mean, abs=1e-3)


def test_scalar_split_exchange_symmetry():
    a = LogGaussian(-1.0, 0.25)
    for y in (-1.3, -0.8, -0.2):
        pa, pb = logsum_posterior_scalar(a, a, y)
        assert pa.mean == pytest.approx(pb.mean, abs=1e-10)
        assert pa.variance == pytest.approx(pb.variance, abs=1e-10)


def test_scalar_split_against_rejection_oracle():
    a, b, y = LogGaussian(-1.0, 0.25), LogGaussian(-1.5, 0.25), -0.7
    pool = BinnedPool(a.mean, a.variance, b.mean, b.variance, seed=17)
    ea, va, eb, vb = pool.split_scalar(y)
    pa, pb = logsum_posterior_scalar(a, b, y)
    assert abs(pa.mean - ea) <= 0.05
    assert abs(pb.mean - eb) <= 0.05


def test_distributed_split_degenerate_obs_matches_scalar():
    a, b = LogGaussian(-1.0, 0.25), LogGaussian(-1.5, 0.25)
    sa, sb = logsum_posterior_scalar(a, b, -0.7)
    da, db = logsum_posterior_distributed(a, b, LogGaussian(-0.7, 0.0))
    assert da.mean == pytest.approx(sa.mean, abs=1e-8)
    assert db.mean == pytest.approx(sb.mean, abs=1e-8)
    assert da.variance == pytest.approx(sa.variance, abs=1e-8)


def test_distributed_split_exchange_symmetry():
    a, b = LogGaussian(-1.0, 0.25), LogGaussian(-1.5, 0.4)
    obs = LogGaussian(-0.7, 0.09)
    pa, pb = logsum_posterior_distributed(a, b, obs)
    qb, qa = logsum_posterior_distributed(b, a, obs)
    assert pa.mean == pytest.approx(qa.mean, abs=1e-10)
    assert pb.mean == pytest.approx(qb.mean, abs=1e-10)


def test_distributed_split_against_mixture_oracle():
    a, b = LogGaussian(-1.0, 0.25), LogGaussian(-1.5, 0.25)
    obs = LogGaussian(-0.7, 0.09)
    pool = BinnedPool(a.mean, a.variance, b.mean, b.variance, seed=19)
    ea, va, eb, vb = pool.split_distributed(obs.mean, obs.variance)
    pa, pb = logsum_posterior_distributed(a, b, obs)
    assert abs(pa.mean - ea) <= 0.07
    assert abs(pb.mean - eb) <= 0.07


def test_split_output_bounds_observation():
    # a zero-variance re-substitution of the posterior means must bracket
    # the observation across the possible phase alignments
    a, b, y = LogGaussian(-1.0, 0.25), LogGaussian(-1.5, 0.25), -0.7
    pa, pb = logsum_posterior_scalar(a, b, y)
    ea, eb = np.exp(pa.mean), np.exp(pb.mean)
    lo = 0.5 * np.log(max((ea - eb) ** 2, 1e-300))
    hi = 0.5 * np.log((ea + eb) ** 2)
    assert lo <= y <= hi


def test_inconsistent_observation_falls_back_to_priors():
    from reverbtrack.lognorm import Diagnostics
    diag = Diagnostics()
    a, b = LogGaussian(0.0, 1e-6), LogGaussian(0.0, 1e-6)
    # an observation hundreds of nats away cannot be explained
    pa, pb = logsum_posterior_scalar(a, b, 500.0, diag=diag)
    assert pa.mean == pytest.approx(a.mean)
    assert pb.mean == pytest.approx(b.mean)
    assert diag.fallbacks >= 1


def test_logsum_prior_quadrature_count_stability():
    # the documented sigma counts and doubled counts must agree closely
    a, b = LogGaussian(-1.0, 0.25), LogGaussian(-1.5, 0.4)
    g1 = logsum_prior(a, b, k_gauss=3, k_phase=6)
    g2 = logsum_prior(a, b, k_gauss=6, k_phase=12)
    assert g1.mean == pytest.approx(g2.mean, abs=1e-9)
    assert g1.variance == pytest.approx(g2.variance, abs=1e-9)


def test_log_gaussian_validation():
    with pytest.raises(ValueError):
        LogGaussian(np.nan, 1.0)
    with pytest.raises(ValueError):
        LogGaussian(0.0, -0.1)


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
