"""Reverberation parameterisation and decay-prior tests."""

import numpy as np
import pytest

from reverbtrack import enhancer
from reverbtrack.enhancer import (FDR_BETA_EXTRA_VAR, FDR_SKIP, EnhancerConfig,
                                  _decay_run_lengths, _fdr_priors_at, _FilterState)
from reverbtrack.reverb import (DB_TO_NATS, ENVIRONMENTS, FDR_R_VARIANCE,
                                RoomParams, ab_to_gamma_beta, clamp_gamma,
                                gamma_beta_to_room, room_to_ab)
from reverbtrack.stft import FRAME_INCREMENT


# ---------------------------------------------------------------------------
# parameter conversions
# ---------------------------------------------------------------------------

def test_room_to_ab_reference_rows():
    # table rows A and V; the table takes b from the rounded a, so the
    # program's b is rescaled from its exact a before the comparison
    for t60, drr, ra, rb in ((0.18, 8.43, 0.54, 0.07),
                             (1.05, -3.33, 0.90, 0.22)):
        a, b = room_to_ab(RoomParams(t60, drr))
        assert a == pytest.approx(ra, abs=0.005)
        assert b * (1.0 - ra) / (1.0 - a) == pytest.approx(rb, abs=0.005)


def test_room_to_ab_zero_drr():
    for t60 in (0.2, 0.5, 1.0):
        a, b = room_to_ab(RoomParams(t60, 0.0))
        assert b == pytest.approx(1.0 - a, abs=1e-14)


def test_invalid_room_params():
    with pytest.raises(ValueError):
        RoomParams(-0.1, 0.0)
    # a DRR whose power ratio 10^(drr/10) overflows or underflows fails
    # with the field's name; near the ends of the ratio's range it works
    for drr in (np.inf, np.nan, -np.inf, 1e308, 3100.0, -3100.0, -4000.0, -1e308):
        with pytest.raises(ValueError, match="^drr must be finite"):
            RoomParams(0.5, drr)
    for drr in (3080.0, -3070.0):
        a, b = room_to_ab(RoomParams(0.5, drr))
        assert 0.0 < b < np.inf


def test_room_params_require_finite_positive_times():
    """A non-finite or non-positive T60 fails with the field's name."""
    for t60 in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="^t60 must be finite and > 0"):
            RoomParams(t60, 0.0)


def test_room_params_take_numbers_only():
    """A bool, a string or None is no T60 or DRR, and the
    error names the field; numpy numbers are numbers, and the room they
    give has the bits of the same Python floats."""
    for args, name in (((True, 0.0), "t60"), (("0.5", 0.0), "t60"), ((0.5, "0.5"), "drr"),
                       ((0.5, None), "drr"), ((0.5, np.False_), "drr"),
                       ((10 ** 400, 0.0), "t60")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            RoomParams(*args)
    numpy_room = RoomParams(np.float32(0.5), np.int64(-2))
    assert room_to_ab(numpy_room) == room_to_ab(RoomParams(0.5, -2.0))
    # a room that gives no a warns of no overflow: it raises, naming a
    with pytest.raises(ValueError, match="a must lie in"):
        ab_to_gamma_beta(*room_to_ab(RoomParams(np.float64(5e-324), 0.0)))


def test_ab_to_gamma_beta():
    g, be = ab_to_gamma_beta(0.54, 1.0)
    assert g == pytest.approx(-0.3077, abs=1e-3)
    assert be == pytest.approx(0.0)
    with pytest.raises(ValueError):
        ab_to_gamma_beta(1.2, 0.1)
    with pytest.raises(ValueError):
        ab_to_gamma_beta(0.5, -0.1)


def test_gamma_beta_to_room_inverts():
    t60, _ = gamma_beta_to_room(-0.3077, 0.5 * np.log(0.0659))
    assert t60 == pytest.approx(0.1796, abs=2e-3)
    with pytest.raises(ValueError):
        gamma_beta_to_room(0.1, 0.0)
    with pytest.raises(ValueError):
        gamma_beta_to_room(np.array([-0.3, 0.0]), np.zeros(2))


def test_gamma_beta_to_room_bounds_the_drr_at_both_ends():
    """A beta posterior far from 0 (one run of init_param_variance=1e10
    reached -11,018 and +2,298) reads a finite DRR at the ratio's bounds,
    with no overflow or divide warning; a finite ratio keeps its bits."""
    gamma = np.full(4, -0.01)
    beta = np.array([-11018.0, 2298.0, -3.0, 1.0])
    _, drr = gamma_beta_to_room(gamma, beta)
    assert drr[0] == 10.0 * np.log10(np.finfo(float).max)
    assert drr[1] == -3000.0
    ratio = (1.0 - np.exp(2.0 * gamma[2:])) / np.exp(2.0 * beta[2:])
    assert np.array_equal(drr[2:], 10.0 * np.log10(ratio))


def test_round_trip_identity_over_grid():
    for t60 in np.linspace(0.1, 2.0, 9):
        for drr in np.linspace(-10.0, 15.0, 11):
            a, b = room_to_ab(RoomParams(t60, drr))
            g, be = ab_to_gamma_beta(a, b)
            t60_out, drr_out = gamma_beta_to_room(g, be)
            assert t60_out == pytest.approx(t60, rel=1e-9)
            assert drr_out == pytest.approx(drr, abs=1e-9)
    # elementwise over arrays, as the frame loop converts all bins at once
    t60s, drrs = np.meshgrid(np.linspace(0.1, 2.0, 9), np.linspace(-10.0, 15.0, 11))
    a = 10.0 ** (-6.0 * 0.008 / t60s)
    b = (1.0 - a) / 10.0 ** (drrs / 10.0)
    t60_out, drr_out = gamma_beta_to_room(0.5 * np.log(a), 0.5 * np.log(b))
    assert np.allclose(t60_out, t60s, rtol=1e-9, atol=0.0)
    assert np.allclose(drr_out, drrs, rtol=0.0, atol=1e-9)


def test_environment_table_shape():
    assert len(ENVIRONMENTS) == 22
    t60s = [row[1] for row in ENVIRONMENTS]
    assert all(t > 0 for t in t60s)


# ---------------------------------------------------------------------------
# random walk and decay priors, one frame of the cascade on one bin
# ---------------------------------------------------------------------------

def _params_state(gm=-0.3, gv=0.01, bm=-0.8, bv=0.02):
    fs = _FilterState(1, EnhancerConfig(), np.zeros(1), np.array([-3.0]))
    fs.gamma_m[:], fs.gamma_v[:], fs.beta_m[:], fs.beta_v[:] = gm, gv, bm, bv
    return fs


def test_random_walk_predict(advance_bin, monkeypatch):
    # a bin outside the RNR gate keeps the predicted gamma and beta; the
    # drift variances are read when the frame runs
    monkeypatch.setattr(enhancer, "Q_GAMMA", 0.0)
    monkeypatch.setattr(enhancer, "Q_BETA", 0.0)
    row = advance_bin(_params_state(), -1.0, -3.0, update=False)
    assert row["gamma_var"] == pytest.approx(0.01)
    monkeypatch.setattr(enhancer, "Q_GAMMA", 0.0004)
    row = advance_bin(_params_state(), -1.0, -3.0, update=False)
    assert row["gamma_mean"] == pytest.approx(-0.3)
    assert row["gamma_var"] == pytest.approx(0.0104)
    monkeypatch.setattr(enhancer, "Q_BETA", 0.001)
    fs = _params_state()
    for _ in range(5):
        row = advance_bin(fs, -1.0, -3.0, update=False)
    assert row["gamma_var"] == pytest.approx(0.01 + 5 * 0.0004)
    assert row["beta_var"] == pytest.approx(0.02 + 5 * 0.001)


def test_decay_run_lengths_full_run():
    run = _decay_run_lengths(np.linspace(0.0, -7.0, 8))
    assert list(run) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_decay_run_lengths_rejects_increasing():
    energy = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    run = _decay_run_lengths(energy)
    assert np.all(run == 1)
    # a run of one frame yields no decay prior
    z = np.tile(energy[:, None], (1, 3))
    *_, mask = _fdr_priors_at(4, run[4], z, np.ones(z.shape, bool))
    assert not np.any(mask)


def test_decay_run_lengths_run_broken_by_rise():
    run = _decay_run_lengths([0.0, -1.0, -2.0, -1.5, -2.5, -3.5, -4.5, -5.5])
    assert run[-1] == 5                   # frames 3-7, after the rise at index 3
    assert list(run[3:]) == [1, 2, 3, 4, 5]


def _decay(slope, intercept, peak, m=8, l=0.008):
    """(m,) log-magnitudes of a free decay: the peak, then the line
    intercept + slope*x with x = 0 one frame after the peak."""
    x = (np.arange(m) - 1.0) * l
    z = intercept + slope * x
    z[0] = peak
    return z


def test_fdr_priors_gap_breaks_run():
    z = np.tile(_decay(-50.0, 1.0, 2.0, m=10)[:, None], (1, 3))
    z[6:] += 0.5                          # frames 6-9 leave the line
    gate = np.ones(z.shape, bool)
    gate[6, 1] = False                    # bin 1: gate fails at frame 6 ...
    gate[3, 2] = False                    # bin 2: ... and at frame 3
    gm, gv, bm, bv, mask = _fdr_priors_at(9, 10, z, gate)
    # bin 1 fits frames 2-5 only: frames 7-9 pass the gate again but stay
    # out of the fit, so it recovers the line. Bin 0 also fits frames 6-9,
    # which are off it; bin 2 keeps a single frame, too few for a prior
    assert list(mask) == [True, True, False]
    assert gm[1] == pytest.approx(-50.0 * FRAME_INCREMENT, rel=1e-9)
    assert bm[1] == pytest.approx(1.0 - 2.0, abs=1e-9)
    assert abs(gm[0] - gm[1]) > 1e-3


def _prior_terms(m):
    """The OLS sums over the fitted frames FDR_SKIP..m-1 of the window."""
    x = (np.arange(FDR_SKIP, m) - 1.0) * FRAME_INCREMENT
    n, sx, sxx = x.size, x.sum(), (x * x).sum()
    return x, n, sxx, n * sxx - sx * sx


def test_fit_line_exact_recovery():
    l = FRAME_INCREMENT
    z = _decay(-5.0, 2.0, 2.5)[:, None]
    gm, gv, bm, bv, mask = _fdr_priors_at(7, 8, z, np.ones(z.shape, bool))
    assert mask[0]
    assert gm[0] == pytest.approx(-5.0 * l, abs=1e-9)
    # the intercept is referenced to the frame after the peak, and beta
    # is the intercept minus the peak value
    assert bm[0] == pytest.approx(2.0 - 2.5, abs=1e-9)
    _, n, sxx, det = _prior_terms(8)
    assert gv[0] == pytest.approx(l * l * FDR_R_VARIANCE * n / det, rel=1e-12)
    assert bv[0] == pytest.approx(FDR_R_VARIANCE * sxx / det + FDR_R_VARIANCE
                                  + FDR_BETA_EXTRA_VAR, rel=1e-12)


def test_fit_line_equals_ols_for_equal_weights():
    rng = np.random.default_rng(5)
    z = _decay(-4.0, 0.3, 0.5, m=9) + 0.01 * rng.standard_normal(9)
    gm, _, bm, _, mask = _fdr_priors_at(8, 9, z[:, None], np.ones((9, 1), bool))
    x, *_ = _prior_terms(9)
    slope, intercept = np.polyfit(x, z[FDR_SKIP:], 1)
    assert mask[0]
    assert gm[0] / FRAME_INCREMENT == pytest.approx(slope, abs=1e-10)
    assert bm[0] + z[0] == pytest.approx(intercept, abs=1e-10)


def test_priors_from_line_gamma_chain():
    # slope corresponding to T60 = 0.18 s: theta1 = -3 ln10 / 0.18
    theta1 = -3.0 * np.log(10.0) / 0.18
    z = _decay(theta1, -1.0, 0.0)[:, None]
    gm, gv, bm, bv, _ = _fdr_priors_at(7, 8, z, np.ones(z.shape, bool))
    assert gm[0] == pytest.approx(0.008 * theta1, abs=1e-12)
    assert gm[0] == pytest.approx(-0.3070, abs=1e-3)
    # beta combines the intercept with the pre-decay peak frame: means
    # subtract, and the peak's 1 dB^2 and the extra beta variance add
    _, n, sxx, det = _prior_terms(8)
    assert bm[0] == pytest.approx(-1.0, abs=1e-12)
    assert bv[0] == pytest.approx(FDR_R_VARIANCE * sxx / det + FDR_R_VARIANCE
                                  + FDR_BETA_EXTRA_VAR, rel=1e-12)


def test_priors_from_line_equal_terms_give_zero_beta():
    z = _decay(-10.0, 0.0, 0.0)[:, None]
    _, _, bm, _, mask = _fdr_priors_at(7, 8, z, np.ones(z.shape, bool))
    assert mask[0]
    assert bm[0] == pytest.approx(0.0, abs=1e-12)


def test_apply_priors(advance_bin, monkeypatch):
    # a bin outside the RNR gate: its gamma and beta are the random-walk
    # prediction fused with the decay priors
    monkeypatch.setattr(enhancer, "Q_GAMMA", 0.0)
    monkeypatch.setattr(enhancer, "Q_BETA", 0.0)

    def fused(priors):
        return advance_bin(_params_state(), -1.0, -3.0, priors=priors, update=False)

    out = fused((0.0, 1e12, 0.0, 1e12))
    assert out["gamma_mean"] == pytest.approx(-0.3, abs=1e-9)
    out = fused((-0.3, 0.01, -0.8, 0.02))
    assert out["gamma_var"] == pytest.approx(0.005)
    assert out["beta_var"] == pytest.approx(0.01)
    # fusion never increases variance
    out = fused((-0.5, 0.5, 0.0, 0.5))
    assert out["gamma_var"] <= 0.01
    assert out["beta_var"] <= 0.02


def test_fdr_observation_to_r():
    # each fitted decay frame counts as an observation of r with a
    # 1 dB^2 variance: the slope prior's variance is that variance
    # propagated through the OLS fit
    assert FDR_R_VARIANCE == pytest.approx((np.log(10.0) / 20.0) ** 2)
    assert FDR_R_VARIANCE == pytest.approx(0.013256, abs=2e-6)
    assert DB_TO_NATS ** 2 == FDR_R_VARIANCE
    z = _decay(-20.0, 0.0, 1.0, m=12)[:, None]
    gv = _fdr_priors_at(11, 12, z, np.ones(z.shape, bool))[1]
    x, *_ = _prior_terms(12)
    assert gv[0] == pytest.approx(FRAME_INCREMENT ** 2 * FDR_R_VARIANCE
                                  / np.sum((x - x.mean()) ** 2), rel=1e-12)


def test_clamp_gamma():
    assert clamp_gamma(0.5) == pytest.approx(-1e-4)
    assert clamp_gamma(-0.3) == pytest.approx(-0.3)
    assert np.all(clamp_gamma(np.array([0.1, -0.2])) < 0.0)
