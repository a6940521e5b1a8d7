"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion."""

import sys

import numpy as np
import pytest

import conftest
from oracles import BinnedPool, grid_conditional_gaussian, mc_logsum_moments

from reverbtrack import AudioBuffer, RoomParams, enhance, enhance_frames, istft, stft
from reverbtrack.cli import main as cli_main
from reverbtrack.lognorm import (line_constrained_update, logsum_moments,
                                 split_distributed_obs, split_scalar_obs)
from reverbtrack.reverb import ENVIRONMENTS, room_to_ab
from reverbtrack.simkit import cepstral_distance, make_scene, speechlike_excitation
from reverbtrack.stft import FRAME_SAMPLES

# Reference (a, b) operating points for the 22 standard environments,
# keyed by the environment index of reverbtrack.reverb.ENVIRONMENTS.
# The published table is built in three steps: a = 10^(-6 L / T60) is
# rounded to 2 decimals; b = (1 - a) / 10^(DRR/10) is computed from that
# rounded a, not the exact one; b is then rounded to 2 decimals. Every row
# fits this construction, so b carries a's rounding error scaled by
# 10^(-DRR/10). Rows F and U, once called internally inconsistent, only
# looked so when b was compared with the b of the exact a.
REFERENCE_AB = {
    "A": (0.54, 0.07), "B": (0.64, 0.10), "C": (0.72, 0.14), "D": (0.76, 0.16),
    "E": (0.79, 0.20), "F": (0.81, 0.23), "G": (0.83, 0.25), "H": (0.84, 0.26),
    "I": (0.85, 0.27), "J": (0.59, 0.06), "K": (0.70, 0.16), "L": (0.76, 0.23),
    "M": (0.80, 0.19), "N": (0.83, 0.20), "O": (0.84, 0.20), "P": (0.85, 0.19),
    "Q": (0.86, 0.21), "R": (0.86, 0.22), "S": (0.88, 0.19), "T": (0.89, 0.22),
    "U": (0.90, 0.20), "V": (0.90, 0.22),
}


def report(num, name, ok, detail):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.CRITERION_LINES.append(line)   # echoed in the terminal summary
    assert ok, line


# ---------------------------------------------------------------------------
# 1. environment table reproduction
# ---------------------------------------------------------------------------

def test_criterion_01_environment_table():
    bad = []
    for idx, t60, drr, _ in ENVIRONMENTS:
        ra, rb = REFERENCE_AB[idx]
        # the table on its own: b from the rounded a, then rounded
        table_b = (1.0 - ra) / 10.0 ** (drr / 10.0)
        if round(table_b, 2) != rb:
            bad.append(f"{idx}: table b={rb} but (1-{ra})/10^(DRR/10)="
                       f"{table_b:.4f}")
            continue
        a, b = room_to_ab(RoomParams(t60, drr))
        if abs(a - ra) > 0.005:
            bad.append(f"{idx}: a={a:.4f} (ref {ra})")
        # move the program's b from its exact a to the table's rounded a
        b_rescaled = b * (1.0 - ra) / (1.0 - a)
        if abs(b_rescaled - rb) > 0.005:
            bad.append(f"{idx}: rescaled b={b_rescaled:.4f} (ref {rb}, "
                       f"unscaled {b:.4f})")
    report(1, "environment table a and rescaled b within 0.005", not bad,
           "all 22 rows match" if not bad else "; ".join(bad))


# ---------------------------------------------------------------------------
# 2. moment-integral oracle suite on a fixed 5x5x3 grid
# ---------------------------------------------------------------------------

GRID_GAPS = [-2.0, -1.0, 0.0, 1.0, 2.0]            # ma - mb, with ma = 0
GRID_VARS = [0.14, 0.25, 0.5, 1.0, 2.0]            # shared prior variance
GRID_OFFSETS = [-0.5, 0.0, 0.5]                    # observation - prior mean
OBS_VAR = 0.09


def test_criterion_02_moment_oracles():
    ma = 0.0
    worst = {"prior_m": 0.0, "prior_v": 0.0, "scal_m": 0.0, "scal_v": 0.0,
             "dist_m": 0.0, "dist_v": 0.0}
    seed = 0
    for gap in GRID_GAPS:
        for v in GRID_VARS:
            mb = ma - gap
            pool = BinnedPool(ma, v, mb, v, n=1_000_000, seed=seed)
            seed += 1
            m, var = logsum_moments(ma, v, mb, v)
            worst["prior_m"] = max(worst["prior_m"], abs(m - pool.mean_f))
            worst["prior_v"] = max(worst["prior_v"],
                                   abs(var - pool.var_f) / pool.var_f)
            for off in GRID_OFFSETS:
                y = float(m) + off
                oa, ova, ob, ovb = pool.split_scalar(y)
                pa, pva, pb, pvb, _ = split_scalar_obs(ma, v, mb, v, y)
                worst["scal_m"] = max(worst["scal_m"], abs(pa - oa), abs(pb - ob))
                worst["scal_v"] = max(worst["scal_v"],
                                      abs(pva - ova) / max(ova, 1e-9),
                                      abs(pvb - ovb) / max(ovb, 1e-9))
                oa, ova, ob, ovb = pool.split_distributed(y, OBS_VAR)
                pa, pva, pb, pvb, _ = split_distributed_obs(
                    ma, v, mb, v, y, OBS_VAR)
                worst["dist_m"] = max(worst["dist_m"], abs(pa - oa), abs(pb - ob))
                worst["dist_v"] = max(worst["dist_v"],
                                      abs(pva - ova) / max(ova, 1e-9),
                                      abs(pvb - ovb) / max(ovb, 1e-9))
    ok = (worst["prior_m"] <= 0.05 and worst["prior_v"] <= 0.1
          and worst["scal_m"] <= 0.05 and worst["scal_v"] <= 0.1
          and worst["dist_m"] <= 0.07 and worst["dist_v"] <= 0.1)
    report(2, "moment integrals vs Monte-Carlo oracles", ok,
           "worst |dmean| prior/scalar/distributed = "
           f"{worst['prior_m']:.4f}/{worst['scal_m']:.4f}/{worst['dist_m']:.4f}, "
           "worst rel dvar = "
           f"{worst['prior_v']:.4f}/{worst['scal_v']:.4f}/{worst['dist_v']:.4f}")


# ---------------------------------------------------------------------------
# 3. constrained-update exactness
# ---------------------------------------------------------------------------

def test_criterion_03_constrained_update():
    rng = np.random.default_rng(7)
    worst_sum = 0.0
    worst_grid = 0.0
    for _ in range(20):
        mx, my = rng.normal(0.0, 2.0, 2)
        vx, vy = rng.uniform(0.1, 2.0, 2)
        mt = rng.normal(0.0, 2.0)
        pmx, pvx, pmy, pvy = line_constrained_update(mx, vx, my, vy, mt, 0.0)
        worst_sum = max(worst_sum, abs(float(pmx + pmy) - mt))
        ox, ovx, oy, ovy = grid_conditional_gaussian(mx, vx, my, vy, mt)
        worst_grid = max(worst_grid,
                         abs(float(pmx) - ox), abs(float(pvx) - ovx),
                         abs(float(pmy) - oy), abs(float(pvy) - ovy))
    ok = worst_sum <= 1e-10 and worst_grid <= 1e-3
    report(3, "zero-slack constrained update exactness", ok,
           f"worst |x+y-total| = {worst_sum:.2e}, "
           f"worst grid-oracle gap = {worst_grid:.2e}")


# ---------------------------------------------------------------------------
# 4. STFT perfect reconstruction
# ---------------------------------------------------------------------------

def test_criterion_04_stft_reconstruction():
    rng = np.random.default_rng(11)
    worst_db = -np.inf
    for _ in range(10):
        x = rng.standard_normal(int(rng.integers(8000, 32000)))
        audio = AudioBuffer(x)
        out = istft(stft(audio))
        n = FRAME_SAMPLES
        m = min(len(out.samples), len(x))
        err = out.samples[n:m - n] - x[n:m - n]
        db = 20.0 * np.log10(np.linalg.norm(err)
                             / np.linalg.norm(x[n:m - n]) + 1e-300)
        worst_db = max(worst_db, db)
    report(4, "STFT round-trip interior error", worst_db <= -100.0,
           f"worst interior error {worst_db:.1f} dB (limit -100 dB)")


# ---------------------------------------------------------------------------
# 5/6. synthetic tracking at condition G (T60=0.61 s, DRR=-1.74 dB)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def condition_g():
    clean = speechlike_excitation(10.0, seed=3)
    room = RoomParams(0.61, -1.74)
    _, truth, noisy = make_scene(clean, room, 20.0, "white", seed=0)
    enhanced, trace, diag = enhance_frames(noisy)
    return truth, trace


def test_criterion_05_t60_drr_convergence(condition_g):
    truth, trace = condition_g
    k = 32                                  # 1 kHz bin at 512-point frames
    last = 250                              # final 2 s at 8 ms frames
    t60 = float(np.median(trace.arrays["t60_est"][-last:, k]))
    drr = float(np.median(trace.arrays["drr_est"][-last:, k]))
    ok = (0.61 * 0.7 <= t60 <= 0.61 * 1.3) and (-1.74 - 3.0 <= drr <= -1.74 + 3.0)
    report(5, "blind T60/DRR convergence", ok,
           f"median T60 {t60:.3f} s (band 0.427..0.793), "
           f"median DRR {drr:+.2f} dB (band -4.74..+1.26)")


def test_criterion_06_disturbance_correlation(condition_g):
    truth, trace = condition_g
    k = 32
    cz = float(np.corrcoef(truth.z_true[:, k], trace.arrays["z_mean"][:, k])[0, 1])
    cr = float(np.corrcoef(truth.r_true[:, k], trace.arrays["r_mean"][:, k])[0, 1])
    ok = cz >= 0.6 and cr >= 0.5
    report(6, "disturbance tracking correlation", ok,
           f"corr(z) = {cz:.3f} (>= 0.6), corr(r) = {cr:.3f} (>= 0.5)")


# ---------------------------------------------------------------------------
# 7. end-to-end improvement direction
# ---------------------------------------------------------------------------

SCENES = [  # (t60 s, drr dB, snr dB, noise kind, seed)
    (0.3, 4.0, 10.0, "white", 0),
    (0.3, 4.0, 12.0, "pink", 1),
    (0.6, 0.0, 15.0, "white", 2),
    (0.6, 2.0, 10.0, "pink", 3),
    (0.6, 4.0, 12.0, "white", 4),
]


def test_criterion_07_mean_cd_improvement():
    deltas = []
    for t60, drr, snr, kind, sd in SCENES:
        clean = speechlike_excitation(8.0, seed=100 + sd)
        noisy, _, _ = make_scene(clean, RoomParams(t60, drr), snr,
                                 noise_kind=kind, seed=sd)
        ref = AudioBuffer(clean.samples[:len(noisy.samples)])
        enhanced, _, _ = enhance(noisy)
        cd_before = cepstral_distance(ref, noisy)
        cd_after = cepstral_distance(ref, enhanced)
        deltas.append(cd_after - cd_before)
    mean_delta = float(np.mean(deltas))
    report(7, "mean cepstral-distance improvement", mean_delta <= -0.3,
           f"dCD per scene {['%.2f' % d for d in deltas]}, "
           f"mean {mean_delta:.3f} (limit -0.3)")


# ---------------------------------------------------------------------------
# 8. numerical robustness on adversarial input
# ---------------------------------------------------------------------------

def test_criterion_08_adversarial_robustness(criterion_8_audio):
    out, trace, diag = enhance(criterion_8_audio)
    bad = [f for f, arr in trace.arrays.items() if not np.all(np.isfinite(arr))]
    ok = not bad and np.all(np.isfinite(out.samples))
    report(8, "adversarial-input robustness", ok,
           "all trace fields and output finite" if ok
           else f"non-finite values in {bad or 'output'}")


# ---------------------------------------------------------------------------
# 9. analytic curve spot checks on the CLI parameter export
# ---------------------------------------------------------------------------

def test_criterion_09_beta_curve(capsys):
    assert cli_main(["params", "--fig1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    rows = [ln.split(",") for ln in lines]
    drr0 = {float(x): float(b) for c, x, b in rows if c == "beta_vs_t60_drr0"}
    beta_half = drr0[0.5]
    spot_ok = abs(beta_half - (-0.809)) <= 1e-3
    # the CSV prints beta to 6 decimals; b = 1 - a must hold to within
    # that quantisation of the printed value
    worst = 0.0
    for t60, beta in drr0.items():
        a = 10.0 ** (-6.0 * 0.008 / t60)
        worst = max(worst, abs(beta - 0.5 * np.log(1.0 - a)))
    curve_ok = worst <= 5.000001e-7
    report(9, "beta-curve spot checks", spot_ok and curve_ok,
           f"beta(T60=0.5, DRR=0) = {beta_half:.4f} (ref -0.809), "
           f"worst |beta - 0.5 ln(1-a)| at DRR=0: {worst:.2e} "
           "(limit: half ulp of the 6-decimal CSV)")
