"""Shared pytest hooks and fixtures.

The hook echoes acceptance-criterion verdicts in the summary; the
advance_bin fixture runs one frame of the cascade on a single bin, and
criterion_8_audio is acceptance criterion 8's adversarial input.
"""

import os

# one BLAS thread, as perfbench and the tools pin it: enhance_frames forks
# only from a process with no other thread, so that the suite runs the
# forked path where it would run in the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from reverbtrack import enhancer, reverb  # noqa: E402
from reverbtrack.lognorm import Diagnostics  # noqa: E402
from reverbtrack.stft import AudioBuffer  # noqa: E402

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(CRITERION_LINES)):
            terminalreporter.write_line(line)


def _advance_bin(fs, y, n_mean, cfg, priors=None, update=True, diag=None):
    """One frame of enhancer._advance on the single bin of the state fs.

    n_mean is the noise log-magnitude's mean; its variance is
    enhancer.NOISE_VARIANCE. priors, when given, are the decay priors (gamma
    mean, gamma variance, beta mean, beta variance) to fuse; update is the
    bin's RNR gate, which runs steps 9-12 when true. The AR model is a
    random walk with residual variance 0.01. Returns the trace row with a
    float per field, its t60_est and drr_est converted from gamma_mean and
    beta_mean as enhance_frames converts them.
    """
    prior_rows = np.array(priors if priors is not None else (0.0, 1.0, 0.0, 1.0),
                          dtype=float)[:, None]
    coeffs = np.zeros((1, enhancer.AR_ORDER))
    coeffs[0, 0] = 1.0
    frame = enhancer._Frame(
        pre_log=np.array([float(y)]), y=np.array([float(y)]), n_mean=np.array([float(n_mean)]),
        coeffs=coeffs, resid=np.array([0.01]), loc_mean=np.zeros(1), gate=np.array([update]),
        observed=np.array([True]), priors=(*prior_rows, np.array([priors is not None])))
    row = enhancer._advance(fs, frame, cfg, Diagnostics() if diag is None else diag)
    row["t60_est"], row["drr_est"] = reverb.gamma_beta_to_room(
        row["gamma_mean"], row["beta_mean"])
    return {f: row[f][0].item() for f in row}


@pytest.fixture
def advance_bin():
    return _advance_bin


@pytest.fixture(scope="session")
def criterion_8_audio():
    """Acceptance criterion 8's adversarial input: 2 s each of silence, DC,
    clicks, clipped noise and full-scale noise at 16 kHz."""
    rng = np.random.default_rng(5)
    fs = 16000
    parts = [
        np.zeros(2 * fs),                              # silence
        np.full(2 * fs, 0.5),                          # DC
        np.zeros(2 * fs),                              # clicks
        np.clip(rng.standard_normal(2 * fs), -1, 1),   # clipped noise
        rng.uniform(-1.0, 1.0, 2 * fs),                # full-scale noise
    ]
    parts[2][::1600] = 1.0
    return AudioBuffer(np.concatenate(parts))
