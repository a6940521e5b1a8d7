"""Shared pytest hooks and fixtures.

The hook echoes acceptance-criterion verdicts in the summary; the
advance_bin fixture runs one frame of the cascade on a single bin.
"""

import numpy as np
import pytest

from reverbtrack import enhancer, reverb
from reverbtrack.lognorm import Diagnostics

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(CRITERION_LINES)):
            terminalreporter.write_line(line)


def _advance_bin(fs, y, noise, cfg, priors=None, update=True, diag=None):
    """One frame of enhancer._advance on the single bin of the state fs.

    noise is the (mean, variance) of the noise log-magnitude. priors, when
    given, are the decay priors (gamma mean, gamma variance, beta mean,
    beta variance) to fuse; update is the bin's RNR gate, which runs
    steps 10-12 when true. The AR model is a random walk with residual
    variance 0.01. Returns the trace row with a float per field, its
    t60_est and drr_est converted from gamma_mean and beta_mean as
    enhance_frames converts them.
    """
    mask = np.array([priors is not None])
    prior_rows = np.array(priors if priors is not None else (0.0, 1.0, 0.0, 1.0),
                          dtype=float)[:, None]
    coeffs = np.zeros((1, cfg.p))
    coeffs[0, 0] = 1.0
    row = enhancer._advance(fs, np.array([float(y)]), np.array([noise[0]]), noise[1],
                            coeffs, np.array([0.01]), np.zeros(1), *prior_rows, mask,
                            cfg, Diagnostics() if diag is None else diag,
                            update_mask=np.array([update]))
    row["t60_est"], row["drr_est"] = reverb.gamma_beta_to_room(
        row["gamma_mean"], row["beta_mean"], cfg.frame_increment)
    return {f: row[f][0].item() for f in row}


@pytest.fixture
def advance_bin():
    return _advance_bin
