"""Reverberation parameterisation and the constants of the decay priors.

The per-bin recursion R_t = sqrt(a) R_{t-1} e^{j theta} + sqrt(b) S_{t-1}
e^{j psi} is parameterised either by room quantities (T60, DRR) or by the
log-domain pair gamma = 0.5*log(a), beta = 0.5*log(b). The decay priors
themselves -- a least-squares line through each free decay region (a run
of frames with decreasing energy), which keeps the filter from drifting
to unrealistic rooms -- are fitted by enhancer._fdr_priors_at, on all
bins at once; this module holds the thresholds and the observation
variance they use.
"""

from dataclasses import dataclass

import numpy as np

DB_TO_NATS = np.log(10.0) / 20.0       # amplitude dB -> nats
FDR_R_VARIANCE = DB_TO_NATS ** 2        # "1 dB^2" observation variance in nats^2
GAMMA_CLAMP = -1e-4
MIN_FDR_LENGTH = 4
RNR_THRESHOLD_DB = 10.0

# environment table: (index, T60 s, DRR dB, room label)
ENVIRONMENTS = [
    ("A", 0.18, 8.43, "5x4x4"), ("B", 0.25, 5.78, "5x4x4"),
    ("C", 0.33, 3.13, "5x4x4"), ("D", 0.40, 1.69, "5x4x4"),
    ("E", 0.47, 0.25, "5x4x4"), ("F", 0.54, -0.74, "5x4x4"),
    ("G", 0.61, -1.74, "5x4x4"), ("H", 0.64, -2.13, "5x4x4"),
    ("I", 0.68, -2.52, "5x4x4"), ("J", 0.21, 8.07, "10x7x3"),
    ("K", 0.31, 2.74, "10x7x3"), ("L", 0.40, 0.17, "10x7x3"),
    ("M", 0.50, 0.11, "10x7x3"), ("N", 0.59, -0.73, "10x7x3"),
    ("O", 0.64, -0.95, "10x7x3"), ("P", 0.69, -1.12, "10x7x3"),
    ("Q", 0.71, -1.68, "10x7x3"), ("R", 0.73, -2.01, "10x7x3"),
    ("S", 0.85, -2.09, "10x7x3"), ("T", 0.97, -2.95, "10x7x3"),
    ("U", 1.01, -3.11, "10x7x3"), ("V", 1.05, -3.33, "10x7x3"),
]


@dataclass
class RoomParams:
    t60: float          # seconds
    drr: float          # dB, power ratio
    frame_increment: float = 0.008

    def __post_init__(self):
        if self.t60 <= 0:
            raise ValueError("T60 must be positive")
        if self.frame_increment <= 0:
            raise ValueError("frame increment must be positive")
        if not np.isfinite(self.drr):
            raise ValueError("DRR must be finite")


def room_to_ab(room: RoomParams):
    """a from a^{T60/L} = 1e-6; b = (1-a) / DRR (power-domain DRR)."""
    a = 10.0 ** (-6.0 * room.frame_increment / room.t60)
    b = (1.0 - a) / (10.0 ** (room.drr / 10.0))
    return a, b


def ab_to_gamma_beta(a, b):
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0, 1)")
    if b <= 0.0:
        raise ValueError("b must be positive")
    return 0.5 * np.log(a), 0.5 * np.log(b)


def gamma_beta_to_room(gamma, beta, frame_increment=0.008):
    """Invert (gamma, beta) to (T60 in s, DRR in dB), elementwise.

    The DRR's power ratio is floored at 1e-300, so a vanishing ratio
    reads -3000 dB rather than -inf.
    """
    if np.any(np.asarray(gamma) >= 0):
        raise ValueError("gamma must be negative")
    t60 = -3.0 * np.log(10.0) * frame_increment / gamma
    drr = 10.0 * np.log10(np.maximum(
        (1.0 - np.exp(2.0 * gamma)) / np.exp(2.0 * beta), 1e-300))
    return t60, drr


def clamp_gamma(mean):
    """Keep a < 1 (gamma strictly negative)."""
    return np.minimum(mean, GAMMA_CLAMP)
