"""Host-speed probe: scales a measured time to a fixed reference speed.

The benchmark's host shares its cores with other machines' work, and its
speed drifts by up to ~1.5x within minutes as they load them. A run that
measures only wall time measures that drift. While the measured code
runs, the probe times a fixed kernel from a ``SIGALRM`` handler every
``INTERVAL_S``. The handler runs in the main thread between the measured
code's bytecodes, so the kernel sees the speed that the code saw. A
measured wall time is then reported as

    scaled = (wall - time spent in the kernel) * kernel.REF_S / mean kernel time

which is the time the code would have taken on a host where the kernel
takes ``REF_S``. A change that makes the measured code slower makes the
scaled time slower by the same share; the kernels do not depend on the
code they probe.

``BLOCK`` kernel runs precede each measurement, so that code which holds
off signals (a long call into C) still gets samples.

Run as a script it times ``import <module>`` in its own fresh process
with the pure-Python kernel:

    PYTHONPATH=src python3 perfbench/probe.py reverbtrack

and prints ``{"wall_s", "scaled_s", "probe_mean_s"}``. It imports
nothing heavy itself, so the timed import includes numpy and scipy.
"""

import signal
import sys
import time

INTERVAL_S = 0.01      # one kernel run per 10 ms of measured code, ~1 % overhead
BLOCK = 25


class PythonKernel:
    """A float loop in the interpreter; for timing imports."""

    REF_S = 150e-6

    def __call__(self):
        acc = 0.0
        for i in range(2000):
            acc += i * 0.5
        return acc


class ArrayKernel:
    """numpy ufuncs on one 257-bin array, the shape of the cascade's work.

    Of the kernels tried, this one's time tracked the drift of
    ``enhance``'s time best (interquartile spread of the scaled time over
    16 calls 3 %, against 7 % for ``PythonKernel`` and 14 % unscaled).
    """

    REF_S = 60e-6

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(-3.0, 3.0, 257)

    def __call__(self):
        np, y = self._np, self._x
        for _ in range(10):
            y = np.exp(-y * y) + y * 0.5
        return y


class Probe:
    """Context manager: probes the host's speed while its body runs."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []      # (start, duration) of every kernel run
        self.t0 = self.t1 = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self.samples = []
        for _ in range(BLOCK):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def wall(self):
        return self.t1 - self.t0

    @property
    def probe_mean(self):
        return sum(d for _, d in self.samples) / len(self.samples)

    @property
    def scaled(self):
        """The body's wall time without the kernel runs, at the reference speed."""
        inside = sum(d for t, d in self.samples if self.t0 <= t < self.t1)
        return (self.wall - inside) * self.kernel.REF_S / self.probe_mean


def main(argv):
    (module,) = argv
    with Probe(PythonKernel()) as probe:
        __import__(module)
    import json
    print(json.dumps({"wall_s": probe.wall, "scaled_s": probe.scaled,
                      "probe_mean_s": probe.probe_mean}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
