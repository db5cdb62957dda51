"""Intervals rescaled to a reference host speed.

The speed of the 2-CPU host the benchmark was defined on drifts by tens of
percent over minutes, under load from other tenants. A ReferenceClock
times a fixed unit of reference work before the first interval and after
each one. Dividing an interval by the mean unit time on either side gives
its length in units of host speed. Multiplying by REF_UNIT_S turns that
back into seconds at the reference speed. The unit uses Python and numpy
only, never nlspread, so a change to the package cannot move it.
"""

import time

import numpy as np

# sets the scale only: about one unit's time on the defining host (10-13 ms)
REF_UNIT_S = 0.010
FIRST_TIMING_S = 1.0


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random(600)
        self._weights = rng.random(143)
        self._big = rng.random(1 << 17)
        self._floats = rng.random(3000).tolist()
        self._unit_s = self._time_unit(FIRST_TIMING_S)

    def _unit(self) -> None:
        # the benchmark's three kinds of work: small arrays driven from
        # Python (direct convolution, relaxation sweeps), long FFTs, and
        # float formatting (CSV artifacts)
        small, w = self._small, self._weights
        for _ in range(10):
            pad = np.zeros(742)
            pad[71:671] = small
            out = w[71] * small
            for j in range(1, 72):
                out += w[71 + j] * (pad[71 - j:671 - j] + pad[71 + j:671 + j])
        np.fft.irfft(np.fft.rfft(self._big) * 0.5, n=self._big.size)
        ",".join(format(v, ".17g") for v in self._floats)

    def _time_unit(self, budget_s: float) -> float:
        """Mean time of one unit, over whole units filling budget_s."""
        units, t0 = 0, time.perf_counter()
        while True:
            self._unit()
            units += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget_s:
                return elapsed / units

    def rescale(self, seconds: float, bracketed_s: float) -> float:
        """`seconds`, measured within the last `bracketed_s`, at the reference speed.

        Times the unit again, for a fifth of the bracketed interval (0.5 to
        2 s), so that the next interval is bracketed too.
        """
        before = self._unit_s
        self._unit_s = self._time_unit(min(max(0.2 * bracketed_s, 0.5), 2.0))
        return seconds * REF_UNIT_S / (0.5 * (before + self._unit_s))
