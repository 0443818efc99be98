"""Time measured against the machine's current speed.

On a shared host the speed of one CPU changes by up to 1.7x within
seconds. A plain timer then spreads more between runs than any bound a
benchmark can use. So every boundary between units of work is marked by a
short fixed calibration loop. The time between two marks is rescaled by
``REFERENCE_S`` over the mean calibration time at its two ends. A rescaled
second is the time the machine needs for ``REFERENCE_S`` worth of
calibration loops at reference speed. The loop mixes small matrix products
with Python-level work, as the program does.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010  # calibration-loop time that defines reference speed
_LOOP = 750
_A = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 8.0
_X = np.linspace(0.0, 1.0, 10 * 64).reshape(10, 64)


def calibration_loop() -> float:
    x = _X
    total = 0.0
    for i in range(_LOOP):
        x = np.tanh(x @ _A + 0.1)
        total += float(x[0, 0])
        total += len({j: j + i for j in range(6)})
    return total


class SpeedClock(logging.Handler):
    """Marks boundaries between units of work, calibrating at each.

    As a logging handler it also marks every epoch line that
    ``gridcap.training`` logs, so epochs can be timed without touching the
    training loop. With a span recorder attached, each calibration is a
    span of its own and so is not counted as another span's self time.
    """

    def __init__(self, rec=None):
        super().__init__(logging.INFO)
        self.rec = rec
        # (work stopped, work resumed, calibration seconds)
        self.marks: list[tuple[float, float, float]] = []

    def mark(self) -> None:
        t0 = perf_counter()
        with self.rec.span("bench.calibration") if self.rec else nullcontext():
            calibration_loop()
        t1 = perf_counter()
        self.marks.append((t0, t1, t1 - t0))

    def emit(self, record) -> None:
        if " epoch " in record.getMessage():
            self.mark()

    @contextmanager
    def listening(self, logger: logging.Logger):
        saved = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)
            logger.setLevel(saved)

    def intervals(self, first: int = 0, last: int | None = None) -> list[tuple[float, float]]:
        """(raw, rescaled) seconds between consecutive marks in the slice."""
        marks = self.marks[first:last]
        out = []
        for a, b in zip(marks, marks[1:]):
            raw = b[0] - a[1]
            out.append((raw, raw * 2.0 * REFERENCE_S / (a[2] + b[2])))
        return out
