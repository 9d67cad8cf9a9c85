"""Host-speed probes: timings reported at a reference speed of the host.

The shared host the benchmark was defined on (2 vCPUs, Python 3.11.7) ran
the same code up to 1.6x slower in phases that switch within seconds and can
last minutes, without any steal time visible to the guest.  A fixed piece of
exact rational arithmetic, independent of looptool (`probe`), slows down with
it.  While items run, a `Sampler` times one probe every `INTERVAL_S` from a
signal handler; `at_reference` then rescales each item's latency by
REFERENCE_S over the median probe time around and during that item.  A
slowdown of the host cancels; a slower program does not, because the probe
does not run its code.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

#: Median time of one `probe()` during the passes on the defining host, in
#: its fast phase.  Reported timings are seconds at that host speed.
REFERENCE_S = 0.00025
#: Wall-clock period of the sampling timer.
INTERVAL_S = 0.02
#: Probes on each side of an item's own probes that join its speed estimate.
MARGIN = 1


#: Operands of `probe`: two polynomials of degree 5 whose coefficients are
#: fractions of 60 to 150 bits, as in looptool's field arithmetic.
_LEFT = [Fraction(3 ** (40 + 7 * i) + i, 7 ** (30 + 5 * i) + 1) for i in range(6)]
_RIGHT = [Fraction(5 ** (35 + 6 * i) - i, 11 ** (20 + 4 * i) + 3) for i in range(6)]


def probe() -> float:
    """Seconds taken by the schoolbook product of two fixed polynomials with
    Fraction coefficients.  Of the probes tried on the defining host (small
    Fractions, big-integer products and gcds, bare interpreter loops), this
    one followed the host's speed changes on items of all three workloads
    most closely."""
    start = time.perf_counter()
    out = [Fraction(0)] * (len(_LEFT) + len(_RIGHT) - 1)
    for i, a in enumerate(_LEFT):
        for j, b in enumerate(_RIGHT):
            out[i + j] += a * b
    return time.perf_counter() - start


class Sampler:
    """Probe times in run order, one per timer tick, with the interval
    each tick ran in (`exclude` takes those out of a latency)."""

    def __init__(self):
        self.times: List[float] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        self.starts.append(time.perf_counter())
        self.times.append(probe())
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._tick(None, None)  # so that every window holds a probe
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def exclude(self, t0: float, t1: float) -> Tuple[float, Tuple[int, int]]:
        """(t1 - t0 less the ticks that ran inside it, (first, end) indices
        of those ticks).  A tick runs between two bytecodes of the main
        thread, so it lies wholly inside or wholly outside [t0, t1]."""
        first = bisect.bisect_left(self.starts, t0)
        end = bisect.bisect_left(self.starts, t1, first)
        inside = sum(self.ends[k] - self.starts[k] for k in range(first, end))
        return t1 - t0 - inside, (first, end)


def at_reference(latencies: Sequence[Sequence[float]],
                 spans: Sequence[Sequence[Tuple[int, int]]],
                 probes: Sequence[float], reference: float = REFERENCE_S,
                 margin: int = MARGIN) -> List[List[float]]:
    """Latencies rescaled to the host speed at which a probe takes
    `reference` seconds.

    `spans[p][i] = (first, end)` are the indices into `probes` of the probes
    taken while `latencies[p][i]` ran.  The latency is multiplied by
    `reference` over the median of those probes and `margin` more on each
    side; an item with no probe of its own so gets the 2 * margin nearest.
    """
    out = []
    for row, row_spans in zip(latencies, spans):
        scaled = []
        for latency, (first, end) in zip(row, row_spans):
            window = probes[max(0, first - margin):end + margin]
            scaled.append(latency * reference / statistics.median(window))
        out.append(scaled)
    return out
