"""Reference loop that rescales measured times to one fixed host speed.

The benchmark host is a share of a machine whose speed drifts, both within a
second (a fixed 0.3 s loop varies by +-15%) and over minutes (the same pass
of the same code takes up to twice as long a minute later).  This loop does a
fixed amount of the kind of work canideal does (pure-Python sparse
polynomial products over int and Fraction coefficients, tuple exponents,
sorting) and times it alongside the program; a stretch of the program is
then reported in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / loop seconds

where `loop seconds` is the mean time of ROUNDS rounds of the loop measured
during the stretch and REFERENCE_S the time those rounds take on a quiet
2-vCPU Xeon host.  A program that gets slower takes longer against the same
loop, so a slowdown still shows; a host that gets slower slows both.  The
loop imports nothing from canideal, so no change to the program can move it.

`Sampler` interleaves short bursts of the loop with the program from a timer
signal, so that the loop sees the same moments of host speed as the program,
and gives a clock that leaves the bursts out; `loop_seconds` times the loop
on its own, between program runs.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

ROUNDS = 80
# seconds ROUNDS rounds take at the reference speed (a quiet 2-vCPU Xeon
# host, Python 3.11)
REFERENCE_S = 0.2
# a burst of the sampler: about 10 ms of loop every 100 ms of wall time
BURST_ROUNDS = 4
INTERVAL_S = 0.1


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _round() -> int:
    base = {(i % 3, i // 3 % 3, i // 9): (i * 7919 + 1) ** 3 for i in range(27)}
    factor = {(1, 0, 0): Fraction(3, 7), (0, 1, 0): 5, (0, 0, 1): -2, (0, 0, 0): 11}
    poly = base
    for _ in range(3):
        poly = _product(poly, factor)
    keys = sorted(poly, reverse=True)
    return len(keys) + int(sum(abs(poly[k]) for k in keys[:5]) % 97)


def _timed_rounds(rounds: int) -> float:
    # the cyclic garbage collector is off meanwhile: the loop makes no
    # cycles, and a collection would time the size of the program's heap
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            _round()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def loop_seconds(rounds: int = ROUNDS) -> float:
    """Time of `rounds` rounds of the loop, expressed as seconds per ROUNDS."""
    return _timed_rounds(rounds) * ROUNDS / rounds


def to_reference(seconds: float, loop_s: float) -> float:
    """`seconds` measured while ROUNDS rounds took `loop_s`, at reference speed."""
    return seconds * REFERENCE_S / loop_s


class Sampler:
    """Runs a burst of the loop every INTERVAL_S of wall time while active.

    The bursts run in the main thread from a SIGALRM handler, between the
    program's bytecodes.  `busy` is their total time, to be taken out of the
    program's measured time; `loop_s()` is their mean, per ROUNDS rounds.
    """

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self.busy = 0.0

    def _burst(self, signum=None, frame=None) -> None:
        seconds = _timed_rounds(BURST_ROUNDS)
        self.bursts.append(seconds)
        self.busy += seconds

    def __enter__(self) -> "Sampler":
        # at least one burst, however short the stretch; it runs before the
        # stretch, so it is not in `busy`
        self.bursts.append(_timed_rounds(BURST_ROUNDS))
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_s(self) -> float:
        return statistics.fmean(self.bursts) * ROUNDS / BURST_ROUNDS

    def clock(self) -> float:
        """perf_counter() without the bursts: the program's own time."""
        while True:
            busy = self.busy
            now = time.perf_counter()
            # a burst between the two reads would be counted on one side
            # only; read again
            if self.busy == busy:
                return now - busy
