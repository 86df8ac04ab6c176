"""How fast the host runs Python right now, sampled while the benchmark runs.

The host this benchmark was written on shares its cores with other
tenants: for stretches of a fraction of a second to minutes, all
interpreter work runs about 1.9x slower, and the share of slow time
varies from one minute to the next. Host seconds alone therefore
spread by 20-30% between runs of the same code.

`HostSpeed` times a small fixed routine on a wall-clock timer signal
every PERIOD_S, in the benchmark's own thread, including while the
program runs. A timed interval is then scaled by how much slower than
REFERENCE_S the routine ran inside that interval, and the sampler's own
time inside the interval is subtracted first. The routine calls nothing
in codedbft, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import signal
from time import perf_counter

PERIOD_S = 0.025
# the routine's time, in the sampler, while that host ran at full speed;
# scaled times then read as host seconds at full speed
REFERENCE_S = 225e-6

_TABLE = [(a * 29 + 7) & 0xFF for a in range(256)]
_DATA = bytes(range(256))
_BIG_HEX = (_DATA * 128).hex()


def reference() -> int:
    """A fixed mix of the interpreter work the simulator does.

    Byte-table lookups, hex decoding, JSON encoding and a combination
    search, as in the codec, input, transcript and quorum layers.
    """
    acc = len(bytes.fromhex(_BIG_HEX).ljust(40000, b"\0"))
    for b in _DATA:
        acc ^= _TABLE[b]
    blob = _DATA.hex()
    for i in range(0, len(blob), 64):
        acc ^= bytes.fromhex(blob[i:i + 64])[0]
    events = [{"type": "SYMBOL_SENT", "g": i, "value": _DATA[i:i + 8].hex()}
              for i in range(24)]
    acc ^= len("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
    bits = [i % 3 == 0 for i in range(9)]
    acc ^= sum(1 for c in itertools.combinations(range(9), 3)
               if all(bits[i] and bits[j] for i, j in itertools.combinations(c, 2)))
    return acc


class HostSpeed:
    """Context manager that samples `reference()` on SIGALRM.

    `busy` is the total time spent sampling; subtract its growth over a
    timed interval to get the time the timed code itself took.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = 0.0
        self._previous = None
        self._sampling = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        previous = signal.SIG_DFL if self._previous is None else self._previous
        signal.signal(signal.SIGALRM, previous)

    def _sample(self, signum, frame) -> None:
        # a tick that lands inside a slow sample is dropped, which keeps
        # `at` sorted
        if self._sampling:
            return
        self._sampling = True
        # the first call brings the routine back into the caches the
        # program evicted; only the second one is timed
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        reference()
        t2 = perf_counter()
        self.at.append(t2)
        self.took.append(t2 - t1)
        self.busy += t2 - t0
        self._sampling = False

    def reference_s(self, start: float, end: float) -> float:
        """Mean routine time over [start, end], or the nearest sample."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi > lo:
            return sum(self.took[lo:hi]) / (hi - lo)
        return self.took[min(lo, len(self.at) - 1)]

    def scale(self, start: float, end: float) -> float:
        """Factor that turns host seconds in [start, end] into reference seconds."""
        return REFERENCE_S / self.reference_s(start, end)
