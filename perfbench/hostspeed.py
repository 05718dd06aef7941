"""Host speed: a fixed reference computation, timed while the program runs.

The machine this benchmark was written on runs the same op up to 40%
slower in one 15 s stretch than in the next, in CPU time as in wall time,
with no steal time reported. A raw time then measures the host as much
as the program.

``HostSpeed`` times slices of a fixed computation that does not use
qpartial: numpy products of 4x4 matrices, where numpy's per-call
overhead dominates as in most of the program's numpy use, and pure-Python
allocation and sorting of small objects. Both slowed with the host in
step with the workloads' ops; a d = 64 eigensolve or a dict loop slowed
only about 0.8 times as much, which left a run's result still tied to the
host's speed.

During an op a timer signal runs a slice every ``INTERVAL_S``, so the
slices see the host when the op does; their time is taken out of the
op's. ``factor()`` is how much slower the slices ran than
``NOMINAL_SLICE_S``; dividing a run's times by it gives reference
seconds. The nominal value only sets the scale: it is the slice time on
that machine when undisturbed.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NOMINAL_SLICE_S = 0.0006
# A slice every INTERVAL_S of wall time while sampling: roughly a fifth of it.
INTERVAL_S = 0.005


class _Item:
    __slots__ = ("index", "weight")

    def __init__(self, index: int, weight: float):
        self.index = index
        self.weight = weight


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(20101)
        self._small = [rng.standard_normal((4, 4)) for _ in range(12)]
        self.seconds = 0.0
        self.slices = 0

    def _slice(self) -> float:
        acc = 0.0
        for a in self._small:
            for b in self._small:
                acc += float(np.trace(a @ b))
        items = [_Item(i, (i * 7919) % 401 / 401.0) for i in range(400)]
        items.sort(key=lambda item: item.weight)
        return acc + sum(item.index for item in items[:100])

    def run_for(self, seconds: float) -> float:
        """Run slices for at least ``seconds`` (at least one); the time taken."""
        start = perf_counter()
        while True:
            self._slice()
            self.slices += 1
            taken = perf_counter() - start
            if taken >= seconds:
                self.seconds += taken
                return taken

    @contextmanager
    def sampling(self):
        """Run one slice every ``INTERVAL_S`` inside the block, from a timer
        signal, so that slices see the host as the block does; yields a
        function giving the seconds the slices have taken so far."""
        start = self.seconds
        busy = False

        def on_timer(signum, frame):
            # A slice slower than the interval must not start another
            # inside itself: its time would be counted twice.
            nonlocal busy
            if busy:
                return
            busy = True
            try:
                self.run_for(0.0)
            finally:
                busy = False

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield lambda: self.seconds - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Measured over nominal slice time, over every slice run so far."""
        return self.seconds / (self.slices * NOMINAL_SLICE_S)
