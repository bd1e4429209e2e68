"""Simulator CPU time, normalised by an interleaved reference loop.

The machines this benchmark runs on are shared: the same pure-Python loop
can take 30 % longer from one few-second stretch to the next.  So the
simulation is driven in short slices of simulated time, and after every
``REF_EVERY_S`` of simulator CPU time a fixed reference loop runs.  The
simulator's CPU seconds are then rescaled to a machine on which one
reference unit costs ``REF_UNIT_S``: both sides see the same slow and fast
stretches, so the ratio stays steady where the raw CPU time does not.

Slicing is invisible to the simulation: ``Environment.run(until=t)`` only
processes the events due by ``t``, in the order they would run anyway.
"""

from __future__ import annotations

import time

__all__ = ["RefClock"]

#: nominal CPU seconds of one reference unit (the scale of the result)
REF_UNIT_S = 0.004
#: simulated seconds per slice
SLICE_S = 20e-6
#: simulator CPU seconds between two reference units
REF_EVERY_S = 0.05


def _ref_unit() -> int:
    d: dict = {}
    for i in range(20000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return len(d)


class RefClock:
    """Drives a simulation to an event while timing it against the reference."""

    def __init__(self):
        self.sim_cpu_s = 0.0
        self.ref_cpu_s = 0.0
        self.ref_units = 0

    def _ref(self) -> float:
        r0 = time.process_time()
        _ref_unit()
        r1 = time.process_time()
        self.ref_cpu_s += r1 - r0
        self.ref_units += 1
        return r1

    def call(self, fn, *args, **kwargs):
        """Call ``fn`` between two reference units, timing it as simulator work."""
        c0 = self._ref()
        out = fn(*args, **kwargs)
        self.sim_cpu_s += time.process_time() - c0
        self._ref()
        return out

    def run(self, env, done) -> None:
        """Run ``env`` until ``done`` is processed, one slice at a time."""
        c0 = self._ref()
        t = env.now
        while not done.processed:
            t += SLICE_S
            env.run(until=t)
            c1 = time.process_time()
            self.sim_cpu_s += c1 - c0
            c0 = self._ref() if self.sim_cpu_s >= self.ref_units * REF_EVERY_S else c1
        if not done.ok:
            raise done.value

    @property
    def norm_cpu_s(self) -> float:
        """Simulator CPU seconds on the nominal reference machine."""
        return self.sim_cpu_s * REF_UNIT_S * self.ref_units / self.ref_cpu_s
