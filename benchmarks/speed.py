"""A probe of the machine's momentary speed, sampled while a timed call runs.

The benchmark shares its CPUs with other tenants of the host. Their load
makes the same pure-Python work run up to about 1.5 times slower, for
stretches of a few seconds to over a minute, so raw wall times of whole
runs spread by more than any useful regression bound. `SpeedProbe` runs a
fixed pure-Python loop (`probe`) from a SIGALRM interval timer while the
timed call runs, in the same process and on the same CPU, and converts
the call's wall time to seconds at a fixed reference speed: the speed at
which one probe takes REFERENCE_PROBE_S.

The probe is the benchmark's own code, not the program's, so a change to
the program moves the corrected time by the same share as it moves the
wall time at a steady machine speed. The probes' own time is taken out of
the call's wall time before the correction.

    with SpeedProbe(interval_s=0.02) as speed:
        start = time.perf_counter()
        call()
        wall_s = time.perf_counter() - start
    seconds_at_reference = speed.corrected(wall_s)
"""

from __future__ import annotations

import signal
import statistics
import time

# One probe's time at the reference speed. It is a fixed unit, near the
# probe's time on a 2-vCPU Intel Xeon with Python 3.11; only its being
# the same on both sides of a comparison matters.
REFERENCE_PROBE_S = 0.0003
# Int keys hash the same in every process; str keys would not (hash
# randomisation), and would give each process its own probe speed.
_KEYS = tuple(range(1000, 1064))


def probe() -> None:
    """A fixed mix of dict updates, float arithmetic and a small sort."""
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(1500):
        key = _KEYS[i & 63]
        counts[key] = counts.get(key, 0) + 1
        total += i * 0.5
    sorted(counts.items())


class SpeedProbe:
    """Samples `probe` once on entry, every `interval_s` inside, once on exit.

    Install it in the main thread only; it owns SIGALRM while it is active
    and restores the previous handler on exit. Interval timers are not
    inherited by forked children, so pool workers are not probed.
    """

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.inside_s = 0.0  # probe time that fell inside the timed call

    def _sample(self) -> float:
        start = time.perf_counter()
        probe()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        self.inside_s += self._sample()

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.inside_s = [], 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def speed(self) -> float:
        """The machine's speed during the call, as a multiple of the reference."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)

    def net(self, wall_s: float) -> float:
        """`wall_s` less the time the probes took inside it."""
        return wall_s - self.inside_s

    def corrected(self, wall_s: float) -> float:
        """`wall_s`, probes taken out, in seconds at the reference speed."""
        return self.net(wall_s) * self.speed
