"""Speed probe: a fixed piece of pure-Python work, timed at regular intervals.

On a shared virtual machine the processor speed a process gets drifts by
tens of percent within a minute, and no steal time is reported, so a wall
time mixes the engine's cost with the host's load.  ``install()`` times
``work()`` once at once and then every ``PERIOD_S`` seconds from a SIGALRM
handler, inside the engine's own process and on whatever processor it runs
on at that moment.  ``work()`` does what the engine's kernel does
(dictionaries keyed by exponent tuples, complex coefficients, a new
dictionary per sum), on a few kilobytes, so that it evicts little of the
engine's data.  ``REF_S`` is its usual duration on an unloaded processor of
the machine the benchmark was written on (a 2-vCPU Intel Xeon VM, Python
3.11); ``run.py`` scales each launch's time by ``REF_S`` over the mean probe
duration.  The probe code is part of the benchmark, so an engine change
does not move it.
"""

from __future__ import annotations

import random
import signal
import time

PERIOD_S = 0.1
REF_S = 0.002

_rng = random.Random(1)
_X = {tuple(_rng.randrange(5) for _ in range(4)): complex(_rng.random(), _rng.random()) for _ in range(12)}
_Y = {tuple(_rng.randrange(5) for _ in range(4)): complex(_rng.random(), _rng.random()) for _ in range(12)}

# probe durations in seconds, in the order taken
durations: list = []


def _mul(x: dict, y: dict) -> dict:
    out = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            key = tuple(p + q for p, q in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _add(x: dict, y: dict) -> dict:
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0) + c
    return out


def work() -> dict:
    acc: dict = {}
    for _ in range(12):
        acc = _add(acc, _mul(_X, _Y))
    return acc


def sample(*_) -> None:
    start = time.perf_counter()
    work()
    durations.append(time.perf_counter() - start)


def install() -> None:
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference_speed(seconds: float, samples: list) -> float:
    """``seconds`` of wall time, rescaled to the speed at which work() takes ``REF_S``.

    The samples are taken at even intervals of wall time, so the mean speed
    over the interval is the mean of ``REF_S / d`` over the durations ``d``.
    """
    return seconds * REF_S * sum(1 / d for d in samples) / len(samples)
