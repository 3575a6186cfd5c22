"""A fixed probe of the host's speed, run between the measured operations.

The cores of a shared virtual machine can switch between a fast and a slow
state (a busy neighbour on the same physical core) for spells of a fraction
of a second to minutes, and a whole run can fall in a slow spell. The probe
is fixed work of the package's kind, small numpy operations amid Python and
one large attention, that touches none of the package's code: its time
rises in a slow spell by about the factor an operation's does, and a change
to the program cannot move it. ``slowdown`` turns probe times into the factor by
which the host ran slower than the probe's reference time.

The mix is weighted by measurement: over sets of runs a probe of small
operations alone slowed more than the workloads did, and one with a third
of its time in small operations less; this one spends about half.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_SHARE = 0.1  # probe time per second of measured operations
PROBE_REFERENCE_S = 0.050  # sets the scale: about the fastest probe seen on a 2.1 GHz Xeon core
SETUP_PROBES = 3  # probes right after set-up, which give set-up time its factor

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((64, 64))
_TALL = _rng.standard_normal((512, 64))
_KEYS = _rng.standard_normal((1024, 64)).astype(np.float32)


def probe():
    """Seconds one fixed run of the probe took: small operations, then one 1024 x 1024 attention."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        x = _SQUARE @ _SQUARE
        acc += float(np.exp(x * 0.01).sum(axis=-1)[0])
        acc += float((_TALL @ _SQUARE).max())
        acc += {"i": i, "next": [i, i + 1]}["next"][1]
    scores = _KEYS @ _KEYS.T
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    acc += float((scores @ _KEYS).sum())
    return time.perf_counter() - t0


def slowdown(probe_seconds):
    """Mean probe time over the reference: how much slower than its fast state the host ran."""
    return float(np.mean(probe_seconds)) / PROBE_REFERENCE_S
