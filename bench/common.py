"""Pieces shared by the three workloads.

A workload module provides three functions:

* ``make_round(seed, tiny=False)`` builds the seeded list of cases that
  make up one round; every round of a run repeats the same list, so each
  round attempts the same operations;
* ``run_case(case)`` drives the program on one case and returns an
  ``Outcome``; this is the only timed part of a round;
* ``check_case(case, out)`` compares the outputs against computations
  made apart from the program and returns the failures as strings.

The reference computations below never call into ``cexlab``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# rows of the pair matrix evaluated at once; bounds memory at
# _BLOCK * n floats per temporary
_BLOCK = 512


@dataclass
class Outcome:
    """What one case produced: the outputs to check, the number of
    program operations attempted, how many of them failed, and counts
    kept by the benchmark's own callbacks."""

    out: dict
    attempted: int
    failed: int = 0
    counts: dict = field(default_factory=dict)


def brute_holder(x, values, order):
    """sup over all pairs x_i < x_j of |v_j - v_i| / (x_j - x_i)^order.

    Plain pair matrix, row block by row block; x must be strictly
    increasing.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(values, dtype=float)
    best = 0.0
    for i0 in range(0, x.size, _BLOCK):
        d = x[None, :] - x[i0:i0 + _BLOCK, None]
        dv = np.abs(v[None, :] - v[i0:i0 + _BLOCK, None])
        pos = d > 0
        if np.any(pos):
            best = max(best, float(np.max(dv[pos] / d[pos] ** order)))
    return best


def rel_close(a, b, rtol, atol=0.0):
    """|a - b| <= atol + rtol * |b|, with NaN never close."""
    return bool(abs(a - b) <= atol + rtol * abs(b))


def expect(failures, ok, message):
    """Append message to failures unless ok; returns ok."""
    if not ok:
        failures.append(message)
    return ok
