"""A fixed reference load that tracks the host's speed.

The benchmark runs on a share of a busy machine whose speed changes by up
to a half within minutes, and by two between hours.  ``probe()`` times a
fixed mix of the kinds of work coxkit does: small-integer arithmetic,
fraction-free elimination on big integers, a dense polynomial product and
dict/list allocation.  None of it calls coxkit, so a change to the library
cannot change it.

A time ``t`` measured beside a probe that took ``p`` seconds is reported as
``t * NOMINAL_S / p``: the time the same work takes on a host on which the
probe takes ``NOMINAL_S``.  The probe is the fastest of ``REPEATS`` runs of
the mix, which leaves out an interrupt that hit one of them.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.004
REPEATS = 3

_rng = random.Random(1)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(22)] for _ in range(22)]
_POLY_A = [_rng.randint(-10**12, 10**12) for _ in range(70)]
_POLY_B = [_rng.randint(-10**12, 10**12) for _ in range(70)]


def _small_ints() -> int:
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def _elimination() -> int:
    m = [row[:] for row in _MATRIX]
    n, prev = len(m), 1
    for k in range(n - 1):
        if m[k][k] == 0:
            m[k][k] = 1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def _poly_product() -> list[int]:
    out = [0] * (len(_POLY_A) + len(_POLY_B) - 1)
    for i, x in enumerate(_POLY_A):
        for j, y in enumerate(_POLY_B):
            out[i + j] += x * y
    return out


def _allocation() -> int:
    table = {}
    for i in range(2000):
        table[(i * 7919) % 10007] = [i, i + 1, (i, i)]
    return sum(table[k][0] for k in sorted(table))


def _mix() -> None:
    _small_ints()
    _elimination()
    _poly_product()
    _allocation()


def probe() -> float:
    """Seconds the reference mix takes now: the fastest of REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _mix()
        best = min(best, time.perf_counter() - start)
    return best
