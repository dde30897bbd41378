"""Seeded construction of regular LDPC parity-check matrices.

Greedy progressive-edge-growth style placement: variables are wired one edge
at a time to the lowest-degree check that does not close a length-4 cycle
(i.e. shares no variable with the checks already attached).  Ties are broken
by a seeded generator, so identical inputs always produce identical codes.
The bundled rate-1/2 codes shipped with the package were generated with
:func:`make_regular_code`; :mod:`scvamp.codes` records the seeds.
"""

from __future__ import annotations

import numpy as np

from .denoiser import LdpcCode

_VAR_DEGREE, _CHECK_DEGREE = 3, 6
_MAX_TRIES = 50  # seeds make_regular_code tries, from the given one up


def make_regular_checks(n, seed):
    """Check adjacency of a (3,6)-regular code, or None.

    Returns a list of variable-index lists, one per check, when the greedy
    placement succeeds; returns ``None`` when it jams (callers retry with
    another seed).  A placed code is 4-cycle free and exactly regular by
    construction.  Variables are placed in order, and a variable never joins
    a check that shares a variable with the checks it already joined, so no
    two checks share two variables.  All 3n edges land in m = n/2 checks of
    at most 6 each, so every check ends at exactly 6.
    """
    n = int(n)
    if (n * _VAR_DEGREE) % _CHECK_DEGREE != 0:
        raise ValueError(
            f"n*{_VAR_DEGREE} must be divisible by {_CHECK_DEGREE} for a regular code"
        )
    m = n * _VAR_DEGREE // _CHECK_DEGREE
    rng = np.random.default_rng(seed)
    member = np.zeros((m, n), dtype=bool)
    degree = np.zeros(m, dtype=np.int64)

    for v in range(n):
        blocked = degree >= _CHECK_DEGREE
        for _ in range(_VAR_DEGREE):
            candidates = np.flatnonzero(~blocked)
            if not candidates.size:
                return None
            pool = candidates[degree[candidates] == degree[candidates].min()]
            c = int(pool[rng.integers(len(pool))])
            member[c, v] = True
            degree[c] += 1
            blocked |= member[:, member[c]].any(axis=1)  # checks sharing a variable with c

    return [np.flatnonzero(row).tolist() for row in member]


def make_regular_code(n, seed) -> LdpcCode:
    """Regular code at length n: retries seeds until regular, girth >= 6, full rank.

    The returned code always has ``k = n - m`` (no redundant rows), so the
    bundled rate-1/2 codes carry exactly ``n/2`` information bits.
    """
    for attempt in range(_MAX_TRIES):
        checks = make_regular_checks(n, int(seed) + attempt)
        if checks is not None:
            code = LdpcCode.from_checks(n, checks)
            if not code.redundant_checks:
                return code
    raise RuntimeError(
        f"no regular ({_VAR_DEGREE},{_CHECK_DEGREE}) code of length {n} found "
        f"within {_MAX_TRIES} seeds starting at {seed}"
    )
