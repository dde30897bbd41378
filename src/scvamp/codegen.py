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
    check_vars = [set() for _ in range(m)]
    var_checks = [[] for _ in range(n)]
    degree = np.zeros(m, dtype=np.int64)

    for v in range(n):
        for _ in range(_VAR_DEGREE):
            taken = set(var_checks[v])
            neighbor_vars = set()
            for c in var_checks[v]:
                neighbor_vars |= check_vars[c]
            candidates = [
                c for c in range(m)
                if degree[c] < _CHECK_DEGREE
                and c not in taken
                and check_vars[c].isdisjoint(neighbor_vars)
            ]
            if not candidates:
                return None
            lowest = degree[candidates].min()
            pool = [c for c in candidates if degree[c] == lowest]
            c = int(pool[rng.integers(len(pool))])
            check_vars[c].add(v)
            var_checks[v].append(c)
            degree[c] += 1

    return [sorted(check_vars[c]) for c in range(m)]


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
