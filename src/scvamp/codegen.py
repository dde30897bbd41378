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


def make_regular_checks(n, seed, var_degree=3, check_degree=6):
    """Check adjacency of an (var_degree, check_degree)-regular code, or None.

    Returns a list of variable-index lists, one per check, when the greedy
    placement succeeds; returns ``None`` when it jams (callers retry with
    another seed).  A placed code is 4-cycle free and exactly regular by
    construction.  Variables are placed in order, and a variable never joins
    a check that shares a variable with the checks it already joined, so no
    two checks share two variables.  All n * var_degree edges land in m
    checks of at most check_degree each, and n * var_degree = m *
    check_degree, so every check ends at exactly check_degree.
    """
    n = int(n)
    if (n * var_degree) % check_degree != 0:
        raise ValueError(
            f"n*{var_degree} must be divisible by {check_degree} for a regular code"
        )
    m = n * var_degree // check_degree
    rng = np.random.default_rng(seed)
    check_vars = [set() for _ in range(m)]
    var_checks = [[] for _ in range(n)]
    degree = np.zeros(m, dtype=np.int64)

    for v in range(n):
        for _ in range(var_degree):
            taken = set(var_checks[v])
            neighbor_vars = set()
            for c in var_checks[v]:
                neighbor_vars |= check_vars[c]
            candidates = [
                c for c in range(m)
                if degree[c] < check_degree
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


def make_regular_code(n, seed, var_degree=3, check_degree=6, max_tries=50) -> LdpcCode:
    """Regular code at length n: retries seeds until regular, girth >= 6, full rank.

    The returned code always has ``k = n - m`` (no redundant rows), so the
    bundled rate-1/2 codes carry exactly ``n/2`` information bits.
    """
    for attempt in range(max_tries):
        checks = make_regular_checks(n, int(seed) + attempt, var_degree, check_degree)
        if checks is not None:
            code = LdpcCode.from_checks(n, checks)
            if not code.redundant_checks:
                return code
    raise RuntimeError(
        f"no regular ({var_degree},{check_degree}) code of length {n} found "
        f"within {max_tries} seeds starting at {seed}"
    )
