"""Code files: the alist format, code references and the bundled codes.

A reference ``builtin:<id>`` names a bundled alist file; anything else is a
path.  Both kinds resolve, fit ``--h`` and load the same way.
:func:`code_length` reads the header alone, so a sweep rejects a bad
reference or an unfitting ``--h`` before any frame; only a malformed body
waits for :func:`load_code`.  Both split lines and read the header ``n m``
through the same two helpers, so they accept the same headers.

A code text is parsed and eliminated once per process, and every load of
it shares the one immutable :class:`LdpcCode`.  The cache is keyed on the
text, not the path, so a rewritten file is parsed again.

The builtins are rate-1/2 regular (3,6) codes, one per length in
:data:`BUILTIN_SEEDS`, that ``make_regular_code(n, seed)`` rebuilds exactly
(``tests/test_codes.py`` rebuilds all five).  It places edges greedily, in
progressive-edge-growth style: each variable joins, one edge at a time, the
lowest-degree check that closes no 4-cycle; a seeded generator breaks ties.
"""

from __future__ import annotations

import functools
import os
from importlib import resources
from pathlib import Path

import numpy as np

from ..denoiser import LdpcCode

# length n -> the seed make_regular_code rebuilds the bundled r12_n<n>.alist from
BUILTIN_SEEDS = {128: 2, 256: 1, 512: 1, 1056: 1, 2304: 1}


def builtin_code_ids():
    return sorted(f"r12-n{n}" for n in BUILTIN_SEEDS)


def _resolve(ref):
    """``(file, CSV label)`` of a code reference; the label is the builtin id or the file stem."""
    if not ref.startswith("builtin:"):
        return Path(ref), os.path.splitext(os.path.basename(ref))[0]
    code_id = ref[len("builtin:"):]
    if code_id not in builtin_code_ids():
        raise ValueError(f"unknown builtin code {code_id!r}; known: {builtin_code_ids()}")
    return resources.files(__package__).joinpath(code_id.replace("-", "_") + ".alist"), code_id


def code_label(ref):
    return _resolve(ref)[1]


def code_length(ref) -> int:
    """Block length n from the alist header ``n m``, the first non-blank line alone."""
    with _resolve(ref)[0].open("rb") as fh:
        # split as str.splitlines splits the whole text in load_code
        lines = (line for raw in fh for line in raw.decode("ascii").splitlines())
        try:
            return _alist_header(*next(_alist_rows(lines), (None, [])))[0]
        except ValueError:  # AlistParseError, or a header that is not ASCII
            raise ValueError(f"code file {ref!r} does not start with an alist header 'n m'")


def load_code(ref):
    """``(code, label)`` of a code reference; a malformed body raises AlistParseError.

    The file is read on every call, but its code is built once per process and shared.
    """
    path, label = _resolve(ref)
    return parse_alist(path.read_text(encoding="ascii")), label


# ---------------------------------------------------------------------------
# alist interchange format
# ---------------------------------------------------------------------------

class AlistParseError(ValueError):
    """Malformed alist input; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _alist_rows(lines):
    """``(line number, integer tokens)`` of each non-blank line, numbered from 1."""
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped:
            try:
                yield lineno, [int(tok) for tok in stripped.split()]
            except ValueError:
                raise AlistParseError(f"non-integer token in {stripped!r}", line=lineno)


def _alist_header(lineno, header):
    """``[n, m]`` of the first non-blank row: two integers, ``n >= 1`` and ``m >= 0``."""
    if len(header) != 2 or header[0] <= 0 or header[1] < 0:
        raise AlistParseError(f"malformed header {header!r}, expected 'n m'", line=lineno)
    return header


@functools.lru_cache(maxsize=8)  # room for the five builtins and a few code files
def parse_alist(text) -> LdpcCode:
    """Parse the standard alist description of a sparse parity-check matrix.

    Layout: header ``n m``, max column/row degrees, the two degree lists, then
    one adjacency line per column and per row (1-indexed, optionally padded
    with zeros up to the max degree).  Zeros anywhere among the first
    ``degree`` entries of a line are an error, as are out-of-range indices.

    Each distinct text is parsed and eliminated once per process, and every
    call with an equal text returns the same immutable code.  A malformed
    text raises on every call: an exception is never cached.
    """
    rows = list(_alist_rows(text.splitlines()))
    if len(rows) < 4:
        raise AlistParseError("file too short for an alist header")

    n, m = _alist_header(*rows[0])
    if m == 0:  # the row-degree line is empty, so it was skipped with the blank lines
        rows.insert(3, (rows[2][0], []))
    lineno, maxdeg = rows[1]
    if len(maxdeg) != 2:
        raise AlistParseError("expected 'max_col_degree max_row_degree'", line=lineno)
    lineno, col_deg = rows[2]
    if len(col_deg) != n:
        raise AlistParseError(f"expected {n} column degrees, got {len(col_deg)}", line=lineno)
    lineno, row_deg = rows[3]
    if len(row_deg) != m:
        raise AlistParseError(f"expected {m} row degrees, got {len(row_deg)}", line=lineno)
    if sum(col_deg) != sum(row_deg):
        raise AlistParseError("column and row degree lists disagree on the edge count",
                              line=lineno)
    if len(rows) != 4 + n + m:
        raise AlistParseError(
            f"expected {4 + n + m} non-empty lines, found {len(rows)}",
            line=rows[-1][0],
        )

    def read_adjacency(entries, lineno, degree, upper, what):
        if len(entries) < degree:
            raise AlistParseError(
                f"{what} lists {len(entries)} entries but declares degree {degree}",
                line=lineno,
            )
        head, tail = entries[:degree], entries[degree:]
        if any(e <= 0 for e in head):
            raise AlistParseError(f"{what} has a zero/negative index among its entries",
                                  line=lineno)
        if any(e > upper for e in head):
            raise AlistParseError(f"{what} index out of range (max {upper})", line=lineno)
        if any(e != 0 for e in tail):
            raise AlistParseError(f"{what} padding must be zeros", line=lineno)
        return [e - 1 for e in head]

    col_edges = set()
    for j in range(n):
        lineno, entries = rows[4 + j]
        for i in read_adjacency(entries, lineno, col_deg[j], m, f"column {j + 1}"):
            col_edges.add((i, j))
    checks = []
    row_edges = set()
    for i in range(m):
        lineno, entries = rows[4 + n + i]
        vars_ = read_adjacency(entries, lineno, row_deg[i], n, f"row {i + 1}")
        if len(set(vars_)) != len(vars_):
            raise AlistParseError(f"row {i + 1} lists a variable twice", line=lineno)
        checks.append(vars_)
        row_edges.update((i, j) for j in vars_)
    if col_edges != row_edges:
        raise AlistParseError("column and row adjacency sections describe different matrices")
    return LdpcCode.from_checks(n, checks)


def serialize_alist(code: LdpcCode) -> str:
    """Render a code back to alist text (sorted adjacency, zero-padded)."""
    n, m = code.n, code.num_checks
    cols = [[] for _ in range(n)]
    for i, vars_ in enumerate(code.checks):
        for j in vars_:
            cols[int(j)].append(i)
    col_deg = [len(c) for c in cols]
    row_deg = [len(c) for c in code.checks]
    max_col = max(col_deg, default=0)
    max_row = max(row_deg, default=0)

    def fmt(indices, width):  # a zero-degree line still reads "0", never blank
        padded = [i + 1 for i in sorted(indices)] + [0] * (max(width, 1) - len(indices))
        return " ".join(str(v) for v in padded)

    out = [f"{n} {m}", f"{max_col} {max_row}"]
    out.append(" ".join(str(d) for d in col_deg))
    out.append(" ".join(str(d) for d in row_deg))
    out.extend(fmt(c, max_col) for c in cols)
    out.extend(fmt(list(map(int, vars_)), max_row) for vars_ in code.checks)
    return "\n".join(out) + "\n"


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
