"""LDPC code-constraint stage: alist I/O, GF(2) encoder, BP decoding.

The code enters the receiver as a soft-input soft-output denoiser: the
incoming pseudo-observation is converted into channel LLRs ``L = 2 r / v``
(``llr_from_pseudo``), run through flooding sum-product decoding on the Tanner
graph (``bp_decode``), and the a-posteriori LLRs are mapped back to symbol
moments ``tanh(L/2)`` (``bernoulli_moments``).  The runner takes the Onsager
coefficient as the variance-ratio surrogate posterior/input, since BP
posteriors on loopy graphs are approximate.

Sign convention throughout: bit 0 maps to symbol +1, so positive LLR means
"bit 0 / symbol +1".  LLRs are saturated at ``LLR_MAX`` on input and the check
update clips ``|tanh|`` away from 1, which keeps every message finite without
touching the error-rate floor at the SNRs of interest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .messages import GaussianMessage

LLR_MAX = 30.0
_TANH_CLIP = 1.0 - 1e-12


class AlistParseError(ValueError):
    """Malformed alist input; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class LdpcCode:
    """Sparse binary parity-check code with a derived systematic encoder.

    ``checks`` lists, for every parity check, the variable indices it
    constrains.  ``column_permutation`` reorders codeword positions as
    ``[information | parity]``: the encoder writes the k information bits into
    positions ``column_permutation[:k]`` and back-solves the parity positions,
    so info bits are always recoverable as ``codeword[column_permutation[:k]]``.
    Rows that are linearly dependent over GF(2) are kept for decoding but
    flagged in ``redundant_checks`` and excluded from the encoder, with
    ``k = n - rank``.
    """

    n: int
    k: int
    checks: list
    column_permutation: np.ndarray
    redundant_checks: tuple
    parity_matrix: np.ndarray = field(repr=False)  # (n - k, k) over GF(2)
    edge_var: np.ndarray = field(repr=False)
    edge_check: np.ndarray = field(repr=False)

    @classmethod
    def from_checks(cls, n, checks):
        n = int(n)
        norm_checks = []
        for idx, vars_ in enumerate(checks):
            arr = np.asarray(vars_, dtype=np.int64)
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(f"check {idx} references a variable outside [0, {n})")
            if arr.size != np.unique(arr).size:
                raise ValueError(f"check {idx} lists a variable twice")
            norm_checks.append(np.sort(arr))
        parity, perm, redundant = _gf2_systematize(n, norm_checks)
        edge_var = np.concatenate([np.empty(0, np.int64), *norm_checks])
        edge_check = np.repeat(np.arange(len(norm_checks)), [c.size for c in norm_checks])
        k = n - parity.shape[0]
        return cls(n, k, norm_checks, perm, redundant, parity, edge_var, edge_check)

    @property
    def num_checks(self):
        return len(self.checks)

    @property
    def num_edges(self):
        return self.edge_var.size


def _gf2_systematize(n, checks):
    """Drive an identity into the rightmost columns of H by row reduction.

    Works on a dense copy; column swaps are recorded in the returned
    permutation (codeword order [info | parity]).  Returns the parity map
    ``A`` with ``parity = A @ info mod 2`` (rows ordered by parity position),
    the permutation, and the indices of redundant (dependent) rows.
    """
    m = len(checks)
    h = np.zeros((m, n), dtype=np.uint8)
    for i, vars_ in enumerate(checks):
        h[i, vars_] = 1
    perm = np.arange(n)
    used = np.zeros(m, dtype=bool)
    pivot_row_at = {}  # column position -> pivot row
    target = n - 1
    while target >= 0 and used.sum() < m:
        rows = np.nonzero((h[:, target] == 1) & ~used)[0]
        if rows.size == 0:
            swapped = False
            for c in range(target - 1, -1, -1):
                rows_c = np.nonzero((h[:, c] == 1) & ~used)[0]
                if rows_c.size:
                    h[:, [c, target]] = h[:, [target, c]]
                    perm[[c, target]] = perm[[target, c]]
                    rows = rows_c
                    swapped = True
                    break
            if not swapped:
                break  # remaining unused rows are all-zero, hence redundant
        r = int(rows[0])
        used[r] = True
        others = (h[:, target] == 1)
        others[r] = False
        h[others] ^= h[r]
        pivot_row_at[target] = r
        target -= 1
    rank = len(pivot_row_at)
    k = n - rank
    parity = np.zeros((rank, k), dtype=np.uint8)
    for pos, row in pivot_row_at.items():
        parity[pos - k] = h[row, :k]
    redundant = tuple(int(i) for i in np.nonzero(~used)[0])
    return parity, perm, redundant


def encode(code: LdpcCode, info_bits) -> np.ndarray:
    """Systematic GF(2) encoding: k information bits to an n-bit codeword."""
    info = np.asarray(info_bits, dtype=np.uint8) & 1
    if info.shape != (code.k,):
        raise ValueError(f"expected {code.k} information bits, got shape {info.shape}")
    parity = (code.parity_matrix @ info) & 1
    word = np.empty(code.n, dtype=np.uint8)
    word[code.column_permutation] = np.concatenate([info, parity])
    return word


def syndrome(code: LdpcCode, bits) -> np.ndarray:
    """Per-check parity of a candidate word (all zeros iff it is a codeword)."""
    bits = np.asarray(bits, dtype=np.uint8)
    sums = np.bincount(code.edge_check, weights=bits[code.edge_var].astype(np.float64),
                       minlength=code.num_checks)
    return (sums.astype(np.int64) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# alist interchange format
# ---------------------------------------------------------------------------

def parse_alist(text) -> LdpcCode:
    """Parse the standard alist description of a sparse parity-check matrix.

    Layout: header ``n m``, max column/row degrees, the two degree lists, then
    one adjacency line per column and per row (1-indexed, optionally padded
    with zeros up to the max degree).  Zeros anywhere among the first
    ``degree`` entries of a line are an error, as are out-of-range indices.
    """
    lines = text.splitlines()
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            rows.append((lineno, [int(tok) for tok in stripped.split()]))
        except ValueError:
            raise AlistParseError(f"non-integer token in {stripped!r}", line=lineno)
    if len(rows) < 4:
        raise AlistParseError("file too short for an alist header")

    lineno, header = rows[0]
    if len(header) != 2 or header[0] <= 0 or header[1] < 0:
        raise AlistParseError(f"malformed header {header!r}, expected 'n m'", line=lineno)
    n, m = header
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


def load_alist(path) -> LdpcCode:
    with open(path, "r", encoding="ascii") as fh:
        return parse_alist(fh.read())


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

    def fmt(indices, width):
        padded = [i + 1 for i in sorted(indices)] + [0] * (width - len(indices))
        return " ".join(str(v) for v in padded)

    out = [f"{n} {m}", f"{max_col} {max_row}"]
    out.append(" ".join(str(d) for d in col_deg))
    out.append(" ".join(str(d) for d in row_deg))
    out.extend(fmt(c, max_col) for c in cols)
    out.extend(fmt(list(map(int, vars_)), max_row) for vars_ in code.checks)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# sum-product decoding
# ---------------------------------------------------------------------------

def bp_decode(code: LdpcCode, llr_in, iterations: int) -> np.ndarray:
    """A-posteriori LLRs of all n bits from flooding sum-product decoding.

    Check updates use the tanh product rule, evaluated through sign and
    log-magnitude sums per check so that exact-zero messages and near-one
    magnitudes are handled without division.  The schedule is deterministic
    and the decoder holds no state between calls.
    """
    if int(iterations) < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    llr = np.clip(np.asarray(llr_in, dtype=np.float64), -LLR_MAX, LLR_MAX)
    if llr.shape != (code.n,):
        raise ValueError(f"LLR length {llr.shape} does not match n={code.n}")
    ev, ec = code.edge_var, code.edge_check
    num_checks = code.num_checks
    c2v = np.zeros(ev.size)

    for _ in range(int(iterations)):
        totals = llr + np.bincount(ev, weights=c2v, minlength=code.n)
        v2c = totals[ev] - c2v
        t = np.tanh(0.5 * v2c)
        zero = t == 0.0
        mag = np.minimum(np.abs(t), _TANH_CLIP)
        logmag = np.where(zero, 0.0, np.log(np.where(zero, 1.0, mag)))
        neg = t < 0.0

        sum_log = np.bincount(ec, weights=logmag, minlength=num_checks)
        n_neg = np.bincount(ec, weights=neg.astype(np.float64), minlength=num_checks)
        n_zero = np.bincount(ec, weights=zero.astype(np.float64), minlength=num_checks)

        zc = n_zero[ec]
        excl_log = sum_log[ec] - logmag
        excl_neg = n_neg[ec] - neg
        live = (zc == 0) | ((zc == 1) & zero)
        sign = 1.0 - 2.0 * (excl_neg.astype(np.int64) & 1)
        prod = sign * np.minimum(np.exp(excl_log), _TANH_CLIP)
        c2v = np.where(live, 2.0 * np.arctanh(prod), 0.0)

    return llr + np.bincount(ev, weights=c2v, minlength=code.n)


def llr_from_pseudo(rx: GaussianMessage) -> np.ndarray:
    """Channel LLRs of a Gaussian pseudo-observation: L = 2 r / v, saturated."""
    return np.clip(2.0 * rx.mean / rx.variance, -LLR_MAX, LLR_MAX)


def bernoulli_moments(llr_values):
    """Symbol means ``tanh(L/2)`` and their trace-averaged variance."""
    means = np.tanh(0.5 * llr_values)
    variance = float(np.mean(1.0 - means * means)) if means.size else 0.0
    return means, variance
