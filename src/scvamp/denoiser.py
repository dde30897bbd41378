"""LDPC code-constraint stage: the code, its GF(2) encoder, BP decoding.

The code enters the receiver as a soft-input soft-output denoiser: the
incoming pseudo-observation is converted into channel LLRs ``L = 2 r / v``
(``llr_from_pseudo``), run through flooding sum-product decoding on the Tanner
graph (``bp_decode``), and the a-posteriori LLRs are mapped back to symbol
moments ``tanh(L/2)`` (``bernoulli_moments``).  ``runner.denoiser_step`` chains
the three and takes the Onsager coefficient as the variance-ratio surrogate
posterior/input, since BP posteriors on loopy graphs are approximate.  Code
files are read and written in ``scvamp.codes``.

Sign convention throughout: bit 0 maps to symbol +1, so positive LLR means
"bit 0 / symbol +1".  LLRs are saturated at ``LLR_MAX`` on input and the check
update clips ``|tanh|`` away from 1, which keeps every message finite without
touching the error-rate floor at the SNRs of interest.

The decoder works on a slot layout that ``LdpcCode.from_checks`` builds once
per code from ``checks``, which lists every edge too; BP and ``syndrome`` read
only the slots.  Check-to-variable messages are a ``(d_c_max, m)`` array whose
column ``i`` holds check ``i``'s edges in edge order, padded at the bottom;
``var_slots`` is a ``(d_v_max, n)`` array of the flat slots of each
variable's edges in edge order, whose pads read a 0.0 sentinel.  An iteration
is one gather and one axis-0 sum for the variable totals, one gather for the
variable-to-check messages, and axis-0 sums of log-magnitudes and products of
signs per check.  The results are bit-identical to a ``bincount`` over the
flat edge list: numpy adds the rows of a C-contiguous array in order when it
sums along axis 0 (both layouts are kept at least two columns wide, because a
single column is summed pairwise), which is the order in which ``bincount``
adds the edges, and a padded slot adds exactly +0.0 to its check's sum and +1
to its sign product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .messages import GaussianMessage

LLR_MAX = 30.0
_TANH_CLIP = 1.0 - 1e-12


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
    ``k = n - rank``.  Every edge is in ``checks`` and again in the slot layout
    ``slot_var``/``var_slots``/``pad_slots`` that BP reads (see ``_slot_layout``).
    A code is immutable, so one object can be shared: ``checks`` is a tuple,
    and every array, each check included, is read-only.
    """

    n: int
    k: int
    checks: tuple
    column_permutation: np.ndarray
    redundant_checks: tuple
    parity_matrix: np.ndarray = field(repr=False)  # (n - k, k) over GF(2)
    slot_var: np.ndarray = field(repr=False)  # (d_c_max, max(m, 2)), see _slot_layout
    var_slots: np.ndarray = field(repr=False)  # (d_v_max, max(n, 2))
    pad_slots: np.ndarray = field(repr=False)  # flat indices of the padded check slots

    @classmethod
    def from_checks(cls, n, checks):
        n = int(n)
        norm_checks = []
        for idx, vars_ in enumerate(checks):
            arr = np.asarray(vars_, dtype=np.int64)
            check = np.unique(arr)  # sorted
            if check.size and (check[0] < 0 or check[-1] >= n):
                raise ValueError(f"check {idx} references a variable outside [0, {n})")
            if check.size != arr.size:
                raise ValueError(f"check {idx} lists a variable twice")
            norm_checks.append(check)
        # laid out before the elimination's large temporaries, so that these
        # long-lived arrays do not pin the top of the heap (1.5 MB of peak RSS)
        layout = _slot_layout(n, norm_checks)
        parity, perm, redundant = _gf2_systematize(n, norm_checks)
        for arr in (*norm_checks, perm, parity, *layout):
            arr.flags.writeable = False
        k = n - parity.shape[0]
        return cls(n, k, tuple(norm_checks), perm, redundant, parity, *layout)

    @property
    def num_checks(self):
        return len(self.checks)

    @property
    def num_edges(self):
        return self.slot_var.size - self.pad_slots.size


def _slot_layout(n, checks):
    """The check-slot and variable-slot index arrays ``bp_decode`` gathers with.

    Edges are numbered check by check, each check's variables in increasing
    order.  Slot ``(s, i)`` holds the edge from check ``i`` to its s-th variable;
    ``slot_var`` names that variable, or in a padded slot the index one past
    the variables (the +inf sentinel after the totals).  Column ``j`` of
    ``var_slots`` lists the flat check slots of variable ``j``'s edges in
    edge order, padded with the index one past the last slot (the 0.0
    sentinel after the messages).  Both layouts are at least two columns
    wide: numpy sums a single column pairwise, which would reorder the sums.
    """
    edge_var = np.concatenate([np.empty(0, np.int64), *checks])
    edge_check = np.repeat(np.arange(len(checks)), [c.size for c in checks])
    m_cols, n_cols = max(len(checks), 2), max(n, 2)
    check_rank, d_c = _rank_in_group(edge_check, len(checks))
    var_rank, d_v = _rank_in_group(edge_var, n)
    slot_var = np.full((d_c, m_cols), n_cols, dtype=np.intp)
    slot_var[check_rank, edge_check] = edge_var
    var_slots = np.full((d_v, n_cols), slot_var.size, dtype=np.intp)
    var_slots[var_rank, edge_var] = check_rank * m_cols + edge_check
    return slot_var, var_slots, np.flatnonzero(slot_var == n_cols)


def _rank_in_group(groups, num_groups):
    """Each edge's index among the edges of its group, in edge order; the largest group."""
    order = np.argsort(groups, kind="stable")
    sizes = np.bincount(groups, minlength=num_groups)
    rank = np.empty_like(groups)
    rank[order] = np.arange(groups.size) - (np.cumsum(sizes) - sizes)[groups[order]]
    return rank, int(sizes.max(initial=0))


def _gf2_systematize(n, checks):
    """Drive an identity into the rightmost logical columns of H by row reduction.

    Works on H's rows packed eight columns to a byte (column ``c`` is bit
    ``c & 7`` of byte ``c >> 3``), so a row XOR touches n / 8 bytes.  Columns
    are never moved: the returned permutation ``perm`` maps logical column
    ``j`` (codeword order [info | parity]) to physical column ``perm[j]``.
    Each target column, from the right, takes the nearest logical column at
    or left of it whose physical column has a one in a free (not yet pivot)
    row, swapping the two entries of ``perm``; the first such row becomes its
    pivot and is cleared from every other row.  Returns the parity map ``A``
    with ``parity = A @ info mod 2`` (rows ordered by parity position), the
    permutation, and the indices of redundant (dependent) rows.
    """
    m = len(checks)
    hp = np.zeros((m, (n + 7) // 8), dtype=np.uint8)
    cols = np.concatenate([np.empty(0, np.int64), *checks])
    edge_rows = np.repeat(np.arange(m), [c.size for c in checks])
    np.bitwise_or.at(hp, (edge_rows, cols >> 3), (1 << (cols & 7)).astype(np.uint8))
    perm = np.arange(n)
    free = np.ones(m, dtype=bool)
    pivots = []
    for target in range(n - 1, n - 1 - min(m, n), -1):
        for j in range(target, -1, -1):
            c = int(perm[j])
            ones = ((hp[:, c >> 3] >> (c & 7)) & 1).astype(bool)
            rows = np.flatnonzero(ones & free)
            if rows.size:
                break
        else:
            break  # the free rows are all zero, hence redundant
        perm[j], perm[target] = perm[target], perm[j]
        r = rows[0]
        free[r] = False
        ones[r] = False
        hp[ones] ^= hp[r]
        pivots.append(r)
    info = perm[:n - len(pivots)]
    parity = hp[pivots[::-1]][:, info >> 3]  # shifted and masked in place, for peak RSS
    parity >>= (info & 7).astype(np.uint8)
    parity &= 1
    return parity, perm, tuple(int(i) for i in np.flatnonzero(free))


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
    padded = np.zeros(code.var_slots.shape[1] + 1, dtype=np.uint8)  # a 0 at the pad index
    padded[:code.n] = np.asarray(bits, dtype=np.uint8) & 1
    return np.bitwise_xor.reduce(padded[code.slot_var], axis=0)[:code.num_checks]


# ---------------------------------------------------------------------------
# sum-product decoding
# ---------------------------------------------------------------------------

def bp_decode(code: LdpcCode, llr_in, iterations: int) -> np.ndarray:
    """A-posteriori LLRs of all n bits from flooding sum-product decoding.

    Check updates use the tanh product rule, evaluated through sign and
    log-magnitude sums per check so that exact-zero messages and near-one
    magnitudes are handled without division.  The schedule is deterministic
    and the decoder holds no state between calls.  Messages live in the
    code's check-slot layout (see the module docstring); a check with an
    exact-zero message is rare, so its mask is built only when one occurs.
    """
    if int(iterations) < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    llr = np.clip(np.asarray(llr_in, dtype=np.float64), -LLR_MAX, LLR_MAX)
    if llr.shape != (code.n,):
        raise ValueError(f"LLR length {llr.shape} does not match n={code.n}")
    slot_var, var_slots, n = code.slot_var, code.var_slots, code.n
    # c2v in check-slot order, then the 0.0 that var-side pads read
    c2v_flat = np.zeros(slot_var.size + 1)
    c2v = c2v_flat[:-1].reshape(slot_var.shape)
    # per-variable totals, then the +inf that check-side pads read: a pad's
    # v2c is +inf, so its tanh is 1 and its sign +1
    totals = np.empty(var_slots.shape[1] + 1)
    totals[-1] = np.inf

    with np.errstate(divide="ignore"):  # log(0) = -inf marks an exact-zero message
        for _ in range(int(iterations)):
            totals[:-1] = np.add.reduce(c2v_flat[var_slots], axis=0, initial=0.0)
            totals[:n] += llr
            t = np.tanh(0.5 * (totals[slot_var] - c2v))
            sign = np.copysign(1.0, t)
            logmag = np.log(np.minimum(np.abs(t), _TANH_CLIP))  # -inf exactly where t == 0
            logmag.flat[code.pad_slots] = 0.0
            sum_log = np.add.reduce(logmag, axis=0, initial=0.0)
            dead = None
            if (sum_log == -np.inf).any():
                zero = logmag == -np.inf
                logmag[zero] = 0.0
                sum_log = np.add.reduce(logmag, axis=0, initial=0.0)
                # a check with one zero sends zero on every other edge; with two, on all
                zeros = np.add.reduce(zero, axis=0)
                dead = (zeros > 1) | ((zeros == 1) & ~zero)

            sign = sign * np.multiply.reduce(sign, axis=0)  # the sign over the other edges
            c2v[...] = 2.0 * np.arctanh(sign * np.minimum(np.exp(sum_log - logmag), _TANH_CLIP))
            if dead is not None:
                c2v[dead] = 0.0

    return llr + np.add.reduce(c2v_flat[var_slots], axis=0, initial=0.0)[:n]


def llr_from_pseudo(rx: GaussianMessage) -> np.ndarray:
    """Channel LLRs of a Gaussian pseudo-observation: L = 2 r / v, saturated."""
    return np.clip(2.0 * rx.mean / rx.variance, -LLR_MAX, LLR_MAX)


def bernoulli_moments(llr_values):
    """Symbol means ``tanh(L/2)`` and their trace-averaged variance."""
    means = np.tanh(0.5 * llr_values)
    variance = float(np.mean(1.0 - means * means)) if means.size else 0.0
    return means, variance
