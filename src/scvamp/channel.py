"""The trial model: the ``--h`` modes, the seed's sub-streams and ``y = f(H x) + σ z``.

``--h iid:MxN`` is one dense M x N Gaussian block and ``blockdiag:B`` is
``H = I_R ⊗ A``, one B x B Gaussian block A repeated R = n / B times
(:func:`fit_h_mode`).  One 64-bit seed fully determines a trial through three
named sub-streams with independent spawn keys: "H" draws the block, "bits"
the information bits and "noise" one standard-normal vector z of length M.
The frame is ``y = f(H bpsk(codeword)) + σ z`` with σ² the channel spec's
noise variance.  Only σ depends on the SNR, so a seed is the same H, codeword
and z at every SNR point; variants share each realization exactly, and
drawing from one sub-stream never shifts another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import MixingMatrix, precompute
from .denoiser import LdpcCode, encode
from .likelihood import ChannelSpec

_STREAMS = {"H": 0, "bits": 1, "noise": 2}


def substream(seed, name):
    """Generator for one named purpose, deterministically derived from the seed."""
    if name not in _STREAMS:
        raise ValueError(f"unknown stream {name!r}; known: {sorted(_STREAMS)}")
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(_STREAMS[name],)))


@dataclass(frozen=True)
class TrialScenario:
    """Everything one Monte Carlo trial depends on: code, matrix, channel, seed."""

    code: LdpcCode
    h: MixingMatrix
    spec: ChannelSpec
    seed: int

    def __post_init__(self):
        if self.h.n != self.code.n:
            raise ValueError(
                f"matrix has {self.h.n} columns but the code length is {self.code.n}"
            )


@dataclass(frozen=True)
class Realization:
    """One frame as drawn (shared across algorithm variants): its codeword and observation."""

    codeword: np.ndarray
    y: np.ndarray


def fit_h_mode(h_mode, n):
    """``(rows, cols, repeats)`` of the mixing matrix ``h_mode`` gives a length-n code.

    ``iid:MxN`` is one M x N block and needs N = n; ``blockdiag:B`` repeats a
    B x B block n / B times and needs B to divide n.  Sizes are plain
    decimals >= 1.  Anything else is a ValueError.
    """
    kind, _, rest = h_mode.partition(":")
    if kind == "iid":
        m_txt, _, n_txt = rest.partition("x")
        fields, form = (m_txt, n_txt), "iid:MxN"
    elif kind == "blockdiag":
        fields, form = (rest,), "blockdiag:B"
    else:
        raise ValueError(f"unknown H mode {h_mode!r}; use iid:MxN or blockdiag:B")
    # int() also takes " 3_2\n" and "032"; a size is written as int() prints it back
    if not all(f.isascii() and f.isdigit() and str(int(f)) == f for f in fields):
        raise ValueError(f"malformed {kind} mode {h_mode!r}, expected {form}")
    rows, cols = int(fields[0]), int(fields[-1])
    if min(rows, cols) < 1:
        raise ValueError(f"H mode {h_mode!r} needs sizes of at least 1")
    if n % cols or (kind == "iid" and cols != n):
        raise ValueError(f"H mode {h_mode!r} does not fit the code length {n}")
    return rows, cols, n // cols


def build_scenario(code: LdpcCode, h_mode, snr_db, nonlinearity, seed) -> TrialScenario:
    """Scenario for one (snr, seed) trial, with H drawn from the seed's "H" sub-stream.

    The block has the shape and repeat count :func:`fit_h_mode` gives
    ``h_mode`` for the code length.  Its entries are i.i.d. with variance
    1/rows, so the per-symbol sub-channel does not depend on the repeats.
    """
    rows, cols, repeats = fit_h_mode(h_mode, code.n)
    block = substream(seed, "H").normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))
    spec = ChannelSpec.from_snr_db(snr_db, nonlinearity)
    return TrialScenario(code, precompute(block, repeats), spec, int(seed))


def bpsk(bits) -> np.ndarray:
    """Map bits to symbols with the convention bit 0 -> +1, bit 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def realize(scenario: TrialScenario) -> Realization:
    """Draw the seed's codeword and observation ``y = f(H bpsk(codeword)) + σ z``."""
    info = substream(scenario.seed, "bits").integers(0, 2, size=scenario.code.k, dtype=np.uint8)
    codeword = encode(scenario.code, info)
    z = substream(scenario.seed, "noise").standard_normal(scenario.h.m)
    sigma = np.sqrt(scenario.spec.noise_variance)
    return Realization(codeword, scenario.spec.f(scenario.h.apply(bpsk(codeword))) + sigma * z)
