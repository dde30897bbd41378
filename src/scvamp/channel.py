"""Forward-model simulation: channel matrices, BPSK, nonlinear transmission.

One 64-bit master seed fully determines a trial.  Named sub-streams ("H",
"bits", "noise") are derived from it with independent spawn keys, so ablation
variants can share exactly the same channel realization while the algorithm
under test changes, and trials with disjoint seeds are independent.
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


def gen_h(rows, cols, repeats, rng) -> MixingMatrix:
    """``H = I_R ⊗ A`` with one rows x cols Gaussian block A repeated R = repeats times.

    The block entries are i.i.d. with variance 1/rows, so the per-symbol
    sub-channel does not depend on how many times the block is repeated; a
    dense i.i.d. matrix is the single block ``repeats=1``.
    """
    return precompute(rng.normal(0.0, 1.0 / np.sqrt(rows), size=(int(rows), int(cols))), repeats)


def bpsk(bits) -> np.ndarray:
    """Map bits to symbols with the convention bit 0 -> +1, bit 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def transmit(x, scenario: TrialScenario) -> np.ndarray:
    """Push symbols through the channel and return the observation ``y = f(H x) + z``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (scenario.h.n,):
        raise ValueError(f"symbol vector has shape {x.shape}, expected ({scenario.h.n},)")
    noise = substream(scenario.seed, "noise").normal(
        0.0, np.sqrt(scenario.spec.noise_variance), size=scenario.h.m
    )
    return scenario.spec.f(scenario.h.apply(x)) + noise


def realize(scenario: TrialScenario) -> Realization:
    """Draw the full transmit side of a trial from the scenario seed."""
    info = substream(scenario.seed, "bits").integers(0, 2, size=scenario.code.k, dtype=np.uint8)
    codeword = encode(scenario.code, info)
    return Realization(codeword, transmit(bpsk(codeword), scenario))

