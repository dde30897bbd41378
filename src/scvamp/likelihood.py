"""Nonlinear observation stage: posterior moments of w from y = f(w) + noise.

The channel applies a component-wise nonlinearity ``f`` to the mixture and
adds white Gaussian noise, so the tilted posterior of every component
factorizes and the stage reduces to M independent scalar problems

    p(w | r, y)  propto  N(w; r, v) * N(y; f(w), sigma2).

The moments come from adaptive Gauss-Hermite quadrature (Liu and Pierce,
Biometrika 1994).  A few vectorized Gauss-Newton steps, started at the best
of five points on the cavity, find the mode of the tilted density and its
Gauss-Newton curvature ``1/v + f'(w)^2 / sigma2``; a
12-node pass centred at that mode with that Laplace scale gives first moment
estimates, and a 50-node pass recentred on them gives the moments and the
normalizer.  All factors are accumulated in the log domain, so high-SNR
sweeps do not underflow.  The identity nonlinearity short-circuits to the
conjugate closed form, in which case the extrinsic output is exactly
``(y, sigma2)``.

Each pass lays its log terms out as ``(nodes, components)``, so every step
runs along contiguous rows, in blocks of ``_BLOCK_COMPONENTS`` components.
The results equal one pass over all M components bit for bit: the mode
search is element-wise and every reduction runs over one component's Q nodes,
so a component's sums do not depend on the block it falls in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .messages import GaussianMessage, PosteriorSummary, extrinsic

# name -> (f, f'); the derivative sets the Laplace scale of the quadrature
NONLINEARITIES: dict[str, tuple[Callable, Callable]] = {
    "id": (lambda w: w, np.ones_like),
    "tanh": (np.tanh, lambda w: 1.0 - np.tanh(w) ** 2),
}


@dataclass(frozen=True)
class ChannelSpec:
    """Observation model: component-wise nonlinearity and noise variance.

    ``nonlinearity`` is a registered name, a key of ``NONLINEARITIES``
    (``"id"``, ``"tanh"``); an unknown name raises ``ValueError``.  SNR is
    defined as ``1 / noise_variance``.
    """

    nonlinearity: str = "id"
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(
                f"unknown nonlinearity {self.nonlinearity!r}; "
                f"known names: {sorted(NONLINEARITIES)}"
            )
        if not (np.isfinite(self.noise_variance) and self.noise_variance > 0.0):
            raise ValueError(f"noise variance must be positive, got {self.noise_variance}")

    @property
    def f(self) -> Callable:
        return NONLINEARITIES[self.nonlinearity][0]

    @property
    def f_prime(self) -> Callable:
        return NONLINEARITIES[self.nonlinearity][1]

    @property
    def snr_db(self):
        return -10.0 * np.log10(self.noise_variance)

    @classmethod
    def from_snr_db(cls, snr_db, nonlinearity):
        try:
            noise_variance = 10.0 ** (-float(snr_db) / 10.0)
        except OverflowError:  # below about -3083 dB
            raise ValueError(f"SNR {snr_db} dB is out of range") from None
        return cls(nonlinearity, noise_variance)


# (nodes, weights) for exp(-t^2): the Laplace-centred pass, then the recentred pass
_RULES = tuple(np.polynomial.hermite.hermgauss(q) for q in (12, 50))
_START_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])  # mode search starts, in cavity stds
_MODE_STEPS = 4  # Gauss-Newton steps towards the mode of the tilted density
# components per block: at M = 2304, blocks of 128, 512 and 1024 made a
# _quadrature_moments call 12-22%, 2-5% and 13-18% slower (tanh, 8 dB, one thread)
_BLOCK_COMPONENTS = 256


def _laplace_start(r, v, y, spec):
    """Mode of the tilted density and the inverse of its Gauss-Newton curvature.

    The search starts at the best of the points ``r + k sqrt(v)`` for the
    offsets ``k`` in ``_START_OFFSETS`` and takes ``_MODE_STEPS``
    Gauss-Newton steps on ``log N(w; r, v) + log N(y; f(w), sigma2)``.
    Starting from the cavity mean alone fails when the cavity is wide and
    ``f`` saturates: the steps then swing back and forth across the peak, or
    climb a flat local mode near ``r`` far below it.  A component whose
    result is not finite (an overflowing ``y``) starts from the cavity
    ``(r, v)``.
    """
    f, f_prime, sigma2 = spec.f, spec.f_prime, spec.noise_variance
    offsets = _START_OFFSETS[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        misfit = (y - f(r + np.sqrt(v) * offsets)) ** 2 / (2.0 * sigma2) + 0.5 * offsets**2
        w = r + np.sqrt(v) * _START_OFFSETS[np.argmin(misfit, axis=0)]
        for _ in range(_MODE_STEPS):
            slope = f_prime(w)
            curvature = 1.0 / v + slope * slope / sigma2
            w = w + ((r - w) / v + (y - f(w)) * slope / sigma2) / curvature
        slope = f_prime(w)
        scale = 1.0 / (1.0 / v + slope * slope / sigma2)
    ok = np.isfinite(w) & (scale > 0.0)
    return np.where(ok, w, r), np.where(ok, scale, v)


def _quadrature_moments(r, v, y, spec):
    """Vectorized posterior moments over components; returns (mean, var, log_z, fallback).

    The first pass, with the first of ``_RULES``, uses ``w = mode + sqrt(2 s) t``
    with the mode and Laplace scale ``s`` from ``_laplace_start``; each later
    pass recentres and rescales its rule on the previous pass's mean and
    variance, integrating the full tilted density against the moving Gaussian
    in the log domain.  The moments are sums over ``t``, about the pass's
    centre, so a variance far below the squared mean keeps its digits.
    ``log_z`` is the log normalizer from the last pass.

    ``fallback`` marks components whose normalizer underflowed (or went
    non-finite); those freeze at the prior moments ``(r, v)`` and get
    ``log_z = -inf``.
    """
    sigma2 = spec.noise_variance
    center, scale = _laplace_start(r, v, y, spec)
    bad = np.zeros(r.shape, dtype=bool)
    for rule in _RULES:
        top, z0, z1, z2 = _node_sums(r, v, y, spec, center, scale, rule)
        good = np.isfinite(top)  # then z0 lies in [1, Q] and z1, z2 are finite
        bad |= ~good
        safe = np.where(good, z0, 1.0)
        mean_t = z1 / safe
        mean = np.where(bad, r, center + np.sqrt(2.0 * scale) * mean_t)
        var = np.where(bad, v, np.maximum(2.0 * scale * (z2 / safe - mean_t * mean_t), 0.0))
        center, last_scale, scale = mean, scale, np.maximum(var, 1e-12 * v)
    log_z = np.where(
        bad,
        -np.inf,
        top + np.log(safe) + 0.5 * np.log(2.0 * last_scale)
        - 0.5 * np.log(2.0 * np.pi * v) - 0.5 * np.log(2.0 * np.pi * sigma2),
    )
    return mean, var, log_z, bad


def _node_sums(r, v, y, spec, center, scale, rule):
    """One pass of ``rule`` at ``w = center + sqrt(2 scale) t``; returns (top, z0, z1, z2).

    ``top`` is each component's largest log term, and ``z0``, ``z1``, ``z2``
    are its sums of ``q``, ``q t`` and ``q t^2`` with ``q = exp(log term - top)``.
    """
    t, weights = rule
    base = (np.log(weights) + t * t)[:, None]
    powers = np.stack([np.ones_like(t), t, t * t])
    sums = np.empty((4, r.size))
    for lo in range(0, r.size, _BLOCK_COMPONENTS):
        block = slice(lo, lo + _BLOCK_COMPONENTS)
        w = np.sqrt(2.0 * scale[block]) * t[:, None] + center[block]
        log_terms = (base - (w - r[block]) ** 2 / (2.0 * v)
                     - (y[block] - spec.f(w)) ** 2 / (2.0 * spec.noise_variance))
        sums[0, block] = top = np.max(log_terms, axis=0)
        q = np.exp(log_terms - np.where(np.isfinite(top), top, 0.0))
        # numpy's own loops, not BLAS: a BLAS product may vary with its thread count;
        # a contiguous copy, as on the transposed view einsum sums in another order
        sums[1:, block] = np.einsum("ij,kj->ki", np.ascontiguousarray(q.T), powers)
    return sums


def log_normalizer(r, v, y, spec: ChannelSpec):
    """Log of the tilted-density normalizer ``Z = int N(w; r, v) N(y; f(w), s2) dw``.

    Evaluated with the same adaptive quadrature the moments use; for the
    identity nonlinearity the tilted density is Gaussian, so the Laplace start
    is its exact mean and variance and the rule is exact up to rounding.  The
    finite-difference test suites differentiate this with respect to ``r`` to
    check Tweedie consistency.
    """
    _, _, log_z, _ = _quadrature_moments(
        np.array([float(r)]), float(v), np.array([float(y)]), spec
    )
    return float(log_z[0])


def likelihood_step(
    rw: GaussianMessage, y, spec: ChannelSpec
) -> tuple[GaussianMessage, PosteriorSummary]:
    """One full pass of the observation stage.

    Component posterior means and the trace-averaged posterior variance are
    computed from the quadrature moments; the Onsager coefficient is their
    raw variance ratio and the extrinsic output follows the universal update.
    For the identity nonlinearity the moments take the conjugate closed form
    and the extrinsic output is exactly ``(y, sigma2)``, independent of the
    input message.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != rw.mean.shape:
        raise ValueError(f"y has shape {y.shape}, expected {rw.mean.shape}")
    v = rw.variance
    sigma2 = spec.noise_variance

    if spec.nonlinearity == "id":
        v_post = 1.0 / (1.0 / v + 1.0 / sigma2)
        m1 = v_post * (rw.mean / v + y / sigma2)
        return GaussianMessage(y, sigma2), PosteriorSummary(m1, v_post, v_post / v)

    mean, var, _, bad = _quadrature_moments(rw.mean, v, y, spec)
    if np.any(bad):
        warnings.warn(
            f"quadrature normalizer underflow on {int(bad.sum())} of {y.size} components",
            RuntimeWarning,
        )
    v_post = float(np.mean(var))
    post = PosteriorSummary(mean, v_post, v_post / v)
    return extrinsic(rw, post), post
