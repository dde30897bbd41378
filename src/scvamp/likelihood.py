"""Nonlinear observation stage: posterior moments of w from y = f(w) + noise.

The channel applies a component-wise nonlinearity ``f`` to the mixture and
adds white Gaussian noise, so the tilted posterior of every component
factorizes and the stage reduces to M independent scalar problems

    p(w | r, y)  propto  N(w; r, v) * N(y; f(w), sigma2).

The first and second moments are computed with Gauss-Hermite quadrature
initialized on the cavity Gaussian (substitution ``w = r + sqrt(2 v) t``) and
then recentred twice on the running moment estimates, with all factors
accumulated in the log domain so high-SNR sweeps do not underflow.  The
identity nonlinearity short-circuits to the conjugate closed form, in which
case the extrinsic output is exactly ``(y, sigma2)``.

The quadrature walks the components in blocks of ``_BLOCK_ROWS`` rows and
works in place on preallocated ``(rows, Q)`` buffers, which stay in cache.
The results are bit-identical to evaluating all M rows at once: every
reduction runs along one row's Q nodes, so a row's sums do not depend on the
block it falls in, and each in-place step performs the same floating-point
operation as the expression it replaces (``sqrt(2 s) t + center`` is
``center + sqrt(2 s) t``, and ``(q w) w`` reuses ``q w``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .messages import GaussianMessage, PosteriorSummary, extrinsic

NONLINEARITIES: dict[str, Callable] = {
    "id": lambda w: w,
    "tanh": np.tanh,
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
    def is_identity(self):
        return self.nonlinearity == "id"

    @property
    def f(self) -> Callable:
        return NONLINEARITIES[self.nonlinearity]

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


@lru_cache(maxsize=None)
def gh_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(nodes, weights)`` of the order-Q Gauss-Hermite rule for exp(-t^2).

    Q lies in [2, 200]; the rule is exact for polynomials up to degree 2Q-1.
    """
    q = int(order)
    if not 2 <= q <= 200:
        raise ValueError(f"quadrature order must lie in [2, 200], got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(q)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


_ORDER = 50  # Gauss-Hermite nodes per component in the observation stage
_ADAPT_PASSES = 3
_BLOCK_ROWS = 512  # components per block: a block's buffers stay in cache


def _quadrature_moments(r, v, y, f, sigma2, rule):
    """Vectorized posterior moments over components; returns (m1, m2, log_z, fallback).

    The first pass uses the cavity substitution ``w = r + sqrt(2 v) t``; two
    further passes recentre and rescale the same rule on the running moment
    estimates, integrating the full tilted density against the moving Gaussian
    in the log domain.  Recentring is what pushes the rule from ~1e-4 to
    ~1e-9 relative accuracy when the likelihood is much narrower than the
    cavity, at the price of evaluating the nonlinearity three times per node.
    ``log_z`` is the log normalizer from the last pass.

    ``fallback`` marks components whose normalizer underflowed (or went
    non-finite); those freeze at the prior moments ``(r, r^2 + v)`` and get
    ``log_z = -inf``.

    Components are processed ``_BLOCK_ROWS`` at a time (see the module
    docstring for why the blocking moves no bit).
    """
    t, weights = rule
    base = np.log(weights) + t * t
    m1, m2, log_z = np.empty_like(r), np.empty_like(r), np.empty_like(r)
    bad = np.empty(r.shape, dtype=bool)
    shape = (min(r.size, _BLOCK_ROWS), t.size)
    buffers = np.empty(shape), np.empty(shape), np.empty(shape)
    for lo in range(0, r.size, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        k = r[rows].size
        m1[rows], m2[rows], log_z[rows], bad[rows] = _block_moments(
            r[rows], v, y[rows], f, sigma2, t, base, *(b[:k] for b in buffers)
        )
    return m1, m2, log_z, bad


def _block_moments(r, v, y, f, sigma2, t, base, w, log_terms, qw):
    """``_quadrature_moments`` on one block of rows, in place on ``(rows, Q)`` buffers."""
    center = r
    scale = np.full_like(r, v)
    bad = np.zeros(r.shape, dtype=bool)
    for _ in range(_ADAPT_PASSES):
        np.multiply(np.sqrt(2.0 * scale)[:, None], t, out=w)
        w += center[:, None]
        np.subtract(w, r[:, None], out=log_terms)
        log_terms *= log_terms
        log_terms /= 2.0 * v
        np.subtract(base, log_terms, out=log_terms)
        resid = np.subtract(y[:, None], f(w), out=qw)
        resid *= resid
        resid /= 2.0 * sigma2
        log_terms -= resid
        top = np.max(log_terms, axis=1)
        ok_top = np.isfinite(top)
        log_terms -= np.where(ok_top, top, 0.0)[:, None]
        q = np.exp(log_terms, out=log_terms)
        z0 = q.sum(axis=1)
        np.multiply(q, w, out=qw)
        z1 = qw.sum(axis=1)
        qw *= w
        z2 = qw.sum(axis=1)
        good = ok_top & np.isfinite(z0) & (z0 > 0.0) & np.isfinite(z1) & np.isfinite(z2)
        bad |= ~good
        safe = np.where(good, z0, 1.0)
        m1 = np.where(bad, r, z1 / safe)
        m2 = np.where(bad, r * r + v, z2 / safe)
        m2 = np.maximum(m2, m1 * m1)  # posterior variance never negative
        center = m1
        last_scale = scale
        scale = np.maximum(m2 - m1 * m1, 1e-12 * v)
    log_z = np.where(
        bad,
        -np.inf,
        top + np.log(safe) + 0.5 * np.log(2.0 * last_scale)
        - 0.5 * np.log(2.0 * np.pi * v) - 0.5 * np.log(2.0 * np.pi * sigma2),
    )
    return m1, m2, log_z, bad


def log_normalizer(r, v, y, spec: ChannelSpec):
    """Log of the tilted-density normalizer ``Z = int N(w; r, v) N(y; f(w), s2) dw``.

    Evaluated with the same adaptive quadrature the moments use; for the
    identity nonlinearity the tilted density is Gaussian, so the recentred
    rule is exact up to rounding.  The finite-difference test suites
    differentiate this with respect to ``r`` to check Tweedie consistency.
    """
    _, _, log_z, _ = _quadrature_moments(
        np.array([float(r)]), float(v), np.array([float(y)]), spec.f, spec.noise_variance,
        gh_rule(_ORDER),
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

    if spec.is_identity:
        v_post = 1.0 / (1.0 / v + 1.0 / sigma2)
        m1 = v_post * (rw.mean / v + y / sigma2)
        return GaussianMessage(y, sigma2), PosteriorSummary(m1, v_post, v_post / v)

    m1, m2, _, bad = _quadrature_moments(rw.mean, v, y, spec.f, sigma2, gh_rule(_ORDER))
    if np.any(bad):
        warnings.warn(
            f"quadrature normalizer underflow on {int(bad.sum())} of {y.size} components",
            RuntimeWarning,
        )
    v_post = float(np.mean(m2 - m1 * m1))
    post = PosteriorSummary(m1, v_post, v_post / v)
    return extrinsic(rw, post), post
