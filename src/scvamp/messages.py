"""Mean-variance Gaussian messages and the Onsager-corrected extrinsic update.

Every stage of the receiver speaks the same language: it receives a Gaussian
pseudo-observation ``r = x + sqrt(v) * noise`` described by a mean vector and
one shared (isotropic) variance, and answers with a message of the same form.
The extrinsic transformation removes the input's own contribution from a
posterior so that no stage feeds its input information back to itself; the
Onsager coefficient ``alpha`` (posterior variance over input variance) governs
that subtraction.  Stages report the raw ratio and :func:`extrinsic` is the one
place it is clamped.

All types here are immutable values and all operations are pure functions, so
they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPSILON = 1e-6  # extrinsic clamps alpha into [_EPSILON, 1 - _EPSILON]


class DivergenceError(ValueError):
    """A quantity that must be finite came out NaN/Inf (iteration diverged upstream)."""


def _finite_vector(values, what):
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class GaussianMessage:
    """Gaussian pseudo-observation: mean vector plus a single per-component variance."""

    mean: np.ndarray
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _finite_vector(self.mean, "message mean"))
        v = float(self.variance)
        if not np.isfinite(v):
            raise DivergenceError("message variance is non-finite")
        if v <= 0.0:
            raise ValueError(f"message variance must be positive, got {v}")
        object.__setattr__(self, "variance", v)

    def __len__(self):
        return self.mean.shape[0]


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior moments of one stage plus its raw Onsager coefficient.

    ``variance`` is the raw trace-averaged posterior variance (it may be zero
    for a saturated denoiser); ``alpha`` is the unclipped variance ratio
    ``posterior / input`` (:func:`extrinsic` clamps it).  The ratio
    parameterization is interchangeable with the Fisher-information form
    ``alpha = 1 - (v_in / N) * J`` where ``J`` is the trace Fisher information
    of the pseudo-observation; the finite-difference test suites verify the
    equivalence, but the ratio is what runs.
    """

    mean: np.ndarray
    variance: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _finite_vector(self.mean, "posterior mean"))
        v = float(self.variance)
        if not np.isfinite(v):
            raise DivergenceError("posterior variance is non-finite")
        if v < 0.0:
            raise ValueError(f"posterior variance must be nonnegative, got {v}")
        a = float(self.alpha)
        if not np.isfinite(a):
            raise DivergenceError("alpha is non-finite")
        object.__setattr__(self, "variance", v)
        object.__setattr__(self, "alpha", a)


def extrinsic(input_msg: GaussianMessage, posterior: PosteriorSummary) -> GaussianMessage:
    """Onsager-corrected extrinsic message: posterior with the input divided out.

    With ``a = posterior.alpha`` clamped into ``[1e-6, 1 - 1e-6]``:

        mean = (posterior.mean - a * input.mean) / (1 - a)
        variance = a / (1 - a) * input.variance

    The clamp keeps the variance positive and finite for a saturated or an
    uninformative stage.  The precision-weighted product of the result with
    the input reproduces the posterior moments exactly when ``alpha`` lies
    inside the clamp, which is the defining property of the update.
    """
    a = min(max(posterior.alpha, _EPSILON), 1.0 - _EPSILON)
    if posterior.mean.shape != input_msg.mean.shape:
        raise ValueError(
            f"dimension mismatch: posterior {posterior.mean.shape} vs input {input_msg.mean.shape}"
        )
    denom = 1.0 - a
    mean = (posterior.mean - a * input_msg.mean) / denom
    variance = a / denom * input_msg.variance
    return GaussianMessage(mean, variance)
