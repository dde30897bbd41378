"""Outer iteration schedule of the three-stage receiver plus ablation variants.

One iteration: the coupling stage produces messages to both sides from the
current pair of pseudo-observations; the code denoiser consumes the x-side
output and refreshes ``(r_x, v_x)``; the observation stage consumes the
w-side output and refreshes ``(r_w, v_w)``.  The two refreshes read only the
coupling outputs, so their order does not matter.  Initialization is the
non-informative ``(0, 1)`` on the x side (zero mean, unit variance for BPSK)
and, on the w side, the observation stage's extrinsic message on the prior of
w, ``N(0, ||H||_F^2 / M)``.  For ``f = id`` that message is ``(y, sigma2)``;
for a saturating ``f`` it keeps the first iteration from trusting ``y`` as if
it were ``w``.

Every variant runs the same loop; they differ only in per-stage policy, one
row of ``POLICIES`` each:

    variant             onsager  identity_model  llr_subtraction
    scvamp3             yes      no              no
    scvamp2-mismatched  yes      yes             no
    no-onsager          no       no              no
    llr-turbo           yes      no              yes

* ``onsager`` - :func:`_send` forwards every stage's Onsager-corrected
  extrinsic message; otherwise it forwards its posterior (mean and variance).
* ``identity_model`` - the observation stage assumes ``f = id`` at the
  channel's noise variance, whatever the true nonlinearity; its extrinsic
  output is then ``(y, sigma2)`` on every iteration.
* ``llr_subtraction`` - the decoder forwards the classical extrinsic LLRs
  ``L_app - L_in`` mapped to Bernoulli moments instead of its ``onsager``
  output; :func:`denoiser_step`, the code stage's one entry point, applies it.

No damping is applied anywhere.  A non-finite message aborts the trial with
the divergence flag set and every bit of the frame scored as an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .channel import Realization, TrialScenario, bpsk
from .coupling import coupling_posterior
from .denoiser import LdpcCode, bernoulli_moments, bp_decode, llr_from_pseudo, syndrome
from .likelihood import ChannelSpec, likelihood_step
from .messages import DivergenceError, GaussianMessage, PosteriorSummary, extrinsic

_VARIANCE_FLOOR = 1e-15  # saturated posteriors and decodes can have variance 0; messages need > 0


class Variant(str, Enum):
    SCVAMP3 = "scvamp3"
    SCVAMP2_MISMATCHED = "scvamp2-mismatched"
    NO_ONSAGER = "no-onsager"
    LLR_TURBO = "llr-turbo"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown variant {value!r}; known names: {', '.join(cls)}")


@dataclass(frozen=True)
class Policy:
    """Per-stage behaviour of one variant (see the module docstring)."""

    onsager: bool = True
    identity_model: bool = False
    llr_subtraction: bool = False


POLICIES = MappingProxyType({
    Variant.SCVAMP3: Policy(),
    Variant.SCVAMP2_MISMATCHED: Policy(identity_model=True),
    Variant.NO_ONSAGER: Policy(onsager=False),
    Variant.LLR_TURBO: Policy(llr_subtraction=True),
})


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration diagnostics: MSE, message variances, raw Onsager ratios.

    ``alphas`` holds each stage's ``PosteriorSummary.alpha``, the variance
    ratio before :func:`~scvamp.messages.extrinsic` clamps it (coupling
    x-side, observation stage under the variant's model, denoiser stage).
    Length equals the number of executed iterations.
    """

    mse: np.ndarray
    v_x: np.ndarray
    v_w: np.ndarray
    alphas: np.ndarray

    def __len__(self):
        return self.mse.shape[0]


@dataclass(frozen=True)
class DecodeResult:
    hard_bits: np.ndarray
    bit_errors: int
    converged_iteration: int | None
    trace: IterationTrace
    diverged: bool = False


def _send(policy: Policy, msg_in: GaussianMessage, post: PosteriorSummary, ext=None):
    """The message a stage forwards: its floored posterior without ``onsager``,
    else ``ext``, or ``extrinsic(msg_in, post)`` when no ``ext`` is given."""
    if not policy.onsager:
        return GaussianMessage(post.mean, max(post.variance, _VARIANCE_FLOOR))
    return extrinsic(msg_in, post) if ext is None else ext


def denoiser_step(msg: GaussianMessage, code: LdpcCode, bp_iters: int, policy: Policy):
    """Code stage: LLRs of ``msg``, BP, Bernoulli moments; returns (forwarded, posterior)."""
    llr_in = llr_from_pseudo(msg)
    llr_app = bp_decode(code, llr_in, bp_iters)
    means, variance = bernoulli_moments(llr_app)
    post = PosteriorSummary(means, variance, variance / msg.variance)
    ext = None
    if policy.llr_subtraction:
        ext_means, ext_var = bernoulli_moments(llr_app - llr_in)
        ext = GaussianMessage(ext_means, max(ext_var, _VARIANCE_FLOOR))
    return _send(policy, msg, post, ext), post


def run_variant(
    variant: Variant,
    truth: Realization,
    scenario: TrialScenario,
    outer_iters: int,
    bp_iters: int,
    *,
    early_stop: bool = False,
) -> DecodeResult:
    """Run one receiver variant for ``outer_iters`` iterations on one frame.

    The receiver sees only the frame's observation ``truth.y``; its codeword
    scores the MSE trace (as BPSK symbols) and the bit errors.  A mean below
    zero decides bit 1, so an exact zero of either sign decides bit 0.
    """
    if int(outer_iters) < 1:
        raise ValueError(f"outer_iters must be >= 1, got {outer_iters}")
    policy = POLICIES[Variant(variant)]
    y, symbols = truth.y, bpsk(truth.codeword)
    code, mix, spec = scenario.code, scenario.h, scenario.spec
    model = ChannelSpec("id", spec.noise_variance) if policy.identity_model else spec
    n = code.n

    rows = []  # per iteration: mse, v_x, v_w and the three stages' alphas
    x_hat = np.zeros(n)
    prev_bits = None
    converged_at = None
    diverged = False

    try:
        rx_msg = GaussianMessage(np.zeros(n), 1.0)
        # the observation stage's extrinsic on the prior of w, N(0, ||H||_F^2 / M)
        prior_w = GaussianMessage(np.zeros(mix.m), float(np.mean(mix.eigenvalues)) * n / mix.m)
        rw_msg = likelihood_step(prior_w, y, model)[0]
        for t in range(1, int(outer_iters) + 1):
            x_post_c, w_post_c = coupling_posterior(rx_msg, rw_msg, mix)
            to_denoiser = _send(policy, rx_msg, x_post_c)
            to_observer = _send(policy, rw_msg, w_post_c)

            rx_msg, post_b = denoiser_step(to_denoiser, code, bp_iters, policy)
            x_hat = post_b.mean

            ext_w, post_a = likelihood_step(to_observer, y, model)
            rw_msg = _send(policy, to_observer, post_a, ext_w)

            rows.append((float(np.mean((x_hat - symbols) ** 2)), rx_msg.variance,
                         rw_msg.variance, x_post_c.alpha, post_a.alpha, post_b.alpha))

            bits = (x_hat < 0).astype(np.uint8)
            if (
                converged_at is None
                and prev_bits is not None
                and np.array_equal(bits, prev_bits)
                and not syndrome(code, bits).any()
            ):
                converged_at = t
            prev_bits = bits
            if early_stop and converged_at is not None:
                break
    except DivergenceError:
        diverged = True

    table = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    trace = IterationTrace(*table[:, :3].T.copy(), table[:, 3:].copy())
    hard_bits = (x_hat < 0).astype(np.uint8)
    if diverged:
        bit_errors = n
    else:
        bit_errors = int(np.count_nonzero(hard_bits != truth.codeword))
    return DecodeResult(hard_bits, bit_errors, converged_at, trace, diverged)
