"""Three-stage score-based VAMP receiver for LDPC-coded nonlinear channels.

The receiver factors inference on ``y = f(H x) + z`` into a linear coupling
stage (LMMSE over ``w = H x``), a nonlinear observation stage (Gauss-Hermite
posterior moments of ``w`` from ``y``), and an LDPC BP denoiser for the code
constraint, all exchanging Onsager-corrected mean-variance messages.
"""

from .channel import (
    Realization,
    TrialScenario,
    bpsk,
    gen_h,
    realize,
    substream,
    transmit,
)
from .codes import builtin_code_ids, load_builtin
from .coupling import MixingMatrix, coupling_posterior, precompute
from .denoiser import (
    LLR_MAX,
    AlistParseError,
    LdpcCode,
    bernoulli_moments,
    bp_decode,
    encode,
    llr_from_pseudo,
    load_alist,
    parse_alist,
    serialize_alist,
    syndrome,
)
from .experiment import (
    BerPoint,
    SweepConfig,
    ber_sweep,
    build_scenario,
    load_code,
    mse_trace_experiment,
    wilson_interval,
)
from .likelihood import (
    ChannelSpec,
    QuadratureRule,
    gh_rule,
    likelihood_step,
    log_normalizer,
)
from .messages import (
    DivergenceError,
    GaussianMessage,
    PosteriorSummary,
    extrinsic,
)
from .runner import (
    POLICIES,
    DecodeResult,
    IterationTrace,
    Policy,
    Variant,
    hard_decision,
    run_variant,
)

__version__ = "0.1.0"
