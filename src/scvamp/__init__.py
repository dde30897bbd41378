"""Three-stage score-based VAMP receiver for LDPC-coded nonlinear channels.

The receiver factors inference on ``y = f(H x) + z`` into a linear coupling
stage (LMMSE over ``w = H x``), a nonlinear observation stage (Gauss-Hermite
posterior moments of ``w`` from ``y``), and an LDPC BP denoiser for the code
constraint, all exchanging Onsager-corrected mean-variance messages.

The package re-exports nothing; every name lives in its module: the stages
in ``scvamp.coupling``, ``scvamp.likelihood`` and ``scvamp.denoiser``, code
files and the bundled codes in ``scvamp.codes``, the trial model (H modes,
sub-streams, ``y = f(H x) + σ z``) in ``scvamp.channel``, the outer loop in
``scvamp.runner`` and the sweeps in ``scvamp.experiment``.
``python -m scvamp`` runs the command line in ``scvamp.cli``.
"""
