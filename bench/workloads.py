"""The benchmark's workloads: the experiment each runs and at what size.

Why each workload exists is recorded in ``BENCHMARK.json``.  Every workload
runs closed loop: one process calls the public entry point ``ber_sweep`` with
``workers=1`` and decodes frames back to back.  One call of it is a *pass*.  Pass 0 always runs the reference inputs (master seed 0), whose
outcomes are compared with ``reference.json``; later passes draw their master
seed from the benchmark's ``--seed``.

The SNR points are chosen away from each waterfall edge, so that which frames
are useful does not depend on the seed: the pass-to-pass and seed-to-seed
spread of ``frames_per_s`` then measures the machine, not the channel draw.
"""

from __future__ import annotations

from dataclasses import dataclass

# every workload calls into each of these; a traced pass that records no call
# into one of them is an error, so a rename cannot silently zero a layer
LAYERS = ("experiment", "codes", "channel", "coupling", "likelihood", "denoiser", "runner")

REFERENCE_MASTER_SEED = 0


@dataclass(frozen=True)
class Workload:
    full: dict  # SweepConfig fields of one pass
    small: dict  # overrides for the reduced size the benchmark's own test runs

    def params(self, size):
        return dict(self.full) if size == "full" else {**self.full, **self.small}


WORKLOADS = {
    # scvamp3 fails on the first seed at 6 dB and decodes every seed at 9 dB
    # (at 8 dB about one frame in 30 fails, which made the useful-frame count
    # depend on the seed); scvamp2-mismatched fails on the first seed at both
    "ber-n2304-blockdiag-tanh-adaptive": Workload(
        full=dict(
            snr_db_list=(6.0, 9.0),
            code="builtin:r12-n2304",
            h_mode="blockdiag:32",
            variants=("scvamp3", "scvamp2-mismatched"),
            nonlinearity="tanh",
            min_errors=100,
            max_seeds=8,
        ),
        small=dict(code="builtin:r12-n256", min_errors=10, max_seeds=2),
    ),
    # min_errors is out of reach, so every point runs max_seeds seeds; scvamp3
    # fails at 6 dB (so its BER is never 0) and decodes at 9 dB
    "ber-n2304-iid-under-id": Workload(
        full=dict(
            snr_db_list=(6.0, 9.0),
            code="builtin:r12-n2304",
            h_mode="iid:1152x2304",
            variants=("scvamp3", "llr-turbo"),
            nonlinearity="id",
            min_errors=10**9,
            max_seeds=2,
        ),
        small=dict(code="builtin:r12-n256", h_mode="iid:128x256", max_seeds=1),
    ),
}
