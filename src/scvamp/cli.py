"""Command-line harness for BER sweeps and MSE-convergence traces."""

from __future__ import annotations

import argparse
import math
import sys

from .codes import builtin_code_ids
from .experiment import SweepConfig, ber_sweep, mse_trace_experiment
from .likelihood import NONLINEARITIES
from .runner import Variant


def _parse_snr_list(text):
    """Accept '6', '3,4,5', or an inclusive range 'a:b:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed range {text!r}, expected a:b:step")
        a, b, step = (float(p) for p in parts)
        if not (all(map(math.isfinite, (a, b, step))) and step > 0 and b >= a):
            raise ValueError(f"malformed range {text!r}: must be finite, a <= b, step > 0")
        steps = (b - a) / step  # inf when the step is below 1e-308 of the span
        count = int(round(steps)) + 1 if math.isfinite(steps) else 0
        if count and a + (count - 1) * step > b + 1e-9:
            count -= 1
        # the CSV labels keep 6 significant digits and are coarsest at the end
        # farthest from 0: a range much finer than them repeats one there, so
        # reject it before building the points (SweepConfig checks the rest)
        far = range(min(count, 3)) if abs(a) > abs(b) else range(max(count - 3, 0), count)
        if not count or len({f"{a + i * step:g}" for i in far}) < len(far):
            raise ValueError("SNR points must not repeat, as numbers or as CSV labels")
        return tuple(a + i * step for i in range(count))
    return tuple(float(p) for p in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scvamp",
        argument_default=argparse.SUPPRESS,  # a flag not given takes SweepConfig's default
        description=(
            "Monte Carlo experiments for the three-stage VAMP receiver on "
            "LDPC-coded (non)linear channels"
        ),
    )
    parser.add_argument("--experiment", help="ber or mse-trace")
    parser.add_argument("--snr-db", dest="snr_db_list", required=True,
                        help="comma list or inclusive range a:b:step, in dB; one "
                             "that starts below 0 takes the = form: --snr-db=-3:0:1")
    parser.add_argument("--variant", dest="variants",
                        help="comma list of: " + ",".join(v.value for v in Variant))
    parser.add_argument("--code", required=True,
                        help="alist path or builtin:<id>; builtins: "
                             + ", ".join(builtin_code_ids()))
    parser.add_argument("--h", dest="h_mode", required=True,
                        help="channel matrix mode: iid:MxN or blockdiag:B")
    parser.add_argument("--nonlinearity",
                        help="component-wise f in y = f(Hx) + z, one of: "
                             + ", ".join(NONLINEARITIES))
    parser.add_argument("--outer-iters", type=int)
    parser.add_argument("--bp-iters", type=int)
    parser.add_argument("--min-errors", type=int)
    parser.add_argument("--max-seeds", type=int, help="BER seed cap; mse-trace trial count")
    parser.add_argument("--error-unit", help="bit or frame: what --min-errors counts")
    parser.add_argument("--seed", dest="master_seed", type=int)
    parser.add_argument("--out", dest="output_path", required=True, help="output CSV path")
    parser.add_argument("--workers", type=int,
                        help="worker processes, capped at --max-seeds and the CPUs "
                             "this process may run on; each holds one seed in flight")
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress the timestamp comment for byte-identical reruns")
    return parser


def parse_cli(argv=None) -> SweepConfig:
    """Map the flags onto ``SweepConfig`` by name: each ``dest`` is a field.

    A flag not given takes the field's default; an invalid value exits 2.
    """
    parser = build_parser()
    fields = vars(parser.parse_args(argv))
    try:
        fields["snr_db_list"] = _parse_snr_list(fields["snr_db_list"])
        if "variants" in fields:
            fields["variants"] = tuple(fields["variants"].split(","))
        return SweepConfig(**fields)
    except (ValueError, OSError) as exc:  # OSError: the code file cannot be opened
        parser.error(str(exc))


def main(argv=None) -> int:
    config = parse_cli(argv)
    try:
        if config.experiment == "ber":
            points = ber_sweep(config)
            for p in points:
                print(
                    f"snr={p.snr_db:g} dB  {p.variant.value:<18s} "
                    f"frames={p.frames:<5d} ber={p.ber:.3e} fer={p.fer:.3e}"
                )
        else:
            summary = mse_trace_experiment(config)
            for variant, (mean, *_) in summary.items():
                print(f"{variant.value:<18s} final mean MSE {mean[-1]:.3e}")
        print(f"wrote {config.output_path}")
        return 0
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted: the sweep stopped and no CSV was written", file=sys.stderr)
        return 130
