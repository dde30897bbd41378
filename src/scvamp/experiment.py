"""Monte Carlo BER sweeps and MSE-convergence traces with CSV output.

This module schedules trials, and ``scvamp.channel`` draws each one.  A trial
is indexed by (snr, seed), and its H depends on the seed alone, so every
variant at every SNR point of one seed uses the same H: it is drawn and
decomposed once per seed.  Seeds count ``master_seed, master_seed+1, ...``
per SNR point.  Both experiments run one seed loop, :func:`_iterate_seeds`: it
passes each ``(snr, variant)`` pair's ``DecodeResult`` to the experiment's
``record(seed, pair, result)`` in seed order, and ``record`` says whether the
pair keeps drawing seeds.  A BER point stops at ``min_errors`` errors or
``max_seeds`` seeds; an MSE trace records ``max_seeds`` seeds at one SNR.
Each seed runs the pairs still drawing when it is dispatched, and at most one
seed per worker process is in flight, so a pair decodes at most one frame per
extra process past its stopping seed; the output is byte-identical at any
worker count.

CSV schemas (one header line, optional '#' metadata comments above it):

    ber mode:       snr_db,variant,code,n,k,h_mode,nonlinearity,frames,bits,
                    bit_errors,frame_errors,diverged,ber,fer,seed_base
    mse-trace mode: iteration,variant,mean_mse,median_mse,trials,diverged
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import time
import warnings
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby, islice
from operator import itemgetter

import numpy as np

from .channel import build_scenario, fit_h_mode, realize
from .codes import load_code
from .likelihood import ChannelSpec
from .runner import Variant, run_variant

_Z = 1.96  # two-sided 95% normal quantile of wilson_interval


@dataclass(frozen=True)
class SweepConfig:
    snr_db_list: tuple
    code: str  # "builtin:<id>" or a path to an alist file
    h_mode: str  # "iid:MxN" or "blockdiag:B"
    variants: tuple = (Variant.SCVAMP3,)
    nonlinearity: str = "id"
    outer_iters: int = 20
    bp_iters: int = 20
    min_errors: int = 500
    max_seeds: int = 2000  # seed cap of a BER point; an MSE trace runs exactly this many
    master_seed: int = 0
    output_path: str | None = None
    workers: int = 1
    error_unit: str = "bit"
    experiment: str = "ber"  # "ber" or "mse-trace"
    deterministic: bool = False

    def __post_init__(self):
        if not self.snr_db_list:
            raise ValueError("snr_db_list must not be empty")
        for name in ("min_errors", "max_seeds", "outer_iters", "bp_iters", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.error_unit not in ("bit", "frame"):
            raise ValueError(f"error_unit must be 'bit' or 'frame', got {self.error_unit!r}")
        if self.experiment not in ("ber", "mse-trace"):
            raise ValueError(f"experiment must be 'ber' or 'mse-trace', got {self.experiment!r}")
        if self.experiment == "mse-trace" and len(self.snr_db_list) != 1:
            raise ValueError("mse trace runs at exactly one SNR")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.output_path is not None:  # fail now, not after the last frame
            if not self.output_path:
                raise ValueError("output path must not be empty")
            if os.path.isdir(self.output_path):
                raise ValueError(f"output path {self.output_path!r} is a directory")
            # not abspath, which drops the trailing separator of "missing/"
            if not os.path.isdir(os.path.dirname(self.output_path) or os.curdir):
                raise ValueError(f"the directory of {self.output_path!r} does not exist")
        # the whole code is parsed now, and the run's own load_code is a cache hit
        code, label = load_code(self.code)
        if not label.isascii() or set(label) & set(",\r\n"):
            raise ValueError(f"CSV code label {label!r} must be ASCII with no comma or line break")
        fit_h_mode(self.h_mode, code.n)
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        # two points must differ as numbers (0 and -0 do not) and as CSV labels (6 and 6.000001)
        snrs = self.snr_db_list
        if min(len(set(snrs)), len({f"{s:g}" for s in snrs})) != len(snrs):
            raise ValueError("SNR points must not repeat, as numbers or as CSV labels")
        object.__setattr__(
            self, "variants", tuple(Variant(v) for v in self.variants)
        )
        if not self.variants:
            raise ValueError("variants must not be empty")
        if len(set(self.variants)) != len(self.variants):
            raise ValueError("variants must not repeat")
        # fail now, not after the first H build, on a bad SNR or nonlinearity
        for snr_db in self.snr_db_list:
            ChannelSpec.from_snr_db(snr_db, self.nonlinearity)

    @property
    def pairs(self):
        """The ``(snr, variant)`` pairs, SNR-major: the order of the BER CSV rows."""
        return tuple((snr_db, v) for snr_db in self.snr_db_list for v in self.variants)


@dataclass
class BerPoint:
    snr_db: float
    variant: Variant
    bit_errors: int = 0
    bits_simulated: int = 0
    frame_errors: int = 0
    frames: int = 0
    diverged_frames: int = 0

    @property
    def ber(self):
        return self.bit_errors / self.bits_simulated if self.bits_simulated else 0.0

    @property
    def fer(self):
        return self.frame_errors / self.frames if self.frames else 0.0


# -- worker plumbing ---------------------------------------------------------

# code and config reach each worker once, at start-up, not pickled into every task
_POOL_STATE: dict = {}


def _pool_init(code, config):
    # Ctrl-C reaches the whole process group; only the parent handles it, and
    # its pool.terminate() ends the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _POOL_STATE["code"] = code
    _POOL_STATE["config"] = config


def _seed_outcomes(code, config, seed, work):
    """``run_variant``'s ``DecodeResult`` per ``(snr, variant)`` pair of ``work`` for one seed.

    ``work`` lists the pairs grouped by SNR.  H is drawn and decomposed once,
    at the first SNR; every SNR point swaps only the channel spec.  A BER
    frame stops once its decisions are stable with a zero syndrome, which
    fixes its bit errors; an MSE trace runs every iteration.
    """
    scenario = build_scenario(code, config.h_mode, work[0][0], config.nonlinearity, seed)
    out = {}
    for snr_db, at_snr in groupby(work, key=itemgetter(0)):
        scenario = replace(scenario, spec=ChannelSpec.from_snr_db(snr_db, config.nonlinearity))
        truth = realize(scenario)
        for _, variant in at_snr:
            out[snr_db, variant] = run_variant(
                variant, truth, scenario, config.outer_iters, config.bp_iters,
                early_stop=config.experiment == "ber",
            )
    return out


def _pool_task(args):
    seed, work = args
    return _seed_outcomes(_POOL_STATE["code"], _POOL_STATE["config"], seed, work)


def _iterate_seeds(code, config, record):
    """Run the seed loop; ``record(seed, pair, result) -> keeps_drawing`` sees every frame.

    This is the only place that knows which ``(snr, variant)`` pairs are still
    drawing seeds.  Seeds ``0 .. max_seeds - 1`` (offset by ``master_seed``
    for the draws) are dispatched in order, each with the pairs active at that
    moment, and at most ``min(workers, max_seeds, CPUs)`` of them are in
    flight.  CPUs counts the CPUs this process may run on, its affinity mask
    where the platform has one: under a cpuset or ``taskset`` the host's
    ``os.cpu_count()`` would overcount.  ``record`` is called once per active
    pair and seed, strictly in seed order, with ``run_variant``'s result; a
    pair for which it returns False is never recorded again, and dispatching
    stops once no pair is active.  With a window of one, each seed runs in
    this process when it is recorded, so no frame is decoded that is not
    recorded; a larger window runs on a spawned pool of that many processes
    that lives for this call.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    size = min(config.workers, config.max_seeds, cpus)
    pool = multiprocessing.get_context("spawn").Pool(
        size, initializer=_pool_init, initargs=(code, config)
    ) if size > 1 else None
    try:
        active, seeds, in_flight = config.pairs, iter(range(config.max_seeds)), deque()
        while active:
            for seed in islice(seeds, size - len(in_flight)):
                task = (config.master_seed + seed, active)
                # a pool starts the seed now; without one it runs when it is popped
                in_flight.append((seed, pool.apply_async(_pool_task, (task,)).get if pool
                                  else partial(_seed_outcomes, code, config, *task)))
            if not in_flight:
                break
            seed, pending = in_flight.popleft()
            outcomes = pending()
            active = [pair for pair in active if record(seed, pair, outcomes[pair])]
    finally:
        if pool is not None:
            # every recorded task has returned by now, but a later one, or a worker that
            # died mid-task on Ctrl-C, would make close() + join() wait
            pool.terminate()


def ber_sweep(config: SweepConfig):
    """Adaptive-seeding BER sweep; returns BerPoints and writes the CSV if asked."""
    config = replace(config, experiment="ber")  # a BER frame stops at convergence
    code, code_label = load_code(config.code)
    tallies = {pair: BerPoint(*pair) for pair in config.pairs}

    def record(seed, pair, result):
        tally = tallies[pair]
        tally.frames += 1
        tally.bits_simulated += code.n
        tally.bit_errors += result.bit_errors
        tally.frame_errors += int(result.bit_errors > 0)
        tally.diverged_frames += int(result.diverged)
        errors = tally.bit_errors if config.error_unit == "bit" else tally.frame_errors
        return errors < config.min_errors

    _iterate_seeds(code, config, record)
    points = list(tallies.values())
    if config.output_path:
        _write_csv(config, (
            "snr_db,variant,code,n,k,h_mode,nonlinearity,frames,bits,bit_errors,"
            "frame_errors,diverged,ber,fer,seed_base"
        ), (
            f"{p.snr_db:g},{p.variant.value},{code_label},{code.n},{code.k},"
            f"{config.h_mode},{config.nonlinearity},{p.frames},{p.bits_simulated},"
            f"{p.bit_errors},{p.frame_errors},{p.diverged_frames},"
            f"{p.ber:.6e},{p.fer:.6e},{config.master_seed}"
            for p in points
        ))
    return points


def mse_trace_experiment(config: SweepConfig):
    """Per-iteration mean/median MSE across ``max_seeds`` trials at one SNR.

    Iteration 0 is the initialization (zero estimate), whose MSE is exactly 1
    for BPSK.  Every trial runs all ``outer_iters`` iterations unless it
    diverges, even past convergence; a diverged trial is left out of the
    iterations it did not reach.  Returns {variant: (mean_per_iter,
    median_per_iter, diverged_per_iter)} and writes the CSV if an output path
    is configured.
    """
    config = replace(config, experiment="mse-trace")  # re-validates the mse-trace rules
    code, _ = load_code(config.code)
    per_variant = {
        v: np.full((config.max_seeds, config.outer_iters + 1), np.nan) for v in config.variants
    }

    def record(seed, pair, result):
        # the init MSE is exactly 1; iterations a diverged trace did not reach stay nan
        mse = result.trace.mse
        row = per_variant[pair[1]][seed]
        row[0] = 1.0
        row[1:1 + mse.shape[0]] = mse
        return True

    _iterate_seeds(code, config, record)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a column no trial reached is nan
        summary = {
            v: (np.nanmean(arr, axis=0), np.nanmedian(arr, axis=0), np.isnan(arr).sum(axis=0))
            for v, arr in per_variant.items()
        }
    if config.output_path:
        _write_csv(config, "iteration,variant,mean_mse,median_mse,trials,diverged", (
            f"{it},{v.value},{mean[it]:.10e},{median[it]:.10e},{config.max_seeds},{diverged[it]}"
            for v, (mean, median, diverged) in summary.items()
            for it in range(mean.shape[0])
        ))
    return summary


# -- CSV emission ------------------------------------------------------------

def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:  # a failed write leaves neither the CSV nor its partial file
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_csv(config, header, rows):
    """Write the header and rows, under a timestamp comment unless ``deterministic``."""
    stamp = [] if config.deterministic else [f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    _atomic_write(config.output_path, "\n".join([*stamp, header, *rows]) + "\n")


def wilson_interval(errors, trials):
    """95% Wilson score interval for a binomial rate; (0, 1) bounds on no data."""
    if trials <= 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1.0 + _Z * _Z / trials
    center = (p + _Z * _Z / (2 * trials)) / denom
    half = _Z * np.sqrt(p * (1.0 - p) / trials + _Z * _Z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
