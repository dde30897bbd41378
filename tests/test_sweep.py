"""A multi-SNR BER sweep pinned byte for byte, one H build per seed, the
stop rule each experiment gives its frames, and the paper's trend in n.

``golden_sweep.csv`` is the ``--deterministic`` BER CSV of a three-SNR,
two-variant sweep whose points stop after different frame counts, one of them
only at the 24-seed cap, past any pool's window of in-flight seeds.  It must
be reproduced at any worker count, and each of its rows must equal the row of a
sweep of that SNR point alone.

Regenerate the file (only for an intended change of results) with

    PYTHONPATH=src python tests/test_sweep.py
"""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest

import scvamp.channel
import scvamp.experiment
from scvamp.experiment import SweepConfig, ber_sweep, mse_trace_experiment, wilson_interval

GOLDEN_PATH = Path(__file__).with_name("golden_sweep.csv")
PINNED = SweepConfig(
    snr_db_list=(4.0, 6.0, 8.0), code="builtin:r12-n128", h_mode="iid:96x128",
    nonlinearity="id", variants=("scvamp3", "llr-turbo"), min_errors=40, max_seeds=24,
    deterministic=True,
)


def _sweep_csv(config, path):
    ber_sweep(dataclasses.replace(config, output_path=str(path)))
    return path.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_pinned_sweep_csv(tmp_path, workers):
    csv = _sweep_csv(dataclasses.replace(PINNED, workers=workers), tmp_path / "sweep.csv")
    assert csv == GOLDEN_PATH.read_bytes()


def test_pinned_rows_equal_single_snr_sweeps(tmp_path):
    header, *rows = GOLDEN_PATH.read_text().splitlines()
    for i, snr_db in enumerate(PINNED.snr_db_list):
        single = dataclasses.replace(PINNED, snr_db_list=(snr_db,))
        lines = _sweep_csv(single, tmp_path / f"{i}.csv").decode().splitlines()
        assert lines == [header, *rows[2 * i:2 * i + 2]], snr_db


def _count_builds(monkeypatch):
    calls = {"build_scenario": 0, "precompute": 0}
    for module, name in ((scvamp.experiment, "build_scenario"), (scvamp.channel, "precompute")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_one_h_build_per_seed(monkeypatch):
    calls = _count_builds(monkeypatch)
    points = ber_sweep(SweepConfig(
        snr_db_list=(2.0, 4.0, 6.0), code="builtin:r12-n128", h_mode="iid:96x128",
        variants=("scvamp3", "llr-turbo"), outer_iters=3, bp_iters=3,
        min_errors=10**6, max_seeds=3,
    ))
    assert [p.frames for p in points] == [3] * 6
    assert calls == {"build_scenario": 3, "precompute": 3}


def test_mse_trace_builds_once_per_trial(monkeypatch):
    calls = _count_builds(monkeypatch)
    mse_trace_experiment(SweepConfig(
        snr_db_list=(6.0,), code="builtin:r12-n128", h_mode="iid:96x128",
        variants=("scvamp3", "no-onsager"), outer_iters=3, bp_iters=3, max_seeds=4,
        experiment="mse-trace",
    ))
    assert calls == {"build_scenario": 4, "precompute": 4}


def test_each_experiment_picks_its_stop_rule(monkeypatch):
    # a BER frame stops at convergence; an MSE trace needs every iteration's column
    seen = []
    original = scvamp.experiment.run_variant

    def recording(*args, **kwargs):
        seen.append(kwargs.get("early_stop"))
        return original(*args, **kwargs)

    monkeypatch.setattr(scvamp.experiment, "run_variant", recording)
    small = dict(snr_db_list=(6.0,), code="builtin:r12-n128", h_mode="iid:96x128",
                 variants=("scvamp3", "no-onsager"), outer_iters=3, bp_iters=3, max_seeds=2)
    ber_sweep(SweepConfig(**small))
    assert seen == [True] * 4
    seen.clear()
    mse_trace_experiment(SweepConfig(**small, experiment="mse-trace"))
    assert seen == [False] * 4
    seen.clear()
    # the entry point, not the config's experiment field, picks the rule
    ber_sweep(SweepConfig(**small, experiment="mse-trace"))
    assert seen == [True] * 4


def _pool_in_process(monkeypatch):
    """Route ``_iterate_seeds``' pool through an in-process stand-in; returns its sizes."""
    sizes = []

    class InProcessPool:
        """Stands in for a spawned pool: records its size and runs each task in this process."""

        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def apply_async(self, func, args):
            result = func(*args)
            return SimpleNamespace(get=lambda: result)

        def terminate(self):
            pass

    monkeypatch.setattr(scvamp.experiment, "_POOL_STATE", {})
    monkeypatch.setattr(scvamp.experiment.multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=InProcessPool))
    return sizes


def _dispatch(monkeypatch, workers):
    """Run ``_iterate_seeds`` on stub outcomes; pair_a's record says stop at seed 3.

    Returns the two pairs, the seeds ``record`` saw per pair, and the work
    dispatched per drawn seed.
    """
    config = SweepConfig(snr_db_list=(4.0, 6.0), code="builtin:r12-n128", h_mode="iid:96x128",
                         max_seeds=40, master_seed=100, workers=workers)
    pair_a, pair_b = config.pairs
    works = {}

    def stub(code, config, seed, work):
        works[seed] = list(work)
        return {pair: (seed, pair) for pair in work}

    monkeypatch.setattr(scvamp.experiment, "_seed_outcomes", stub)
    _pool_in_process(monkeypatch)
    recorded = {pair_a: [], pair_b: []}

    def record(seed, pair, result):
        assert result == (100 + seed, pair)
        recorded[pair].append(seed)
        return pair != pair_a or seed < 3

    scvamp.experiment._iterate_seeds(None, config, record)
    return (pair_a, pair_b), recorded, works


def test_dispatcher_records_each_active_pair_in_seed_order(monkeypatch):
    # the dispatcher alone keeps the active set: a pair whose record returns False is never
    # recorded again, and one worker leaves it out of every seed after that
    (pair_a, pair_b), recorded, works = _dispatch(monkeypatch, workers=1)
    assert recorded == {pair_a: [0, 1, 2, 3], pair_b: list(range(40))}
    assert sorted(works) == list(range(100, 140))
    assert all(works[100 + s] == [pair_a, pair_b] for s in range(4))
    assert all(works[100 + s] == [pair_b] for s in range(4, 40))


def test_pooled_dispatcher_keeps_one_seed_per_process_in_flight(monkeypatch):
    # two processes hold two seeds: pair_a stops when seed 3 is recorded, by which time
    # seed 4 is in flight, and it is in no seed dispatched after that
    monkeypatch.setattr(scvamp.experiment.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    (pair_a, pair_b), recorded, works = _dispatch(monkeypatch, workers=2)
    assert recorded == {pair_a: [0, 1, 2, 3], pair_b: list(range(40))}
    assert sorted(works) == list(range(100, 140))
    with_a = [seed for seed, work in works.items() if pair_a in work]
    assert with_a == list(range(100, max(with_a) + 1)) and max(with_a) <= 104
    assert all(pair_b in work for work in works.values())


def test_serial_sweep_decodes_only_recorded_frames(monkeypatch):
    calls = []
    original = scvamp.experiment.run_variant

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(scvamp.experiment, "run_variant", counted)
    points = ber_sweep(dataclasses.replace(PINNED, snr_db_list=(4.0, 6.0)))
    assert sorted(p.frames for p in points) == [2, 4, 4, 13]  # every point stops before the cap
    assert len(calls) == sum(p.frames for p in points)


# the pool is as large as the window of seeds in flight: workers, capped by the
# seed count and the CPUs this process may run on (not the host's count), and a
# window of one runs in this process
@pytest.mark.parametrize("workers, max_seeds, cpus, sizes", [
    pytest.param(64, 24, 4, [4], id="64-4"),
    pytest.param(3, 24, 8, [3], id="3-3"),
    pytest.param(8, 3, 8, [3], id="8-3-max_seeds3"),
    pytest.param(2, 1, 8, [], id="2-1-no-pool"),
])
def test_pool_is_no_larger_than_a_dispatch_block(
        monkeypatch, tmp_path, workers, max_seeds, cpus, sizes):
    monkeypatch.setattr(scvamp.experiment.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(scvamp.experiment.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    created = _pool_in_process(monkeypatch)
    config = dataclasses.replace(PINNED, snr_db_list=(8.0,), workers=workers, max_seeds=max_seeds)
    csv = _sweep_csv(config, tmp_path / "pooled.csv")
    assert created == sizes
    assert csv == _sweep_csv(dataclasses.replace(config, workers=1), tmp_path / "serial.csv")


def _frame_error_interval(n):
    config = SweepConfig(snr_db_list=(8.0,), code=f"builtin:r12-n{n}", h_mode="blockdiag:32",
                         nonlinearity="tanh", min_errors=10**9, max_seeds=32)
    (point,) = ber_sweep(config)
    return wilson_interval(point.frame_errors, point.frames)


def test_longer_code_fails_fewer_frames_at_the_same_snr():
    # the paper's headline at desk scale: on blockdiag:32/tanh at 8 dB, n2304's
    # FER interval lies wholly below n128's; frames are the trials because the
    # bit errors of one frame are not independent
    lo128, _ = _frame_error_interval(128)
    _, hi2304 = _frame_error_interval(2304)
    assert hi2304 < lo128


if __name__ == "__main__":
    ber_sweep(dataclasses.replace(PINNED, output_path=str(GOLDEN_PATH)))
