"""The benchmark's own test: reduced-size runs repeat every count exactly.

    python3 -m pytest bench/test_bench.py

Each workload runs at ``--size small`` with one seed, traced twice and
untraced once, each in a fresh process like any benchmark run.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from report import load_spec, run_workload  # noqa: E402
from run import check_ber, csv_schema  # noqa: E402
from tracer import TraceError, Tracer, patched  # noqa: E402

SPEC = load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
FIXED_WORK = {"ber-n2304-iid-under-id"}


def small(workload, trace):
    return run_workload(workload, trace, seed=3, seconds=1, size="small")


def assert_named_with_units(result, group):
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = small(workload, 1), small(workload, 1)
    for result in (first, second):
        assert result["correct"]
        assert_named_with_units(result, "per_layer")
    counts = [{n: r["metrics"][n]["value"] for n in COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["experiment.outcome_mismatches"] == 0
    for layer_calls in ("channel.build_calls", "coupling.calls", "likelihood.calls",
                        "denoiser.calls", "runner.frames", "runner.outer_iters",
                        "likelihood.components", "denoiser.edge_updates"):
        assert counts[0][layer_calls] > 0
    ratio = first["metrics"]["experiment.useful_ratio"]["value"]
    assert (ratio == 1.0) if workload in FIXED_WORK else (ratio < 1.0)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_prints_every_end_to_end_metric(workload):
    result = small(workload, 0)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert_named_with_units(result, "end_to_end")
    for timed in ("frames_per_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][timed]["value"] > 0


def test_missing_traced_name_fails_loudly():
    import scvamp.experiment

    with pytest.raises(TraceError, match="no_such_layer"):
        with patched([("scvamp.experiment", "no_such_layer", lambda f: f)]):
            pass
    assert not hasattr(scvamp.experiment, "no_such_layer")


def test_silent_layer_fails_loudly():
    tracer = Tracer()
    tracer.span("coupling", lambda: None)
    tracer.check_layers(("coupling",), "w")
    with pytest.raises(TraceError, match="denoiser"):
        tracer.check_layers(("coupling", "denoiser"), "w")


def test_fails_without_the_package():
    bare = ROOT / ".bench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_stopping_rule_rejects_frames_past_min_errors():
    import scvamp.experiment as experiment

    config = experiment.SweepConfig(snr_db_list=(6.0,), code="builtin:r12-n256",
                                    h_mode="blockdiag:32", variants=("scvamp3",),
                                    nonlinearity="tanh", min_errors=10, max_seeds=4)
    code = SimpleNamespace(n=256, k=128)
    schema = csv_schema(experiment)
    # seed 0 alone reaches min_errors; the other seeds are error-free
    frames = [("scvamp3", 6.0, seed, 30 if seed == 0 else 0, 256, 0.1, False)
              for seed in range(4)]

    def row(n_frames):
        bits = 256 * n_frames
        return (f"6,scvamp3,r12-n256,256,128,blockdiag:32,tanh,{n_frames},{bits},30,1,0,"
                f"{30 / bits:.6e},{1 / n_frames:.6e},0")

    stopped = check_ber(config, code, "r12-n256", schema, [row(1)], frames, schema)
    assert stopped[0] == [] and len(stopped[2]) == 1
    overshot = check_ber(config, code, "r12-n256", schema, [row(4)], frames, schema)
    assert any("stopping rule" in problem for problem in overshot[0])
