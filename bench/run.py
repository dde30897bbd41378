"""scvamp benchmark: one workload per process, measured end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|small]

``--trace 0`` prints the end-to-end metrics.  It times ``--setup-probe``
child processes for ``setup_s``, then runs passes of the workload (one call
of ``ber_sweep``, see ``workloads.py``) until the next pass would end past
``--seconds``, and reports medians over passes.

``--trace 1`` prints the per-layer metrics.  It runs the reference inputs in
pairs of passes, one untraced and one with every layer wrapped from outside
(``tracer.py``), until the next pair would end past ``--seconds``.  Counts
repeat exactly from pair to pair, times are medians over pairs, and
``trace.overhead_frac`` compares the two passes of a pair, which do equal work.

Every pass is checked: the CSV against the schema in the ``experiment``
docstring and its own arithmetic, frame counts against the stopping rule,
and the reference pass against ``reference.json``.  Differences from the
reference are counted as ``experiment.outcome_mismatches``, not treated as
failures.  The last line of stdout is the JSON result; the lines before it
record the environment, each pass and each check.  Spans, CSVs and results
are written under ``.bench-out/`` at the repository root.

``--record-reference`` rewrites ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import OutcomeRecorder, TraceError, Tracer, patched
from workloads import LAYERS, REFERENCE_MASTER_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
REFERENCE_PATH = HERE / "reference.json"
SETUP_PROBES = 5


def import_package():
    """Import scvamp from this checkout's ``src``; any other copy is refused."""
    sys.path.insert(0, str(SRC))
    try:
        import scvamp.experiment
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import scvamp from {SRC}: {exc}")
    if Path(scvamp.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: imported scvamp from {scvamp.__file__}, not from {SRC}")
    return scvamp.experiment


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def pass_master_seed(seed, index):
    """Pass 0 runs the reference inputs; pass i > 0 gets disjoint seeds from ``seed``."""
    if index == 0:
        return REFERENCE_MASTER_SEED
    return 10**6 * (seed + 1) + 1000 * index


# -- environment -------------------------------------------------------------

def _blas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, or None if there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy, so this only finds it
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "scvamp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "reference_master_seed": REFERENCE_MASTER_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- one pass ----------------------------------------------------------------

@dataclass
class PassResult:
    master_seed: int
    wall_s: float
    useful: int
    decoded: int
    failed: int
    problems: list
    outcomes: dict  # "snr|variant" -> CSV row(s)
    frames: list  # recorder entries of the useful frames


def csv_schema(experiment_module):
    """The BER column list the ``experiment`` docstring documents."""
    text = experiment_module.__doc__.split("ber mode:", 1)[1].split("mse-trace mode:", 1)[0]
    return "".join(text.split())


def read_csv(path):
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return lines[0], lines[1:]


def check_ber(config, code, code_label, header, rows, frames, schema):
    problems = []
    if header != schema:
        problems.append(f"ber header {header!r} differs from documented {schema!r}")
    names = schema.split(",")
    expected_keys = [(snr, v.value) for snr in config.snr_db_list for v in config.variants]
    if len(rows) != len(expected_keys):
        return problems + [f"{len(rows)} ber rows, expected {len(expected_keys)}"], {}, [], 0
    useful, outcomes, failed = [], {}, 0
    for line, (snr, variant) in zip(rows, expected_keys):
        row = dict(zip(names, line.split(",")))
        key = f"{snr:g}|{variant}"
        outcomes[key] = line
        expect = {"snr_db": f"{snr:g}", "variant": variant, "code": code_label,
                  "n": str(code.n), "k": str(code.k), "h_mode": config.h_mode,
                  "nonlinearity": config.nonlinearity, "seed_base": str(config.master_seed)}
        for col, value in expect.items():
            if row.get(col) != value:
                problems.append(f"{key}: {col}={row.get(col)!r}, expected {value!r}")
        n_frames, bits, bit_err, frame_err, diverged = (
            int(row[c]) for c in ("frames", "bits", "bit_errors", "frame_errors", "diverged"))
        if bits != n_frames * code.n:
            problems.append(f"{key}: bits={bits} != frames*n={n_frames * code.n}")
        if bits and row["ber"] != f"{bit_err / bits:.6e}":
            problems.append(f"{key}: ber={row['ber']} != bit_errors/bits")
        if n_frames and row["fer"] != f"{frame_err / n_frames:.6e}":
            problems.append(f"{key}: fer={row['fer']} != frame_errors/frames")
        mine = sorted((f for f in frames if f[0] == variant and f[1] == round(snr, 6)
                       and f[2] - config.master_seed < n_frames), key=lambda f: f[2])
        if [f[2] - config.master_seed for f in mine] != list(range(n_frames)) \
                or sum(f[3] for f in mine) != bit_err or sum(f[6] for f in mine) != diverged:
            problems.append(f"{key}: CSV tallies differ from the decoded frames")
        # stopping rule: frames count in seed order up to the one that reaches
        # min_errors, or up to the seed cap; a frame past either must not count
        stopped_early = n_frames < config.max_seeds and bit_err < config.min_errors
        overshot = sum(f[3] for f in mine[:-1]) >= config.min_errors
        if not 1 <= n_frames <= config.max_seeds or stopped_early or overshot:
            problems.append(f"{key}: frames={n_frames} breaks the stopping rule "
                            f"(max_seeds={config.max_seeds}, min_errors={config.min_errors})")
        useful.extend(mine)
        failed += diverged
    return problems, outcomes, useful, failed


def run_pass(experiment_module, name, params, code, master_seed, recorder, tracer=None):
    """One experiment call, timed, then checked; ``code`` is what ``load_code`` returned."""
    config = experiment_module.SweepConfig(
        **params, master_seed=master_seed, workers=1, deterministic=True,
        output_path=str(OUT / f"{name}.csv"),
    )
    first = len(recorder.frames)
    start = time.perf_counter()
    if tracer is None:
        experiment_module.ber_sweep(config)
    else:
        tracer.span("experiment", lambda: experiment_module.ber_sweep(config))
    wall = time.perf_counter() - start
    frames = recorder.frames[first:]
    header, rows = read_csv(config.output_path)
    problems, outcomes, useful, failed = check_ber(config, *code, header, rows, frames,
                                                   csv_schema(experiment_module))
    return PassResult(master_seed, wall, len(useful), len(frames), failed, problems,
                      outcomes, useful)


def reference_mismatches(name, size, result):
    """Number of (snr, variant) outcomes that differ from the recorded reference."""
    recorded = json.loads(REFERENCE_PATH.read_text())["workloads"][name][size]
    keys = set(recorded) | set(result.outcomes)
    return sum(recorded.get(k) != result.outcomes.get(k) for k in keys)


def quality(frames):
    """Pooled BER and mean final-iteration MSE of the scvamp3 frames."""
    mine = [f for f in frames if f[0] == "scvamp3"]
    bits = sum(f[4] for f in mine)
    ber = sum(f[3] for f in mine) / bits if bits else 0.0
    mse = statistics.fmean(f[5] for f in mine) if mine else 0.0
    return ber, mse


# -- modes -------------------------------------------------------------------

def measure_setup(args):
    """Median seconds from spawning a fresh process until its first frame is decoded."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"setup probe failed with status {status}: {line!r}")
        times.append(ready - start)
    return statistics.median(times), times


def setup_probe(args):
    """Import, validate the config, load the code and decode the workload's first frame.

    The frame is the first variant at the first SNR on the first seed, so
    every lazy first-call cost (BLAS start-up, cached quadrature rules) lands
    in ``setup_s`` rather than in the sweep.
    """
    experiment_module = import_package()
    params = WORKLOADS[args.workload].params(args.size)
    config = experiment_module.SweepConfig(
        **{**params, "snr_db_list": params["snr_db_list"][:1],
           "variants": params["variants"][:1], "max_seeds": 1},
        workers=1,
    )
    experiment_module.ber_sweep(config)
    print("ready", flush=True)


def describe(label, result):
    rate = result.useful / result.wall_s if result.wall_s else 0.0
    print(f"{label} master_seed={result.master_seed} wall_s={result.wall_s:.4f} "
          f"useful={result.useful} decoded={result.decoded} failed={result.failed} "
          f"frames_per_s={rate:.4f}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")


def run_untraced(args, experiment_module, params, code):
    setup_s, setup_samples = measure_setup(args)
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_samples)}")
    recorder = OutcomeRecorder()
    passes, error, mismatches = [], None, None
    began = time.perf_counter()
    try:
        with patched(recorder.replacements()):
            while True:
                seed = pass_master_seed(args.seed, len(passes))
                result = run_pass(experiment_module, args.workload, params, code, seed, recorder)
                describe(f"pass {len(passes)}", result)
                if not passes:
                    mismatches = reference_mismatches(args.workload, args.size, result)
                passes.append(result)
                typical = statistics.median(p.wall_s for p in passes)
                if time.perf_counter() - began + typical > args.seconds:
                    break
    except TraceError:
        raise
    except Exception:  # the result must still be printed, marked incorrect
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    print(f"experiment.outcome_mismatches={mismatches}")
    ber, mse = quality(passes[0].frames) if passes else (0.0, 0.0)
    metrics = {
        "setup_s": setup_s,
        "frames_per_s": statistics.median(p.useful / p.wall_s for p in passes) if passes else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ber": ber,
        "mse_final": mse,
    }
    return passes, error, metrics


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(tracer, traced, untraced, mismatches):
    """Per-layer metrics of one traced pass; ``untraced`` ran the same inputs."""
    s = tracer.summary()
    # attributed time is the self time of every stage below the root
    # "experiment" span; the residual is the traced wall time no stage covers:
    # the experiment layer's own orchestration plus what lies outside its span
    trace_wall = traced.wall_s
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [0.0], "self_durations": [0.0]}
    span = {name: s.get(name, empty) for name in
            ("experiment", "codes.load", "channel.build", "coupling.precompute",
             "channel.realize", "runner", "coupling", "likelihood", "denoiser")}
    counts = tracer.counts
    ms = 1e3
    attributed = sum(rec["self_s"] for name, rec in s.items() if name != "experiment")
    frames = span["runner"]["calls"]
    return {
        "experiment.frames_decoded": frames,
        "experiment.frames_useful": traced.useful,
        "experiment.useful_ratio": traced.useful / frames if frames else 0.0,
        "experiment.self_s": span["experiment"]["self_s"],
        "experiment.outcome_mismatches": mismatches,
        "experiment.failed_frac": traced.failed / traced.useful if traced.useful else 0.0,
        "channel.build_calls": span["channel.build"]["calls"],
        "channel.build_s": span["channel.build"]["self_s"],
        "channel.build_ms_p50": ms * statistics.median(span["channel.build"]["self_durations"]),
        "channel.realize_s": span["channel.realize"]["s"],
        "coupling.precompute_s": span["coupling.precompute"]["s"],
        "coupling.precompute_ms_p50":
            ms * statistics.median(span["coupling.precompute"]["durations"]),
        "coupling.calls": span["coupling"]["calls"],
        "coupling.s": span["coupling"]["s"],
        "coupling.ms_p50": ms * statistics.median(span["coupling"]["durations"]),
        "likelihood.calls": span["likelihood"]["calls"],
        "likelihood.components": counts["likelihood.components"],
        "likelihood.s": span["likelihood"]["s"],
        "likelihood.us_per_component":
            1e6 * span["likelihood"]["s"] / max(counts["likelihood.components"], 1),
        "likelihood.fallbacks": counts["likelihood.fallbacks"],
        "denoiser.calls": span["denoiser"]["calls"],
        "denoiser.edge_updates": counts["denoiser.edge_updates"],
        "denoiser.s": span["denoiser"]["s"],
        "denoiser.ns_per_edge_update":
            1e9 * span["denoiser"]["s"] / max(counts["denoiser.edge_updates"], 1),
        "runner.frames": frames,
        "runner.outer_iters": counts["runner.outer_iters"],
        "runner.diverged": counts["runner.diverged"],
        "runner.frame_ms_p50": ms * statistics.median(span["runner"]["durations"]),
        "runner.frame_ms_p90": ms * p90(span["runner"]["durations"]),
        "runner.self_s": span["runner"]["self_s"],
        "codes.load_s": span["codes.load"]["s"],
        "trace.wall_s": trace_wall,
        "trace.attributed_s": attributed,
        "trace.residual_s": trace_wall - attributed,
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }


def print_attribution(metrics):
    wall = metrics["trace.wall_s"]
    rows = [
        ("codes", metrics["codes.load_s"]),
        ("channel", metrics["channel.build_s"] + metrics["channel.realize_s"]),
        ("coupling", metrics["coupling.precompute_s"] + metrics["coupling.s"]),
        ("likelihood", metrics["likelihood.s"]),
        ("denoiser", metrics["denoiser.s"]),
        ("runner", metrics["runner.self_s"]),
        ("attributed", metrics["trace.attributed_s"]),
        ("unattributed", metrics["trace.residual_s"]),
    ]
    print(f"attribution of traced wall time {wall:.4f} s (self time per layer; the "
          f"unattributed part includes experiment.self_s {metrics['experiment.self_s']:.4f} s):")
    for layer, seconds in rows:
        print(f"  {layer:<12s} {seconds:10.4f} s  {100.0 * seconds / wall:6.2f}%")


def run_traced(args, experiment_module, params, code):
    """Untraced and traced passes on the reference inputs, in pairs, until time is up."""
    passes, per_pair, error = [], [], None
    began = time.perf_counter()
    try:
        while True:
            recorder, tracer = OutcomeRecorder(), Tracer()
            # alternate which side runs first, so a slow first pass in the
            # process does not bias trace.overhead_frac one way
            for traced_side in (False, True) if len(per_pair) % 2 == 0 else (True, False):
                probe = tracer if traced_side else recorder
                with patched(probe.replacements()):
                    result = run_pass(experiment_module, args.workload, params, code,
                                      REFERENCE_MASTER_SEED, probe, tracer if traced_side else None)
                if traced_side:
                    traced = result
                else:
                    untraced = result
            tracer.check_layers(LAYERS, args.workload)
            describe(f"pair {len(per_pair)} untraced", untraced)
            describe(f"pair {len(per_pair)} traced", traced)
            if traced.outcomes != untraced.outcomes:
                traced.problems.append("traced outcomes differ from the untraced pass")
            mismatches = max(reference_mismatches(args.workload, args.size, p)
                             for p in (untraced, traced))
            per_pair.append(layer_metrics(tracer, traced, untraced, mismatches))
            passes += [untraced, traced]
            if len(per_pair) == 1:
                write_spans(args.workload, tracer)
            typical = statistics.median(p.wall_s for p in passes) * 2
            if time.perf_counter() - began + typical > args.seconds:
                break
    except TraceError:
        raise
    except Exception:  # the result must still be printed, marked incorrect
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    if not per_pair:
        return passes, error or "no traced pass completed", {}
    metrics = {}
    for name in per_pair[0]:
        values = [m[name] for m in per_pair]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_pair]
    if any(c != counts[0] for c in counts):
        passes[-1].problems.append("layer counts differ between traced passes on equal inputs")
    print_attribution(metrics)
    return passes, error, metrics


def write_spans(name, tracer):
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(OUT / f"{name}.spans.jsonl", "w") as fh:
        for span_name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": span_name, "start": start - origin,
                                 "end": end - origin, "parent": parent}) + "\n")


def record_reference(args):
    experiment_module = import_package()
    OUT.mkdir(exist_ok=True)
    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for size in ("full", "small"):
            params = workload.params(size)
            code = experiment_module.load_code(params["code"])
            recorder = OutcomeRecorder()
            with patched(recorder.replacements()):
                result = run_pass(experiment_module, name, params, code,
                                  REFERENCE_MASTER_SEED, recorder)
            if result.problems:
                raise SystemExit(f"{name}/{size}: {result.problems}")
            table[name][size] = result.outcomes
            print(f"recorded {name} {size} in {result.wall_s:.2f} s", flush=True)
    payload = {"recorded_from": _git_commit(), "src_sha256": _source_digest(),
               "workloads": table}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        return args
    if args.workload is None:
        parser.error("--workload is required")
    if not args.setup_probe:
        if args.seed is None or args.seconds is None or args.trace is None:
            parser.error("--seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.record_reference:
        record_reference(args)
        return 0
    if args.setup_probe:
        setup_probe(args)
        return 0
    experiment_module = import_package()
    e2e_units, layer_units = metric_units()
    params = WORKLOADS[args.workload].params(args.size)
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    code = experiment_module.load_code(params["code"])

    mode = run_traced if args.trace else run_untraced
    passes, error, values = mode(args, experiment_module, params, code)
    units = layer_units if args.trace else e2e_units
    if error is not None:
        values = {name: values.get(name, 0.0) for name in units}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not the ones "
                           f"BENCHMARK.json lists")
    attempted = max(sum(p.useful for p in passes), 1)
    correct = error is None and bool(passes) and not any(p.problems for p in passes)
    failed = sum(p.failed for p in passes) if correct else attempted
    print(f"failed_frac={failed / attempted:.6g} ({failed} of {attempted} useful frames)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    suffix = f"trace{args.trace}" + ("" if args.size == "full" else f"-{args.size}")
    (OUT / f"{args.workload}-{suffix}.json").write_text(
        json.dumps({"environment": env, "result": result}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
