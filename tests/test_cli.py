import contextlib
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scvamp.channel import fit_h_mode
from scvamp.cli import build_parser, main, parse_cli
from scvamp.codes import builtin_code_ids, load_code, make_regular_code, serialize_alist
from scvamp.experiment import (
    SweepConfig,
    _atomic_write,
    ber_sweep,
    mse_trace_experiment,
    wilson_interval,
)
from scvamp.likelihood import NONLINEARITIES
from scvamp.runner import DecodeResult, IterationTrace, Variant


@pytest.fixture(scope="module")
def small_code_path(tmp_path_factory):
    code = make_regular_code(48, seed=2)
    path = tmp_path_factory.mktemp("codes") / "n48.alist"
    path.write_text(serialize_alist(code))
    return str(path)


def _base_args(code_path, out):
    return [
        "--snr-db", "6", "--code", code_path, "--h", "iid:48x48",
        "--out", str(out), "--deterministic",
    ]


def test_parse_snr_range(small_code_path, tmp_path):
    cfg = parse_cli(["--snr-db", "4:8:0.5", "--code", small_code_path,
                     "--h", "iid:48x48", "--out", str(tmp_path / "o.csv")])
    assert len(cfg.snr_db_list) == 9
    assert cfg.snr_db_list[0] == 4.0 and cfg.snr_db_list[-1] == 8.0
    # after a space, argparse reads "-3:0:1" as a flag, so a range below 0 takes the "=" form
    cfg = parse_cli(["--snr-db=-3:0:1", "--code", small_code_path,
                     "--h", "iid:48x48", "--out", str(tmp_path / "o.csv")])
    assert cfg.snr_db_list == (-3.0, -2.0, -1.0, 0.0)


# (b - a) / step rounds up past b at 0.35, and to even at 0.4: neither adds a point beyond b
@pytest.mark.parametrize("text, points", [
    ("0:1:0.35", (0.0, 0.35, 0.7)),
    ("0:1:0.4", (0.0, 0.4, 0.8)),
])
def test_parse_snr_range_stops_at_its_end(small_code_path, tmp_path, text, points):
    cfg = parse_cli(["--snr-db", text, "--code", small_code_path,
                     "--h", "iid:48x48", "--out", str(tmp_path / "o.csv")])
    assert cfg.snr_db_list == points


def test_parse_snr_list_and_variants(small_code_path, tmp_path):
    cfg = parse_cli(["--snr-db", "3,4,5", "--variant", "scvamp3,no-onsager",
                     "--code", small_code_path, "--h", "iid:48x48",
                     "--out", str(tmp_path / "o.csv")])
    assert cfg.snr_db_list == (3.0, 4.0, 5.0)
    assert cfg.variants == (Variant.SCVAMP3, Variant.NO_ONSAGER)


def test_parse_defaults_are_paper_scale(small_code_path, tmp_path):
    cfg = parse_cli(["--snr-db", "6", "--code", small_code_path,
                     "--h", "iid:48x48", "--out", str(tmp_path / "o.csv")])
    assert cfg.min_errors == 500 and cfg.max_seeds == 2000
    assert cfg.outer_iters == 20 and cfg.bp_iters == 20
    assert cfg.error_unit == "bit"
    # every flag left out takes SweepConfig's own default
    assert cfg == SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                              output_path=str(tmp_path / "o.csv"))


def test_every_flag_reaches_its_field(small_code_path, tmp_path):
    cfg = parse_cli([
        "--experiment", "mse-trace", "--snr-db", "7.5", "--variant", "no-onsager,llr-turbo",
        "--code", small_code_path, "--h", "blockdiag:16", "--nonlinearity", "tanh",
        "--outer-iters", "7", "--bp-iters", "9", "--min-errors", "11", "--max-seeds", "13",
        "--error-unit", "frame", "--seed", "17",
        "--out", str(tmp_path / "o.csv"), "--workers", "3", "--deterministic",
    ])
    assert cfg == SweepConfig(
        snr_db_list=(7.5,), code=small_code_path, h_mode="blockdiag:16",
        variants=(Variant.NO_ONSAGER, Variant.LLR_TURBO), nonlinearity="tanh",
        outer_iters=7, bp_iters=9, min_errors=11, max_seeds=13, master_seed=17,
        output_path=str(tmp_path / "o.csv"), workers=3, error_unit="frame",
        experiment="mse-trace", deterministic=True,
    )


def test_readme_flag_list_matches_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("\nFlags:"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    options = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert documented == options - {"-h", "--help"}


def test_help_lists_registered_names():
    # the choices of --variant, --code and --nonlinearity come from their registries
    helps = {opt: action.help for action in build_parser()._actions
             for opt in action.option_strings}
    assert all(v.value in helps["--variant"] for v in Variant)
    assert all(code_id in helps["--code"] for code_id in builtin_code_ids())
    assert all(name in helps["--nonlinearity"] for name in NONLINEARITIES)


def test_readme_examples_parse():
    # every scvamp command in README's fenced blocks is a valid invocation
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("scvamp ")
    ]
    assert len(commands) == 3
    for argv in commands:
        parse_cli(argv[1:])


def _module_env():
    """This environment with the checkout's ``src`` first on the import path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_module(*argv):
    """``python -m scvamp`` run from this checkout."""
    return subprocess.run([sys.executable, "-m", "scvamp", *argv], env=_module_env(),
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point(tmp_path):
    shown = _run_module("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: scvamp")
    out = tmp_path / "o.csv"
    unfit = _run_module("--snr-db", "6", "--code", "builtin:r12-n128", "--h", "iid:128x64",
                        "--out", str(out))
    assert unfit.returncode == 2
    assert "does not fit the code length 128" in unfit.stderr
    assert not out.exists()


def test_missing_code_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        parse_cli(["--snr-db", "6", "--h", "iid:8x8", "--out", str(tmp_path / "o.csv")])
    assert err.value.code == 2


def test_unknown_flag_is_usage_error(small_code_path, tmp_path):
    with pytest.raises(SystemExit) as err:
        parse_cli(_base_args(small_code_path, tmp_path / "o.csv") + ["--frobnicate"])
    assert err.value.code == 2


def test_bad_variant_is_usage_error(small_code_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        parse_cli(_base_args(small_code_path, tmp_path / "o.csv")
                  + ["--variant", "scvamp9"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "'scvamp9'" in stderr
    assert all(v.value in stderr for v in Variant)


@pytest.mark.parametrize("flags", [["--snr-db", "6,6"], ["--snr-db", "6,6.0"],
                                   ["--variant", "scvamp3,llr-turbo,scvamp3"],
                                   # a non-finite range bound or step
                                   ["--snr-db", "3:inf:1"], ["--snr-db", "3:9:inf"],
                                   # two floats printed as one CSV label, and one float
                                   # printed as two labels
                                   ["--snr-db", "6,6.000001"], ["--snr-db", "0,-0"],
                                   # a range finer than the labels, rejected before
                                   # its points are built
                                   ["--snr-db", "0:1:1e-300"], ["--snr-db", "3:9:1e-12"],
                                   # the "=" form, or argparse takes the range for a flag
                                   ["--snr-db=-9:-3:1e-12"], ["--snr-db", "0:1:1e-320"]])
def test_repeated_point_is_usage_error(small_code_path, tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as err:
        main(_base_args(small_code_path, tmp_path / "o.csv") + flags)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert ("must be finite" if "inf" in flags[-1] else "must not repeat") in stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("snr", ["-4000", "4000", "6,-5000"])
def test_snr_beyond_float_range_is_usage_error(small_code_path, tmp_path, capsys, snr):
    # 10 ** 400 overflows a float and 10 ** -400 is zero: neither is a noise variance
    args = _base_args(small_code_path, tmp_path / "o.csv")
    args[args.index("--snr-db") + 1] = snr
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")
    assert not (tmp_path / "o.csv").exists()


def test_bad_h_mode_is_usage_error(small_code_path, tmp_path):
    for h_mode in ("toeplitz:4", "blockdiag:0", "iid:0x128", "blockdiag:-32",
                   # int() takes these, but a size is ASCII digits only
                   "blockdiag:32\n", "blockdiag:\uff13\uff12", "blockdiag: 3_2",
                   # int() takes leading zeros too, but the CSV would keep them as written
                   "blockdiag:032", "iid:0128x128"):
        with pytest.raises(SystemExit) as err:
            parse_cli(["--snr-db", "6", "--code", small_code_path, "--h", h_mode,
                       "--out", str(tmp_path / "o.csv")])
        assert err.value.code == 2, h_mode


def test_fit_h_mode():
    assert fit_h_mode("iid:6x4", 4) == (6, 4, 1)
    assert fit_h_mode("blockdiag:32", 128) == (32, 32, 4)
    with pytest.raises(ValueError, match="malformed iid mode"):
        fit_h_mode("iid:6", 6)
    with pytest.raises(ValueError, match="does not fit the code length 4"):
        fit_h_mode("iid:6x6", 4)


def test_sweep_config_validation(small_code_path):
    with pytest.raises(ValueError):
        SweepConfig(snr_db_list=(), code=small_code_path, h_mode="iid:48x48")
    with pytest.raises(ValueError):
        SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                    min_errors=0)
    with pytest.raises(ValueError):
        SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                    error_unit="nibble")
    with pytest.raises(ValueError, match="repeat"):
        SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                    variants=("scvamp3", "llr-turbo", "scvamp3"))
    with pytest.raises(ValueError, match="variants must not be empty"):
        SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                    variants=())
    for snr_db_list in ((6.0, 6.0), (4, 6, 6.0)):
        with pytest.raises(ValueError, match="SNR points must not repeat"):
            SweepConfig(snr_db_list=snr_db_list, code=small_code_path, h_mode="iid:48x48")
    for field in ("outer_iters", "bp_iters", "max_seeds"):
        with pytest.raises(ValueError, match=field):
            SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                        **{field: 0})
    for snr_db in (float("nan"), 4000.0):  # noise variance nan, or underflowing to 0
        with pytest.raises(ValueError, match="noise variance"):
            SweepConfig(snr_db_list=(6.0, snr_db), code=small_code_path, h_mode="iid:48x48")
    with pytest.raises(ValueError, match="nonlinearity"):
        SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                    nonlinearity="cubic")
    with pytest.raises(ValueError, match="experiment"):
        SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                    experiment="mse")
    with pytest.raises(ValueError, match="unknown builtin code"):
        SweepConfig(snr_db_list=(6.0,), code="builtin:r12-n999", h_mode="iid:48x48")
    with pytest.raises(ValueError, match="does not fit the code length 128"):
        SweepConfig(snr_db_list=(6.0,), code="builtin:r12-n128", h_mode="blockdiag:48")
    with pytest.raises(ValueError, match="master_seed"):
        SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
                    master_seed=-1)
    for h_mode in ("bogus", "iid:0x128"):
        with pytest.raises(ValueError, match="mode"):
            SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode=h_mode)


@pytest.mark.parametrize("flags", [
    ["--experiment", "mse-trace", "--snr-db", "5,6"],
    ["--early-stop"],  # not a flag: a BER sweep always stops a converged frame
    ["--code", "builtin:r12-n999"],
    # an --h that does not fit a builtin code's length is caught before the run
    ["--code", "builtin:r12-n128", "--h", "iid:128x64"],
    ["--code", "builtin:r12-n128", "--h", "blockdiag:48"],
    ["--code", "builtin:r12-n128", "--h", "iid:64x64"],
    # no variant at all would run no frame and write a header-only CSV
    ["--variant", ""],
    ["--variant", ","],
    ["--snr-db", "3:9"],  # a range with no step
])
def test_experiment_and_code_usage_errors(small_code_path, tmp_path, flags):
    with pytest.raises(SystemExit) as err:
        main(_base_args(small_code_path, tmp_path / "o.csv") + flags)
    assert err.value.code == 2
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("out", ["missing/o.csv", "existing-dir", "missing/"])
def test_bad_out_is_usage_error(small_code_path, tmp_path, out):
    # caught before the run, so a long sweep cannot lose its result at the end
    (tmp_path / "existing-dir").mkdir()
    with pytest.raises(SystemExit) as err:
        main(_base_args(small_code_path, os.path.join(tmp_path, out)))  # keeps a trailing "/"
    assert err.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["existing-dir"]  # no CSV, no .tmp


@pytest.mark.parametrize("code, h_mode", [
    ("missing.alist", "iid:128x128"),
    ("headless.alist", "iid:128x128"),  # the first line is not "n m"
    ("n128.alist", "blockdiag:48"),
    ("n128.alist", "iid:128x64"),
])
def test_alist_reference_is_checked_before_any_frame(tmp_path, code, h_mode):
    # an alist file resolves and fits --h as a builtin id does
    text = serialize_alist(load_code("builtin:r12-n128")[0])
    (tmp_path / "n128.alist").write_text(text)
    (tmp_path / "headless.alist").write_text("128\n" + text.split("\n", 1)[1])
    with pytest.raises(SystemExit) as err:
        main(["--snr-db", "6", "--code", str(tmp_path / code), "--h", h_mode,
              "--out", str(tmp_path / "o.csv")])
    assert err.value.code == 2
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("experiment", ["ber", "mse-trace"])
def test_empty_out_is_usage_error(small_code_path, experiment):
    # an empty path would run the whole sweep and then write nothing
    with pytest.raises(SystemExit) as err:
        main(_base_args(small_code_path, "") + ["--experiment", experiment])
    assert err.value.code == 2


@pytest.mark.parametrize("name", ["my,code", "my\ncode", "my\u00f8code"])
def test_code_label_that_breaks_the_csv_is_usage_error(small_code_path, tmp_path, name):
    # the file's stem is the CSV's code column
    code_path = tmp_path / f"{name}.alist"
    code_path.write_text(Path(small_code_path).read_text())
    with pytest.raises(SystemExit) as err:
        main(_base_args(str(code_path), tmp_path / "o.csv"))
    assert err.value.code == 2
    assert not (tmp_path / "o.csv").exists()


def test_failed_csv_write_leaves_no_file(tmp_path):
    out = tmp_path / "o.csv"
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(str(out), "snr_db\n\u00f8\n")
    assert list(tmp_path.iterdir()) == []  # neither o.csv nor o.csv.tmp


def test_ctrl_c_stops_a_pooled_sweep(tmp_path):
    # Ctrl-C in a terminal interrupts the whole process group; the sweep must
    # exit promptly with status 130 and one line on stderr, leaving no process
    # and no CSV
    out = tmp_path / "o.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "scvamp", "--snr-db", "8", "--code", "builtin:r12-n512",
         "--h", "blockdiag:32", "--nonlinearity", "tanh",
         "--variant", ",".join(v.value for v in Variant), "--min-errors", "1000000",
         "--workers", "2", "--out", str(out)],
        env=_module_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
        # a shell that starts jobs in the background has them ignore SIGINT
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        time.sleep(5)  # the workers are up and decoding
        assert proc.poll() is None
        os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break  # no member of the group is left
            assert time.monotonic() < deadline, "a process of the sweep outlived it"
            time.sleep(0.1)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    stderr = proc.stderr.read()  # every writer has exited, so this reads to the end
    proc.stderr.close()
    assert proc.returncode == 130, stderr
    assert len(stderr.splitlines()) == 1, stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment", ["ber", "mse-trace"])
def test_negative_seed_is_usage_error(small_code_path, tmp_path, experiment):
    with pytest.raises(SystemExit) as err:
        main(_base_args(small_code_path, tmp_path / "o.csv")
             + ["--experiment", experiment, "--seed", "-1"])
    assert err.value.code == 2
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "flag", ["--min-errors", "--max-seeds", "--outer-iters", "--bp-iters", "--workers"])
def test_zero_count_is_usage_error(small_code_path, tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as err:
        main(_base_args(small_code_path, tmp_path / "o.csv")
             + ["--experiment", "mse-trace", flag, "0"])
    assert err.value.code == 2
    assert f"{flag[2:].replace('-', '_')} must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_forced_single_clean_frame(small_code_path, tmp_path):
    cfg = SweepConfig(
        snr_db_list=(200.0,), code=small_code_path, h_mode="iid:48x48",
        min_errors=1, max_seeds=1, output_path=str(tmp_path / "o.csv"),
        deterministic=True,
    )
    (point,) = ber_sweep(cfg)
    assert point.frames == 1 and point.ber == 0.0 and point.bits_simulated == 48


def test_adaptive_stop_consumes_until_threshold(small_code_path):
    cfg = SweepConfig(
        snr_db_list=(0.0,), code=small_code_path, h_mode="iid:48x48",
        min_errors=5, max_seeds=50,
    )
    (point,) = ber_sweep(cfg)
    assert point.bit_errors >= 5
    assert point.frames <= 50
    # at 0 dB a frame carries several errors; the stop should come quickly
    assert point.frames < 10


def test_frame_error_unit(small_code_path):
    cfg = SweepConfig(
        snr_db_list=(0.0,), code=small_code_path, h_mode="iid:48x48",
        min_errors=3, max_seeds=50, error_unit="frame",
    )
    (point,) = ber_sweep(cfg)
    assert point.frame_errors >= 3
    assert point.frames >= 3


def test_ber_csv_schema_and_rows(small_code_path, tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = SweepConfig(
        snr_db_list=(0.0, 2.0), code=small_code_path, h_mode="iid:48x48",
        variants=(Variant.SCVAMP3, Variant.NO_ONSAGER),
        min_errors=2, max_seeds=3, output_path=str(out), deterministic=True,
    )
    ber_sweep(cfg)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["snr_db", "variant", "code", "n", "k", "h_mode", "nonlinearity",
                      "frames", "bits", "bit_errors", "frame_errors", "diverged",
                      "ber", "fer", "seed_base"]
    assert len(lines) == 1 + 2 * 2  # header + |snr| x |variants|
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "scvamp3" and first[2] == "n48"


def test_csv_deterministic_across_worker_counts(small_code_path, tmp_path):
    # every pair stops at seed 0 at 1 and 3 dB and runs all 5 seeds at 5 dB: a pool
    # still has a later seed of a stopped pair in flight, and never records it
    ber = dict(snr_db_list=(1.0, 3.0, 5.0), variants=(Variant.SCVAMP3, Variant.LLR_TURBO),
               min_errors=3, max_seeds=5)
    # 18 trials run many times through a pool's window of in-flight seeds
    mse = dict(snr_db_list=(3.0,), variants=(Variant.SCVAMP3, Variant.NO_ONSAGER),
               outer_iters=8, max_seeds=18, experiment="mse-trace")
    for run, fields in ((ber_sweep, ber), (mse_trace_experiment, mse)):
        outs = []
        for workers, name in [(1, "a.csv"), (2, "b.csv"), (1, "c.csv")]:
            out = tmp_path / f"{fields.get('experiment', 'ber')}-{name}"
            cfg = SweepConfig(code=small_code_path, h_mode="iid:48x48", output_path=str(out),
                              deterministic=True, workers=workers, **fields)
            run(cfg)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


def test_mse_trace_experiment(small_code_path, tmp_path):
    out = tmp_path / "mse.csv"
    cfg = SweepConfig(
        snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
        variants=(Variant.SCVAMP3,), outer_iters=5, bp_iters=5,
        max_seeds=4, output_path=str(out), deterministic=True,
        experiment="mse-trace",
    )
    summary = mse_trace_experiment(cfg)
    mean, median, diverged = summary[Variant.SCVAMP3]
    assert mean.shape == (6,)
    assert mean[0] == 1.0  # initialization row is exact for BPSK
    assert not diverged.any()
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,variant,mean_mse,median_mse,trials,diverged"
    assert len(lines) == 1 + 6
    assert lines[1].startswith("0,scvamp3,1.0000000000e+00")
    assert all(line.endswith(",4,0") for line in lines[1:])


def test_mse_trace_leaves_out_diverged_iterations(small_code_path, tmp_path, monkeypatch):
    # seed 0 diverges after one iteration, seed 1 runs all four, seed 2 diverges at once;
    # under llr-turbo every seed diverges at once
    traces = {0: [0.5], 1: [0.4, 0.3, 0.2, 0.1], 2: []}

    def fake_run_variant(variant, truth, scenario, outer_iters, bp_iters, **kwargs):
        mse = [] if variant is Variant.LLR_TURBO else traces[scenario.seed]
        diverged = len(mse) < outer_iters
        steps = len(mse)
        trace = IterationTrace(np.asarray(mse, dtype=float), np.ones(steps), np.ones(steps),
                               np.ones((steps, 3)))
        bits = np.zeros(scenario.code.n, dtype=np.uint8)
        return DecodeResult(bits, scenario.code.n if diverged else 0, None, trace, diverged)

    monkeypatch.setattr("scvamp.experiment.run_variant", fake_run_variant)
    out = tmp_path / "mse.csv"
    cfg = SweepConfig(
        snr_db_list=(6.0,), code=small_code_path, h_mode="iid:48x48",
        variants=(Variant.SCVAMP3, Variant.LLR_TURBO), outer_iters=4, max_seeds=3,
        output_path=str(out), deterministic=True, experiment="mse-trace",
    )
    summary = mse_trace_experiment(cfg)
    mean, median, diverged = summary[Variant.SCVAMP3]
    np.testing.assert_allclose(mean, [1.0, 0.45, 0.3, 0.2, 0.1])
    np.testing.assert_allclose(median, [1.0, 0.45, 0.3, 0.2, 0.1])
    np.testing.assert_array_equal(diverged, [0, 1, 2, 2, 2])
    mean, median, diverged = summary[Variant.LLR_TURBO]
    assert mean[0] == median[0] == 1.0
    assert np.isnan(mean[1:]).all() and np.isnan(median[1:]).all()
    np.testing.assert_array_equal(diverged, [0, 3, 3, 3, 3])
    rows = out.read_text().splitlines()
    assert rows[2] == "1,scvamp3,4.5000000000e-01,4.5000000000e-01,3,1"
    assert rows[7] == "1,llr-turbo,nan,nan,3,3"


def test_mse_trace_requires_single_snr(small_code_path):
    cfg = SweepConfig(snr_db_list=(5.0, 6.0), code=small_code_path, h_mode="iid:48x48")
    with pytest.raises(ValueError):
        mse_trace_experiment(cfg)


def test_mse_trace_levels_at_six_db():
    cfg = SweepConfig(
        snr_db_list=(6.0,), code="builtin:r12-n128", h_mode="iid:128x128",
        variants=(Variant.SCVAMP3, Variant.NO_ONSAGER), max_seeds=10,
    )
    summary = mse_trace_experiment(cfg)
    _, median_full, _ = summary[Variant.SCVAMP3]
    mean_no, _, _ = summary[Variant.NO_ONSAGER]
    assert median_full[-1] < 1e-10
    assert mean_no[-1] > 1e-2


def test_timestamp_comment_unless_deterministic(small_code_path, tmp_path):
    out = tmp_path / "stamped.csv"
    cfg = SweepConfig(
        snr_db_list=(200.0,), code=small_code_path, h_mode="iid:48x48",
        min_errors=1, max_seeds=1, output_path=str(out),
    )
    ber_sweep(cfg)
    assert out.read_text().splitlines()[0].startswith("# generated ")


def test_main_end_to_end_ber(small_code_path, tmp_path, capsys):
    out = tmp_path / "cli.csv"
    rc = main(["--snr-db", "2", "--code", small_code_path, "--h", "iid:48x48",
               "--min-errors", "2", "--max-seeds", "3", "--out", str(out),
               "--deterministic"])
    assert rc == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_main_end_to_end_mse_trace(small_code_path, tmp_path):
    out = tmp_path / "cli_mse.csv"
    rc = main(["--experiment", "mse-trace", "--snr-db", "6", "--code", small_code_path,
               "--h", "iid:48x48", "--max-seeds", "3", "--outer-iters", "4",
               "--bp-iters", "4", "--out", str(out), "--deterministic"])
    assert rc == 0
    assert out.exists()


def test_main_runtime_error_exit_code(tmp_path, capsys):
    # the header fits --h, so the broken body is found only when the run loads the code
    code_path = tmp_path / "broken.alist"
    code_path.write_text("48 24\n3 6\n")
    rc = main(["--snr-db", "6", "--code", str(code_path),
               "--h", "iid:48x48", "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_main_allocation_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a huge --max-seeds makes mse-trace's (max_seeds, outer_iters + 1) tables
    # too large to allocate; the failure is faked, because under overcommit a
    # real request of that size can succeed and then page-fault into the OOM killer
    def fail(config):
        raise MemoryError("Unable to allocate 153. TiB for an array")

    monkeypatch.setattr("scvamp.cli.mse_trace_experiment", fail)
    out = tmp_path / "m.csv"
    rc = main(["--experiment", "mse-trace", "--snr-db", "6", "--code", "builtin:r12-n128",
               "--h", "iid:128x128", "--max-seeds", "1000000000000", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: Unable to allocate" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_builtin_code_reference(tmp_path):
    out = tmp_path / "b.csv"
    cfg = SweepConfig(
        snr_db_list=(200.0,), code="builtin:r12-n128", h_mode="iid:128x128",
        min_errors=1, max_seeds=1, output_path=str(out), deterministic=True,
    )
    (point,) = ber_sweep(cfg)
    assert point.ber == 0.0
    assert ",r12-n128,128,64," in out.read_text().splitlines()[1]


def test_h_code_dimension_mismatch(small_code_path):
    for h_mode in ("iid:48x32", "blockdiag:32"):
        with pytest.raises(ValueError, match="does not fit the code length 48"):
            SweepConfig(snr_db_list=(6.0,), code=small_code_path, h_mode=h_mode)


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(10, 100)
    assert 0.0 <= lo < 0.1 < hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 < 0.15
