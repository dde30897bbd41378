"""Golden per-frame outcomes of every variant, pinned bit for bit.

The receiver's results must not move under refactors: per frame, the bit
errors, divergence flag, converged iteration and every traced MSE value are
compared exactly against ``golden_outcomes.json`` (floats stored as
``float.hex``).  The message variances are pinned too, except for
``no-onsager``, whose recorded variances depend on where the forwarding floor
binds rather than on anything the outcome depends on.

Regenerate the file (only for an intended change of results) with

    PYTHONPATH=src python tests/test_golden.py

which prints every record it rewrites, with its bit errors and converged
iteration old -> new.
"""

import json
from pathlib import Path

from scvamp.channel import realize
from scvamp.codes import load_code
from scvamp.experiment import build_scenario
from scvamp.runner import Variant, run_variant

GOLDEN_PATH = Path(__file__).with_name("golden_outcomes.json")
CASES = (("iid:128x128", "id", 6.0), ("blockdiag:32", "tanh", 9.0))
SEEDS = (0, 1, 2)
OUTER_ITERS = 12
BP_ITERS = 20


def _hex(values):
    return [float(v).hex() for v in values]


def compute_outcomes():
    code = load_code("builtin:r12-n128")[0]
    out = {}
    for h_mode, nonlinearity, snr_db in CASES:
        for seed in SEEDS:
            scenario = build_scenario(code, h_mode, snr_db, nonlinearity, seed)
            truth = realize(scenario)
            for variant in Variant:
                res = run_variant(variant, truth, scenario, OUTER_ITERS, BP_ITERS)
                record = {
                    "bit_errors": res.bit_errors,
                    "diverged": res.diverged,
                    "converged_iteration": res.converged_iteration,
                    "mse": _hex(res.trace.mse),
                }
                if variant is not Variant.NO_ONSAGER:
                    record["v_x"] = _hex(res.trace.v_x)
                    record["v_w"] = _hex(res.trace.v_w)
                out[f"{variant.value}/{h_mode}/{nonlinearity}/{snr_db:g}/{seed}"] = record
    return out


def test_outcomes_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = compute_outcomes()
    assert sorted(actual) == sorted(golden)
    for key, expected in golden.items():
        assert actual[key] == expected, key


def _changes(old, new):
    """One line per record key that differs, with bit errors and converged iteration."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key), new.get(key)
        if before != after:
            pairs = (
                f"{name} {(before or {}).get(name, '-')} -> {(after or {}).get(name, '-')}"
                for name in ("bit_errors", "converged_iteration")
            )
            lines.append(f"{key}: " + ", ".join(pairs))
    return lines


if __name__ == "__main__":
    previous = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    outcomes = compute_outcomes()
    GOLDEN_PATH.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
    changes = _changes(previous, outcomes)
    print(*changes, sep="\n")
    print(f"rewrote {len(changes)} of {len(outcomes)} records in {GOLDEN_PATH.name}")
