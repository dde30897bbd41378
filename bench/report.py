"""Print every end-to-end and per-layer metric of every workload, by name and unit.

    python3 bench/report.py [--seed N]

Each workload runs at full size in fresh processes, once untraced
(``--trace 0``) and once traced (``--trace 1``), with the run length from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, trace, seed=0, seconds=None, size="full"):
    """The result object one benchmark run prints on its last line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds or load_spec()["run_seconds"]), "--trace", str(trace),
           "--size", size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for workload in load_spec()["workloads"]:
        name = workload["name"]
        print(f"== {name}: {workload['why']}")
        for trace in (0, 1):
            result = run_workload(name, trace, args.seed)
            print(f"  trace={trace} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"    {metric:<32s} {entry['value']:>16.6g} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
