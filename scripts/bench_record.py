#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics across seeds in BENCH_<LABEL>.json.

Run from anywhere; the benchmark runs from the root of this checkout:

    python3 scripts/bench_record.py LABEL --seeds 111 112 113 114 115 --seconds 30

For each seed s it runs ``perfbench/run.py --workload all --seed s --seconds
SECONDS --trace 0`` with this interpreter and reads the JSON object on the
last line of its stdout.  BENCH_<LABEL>.json, at the root of the checkout,
then holds:

- ``metrics``: for every ``<workload>.<metric>`` of the run, its ``unit``,
  the ``median`` and ``iqr`` (75th minus 25th percentile, linear
  interpolation) across the seeds, and the per-seed ``values``;
- ``attempted`` and ``failed``: the CLI runs summed over the seeds, and
  ``correct``: true when no run failed;
- ``commit`` (``git rev-parse HEAD``) and ``dirty`` (``git status
  --porcelain`` printed anything before the first run), both null outside a
  git checkout;
- ``env``: the environment record run.py leaves in ``.perfbench/env.json``;
- ``label``, ``seeds`` and ``seconds``: this invocation.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def git(*args: str) -> str | None:
    """The stdout of a git command in the checkout, or None outside one."""
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def run_seed(seed: int, seconds: float) -> dict:
    """One ``run.py --workload all`` at ``seed``: its last stdout line, parsed."""
    cmd = [sys.executable, str(RUN), "--workload", "all", "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: seed {seed}: run.py exited {proc.returncode} with no result")
    return json.loads(lines[-1])


def record(label: str, seeds: list[int], seconds: float) -> dict:
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    runs = []
    for seed in seeds:
        runs.append(run_seed(seed, seconds))
        print(f"seed {seed}: correct {runs[-1]['correct']}, failed {runs[-1]['failed']}", file=sys.stderr)
    metrics = {}
    for name, metric in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        metrics[name] = {"unit": metric["unit"], "median": float(median), "iqr": float(q3 - q1), "values": values}
    failed = sum(run["failed"] for run in runs)
    return {
        "label": label,
        "seeds": seeds,
        "seconds": seconds,
        "commit": None if head is None else head.strip(),
        "dirty": None if status is None else bool(status.strip()),
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": metrics,
        "env": json.loads((ROOT / ".perfbench" / "env.json").read_text(encoding="utf-8")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("label", help="names the output, BENCH_<LABEL>.json (letters, digits, '.', '_', '-')")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"label must hold only letters, digits, '.', '_' and '-', got {args.label!r}")

    result = record(args.label, args.seeds, args.seconds)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}: correct {result['correct']}, {result['failed']} of {result['attempted']} runs failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
