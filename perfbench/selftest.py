#!/usr/bin/env python3
"""Fast self-test of the benchmark, at toy input sizes (about half a minute).

Run from the root of a nearline checkout:

    python3 perfbench/selftest.py

For every workload it checks that a correct run passes, that a corrupted
objective or accuracy is caught by the checks and counted as a failed run,
and that the traced run reports every per-layer metric.  It also checks
that the benchmark refuses to run where the nearline sources are missing.
Exits 0 when everything holds.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
import workloads
from workloads import Faces, Manifold

TOY_DATA = {
    "faces_train": Faces(subjects=6, per_subject=4, height=12, width=10),
    "manifold_compare": Manifold(n_per_class=8, ambient_dim=12),
    "faces_nearest_line": Faces(subjects=5, per_subject=6, height=10, width=8),
}


def expect(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def toy(workload):
    flags = list(workload.flags)
    if "--dim" in flags:
        flags[flags.index("--dim") + 1] = "5"  # PCA needs dim <= n_train - 1
    if workload.command != "train":
        flags += ["--repeats", "2"]
    return dataclasses.replace(workload, data=TOY_DATA[workload.name], flags=tuple(flags))


def corrupt(workload, out_dir):
    """Change the objective or one accuracy in the CLI's output files."""
    first, second = (out_dir / f for f in workloads.OUTPUTS[workload.command])
    target = second if workload.command in ("train", "evaluate") else first
    rows = target.read_text(encoding="utf-8").strip().split("\n")
    *head, value = rows[-1].split(",")
    factor = 1 + 1e-6 if workload.command == "train" else 0.5
    rows[-1] = ",".join([*head, repr(float(value) * factor)])
    target.write_text("\n".join(rows) + "\n", encoding="utf-8")


def check_outputs(workload) -> dict:
    """A correct run passes; its corrupted outputs do not.  Returns the
    reference entry of the correct run."""
    job = run.Job(workload, 0, None, run.fresh_dir(run.WORK / f"selftest-{workload.name}"))
    job.write_inputs()
    code, *_, stderr = run.run_child([sys.executable, "-m", "nearline.cli", *job.argv()], job.run_dir)
    expect(code == 0, stderr)
    out_dir = job.out_dir
    problems, result = workloads.check(workload, out_dir, 0, None)
    expect(not problems, problems)
    entry = workloads.reference_entry(result)
    expect(workloads.check(workload, out_dir, 0, entry)[0] == [], "a correct run fails its own reference")
    corrupt(workload, out_dir)
    expect(workloads.check(workload, out_dir, 0, entry)[0], f"{workload.name}: corruption not detected")
    shutil.rmtree(job.run_dir)
    return entry


def wrong(entry: dict) -> dict:
    if "objective" in entry:
        return {"objective": entry["objective"] * 1.01}
    cells = {cell: [v / 2 for v in values] for cell, values in entry["accuracy"].items()}
    return {"accuracy": cells}


def check_accounting(workload, entry) -> None:
    """Runs against a matching reference pass; against a wrong one, every
    run counts as failed."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    good = {"workloads": {workload.name: [entry] * workloads.INSTANCES}}
    bad = {"workloads": {workload.name: [wrong(entry)] * workloads.INSTANCES}}
    report = run.run_workload(workload, 0, 0.1, False, good)
    expect(report["failed"] == 0 and report["attempted"] >= 2, report)
    expect(all(report["metrics"][m["name"]] > 0 for m in spec["end_to_end"]), report)
    with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED lines
        report = run.run_workload(workload, 0, 0.1, False, bad)
    expect(report["failed"] == report["attempted"] >= 2, report)
    layers = run.run_workload(workload, 0, 0.1, True, good)
    expect(layers["failed"] == 0, layers)
    missing = {m["name"] for m in spec["per_layer"]} - layers["metrics"].keys()
    expect(not missing, f"per-layer metrics not reported: {missing}")


def check_refuses_without_program() -> None:
    bare = run.fresh_dir(run.WORK / "selftest-bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "faces_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout, proc)
    shutil.rmtree(bare)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        small = toy(workload)
        entry = check_outputs(small)
        check_accounting(small, entry)
        print(f"ok  {workload.name}")
    check_refuses_without_program()
    print("ok  refuses to run without the nearline sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
