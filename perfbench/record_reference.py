#!/usr/bin/env python3
"""Record perfbench/reference.json: each workload's outputs on every instance.

Run from the root of a nearline checkout at the commit whose results become
the reference:

    python3 perfbench/record_reference.py

Each instance's CLI outputs must already pass the reference-free checks
(orthonormal W, objective recomputed by the geometry oracle); the recorded
accuracies and objectives are what later runs must reproduce.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    recorded = {}
    for workload in workloads.WORKLOADS.values():
        entries = []
        for instance in range(workloads.INSTANCES):
            job = run.Job(workload, instance, None, run.fresh_dir(run.WORK / f"record-{workload.name}"))
            job.write_inputs()
            code, *_, stderr = run.run_child([sys.executable, "-m", "nearline.cli", *job.argv()], job.run_dir)
            if code != 0:
                sys.exit(f"{workload.name} instance {instance}: exit code {code}: {stderr}")
            problems, result = workloads.check(workload, job.out_dir, instance, reference=None)
            if problems:
                sys.exit(f"{workload.name} instance {instance}: {problems}")
            entries.append(workloads.reference_entry(result))
            print(workload.name, instance, entries[-1] if "objective" in result else "ok", flush=True)
        recorded[workload.name] = entries
        shutil.rmtree(job.run_dir)
    workloads.REFERENCE_PATH.write_text(dumps(run.environment()["commit"], recorded), encoding="utf-8")
    return 0


def dumps(commit: str, recorded: dict) -> str:
    """JSON with one instance per line."""
    blocks = [
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"   {json.dumps(e)}" for e in entries) + "\n  ]"
        for name, entries in recorded.items()
    ]
    return (
        f'{{\n "commit": {json.dumps(commit)},\n "instances": {workloads.INSTANCES},\n'
        f' "workloads": {{\n' + ",\n".join(blocks) + "\n }\n}\n"
    )


if __name__ == "__main__":
    sys.exit(main())
