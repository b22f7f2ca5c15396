#!/usr/bin/env python3
"""Benchmark of the ``nearline`` CLI on three seeded workloads.

Run from the root of a nearline checkout:

    python3 perfbench/run.py --workload faces_train --seed 3 --seconds 30 --trace 0

``--trace 0`` runs the CLI as a subprocess, back to back for ``--seconds``,
and reports the end-to-end metrics (medians over the timed runs; set-up is
repeated and its median reported).  ``--trace 1`` runs the same argv
in-process through ``nearline.cli.main`` with per-layer spans and reports
the per-layer metrics.  Every run's outputs are checked; a failed check
counts in ``failed``.  ``--workload all`` runs every workload in turn.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Inputs, outputs and spans go under ``.perfbench/`` in the
checkout; the spans and the environment record stay there afterwards.
"""

import os

# Every child and this process use one BLAS thread (<= nproc on any
# machine); an unpinned count was a large source of run-to-run spread.
# Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

if not (SRC / "nearline" / "cli.py").is_file():
    sys.exit(f"error: no nearline sources at {SRC}; run from the root of a nearline checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import SPAN_NAMES, ROOT_SPAN, Tracer  # noqa: E402

STARTUP_REPEATS = 5
RUN_TIMEOUT_S = 150

# Runs `python -m nearline.cli` and, at exit, reports the process's own
# high-water RSS.  The child's ru_maxrss cannot serve: Linux carries the
# spawning parent's peak RSS across exec into it.
PEAK_RSS_TAG = "perfbench-peak-rss-kib"
CLI_MAIN = f"""
import atexit, runpy, sys
def report_peak_rss():
    with open('/proc/self/status') as fh:
        peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    print('{PEAK_RSS_TAG}', peak, file=sys.stderr)
atexit.register(report_peak_rss)
runpy.run_module('nearline.cli', run_name='__main__', alter_sys=True)
"""


class Job:
    """One workload instance: its input and output files, and the count of
    attempted and failed CLI runs with the last checked result."""

    def __init__(self, workload, instance: int, reference, run_dir: Path):
        self.workload, self.instance, self.reference = workload, instance, reference
        self.run_dir, self.out_dir = run_dir, run_dir / "out"
        self.data_path = None
        self.attempted = self.failed = 0
        self.result = {}

    def write_inputs(self) -> float:
        """Generate and write the inputs afresh; returns the seconds taken."""
        start = time.perf_counter()
        self.data_path = self.workload.write_inputs(fresh_dir(self.run_dir / "inputs"), self.instance)
        return time.perf_counter() - start

    def argv(self) -> list[str]:
        return self.workload.cli_args(self.data_path, fresh_dir(self.out_dir), self.instance)

    def run_subprocess(self) -> tuple[float, float, float]:
        """One checked CLI subprocess; returns (wall s, cpu s, peak RSS MiB)."""
        code, wall, cpu, stderr = run_child([sys.executable, "-c", CLI_MAIN, *self.argv()], self.run_dir)
        self.record(code, stderr)
        peaks = [line.split()[1] for line in stderr.splitlines() if line.startswith(PEAK_RSS_TAG)]
        return wall, cpu, int(peaks[-1]) / 1024.0 if peaks else 0.0

    def record(self, code: int, stderr: str = "") -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-500:]}"]
        elif self.reference is None:
            problems = [f"no reference recorded for instance {self.instance}"]
        else:
            problems, self.result = workloads.check(self.workload, self.out_dir, self.instance, self.reference)
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload.name} run {self.attempted}: " + "; ".join(problems), file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], log_dir: Path) -> tuple[int, float, float, str]:
    """Run one subprocess; returns (exit code, wall s, cpu s, stderr)."""
    err_path = log_dir / "stderr.txt"
    with open(log_dir / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, err_path.read_text(errors="replace")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_end_to_end(job: Job, seconds: float) -> dict:
    """Back-to-back CLI subprocesses for ``seconds`` after one warm-up run.

    The inputs are written afresh before every run, so set-up is sampled
    across the whole run rather than in one burst of file writes.
    """
    setups, walls, cpus, rss = [], [], [], []
    deadline = None
    while deadline is None or not walls or time.perf_counter() < deadline:
        setups.append(job.write_inputs())
        wall, cpu, peak = job.run_subprocess()
        if deadline is None:  # warm-up: page cache and bytecode
            deadline = time.perf_counter() + seconds
            continue
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "timed_runs": len(walls),
    }


def in_process(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def measure_layers(job: Job, seconds: float) -> tuple[dict, Tracer]:
    """Alternate untraced subprocess, untraced in-process and traced
    in-process runs of the same argv; per-layer metrics are medians over
    the traced runs."""
    import nearline.cli

    job.write_inputs()
    startup = statistics.median(
        run_child([sys.executable, "-c", "import nearline.cli"], job.run_dir)[1]
        for _ in range(STARTUP_REPEATS)
    )
    tracer = Tracer()
    job.record(in_process(nearline.cli.main, job.argv()))  # warm-up
    subprocess_walls, plain_walls, traced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        subprocess_walls.append(job.run_subprocess()[0])

        argv = job.argv()
        start = time.perf_counter()
        code = in_process(nearline.cli.main, argv)
        plain_walls.append(time.perf_counter() - start)
        job.record(code)

        argv = job.argv()
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            code, wall = tracer.call(nearline.cli.main, argv)
        traced_walls.append(wall)
        job.record(code)

    per_run = [tracer.layer_metrics(run) for run in range(tracer.run + 1)]
    # times are medians over the traced runs; counts repeat exactly, so they
    # come from the last run and stay whole numbers
    metrics = {
        key: statistics.median(m[key] for m in per_run) if key.endswith("_s") else value
        for key, value in per_run[-1].items()
    }
    covered = statistics.median(
        sum(m[f"{name}_s"] for name in SPAN_NAMES if name != ROOT_SPAN) for m in per_run
    )
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics["trace.coverage"] = (startup + covered) / statistics.median(subprocess_walls)
    return metrics, tracer


def run_workload(workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    instance = seed % workloads.INSTANCES
    entries = reference.get("workloads", {}).get(workload.name, [])
    run_dir = fresh_dir(WORK / f"run-{workload.name}-{seed}-{os.getpid()}")
    job = Job(workload, instance, entries[instance] if instance < len(entries) else None, run_dir)
    try:
        if trace:
            metrics, tracer = measure_layers(job, seconds)
            spans_path = WORK / f"spans-{workload.name}-{seed}.json"
            spans_path.write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
        else:
            metrics = measure_end_to_end(job, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": workload.name, "seed": seed, "instance": instance,
        "attempted": job.attempted, "failed": job.failed,
        "result": job.result, "metrics": metrics,
    }


def print_report(report: dict, units: dict) -> None:
    m = report["metrics"]
    print(f"== {report['workload']}  seed {report['seed']} (instance {report['instance']})")
    for name, unit in units.items():
        print(f"   {name:<40} {m[name]:>14.6g} {unit}")
    if "timed_runs" in m:
        print(f"   {'(timed runs)':<40} {m['timed_runs']:>14d}")
    result = report["result"]
    if "objective" in result:
        print(f"   {'objective (last trace row)':<40} {result['objective']:>14.8g}")
    if "accuracy" in result:
        accuracy = float(np.mean([np.mean(v) for v in result["accuracy"].values()]))
        print(f"   {'accuracy (mean over cells and repeats)':<40} {accuracy:>14.4f}")
    rate = report["failed"] / report["attempted"]
    print(f"   {'failure_rate':<40} {rate:>14.4f} ({report['failed']}/{report['attempted']} runs)")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        ).stdout.strip() or commit
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    reference = workloads.load_reference()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    WORK.mkdir(exist_ok=True)
    env = environment()
    (WORK / "env.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(env))

    reports = []
    for name in names:
        report = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reference)
        print_report(report, units)
        reports.append(report)

    prefix = len(reports) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name: {"value": r["metrics"][name], "unit": unit}
        for r in reports
        for name, unit in units.items()
    }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
