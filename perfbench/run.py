"""kerrdimer benchmark: time-to-dataset of four CLI workloads, with gates.

Usage (from the root of a checkout; the program runs from ``src/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME] [--seed N]

Workloads: fig2_sweep, fig2c_map, lep_scan, validate (see workloads.py for
why each was chosen). Every workload iteration runs in its own fresh
process (worker.py) that calls ``kerrdimer.cli.main`` with every option
spelled out, writes into a temporary directory inside the checkout, and
reads the datasets back through the correctness gates (gates.py).

With ``--trace 0`` the run starts a few processes that only set up, repeats
the workload for about ``--seconds``, tops the set-up samples up to
SETUP_SAMPLES, and reports medians over the run's samples:

- wall_s: time of the CLI calls, from CLI-ready to dataset written;
- setup_s: process start until the CLI is ready (interpreter start,
  ``import kerrdimer.cli``, preset load);
- peak_rss_mb: peak resident memory of the workload process, read before
  the gates run;
- success_rate: 1 - failed/attempted gate items (see gates.py).

With ``--trace 1`` it runs one untraced and one traced iteration and reports
the per-layer metrics of tracer.py. ``--smoke`` runs each workload once at a
reduced size and prints the gate results only.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the environment
and the samples.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 3  # set-up-only processes before the iterations
SETUP_SAMPLES = 8  # set-up samples per run, topped up after the iterations
RUN_BUDGET_S = 150.0  # no iteration starts that would end the run after this
WORKER_TIMEOUT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Thread counts pinned to nproc, so an inherited shell setting cannot
    change the measurement; only the checkout's source on the path."""
    env = dict(os.environ)
    threads = str(nproc())
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(make_spec) -> dict:
    """Run one worker process on ``make_spec(out_dir)`` and return its record."""
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        out_dir = workdir / "out"
        out_dir.mkdir()
        spec = make_spec(str(out_dir))
        spec_path, result_path = workdir / "spec.json", workdir / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log_path = workdir / "log.txt"
        with open(log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "worker.py"),
                     str(spec_path), str(result_path)],
                    cwd=ROOT, env=worker_env(), stdout=log, stderr=subprocess.STDOUT,
                    timeout=WORKER_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                proc = None
        if proc is None or proc.returncode != 0 or not result_path.exists():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            status = "timed out" if proc is None else f"exited {proc.returncode}"
            raise WorkerFailed(f"{spec['workload']} worker {status}\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - spawned
        result["elapsed_s"] = time.monotonic() - spawned
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(worker_env_info: dict) -> dict:
    env = worker_env()
    return {"nproc": nproc(), "cpu": cpu_model(),
            "threads": {k: env[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            **worker_env_info, "commit": git_commit()}


def measure(name: str, seed: int, seconds: float, started: float) -> tuple[dict, list]:
    """End-to-end metrics: medians over one run's set-ups and iterations.

    Iterations repeat while the next one is expected to end closer to
    ``seconds`` than stopping now would. Set-up samples are taken before
    and after the iterations, SETUP_SAMPLES in all.
    """
    def setup():
        return spawn(lambda _: {"workload": name, "mode": "setup", "preset": workloads.PRESET})

    setups = [setup() for _ in range(SETUP_RUNS)]
    iterations = []
    measuring = time.monotonic()
    while True:
        iterations.append(spawn(lambda out: workloads.build(name, seed, out)))
        now, last = time.monotonic(), iterations[-1]["elapsed_s"]
        if now - measuring + last / 2 >= seconds or now - started + last > RUN_BUDGET_S:
            break
    while len(setups) + len(iterations) < SETUP_SAMPLES:
        setups.append(setup())
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    samples = {"wall_s": [r["wall_s"] for r in iterations],
               "setup_s": [r["setup_s"] for r in setups + iterations],
               "peak_rss_mb": [r["peak_rss_mb"] for r in iterations]}
    print("samples " + json.dumps({k: {"n": len(v), "values": v} for k, v in samples.items()}))
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    metrics["success_rate"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
    return metrics, iterations


def trace(name: str, seed: int) -> tuple[dict, list]:
    """Per-layer metrics from one traced iteration, against an untraced one."""
    plain = spawn(lambda out: workloads.build(name, seed, out))
    traced = spawn(lambda out: {**workloads.build(name, seed, out), "trace": True})
    values = tracer.summarise(traced.pop("trace"), traced["wall_s"], plain["wall_s"])
    units = tracer.metric_units()
    print("samples " + json.dumps({"untraced_wall_s": plain["wall_s"],
                                   "traced_wall_s": traced["wall_s"]}))
    return {k: {"value": values[k], "unit": units[k]} for k in units}, [plain, traced]


def smoke(names: list[str], seed: int) -> int:
    bad = 0
    for name in names:
        result = spawn(lambda out: workloads.build(name, seed, out, smoke=True))
        ok = result["failed"] == 0
        bad += not ok
        print(f"smoke {name}: {result['attempted'] - result['failed']}/"
              f"{result['attempted']} gate items passed, wall {result['wall_s']:.2f} s")
        for msg in result["failures"]:
            print(f"  FAIL {msg}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the gates once per workload at a reduced size")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "kerrdimer" / "cli.py").is_file():
        print(f"no kerrdimer source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    WORK.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke([args.workload] if args.workload else list(workloads.NAMES),
                         args.seed)
        if args.trace:
            metrics, runs = trace(args.workload, args.seed)
        else:
            metrics, runs = measure(args.workload, args.seed, args.seconds, started)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # each worker already removed its own directory

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("env " + json.dumps(environment(runs[0]["env"])))
    for msg in (m for r in runs for m in r["failures"]):
        print(f"gate failure: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
