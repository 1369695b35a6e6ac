"""minutecast benchmark: one command for every workload.

    python3 perfbench/run.py --workload ols-sample --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (the directory holding ``src/`` and
``perfbench/``). Inputs are generated from ``--seed`` by ``workloads.py``;
outputs go to ``perfbench_out/<workload>-<seed>/``. The program is reached
only through its CLI entry point (``minutecast.cli:main``, the target of the
``minutecast`` script) and, for set-up, its public config functions.

For ``--seconds`` seconds the benchmark repeats whole rounds. A round is one
set-up probe, one ``minutecast run``, one ``minutecast report`` over the store
that run wrote, and the output checks of ``oracle.py`` on both. Every
``minutecast`` invocation and every check is one operation; the self-check
(corrupted copies that the checks must reject) adds three per benchmark run.
With ``--trace 1`` a traced run (``trace.py``) follows the rounds and the
per-layer metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (each a value with its unit).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

# The generated console-script wrapper for `minutecast` makes exactly this call.
ENTRY = "import sys; from minutecast.cli import main; sys.exit(main())"
SETUP = (
    "import sys; from minutecast.cli import build_roster, load_run_config; "
    "build_roster(load_run_config(sys.argv[1]))"
)


class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def record(self, name: str, problems, wrong_output: bool = True) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and not wrong_output
            self.problems.extend(f"{name}: {p}" for p in problems[:5])
        return not problems


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(HERE), env.get("PYTHONPATH")) if p
    )
    # one core, as with workers = 1: no BLAS thread pool competing for it
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def spawn(argv, env, cwd: Path, log: Path):
    """Run a child to completion. Returns (exit code, wall s, peak RSS MB, stdout).

    The peak resident set is read for this child alone through wait4:
    RUSAGE_CHILDREN would report the largest child of the whole benchmark.
    """
    with open(log, "w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


def environment(env: dict) -> dict:
    """What the figures depend on besides the code; written next to the outputs."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
    }


def exit_problems(code: int, text: str) -> list:
    return [] if code == 0 else [f"exit {code}: {text.strip()[-300:]}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "minutecast" / "cli.py").is_file():
        print(f"no minutecast source tree under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = root / "perfbench_out" / f"{workload.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    days = workloads.generate(workload, args.seed)
    bars, config = work / "bars.csv", work / "run.conf"
    run_dir, report_dir = work / "run", work / "report"
    workloads.write_bars(days, bars)
    (work / "days.txt").write_text("".join(
        f"{d.date} {'signal' if d.signal else 'noise'} {'; '.join(d.notes)}\n" for d in days
    ))
    workloads.write_config(workload, bars, run_dir, config)
    env = child_env(root)
    (work / "env.json").write_text(json.dumps(environment(env), indent=1) + "\n")
    python = sys.executable
    ledger = Ledger()

    setup_s, run_s, report_s, rss_mb = [], [], [], []
    records = []
    start = time.perf_counter()
    slowest = 0.0
    while not run_s or time.perf_counter() - start + slowest <= args.seconds:
        began = time.perf_counter()
        code, wall, _, text = spawn([python, "-c", SETUP, str(config)], env, root, work / "setup.log")
        if ledger.record("setup", exit_problems(code, text), wrong_output=False):
            setup_s.append(wall)
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(report_dir, ignore_errors=True)
        code, wall, peak, text = spawn(
            [python, "-c", ENTRY, "run", "--config", str(config)], env, root, work / "run.log"
        )
        if ledger.record("run", exit_problems(code, text), wrong_output=False):
            run_s.append(wall)
            rss_mb.append(peak)
        code, wall, _, text = spawn(
            [python, "-c", ENTRY, "report", str(run_dir / "predictions.csv"), "--out", str(report_dir)],
            env, root, work / "report.log",
        )
        if ledger.record("report", exit_problems(code, text), wrong_output=False):
            report_s.append(wall)
        records, results = oracle.check_outputs(days, workload.roster, run_dir, report_dir)
        for name, problems in results.items():
            ledger.record(f"check {name}", problems)
        slowest = max(slowest, time.perf_counter() - began)
        if not (run_s and report_s and setup_s):
            break  # nothing left to time

    if records:
        caught = oracle.self_check(days, workload.roster, records, run_dir)
    else:
        caught = {"self_check": False}
    for name, ok in caught.items():
        ledger.record(f"self-check {name}", [] if ok else ["corrupted copy passed the checks"])

    scored = sum(r.status in ("ok", "fallback") for r in records)
    if args.trace:
        metrics = traced_metrics(python, env, root, work, config, run_s, ledger)
    elif run_s and report_s and setup_s:
        run_median = statistics.median(run_s)
        metrics = {
            "run_s": (run_median, "s"),
            "windows_per_s": (scored / run_median, "1/s"),
            "report_s": (statistics.median(report_s), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (statistics.median(rss_mb), "MB"),
        }
    else:
        metrics = {}

    for line in ledger.problems[:40]:
        print(line, file=sys.stderr)
    print(
        f"{workload.name} seed {args.seed}: {len(run_s)} rounds, {scored} scored records, "
        f"runs {[round(s, 3) for s in run_s]} s",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(python, env, root: Path, work: Path, config: Path, run_s, ledger) -> dict:
    """One traced run in a fresh interpreter; its per-layer metrics.

    The traced run rewrites the run's store, which must come out byte for byte
    the same: tracing may cost time but must not change a forecast.
    """
    store = work / "run" / "predictions.csv"
    untraced = store.read_bytes() if store.is_file() else b""
    code, _, _, text = spawn(
        [python, str(HERE / "trace.py"), str(config), str(work / "traced-report"),
         str(work / "spans.jsonl")],
        env, root, work / "trace.log",
    )
    if not ledger.record("traced run", exit_problems(code, text), wrong_output=False):
        return {}
    same = store.is_file() and store.read_bytes() == untraced
    ledger.record("check traced_store", [] if same else ["traced run wrote a different store"])
    result = json.loads(text.strip().splitlines()[-1])
    metrics = {k: tuple(v) for k, v in result["layers"].items()}
    overhead = result["traced_run_s"] - statistics.median(run_s) if run_s else 0.0
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
