"""Time-to-verdict benchmark for the qisograph CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify-k3 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``verdict_s``, the
summed wall time of the workload's CLI invocations (each a fresh
interpreter, one at a time: a closed loop with one client), as the
median over repetitions made until ``--seconds`` have passed;
``setup_s``, the median launch-to-exit time of fresh interpreters that
import the package and build the workload's inputs, launched between the
repetitions; and
``peak_rss_mb``, the largest max-RSS among the CLI processes of a
repetition, median over repetitions.  With ``--trace 1`` it makes one
untraced repetition and one traced in-process run and reports the
per-layer split.  Every invocation's outcome is checked against the
verdicts the paper predicts (``answers.py``); ``failed`` counts the
invocations that differ.  The last line of standard output is one JSON
object; the lines above it are a human-readable record, and the full
record goes to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import answers
from metrics import END_TO_END, PER_LAYER, coverage_problems, per_layer_values
from workloads import WORKLOADS, GraphText, Workload, graph_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
#: set-up probes launched before each repetition and once more after the
#: last; setup_s is their median.  Spreading them over the run keeps the
#: median from being a snapshot of the shared machine's speed.
SETUP_PROBES = 3
#: no repetition starts after this many seconds of a run, so that a run
#: ends well inside the 180 s a run may take
RUN_BUDGET_S = 150.0
#: a child still running after this long is killed and counted failed
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A run that cannot produce a result: a set-up probe or the traced
    run failed."""


def child_env(seed: int) -> dict[str, str]:
    """Environment of every child: the checkout's sources first, BLAS and
    OpenMP capped at the usable cores, and a hash seed fixed by the
    workload seed so that a seed repeats its set and dict orders."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": str(seed % 2 ** 32),
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "NUMEXPR_NUM_THREADS": threads,
        "VECLIB_MAXIMUM_THREADS": threads,
    })
    return env


def launch(args: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run ``python3 <args>`` from the checkout root and wait for it.
    Returns (exit code, wall seconds, max RSS in MB) read with wait4."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def report_digest(report: dict) -> str:
    """sha256 of the report without its wall times: drift information,
    never a failure, since reports may gain fields."""
    from qisograph.report import strip_wall_times
    text = json.dumps(strip_wall_times(report), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """One benchmark run: the inputs of one workload and seed, and the
    outcomes of every CLI invocation made on them."""

    def __init__(self, workload: Workload, seed: int, trace: int):
        self.workload, self.seed = workload, seed
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env(seed)
        self.log = self.dir / "stderr.log"
        self.graphs: dict[tuple[int, str], GraphText] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []

    def graph_path(self, rep: int, key: str) -> Path:
        """The input file of graph *key* for repetition *rep*, written on
        first use."""
        path = self.dir / f"rep{rep}-{key}.g"
        if (rep, key) not in self.graphs:
            text = graph_text(ROOT, key, self.seed, rep)
            path.write_text(text)
            self.graphs[rep, key] = GraphText.parse(text)
        return path

    def cli_args(self, rep: int, i: int, inv, tag: str) -> list[str]:
        return [inv.command, "--graph", str(self.graph_path(rep, inv.graph)), *inv.extra,
                "--out", str(self.report_path(i, tag))]

    def report_path(self, i: int, tag: str) -> Path:
        return self.dir / f"report-{tag}-{i}.json"

    def judge(self, rep: int, i: int, inv, tag: str, exit_code: int, **extra) -> None:
        """Check one invocation against the known answer and record it."""
        try:
            report = json.loads(self.report_path(i, tag).read_text())
        except (OSError, json.JSONDecodeError):
            report = None
        problems = answers.check_invocation(inv, self.graphs[rep, inv.graph], exit_code, report)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{tag} {inv.label}: {p}" for p in problems]
        self.records.append({"tag": tag, "invocation": inv.label, "exit": exit_code,
                             "report_sha256": report_digest(report) if report else None,
                             "problems": problems, **extra})

    def repetition(self, rep: int) -> tuple[float, float]:
        """Every CLI invocation once, one fresh process at a time.
        Returns (summed wall seconds, largest max-RSS in MB)."""
        total, peak = 0.0, 0.0
        tag = f"rep{rep}"
        for i, inv in enumerate(self.workload.invocations):
            path = self.report_path(i, tag)
            path.unlink(missing_ok=True)
            code, wall, rss = launch(["-m", "qisograph.cli", *self.cli_args(rep, i, inv, tag)],
                                     self.env, self.log)
            total += wall
            peak = max(peak, rss)
            self.judge(rep, i, inv, tag, code, wall_s=wall, max_rss_mb=rss)
        return total, peak

    def setup_times(self, repeats: int) -> list[float]:
        """Launch-to-exit times of the set-up probe."""
        pairs = sorted({f"{inv.command}={self.graph_path(0, inv.graph)}"
                        for inv in self.workload.invocations})
        times = []
        for _ in range(repeats):
            code, wall, _ = launch([str(BENCH / "setup_probe.py"), *pairs], self.env, self.log)
            if code != 0:
                raise BenchError(f"set-up probe exited {code}; see {self.log}")
            times.append(wall)
        return times

    def traced(self) -> dict:
        """One in-process traced run of every invocation."""
        plan = [self.cli_args(0, i, inv, "traced")
                for i, inv in enumerate(self.workload.invocations)]
        plan_path, out_path = self.dir / "trace-plan.json", self.dir / "trace.json"
        plan_path.write_text(json.dumps(plan))
        code, _, _ = launch([str(BENCH / "tracer.py"), str(plan_path), str(out_path)],
                            self.env, self.log)
        if code != 0 or not out_path.exists():
            raise BenchError(f"traced run exited {code}; see {self.log}")
        summary = json.loads(out_path.read_text())
        for i, inv in enumerate(self.workload.invocations):
            self.judge(0, i, inv, "traced", summary["exit_codes"][i])
        return summary


def measure(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Run the benchmark once; returns the result object."""
    started = time.perf_counter()
    run = Run(workload, seed, trace)
    # compile the package's bytecode before anything is timed: users do
    # not pay for that on every run
    run.setup_times(1)
    info = {"workload": workload.name, "seed": seed, "trace": trace,
            "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "run_seconds": seconds}
    if trace:
        untraced_s, _ = run.repetition(0)
        summary = run.traced()
        values = per_layer_values(summary, untraced_s)
        kinds = {inv.kind for inv in workload.invocations}
        cover = coverage_problems(values, kinds)
        run.problems += cover
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        info["untraced_s"] = untraced_s
    else:
        walls, peaks, setup = [], [], []
        loop_start = time.perf_counter()
        while not walls or (time.perf_counter() - loop_start < seconds
                            and time.perf_counter() - started + max(walls) < RUN_BUDGET_S):
            setup += run.setup_times(SETUP_PROBES)
            wall, peak = run.repetition(len(walls))
            walls.append(wall)
            peaks.append(peak)
        setup += run.setup_times(SETUP_PROBES)
        values = {"verdict_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(peaks)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items()}
        info.update(repetitions=len(walls), verdict_walls_s=walls, setup_walls_s=setup,
                    peak_rss_walls_mb=peaks)
        cover = []
    result = {"correct": run.failed == 0 and not cover, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (run.dir / "result.json").write_text(json.dumps(
        {"info": info, "invocations": run.records, "problems": run.problems,
         "result": result}, indent=2))

    print(" ".join(f"{k}={v}" for k, v in info.items() if not isinstance(v, list)))
    for rec in run.records:
        timing = (f" {rec['wall_s']:.3f} s {rec['max_rss_mb']:.1f} MB"
                  if "wall_s" in rec else "")
        print(f"{rec['tag']}: {rec['invocation']}: exit {rec['exit']}{timing}"
            f" report-sha256 {rec['report_sha256']}")
    for problem in run.problems:
        print(f"PROBLEM {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {run.failed}/{run.attempted} = "
        f"{run.failed / run.attempted:.6g} ratio")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qisograph" / "cli.py").is_file():
        print(f"error: no qisograph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
