"""Benchmark for hext: how long a reader waits for a verified result.

    python3 perfbench/run.py --workload shoot|scan|checks|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  One process, one caller, no threads: a closed loop that
drives ``hext.cli.main(argv + ["--json", "--out", DIR])`` in-process, takes
the workload's stream of argv (see workloads.py) until ``--seconds`` have
passed, and checks every call's output against reference.json.

``--trace 0`` prints the end-to-end metrics: per-call time (median and tail)
and set-up time, both scaled to a reference machine speed by gauge.py, peak
memory, and the failed fraction.  ``--trace 1`` alternates untraced and
traced passes over the stream's first cycle and prints the per-layer
metrics of tracing.py plus the tracing overhead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the machine and library versions.  Scratch files go to
``.bench_run/`` in the checkout.  ``--workload all`` runs the three
workloads one after another, each in a fresh process, and prints one table.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.CYCLES)
END_TO_END = [
    ("task_s.p50", "s"),
    ("task_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 5  # fresh processes per run, this one included ...
SETUP_PROBE_BUDGET_S = 6.0  # ... unless the probes take longer than this
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170


class HarnessError(Exception):
    pass


def import_cli():
    """Import hext.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "hext" / "cli.py").is_file():
        raise HarnessError(f"no hext sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hext.cli

    where = Path(hext.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise HarnessError(f"hext.cli was imported from {where}, not from {SRC}")
    return hext.cli


class Runner:
    """Calls the CLI in-process and checks each call."""

    def __init__(self, cli, checker, out_dir: Path):
        self.cli = cli
        self.checker = checker
        self.out_dir = out_dir
        self.attempted = 0
        self.failures = []
        self.around = contextlib.nullcontext  # the tracer's root span, when traced

    def call(self, argv):
        """One timed CLI call; returns (seconds, artifact bytes)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        raised = None
        started = time.perf_counter()
        try:
            with self.around(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv + ["--json", "--out", str(self.out_dir)])
        except Exception:  # a raising call is a failed call, not a failed run
            rc, raised = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - started
        self.attempted += 1
        if raised:
            errors = [f"raised: {raised}"]
        else:
            errors = self._check(argv, rc, stdout.getvalue(), stderr.getvalue())
        if errors:
            self.failures.append({"argv": argv, "errors": errors})
        size = sum(p.stat().st_size for p in self.out_dir.glob("*") if p.is_file())
        return elapsed, size

    def _check(self, argv, rc, out, err):
        try:
            report = json.loads(out) if out.strip() else None
            errors = self.checker.check(argv, rc, report, self.out_dir)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        if errors and err.strip():
            errors.append("stderr: " + err.strip().splitlines()[-1])
        return errors


def setup(workload, seed, ref):
    """Import the package in this process and make one untimed warm-up call,
    the first of the workload's stream.  Returns the runner and
    {"setup_s": seconds scaled by the speed gauge, "wall_s": wall seconds}."""
    first = next(workloads.stream(workload, seed, ref))
    before = gauge.sample()
    started = time.perf_counter()
    cli = import_cli()
    runner = Runner(cli, workloads.Checker(ref), RUN_DIR / f"out-{workload}-{os.getpid()}")
    runner.call(first)
    wall = time.perf_counter() - started
    return runner, {"setup_s": wall * gauge.scale(before, gauge.sample()), "wall_s": wall}


def probe_setup(workload, seed):
    """Set-up seconds measured in fresh processes."""
    samples, spent = [], 0.0
    while len(samples) < SETUP_SAMPLES - 1 and spent < SETUP_PROBE_BUDGET_S:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", workload, "--seed", str(seed)]
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        spent += time.perf_counter() - started
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def tail(times):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it;
    the median when that percentile would fall below it.
    Returns (value, percentile, samples beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND
    if idx < n // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[idx], 100.0 * (idx + 1) / n, TAIL_BEYOND


def measure(runner, argvs, seconds):
    """Call the CLI with the stream's argv until `seconds` have passed.
    Returns [(argv, scaled seconds, wall seconds)] per call."""
    speed = gauge.Gauge()
    deadline = time.perf_counter() + seconds
    calls = []
    for argv in argvs:
        calls.append((workloads.argv_key(argv), runner.call(argv)[0], len(speed.samples) - 1))
        done = time.perf_counter() >= deadline
        speed.tick(force=done)
        if done:
            return [(key, wall * speed.factor(i), wall) for key, wall, i in calls]


def measure_traced(runner, cycle, seconds, ref):
    """Alternate untraced and traced runs of one cycle (which goes first
    flips each pair) until `seconds` have passed; always whole pairs."""
    from tracing import Tracer, per_layer

    tracer = Tracer()
    plain_s, traced_s, sizes = [0.0], [0.0], []

    def plain():
        for argv in cycle:
            plain_s[0] += runner.call(argv)[0]

    def traced():
        runner.around = tracer.call
        with tracer.installed():
            for argv in cycle:
                elapsed, size = runner.call(argv)
                traced_s[0] += elapsed
                sizes.append(size)
        runner.around = contextlib.nullcontext

    deadline = time.perf_counter() + seconds
    order = (plain, traced)
    while True:
        for half in order:
            half()
        order = order[::-1]
        if time.perf_counter() >= deadline:
            break
    overhead = traced_s[0] / plain_s[0] - 1.0
    return tracer, per_layer(tracer, sizes, ref["c_star"], overhead)


def environment(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args):
    ref = workloads.load_reference()
    runner, own_setup = setup(args.workload, args.seed, ref)
    extra = {}
    if args.trace:
        cycle = workloads.first_cycle(args.workload, args.seed, ref)
        tracer, metrics = measure_traced(runner, cycle, args.seconds, ref)
        extra["cycle_calls"] = len(cycle)
        extra["trace_missing"] = tracer.missing
        tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        setups = [own_setup] + probe_setup(args.workload, args.seed)
        setup_s = statistics.median(s["setup_s"] for s in setups)
        argvs = workloads.stream(args.workload, args.seed, ref)
        next(argvs)  # the warm-up call
        calls = measure(runner, argvs, args.seconds)
        times = [t for _, t, _ in calls]
        tail_s, tail_pct, beyond = tail(times)
        metrics = {
            "task_s.p50": statistics.median(times),
            "task_s.tail": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        walls = [w for _, _, w in calls]
        extra.update(samples=len(times), tail_percentile=tail_pct, tail_samples_beyond=beyond,
                     wall_p50=statistics.median(walls), wall_tail=tail(walls)[0],
                     wall_setup=statistics.median(s["wall_s"] for s in setups),
                     setup_samples=setups, calls=calls)
    shutil.rmtree(runner.out_dir, ignore_errors=True)
    failed = len(runner.failures)
    failed_frac = failed / runner.attempted
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = environment(args)
    details = dict(result, env=env, failed_frac=failed_frac, failures=runner.failures[:20], **extra)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUN_DIR / name).write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    for failure in runner.failures[:5]:
        print(f"FAILED {' '.join(failure['argv'])}: {'; '.join(failure['errors'])}",
              file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {runner.attempted} calls, "
          + ", ".join(f"{k}={v}" for k, v in extra.items()
                      if k not in ("setup_samples", "trace_missing", "calls")))
    if extra.get("trace_missing"):
        print(f"# not traced (absent): {', '.join(extra['trace_missing'])}")
    for metric, entry in metrics.items():
        print(f"{metric:28s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':28s} {failed_frac:.6g} frac")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + 60)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise HarnessError(f"workload {workload} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        metrics = dict(result["metrics"])
        metrics["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "frac"}
        for metric, entry in metrics.items():
            total["metrics"][f"{workload}/{metric}"] = entry
            rows.append(f"{workload:8s} {metric:28s} {entry['value']:.6g} {entry['unit']}")
    print("\n".join(rows))
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        RUN_DIR.mkdir(exist_ok=True)
        if args.probe:
            runner, seconds = setup(args.workload, args.seed, workloads.load_reference())
            shutil.rmtree(runner.out_dir, ignore_errors=True)
            print(json.dumps(seconds))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
