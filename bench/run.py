"""Benchmark of the superflag command-line tool.

    python3 bench/run.py --workload sl3_degenerate --seed 0 --seconds 50 --trace 0

Run from the root of a checkout.  The program is the checkout's own
``src/superflag``, run as ``python -m superflag.cli`` with ``src`` on
``PYTHONPATH``; nothing is installed or built.

``--trace 0`` measures the end-to-end metrics.  It times ``SETUP_PROBES``
fresh-interpreter set-ups (after one uncounted warm-up), then runs the
workload's commands, one child process at a time, until one more operation
would end more than half an operation past ``--seconds`` (at least
``MIN_OPS`` operations).

``--trace 1`` measures the per-layer metrics.  One child runs the commands
in-process untraced for half of ``--seconds`` (at least once), then once
with the span tracer of ``bench/tracer.py`` installed.

Every report is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record, with the machine, the load average before and after, and
every sample, goes to ``bench/out/results/``; a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("osp_tower", "sl3_degenerate", "verify_catalog", "region_toric")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_PROBES = 7
MIN_OPS = 3
# A run must end within 180 s; no child may outlive this many seconds after
# the run starts.
RUN_LIMIT_S = 165.0


class Child:
    """One child process with its wall time and resource usage."""

    def __init__(self, argv, env, stdout_path, stderr_path, timeout):
        self.timed_out = False
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = threading.Timer(max(timeout, 0.1), self._kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()

    def _kill(self, pid: int) -> None:
        self.timed_out = True
        os.kill(pid, signal.SIGKILL)

    def outcome(self, argv: list[str]) -> dict:
        return {
            "argv": argv,
            "code": self.code,
            "stdout": self.stdout,
            "stderr": self.stderr,
            "timed_out": self.timed_out,
        }


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


class Run:
    """State of one benchmark run: inputs, deadline, samples, failures."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: int):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.t0 = time.perf_counter()
        self.tag = f"{workload}-s{seed}-t{trace}-{os.getpid()}"
        self.work = os.path.join(OUT, "work", self.tag)
        self.results = os.path.join(OUT, "results")
        os.makedirs(self.work, exist_ok=True)
        os.makedirs(self.results, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.prepared = workloads.prepare(workload, os.path.relpath(self.work, ROOT), seed)
        self.oracle = workloads.load_oracle()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.record: dict = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "environment": environment(),
            "loadavg_start": os.getloadavg(),
            "commands": self.prepared.commands,
        }

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t0)

    def child(self, argv: list[str], name: str) -> Child:
        return Child(
            [sys.executable, *argv],
            self.env,
            os.path.join(self.work, f"{name}.out"),
            os.path.join(self.work, f"{name}.err"),
            self.remaining(),
        )

    def count(self, outcomes: list[dict]) -> bool:
        """Check one operation's outcomes; record and count any failure."""
        self.attempted += 1
        problems = workloads.check(self.workload, self.prepared, outcomes, self.oracle)
        self.failed += bool(problems)
        self.problems += [f"operation {self.attempted}: {p}" for p in problems]
        return not problems

    # -- trace 0 -------------------------------------------------------------

    def setup_s(self) -> list[float]:
        probe = [os.path.join(BENCH, "setup_probe.py"), *self.prepared.probe]
        samples = []
        for i in range(SETUP_PROBES + 1):
            child = self.child(probe, "setup")
            if child.code != 0:
                raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-300:]}")
            if i:
                samples.append(child.wall_s)
        return samples

    def end_to_end(self) -> dict[str, float]:
        setup = self.setup_s()
        ops: list[dict] = []
        start = time.perf_counter()
        while len(ops) < MIN_OPS or (
            time.perf_counter() - start + statistics.mean(o["wall_s"] for o in ops) / 2
            <= self.seconds
        ):
            children = [
                self.child(["-m", "superflag.cli", *argv], f"op{len(ops)}-{i}")
                for i, argv in enumerate(self.prepared.commands)
            ]
            ok = self.count(
                [c.outcome(argv) for c, argv in zip(children, self.prepared.commands)]
            )
            ops.append(
                {
                    "wall_s": sum(c.wall_s for c in children),
                    "cpu_s": sum(c.cpu_s for c in children),
                    "rss_mb": max(c.rss_mb for c in children),
                    "ok": ok,
                }
            )
            if self.remaining() < 2 * ops[-1]["wall_s"]:
                break
        self.record["setup_samples_s"] = setup
        self.record["operations"] = ops
        return {
            "wall_s": statistics.median(o["wall_s"] for o in ops),
            "cpu_s": statistics.median(o["cpu_s"] for o in ops),
            "peak_rss_mb": max(o["rss_mb"] for o in ops),
            "setup_s": statistics.median(setup),
        }

    # -- trace 1 -------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        result = os.path.join(self.work, "trace.json")
        spans = os.path.join(self.results, f"{self.tag}.spans.json")
        child = self.child(
            [
                os.path.join(BENCH, "tracer.py"),
                "--commands",
                json.dumps(self.prepared.commands),
                "--reference-seconds",
                str(self.seconds / 2),
                "--out",
                result,
                "--spans",
                spans,
            ],
            "trace",
        )
        if child.code != 0:
            self.attempted += 1
            self.failed += 1
            self.problems.append(
                f"traced child exit {child.code}{' (timed out)' if child.timed_out else ''}: "
                f"{child.stderr.strip()[-300:]}"
            )
            return {name: 0.0 for name, _ in tracer.LAYER_METRICS}
        with open(result, encoding="utf-8") as fh:
            traced = json.load(fh)
        for outcomes in traced.pop("outcomes"):
            self.count(outcomes)
        self.problems += workloads.check_trace(
            self.workload, self.prepared, traced["essential_sizes"]
        )
        metrics = traced["metrics"]
        accounted = traced["self_s_sum"] + metrics["cli.residual_s"]
        if abs(accounted - traced["traced_s"]) > 1e-6 * max(1.0, traced["traced_s"]):
            self.problems.append(
                f"layer self times plus residual {accounted!r} != traced total "
                f"{traced['traced_s']!r}"
            )
        self.record["trace"] = traced
        return metrics

    # -- result ----------------------------------------------------------------

    def finish(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        self.record["loadavg_end"] = os.getloadavg()
        self.record["problems"] = self.problems
        result = {
            "correct": not self.problems,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        self.record["result"] = result
        with open(os.path.join(self.results, f"{self.tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(self.record, fh, indent=1)
        shutil.rmtree(self.work, ignore_errors=True)
        return result


def print_report(run: Run, result: dict) -> None:
    env = run.record["environment"]
    print(
        f"# {run.workload} seed={run.seed} seconds={run.seconds} trace={run.trace} "
        f"python={env['python']} nproc={env['nproc']} cpu={env['cpu_model']!r}"
    )
    print(f"# loadavg start={run.record['loadavg_start']} end={run.record['loadavg_end']}")
    if run.trace:
        t = run.record.get("trace", {})
        print(
            f"# traced total {t.get('traced_s', 0):.4f} s, untraced "
            f"{t.get('untraced_s')}, spans {t.get('spans')}"
        )
    samples = {}
    if run.trace == 0:
        samples = dict.fromkeys(("wall_s", "cpu_s"), len(run.record["operations"]))
        samples["setup_s"] = len(run.record["setup_samples_s"])
    for name, m in result["metrics"].items():
        n = f" (median of {samples[name]})" if name in samples else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{n}")
    print(f"fail_ratio = {result['failed'] / result['attempted']:.6g} ratio")
    for p in run.problems:
        print(f"# FAIL {p}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "superflag", "cli.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics = run.per_layer()
        units = dict(tracer.LAYER_METRICS)
    else:
        metrics = run.end_to_end()
        units = dict(END_TO_END)
    result = run.finish(metrics, units)
    print_report(run, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
