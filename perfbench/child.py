"""One share of a workload run in a fresh process: set up, measure, check.

Run by run.py; prints one JSON object on its last line.  Set-up time
counts from this module's first statement, so it includes `import symq`.
Untraced, the child reports every task's durations; traced, the per-layer
metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference():
    """A fixed piece of pure-Python work in symq's style, under 1 ms here.

    Integer row operations, tuple hashing and small-object construction.
    The fastest of the runs next to a task tells how fast the machine ran
    while the task ran.  The collector is off while it runs, so that its
    time does not depend on how many objects symq keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        n = 14
        rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(n)] for i in range(n)]
        seen = {}
        for r in range(n):
            for i in range(r + 1, n):
                a, b = rows[r][r] or 1, rows[i][r]
                rows[i] = [(a * x - b * y) % 1000003 for x, y in zip(rows[i], rows[r])]
                seen[tuple(v % 97 for v in rows[i])] = i
        points = [_Point((i, i % 5), i) for i in range(1000)]
        return len(seen) + sum(p.value for p in points if p.key[1])
    finally:
        if enabled:
            gc.enable()


SETUP_REFERENCE_RUNS = 10


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Runner:
    def __init__(self, tasks, with_reference=False):
        self.tasks = tasks
        self.with_reference = with_reference
        self.durations = []  # per pass, the seconds of each task, in task order
        self.reference = []  # per pass, the seconds of the reference run after each task
        self.failures = []

    def run_pass(self):
        clock = time.perf_counter
        start = clock()
        durations, reference_runs = [], []
        for task in self.tasks:
            t0 = clock()
            try:
                result = task.run()
                dt = clock() - t0
                problem = task.check(result)
            except Exception as exc:  # a task that raises, or whose output cannot be read, failed
                dt = clock() - t0
                problem = f"{type(exc).__name__}: {exc}"
            durations.append(dt)
            if problem:
                self.failures.append(f"{task.name}: {problem}")
            if self.with_reference:
                reference_runs.append(_timed(reference))
        self.durations.append(durations)
        if self.with_reference:
            self.reference.append(reference_runs)
        return clock() - start

    def attempted(self):
        return sum(len(durations) for durations in self.durations)


def measure(runner, seconds):
    """Repeat the task list until the next pass would overrun `seconds`."""
    deadline = time.perf_counter() + seconds
    while True:
        wall = runner.run_pass()
        if time.perf_counter() + wall > deadline:
            return


def traced(runner, seconds):
    """Alternate untraced and traced passes; per-layer medians over traced passes."""
    import tracer

    tr = tracer.Tracer()
    deadline = time.perf_counter() + seconds
    plain, walls, layers = [], [], []
    while True:
        plain.append(runner.run_pass())
        tr.reset()
        tr.install()
        try:
            walls.append(runner.run_pass())
        finally:
            tr.uninstall()
        layers.append(tr.metrics())
        if time.perf_counter() + plain[-1] + walls[-1] > deadline:
            break
    units = dict(tracer.METRICS)
    out = {
        name: (statistics.median(layer[name] for layer in layers), units[name])
        for name in layers[0]
    }
    out["trace.overhead_frac"] = (statistics.median(walls) / statistics.median(plain) - 1, "ratio")
    return out, {"wall_s": statistics.median(plain), "traced_wall_s": statistics.median(walls)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import symq

    if Path(symq.__file__).resolve().parent != root / "src" / "symq":
        raise SystemExit(f"symq was imported from {symq.__file__}, not from {root / 'src'}")
    import workloads

    workdir = root / ".perfbench_work" / str(os.getpid())
    try:
        tasks = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _START
        # the machine's speed just after set-up, to scale the set-up time by
        setup_reference_s = min(_timed(reference) for _ in range(SETUP_REFERENCE_RUNS))
        runner = Runner(tasks, with_reference=not args.trace)
        if args.trace:
            metrics, info = traced(runner, args.seconds)
            out = {"metrics": metrics, "info": info}
        else:
            measure(runner, args.seconds)
            out = {
                "setup_s": setup_s,
                "setup_reference_s": setup_reference_s,
                "tasks": [task.name for task in tasks],
                "headline": [task.name for task in tasks if task.headline],
                "durations": runner.durations,
                "reference_s": runner.reference,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    out.update(attempted=runner.attempted(), failures=runner.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
