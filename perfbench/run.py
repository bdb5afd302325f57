"""symq benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload presentation --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; symq is imported from its `src`.  An
untraced run is split over several child processes, one after another,
each with a pinned environment and a time limit; each sets up and then
repeats the task list for its share of `--seconds`, with a reference
loop after each task.  Each task run is scaled by the fastest reference
runs next to it, and each task is taken at the lower quartile of its
scaled times; `setup_s` is the median set-up.  A traced run uses one child.  The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  The exit code is 0 only when every task gave the
expected answer.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("presentation", "wells", "chain", "cli_mix")
CHILDREN = 6  # children per untraced run, so six set-ups and six shares of the time
REFERENCE_S = 0.0007  # seconds of a reference run that times are scaled to
NEAR = 2  # reference runs on each side that scale a task's time


def child_env():
    env = dict(os.environ)
    env.pop("SYMQ_MAX_ENUM", None)  # one knob that moves every enumeration bound at once
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def commit(root):
    """The checked-out commit, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(root, args, workload, seconds, limit):
    """The child's JSON result, or None when it failed or ran out of time."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--root", str(root),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(), stdout=subprocess.PIPE, timeout=limit, text=True
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: child killed after {limit:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: child exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _lower_quartile(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(children):
    """End-to-end metrics from the task durations and reference runs of the children.

    A task's time in a pass is multiplied by REFERENCE_S and divided by the
    fastest of the reference runs next to it (NEAR on each side of the one
    right after it), so that it reads as seconds on a machine that runs
    the reference loop in REFERENCE_S.  A task's time is the lower quartile
    of its scaled times: near its fastest, but not hanging on one run whose
    reference runs were all unlucky.
    """
    scaled, measured = {}, {}
    for out in children:
        for durations, references in zip(out["durations"], out["reference_s"]):
            for i, (name, dt) in enumerate(zip(out["tasks"], durations)):
                near = min(references[max(0, i - NEAR):i + NEAR + 1])
                scaled.setdefault(name, []).append(REFERENCE_S * dt / near)
                measured.setdefault(name, []).append(dt)
    task_s = {name: _lower_quartile(values) for name, values in scaled.items()}
    headline = children[0]["headline"]
    return {
        "wall_s": (sum(task_s.values()), "s"),
        "headline_s": (statistics.mean(task_s[name] for name in headline), "s"),
        "peak_rss_mb": (max(out["peak_rss_mb"] for out in children), "MB"),
        "setup_s": (statistics.median(
            REFERENCE_S * out["setup_s"] / out["setup_reference_s"] for out in children
        ), "s"),
    }, {
        "children": len(children),
        "passes": sum(len(out["durations"]) for out in children),
        "measured_wall_s": sum(_lower_quartile(values) for values in measured.values()),
        "fastest_reference_s": min(min(min(r) for r in out["reference_s"]) for out in children),
        "measured_setup_s": statistics.median(out["setup_s"] for out in children),
    }


def run_workload(root, args, workload):
    """(attempted, failures, metrics) of one workload run."""
    count = 1 if args.trace else CHILDREN
    start = time.monotonic()
    deadline = start + args.seconds
    # a child still running at this point is killed and the run counts as failed
    limit = start + min(150, 2 * args.seconds + 60)
    children = []
    for i in range(count):
        # what the children before have left, shared among the rest
        share = max(0.0, deadline - time.monotonic()) / (count - i)
        out = run_child(root, args, workload, share, max(1.0, limit - time.monotonic()))
        if out is None:
            attempted = sum(c["attempted"] for c in children) + 1
            return attempted, [f"{workload}: a child gave no result"], {}
        for failure in out["failures"]:
            print(f"FAILED {workload} {failure}", file=sys.stderr)
        children.append(out)
    attempted = sum(out["attempted"] for out in children)
    failures = [f for out in children for f in out["failures"]]
    if args.trace:
        metrics, info = children[0]["metrics"], children[0]["info"]
    else:
        metrics, info = end_to_end(children)
    print(f"# {workload}: {json.dumps(info, sort_keys=True)}")
    return attempted, failures, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "symq" / "__init__.py").is_file():
        print(f"error: no symq sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    print("# env: " + json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(root),
    }, sort_keys=True))

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for workload in chosen:
        n, failures, values = run_workload(root, args, workload)
        attempted += n
        failed += len(failures)
        print(f"# {workload}: failed_frac {len(failures) / n:.6g} ratio ({len(failures)} of {n} tasks)")
        for name, (value, unit) in values.items():
            print(f"# {workload}: {name} {value:.6g} {unit}")
            key = name if len(chosen) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
