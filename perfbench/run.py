"""ultrazeta benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload {grids,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src, nothing
is installed or built.  One closed-loop client in one worker process runs
whole rounds of the workload's tasks (see workloads.py) until S seconds of
timed task time and at least 100 tasks.  Every output is checked against
an independent oracle; a wrong output exits non-zero and prints no result.

--trace 0 prints the end-to-end metrics: set-up time (median of three
fresh interpreters, each importing ultrazeta, generating the seeded inputs
and running one untimed warm-up round), the median and p90 task time and
tasks per second, all three over each task kind's best time in the run
(see end_to_end), and the worker's peak RSS.
--trace 1 prints the per-layer metrics of a span-traced run (tracer.py).
It traces a few rounds of every workload, since every per-layer metric,
named <workload>.<metric>, is reported by every traced run; then it runs
the named workload's one-shot layer cases (cases.py).

The last line of stdout is the JSON result.  A record with the environment
(Python, numpy, nproc, CPU, caches, thread settings, seed) goes to
perfbench/out/, and a summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("grids", "cli")
SETUP_PROBES = 2        # set-ups besides the measuring worker's own
RUN_LIMIT_S = 170.0     # the whole command, cases included
THREAD_VARS = ("ULTRAZETA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "task_p50_ms": "ms", "task_p90_ms": "ms",
                    "tasks_per_s": "1/s", "peak_rss_mb": "MiB"}


def child_env():
    """One worker thread unless the caller says otherwise."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def run_child(argv, env, timeout):
    """Run a Python child from the repository root; returns (start on the
    monotonic clock, parsed last stdout line).  Exits like the child on
    failure."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"benchmark: {' '.join(argv)} timed out")
    if proc.returncode != 0:
        print(f"benchmark: {' '.join(argv)} exited with {proc.returncode}",
              file=sys.stderr)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    return start, json.loads(out.strip().splitlines()[-1])


def environment(args):
    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""
    cpu = next((line.split(":", 1)[1].strip()
                for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(f"{base}/{idx}/level").strip()
        kind = read(f"{base}/{idx}/type").strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{base}/{idx}/size").strip()
    import numpy
    env = child_env()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "threads": {k: env[k] for k in THREAD_VARS},
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def best_times(labels, times):
    """Each task kind's best time in the run, sorted.

    Every round of a kind does the same work (the seed picks only values
    that leave the cost unchanged), so the spread between its rounds is
    the shared host's, which slows single tasks by up to 2x for seconds at
    a time; the best of the rounds is the kind's cost without that
    interference."""
    best = {}
    for label, t in zip(labels, times):
        best[label] = min(t, best.get(label, t))
    return sorted(best.values())


def end_to_end(setups, res):
    """The end-to-end metrics.  The task-time quantiles and tasks per
    second are taken over the workload's mix of task kinds, one best time
    per kind."""
    best = best_times(res["labels"], res["times"])
    q = statistics.quantiles(best, n=100, method="inclusive")
    values = {"setup_s": statistics.median(setups),
              "task_p50_ms": q[49] * 1e3, "task_p90_ms": q[89] * 1e3,
              "tasks_per_s": len(best) / sum(best),
              "peak_rss_mb": res["peak_rss_mb"]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ultrazeta",
                                       "__init__.py")):
        sys.exit("benchmark: src/ultrazeta not found; run from a checkout "
                 "of the repository")
    t_begin = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    worker = [os.path.join(HERE, "worker.py")]
    spec = [args.workload, str(args.seed), repr(args.seconds)]
    record = {"environment": environment(args)}

    def left():
        return RUN_LIMIT_S - (time.monotonic() - t_begin)

    if args.trace == 0:
        setups = []
        for _ in range(SETUP_PROBES):
            start, res = run_child(worker + ["setup"] + spec, env, left())
            setups.append(res["ready"] - start)
        start, res = run_child(worker + ["measure"] + spec, env, left())
        setups.append(res["ready"] - start)
        metrics = end_to_end(setups, res)
        record.update(setup_samples_s=setups, rounds=res["rounds"],
                      task_labels=res["labels"], task_times_s=res["times"])
        attempted, failed = len(res["times"]), res["failed"]
    else:
        import cases
        import tracer
        _, res = run_child(worker + ["trace"] + spec, env, left())
        units = tracer.METRIC_UNITS
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in res["metrics"].items()}
        record.update(spans_file=res["spans_file"],
                      cases=cases.run_all(args.workload, env, left))
        attempted, failed = res["attempted"], res["failed"]
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    envr = record["environment"]
    print(f"benchmark: {args.workload} seed {args.seed}: {attempted} tasks, "
          f"{failed} failed; python {envr['python']}, numpy "
          f"{envr['numpy']}, nproc {envr['nproc']}, {envr['cpu']}, "
          f"caches {envr['caches']}, threads {envr['threads']}; "
          f"record in perfbench/out/{name}", file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
