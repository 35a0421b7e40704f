"""One benchmark process, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE ``setup`` imports ultrazeta, generates the seeded inputs of the
warm-up round and runs it untimed (filling axis tables and lru caches),
then reports when it was ready.  ``measure`` does the same set-up and then
runs whole rounds until the timed task time reaches SECONDS and at least
MIN_TASKS tasks ran.  ``trace`` sets up every workload in turn, runs its
rounds once plainly and once under the span tracer, and reports the
per-layer metrics (WORKLOAD is not used).  The last line of stdout is the
JSON result; a wrong output exits with code 1 and prints no result.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from ultrazeta.errors import UltrazetaError  # noqa: E402

MIN_TASKS = 100         # task_p90_ms needs 10 samples above it
DEADLINE_S = 120.0      # stop early rather than overrun the run limit
STARTED = time.monotonic()


def setup(name, seed, workdir):
    w = workloads.WORKLOADS[name](workdir)
    for spec in workloads.round_specs(w, seed, 0):
        inputs = w.prepare(spec)
        try:
            w.execute(spec, inputs)
        except UltrazetaError:
            pass
    return w


def run_rounds(w, seed, rounds, timed, stop, labels=None):
    """Run rounds 1, 2, ... (or the given list); ``timed(spec, inputs)``
    returns (output, seconds, typed error or None).  Outputs are checked
    untimed, and the garbage of inputs and checks is collected before each
    task, so that no task pays for it.  ``stop(times)`` ends the loop after
    a round.  Each task's label is appended to ``labels`` if given."""
    times, failed, done = [], 0, []
    r = 0
    while True:
        r = rounds[len(done)] if rounds else r + 1
        for spec in workloads.round_specs(w, seed, r):
            inputs = w.prepare(spec)
            gc.collect()
            out, dt, err = timed(spec, inputs)
            times.append(dt)
            if labels is not None:
                labels.append(spec.label)
            if err is None:
                w.check(spec, inputs, out)
            else:
                failed += 1
                print(f"task {spec.label} failed: {type(err).__name__}: "
                      f"{err}", file=sys.stderr)
            del inputs, out
            if time.monotonic() - STARTED > DEADLINE_S:
                return times, failed, done + [r]
        done.append(r)
        if (rounds and len(done) == len(rounds)) \
                or (stop is not None and stop(times)):
            return times, failed, done


def plain_timer(w):
    def timed(spec, inputs):
        t0 = time.perf_counter()
        try:
            out = w.execute(spec, inputs)
        except UltrazetaError as err:
            return None, time.perf_counter() - t0, err
        return out, time.perf_counter() - t0, None
    return timed


def traced_timer(w, tracer):
    def timed(spec, inputs):
        box = [None, None]

        def task():
            try:
                box[0] = w.execute(spec, inputs)
            except UltrazetaError as err:
                box[1] = err
        dt = tracer.run_task(spec.label, task)
        return box[0], dt, box[1]
    return timed


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), \
        float(argv[3])
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    try:
        if mode == "trace":
            result = trace(seed, seconds, workdir)
        else:
            w = setup(name, seed, workdir)
            result = {"ready": time.monotonic()}
        if mode == "measure":
            labels = []
            times, failed, done = run_rounds(
                w, seed, None, plain_timer(w),
                lambda t: sum(t) >= seconds and len(t) >= MIN_TASKS, labels)
            result.update(times=times, labels=labels, failed=failed,
                          rounds=len(done))
    except workloads.WrongOutput as err:
        print(f"wrong output: {err}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(workdir):
            for entry in os.listdir(workdir):
                os.remove(os.path.join(workdir, entry))
            os.rmdir(workdir)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def trace(seed, seconds, workdir):
    """Trace every workload, so that each per-layer metric is measured in
    every traced run: per workload, rounds run untraced until SECONDS/8 of
    task time, then the same rounds run again under the tracer."""
    import ultrazeta
    from tracer import Tracer

    metrics, spans, attempted, failed = {}, {}, 0, 0
    for name in workloads.WORKLOADS:
        w = setup(name, seed, workdir)
        times, _, done = run_rounds(w, seed, None, plain_timer(w),
                                    lambda t: sum(t) >= seconds / 8)
        tracer = Tracer()
        tracer.install(ultrazeta)
        try:
            ttimes, tfailed, _ = run_rounds(w, seed, done,
                                            traced_timer(w, tracer), None)
        finally:
            tracer.uninstall()
        metrics.update(tracer.layer_metrics(name))
        metrics[f"{name}.trace.overhead_ratio"] = sum(ttimes) / sum(times)
        spans[name] = tracer.dump()
        attempted += len(ttimes)
        failed += tfailed
    path = os.path.join(HERE, "out", f"spans-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(spans, fh)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "spans_file": os.path.relpath(path, ROOT)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
