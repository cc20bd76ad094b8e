"""One measured run of one workload, in a fresh interpreter.

run.py starts this with PYTHONPATH pointing at the checkout's src and a
warm kernel cache.  It prints one JSON object: the run's counts, metrics
and metadata.  With --setup-only it stops after the set-up and prints only
setup_s, so run.py can sample the set-up time in more fresh interpreters.

setup_s runs from just before `import ddlab` to the end of the workload's
program-side set-up; making the benchmark's own inputs is not counted.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _measure(workload, seconds, rounds):
    """Run whole rounds until `seconds` have passed (at least one round).
    Appends (wall s, CPU s, digest) per round and returns the last round's
    outputs."""
    start = time.perf_counter()
    while True:
        output = None  # let the previous round's outputs go first
        wall, cpu = time.perf_counter(), _cpu()
        output = workload.run_round()
        wall, cpu = time.perf_counter() - wall, _cpu() - cpu
        rounds.append((wall, cpu, workload.digest(output)))
        if time.perf_counter() - start >= seconds:
            return output


def _rate(rounds, items, column):
    """Items over the time of the slowest round (column 0 wall, 1 CPU).

    Every round does the same work.  The shared machine this was tuned on
    runs this process at a loaded speed most of the time, and faster in
    stretches of seconds to minutes when other tenants idle.  Estimators
    that let the fast rounds in (mean, median, fastest) spread with the
    share of fast time in a run; the slowest round sits on the loaded
    speed, and spread least over ten seeds in two sets (README.md).
    """
    return items / max(r[column] for r in rounds)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import ddlab
    import ddlab.cli  # noqa: F401  (part of every workload's import)
    import_s = time.perf_counter() - started

    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = tracing.Tracer(args.seed) if args.trace else None
    if tracer:
        tracer.install()
    started = time.perf_counter()
    workload.setup()
    setup_s = import_s + time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = []
    try:
        if tracer:
            # half the time untraced, half traced: the drop in items/s
            # between the two is the tracing overhead
            tracer.uninstall()
            _measure(workload, args.seconds / 2, rounds)
            untraced = len(rounds)
            tracer.install()
            output = _measure(workload, args.seconds / 2, rounds)
            tracer.uninstall()
        else:
            output = _measure(workload, args.seconds, rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed_per_round, problems = workload.check(output)
    finally:
        workload.close()

    # every round repeats the same deterministic operations, so a round
    # whose digest differs from the checked (last) one failed as a whole
    items = workload.items
    last = rounds[-1][2]
    failed = sum(failed_per_round if digest == last else items
                 for *_, digest in rounds)
    if any(digest != last for *_, digest in rounds):
        problems.append("rounds of one run gave different outputs")

    if tracer:
        metrics, more = tracing.replay_kernels(tracer.samples)
        problems += more
        metrics.update(tracer.metrics())
        plain = _rate(rounds[:untraced], items, 0)
        traced = _rate(rounds[untraced:], items, 0)
        metrics["trace.items_per_s"] = (traced, "items/s")
        metrics["trace.overhead"] = (1 - traced / plain, "ratio")
    else:
        metrics = {
            "items_per_s": (_rate(rounds, items, 0), "items/s"),
            "items_per_cpu_s": (_rate(rounds, items, 1), "items/CPU-s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    from ddlab import _kernels

    print(json.dumps({
        "correct": not problems,
        "attempted": items * len(rounds),
        "failed": failed,
        "rounds": len(rounds),
        "round_wall_s": [wall for wall, *_ in rounds],
        "problems": problems[:20],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
        "backend": _kernels.BACKEND,
        "backend_detail": _kernels.BACKEND_DETAIL,
        "ddlab_version": ddlab.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
