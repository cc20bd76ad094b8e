#!/usr/bin/env python3
"""ddlab benchmark: end-to-end rates per workload, or a traced per-layer run.

Usage, from the root of a checkout:

    python3 ddbench/run.py --workload all                  # every workload
    python3 ddbench/run.py --workload definability --seed 3 --seconds 15
    python3 ddbench/run.py --workload pregeometry --trace 1

--seconds is the measured time of each workload; it defaults to
run_seconds in BENCHMARK.json, which is what the benchmark's command is
given.  Set-up samples and checks come on top of it.

Each workload runs in fresh interpreters, one after another, on the
ddlab source under src/ (never an installed copy), with the compiled
kernels cached under ddbench/out/cache.  A run prints the backend, Python
version, nproc and git revision, then one table row per workload, and as
its last line one JSON object: correct, attempted, failed and metrics.
Results and traces are also written to ddbench/out/.  See README.md.
"""

import argparse
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("surjection-cli", "orbit-dichotomy", "definability",
             "pregeometry")
SETUP_SAMPLES = 9  # fresh interpreters timed per run
TIMEOUT = 170      # seconds any one child process may take
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment():
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["XDG_CACHE_HOME"] = str(OUT / "cache")
    env["TMPDIR"] = str(OUT / "tmp")  # the compiler's scratch files too
    env["PYTHONHASHSEED"] = "0"  # every run iterates string sets alike
    return env


def _python(args, env):
    run = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                         stdin=subprocess.DEVNULL, capture_output=True,
                         text=True, timeout=TIMEOUT)
    if run.returncode:
        sys.stderr.write(run.stderr)
        raise SystemExit(f"ddbench: {args[0]} exited {run.returncode}")
    return run.stdout


def _git_revision():
    try:
        run = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return run.stdout.strip() if run.returncode == 0 else "unknown"


def _cold_build_seconds(env):
    """Seconds for a fresh interpreter to import ddlab._kernels with an
    empty kernel cache, i.e. to build the compiled kernels from _gf2ext.c."""
    cache = tempfile.mkdtemp(prefix="cold-cache-", dir=OUT)
    try:
        started = time.perf_counter()
        backend = _python(["-c", "import ddlab._kernels as k; "
                                 "print(k.BACKEND)"],
                          dict(env, XDG_CACHE_HOME=cache)).strip()
        return time.perf_counter() - started, backend
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def run_workload(name, seed, seconds, trace, env):
    """One benchmark run of one workload; returns measure.py's result with
    setup_s taken as the upper quartile of SETUP_SAMPLES fresh
    interpreters.  As with the rates (measure._rate), the loaded speed is
    the steady one; unlike a round, a single set-up sample now and then
    stalls on its own, which the upper quartile passes over."""
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(OUT)]
    measure = str(HERE / "measure.py")
    # an untimed set-up first fills the kernel cache and writes the
    # bytecode caches, so that every timed sample starts warm
    _python([measure, *common, "--seconds", "0", "--setup-only"], env)
    setups = [json.loads(_python([measure, *common, "--seconds", "0",
                                  "--setup-only"], env))["setup_s"]
              for _ in range(0 if trace else SETUP_SAMPLES - 1)]
    result = json.loads(_python([measure, *common, "--seconds", str(seconds),
                                 "--trace", str(trace)], env).splitlines()[-1])
    metrics = result["metrics"]
    if trace:
        build_s, backend = _cold_build_seconds(env)
        metrics["kernels.build_s"] = {"value": build_s, "unit": "s"}
        if backend != "cython":
            result["problems"].append(f"cold build selected {backend}")
            result["correct"] = False
    else:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.quantiles(
            setups, n=4, method="inclusive")[2]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ddlab" / "__init__.py").is_file():
        print(f"ddbench: no ddlab source at {ROOT / 'src' / 'ddlab'}",
              file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = _environment()

    bound = next(m["bound"] for m in BENCHMARK["end_to_end"]
                 if m["name"] == "items_per_s")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace, env)
    first = next(iter(results.values()))
    meta = {"backend": first["backend"],
            "backend_detail": first["backend_detail"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": _git_revision(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    for key, value in meta.items():
        print(f"{key}: {value}")
    for name, result in results.items():
        print(f"\n{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, rounds {result['rounds']}, correct "
              f"{result['correct']}")
        walls = result["round_wall_s"]
        if not args.trace and len(walls) > 1:
            # the same work took this much longer in some rounds than in
            # others: a difference in items_per_s smaller than this spread
            # is not resolved by this run
            q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive")
            spread = (q3 - q1) / statistics.median(walls)
            print(f"  round times: quartile spread {spread:.3f} of the "
                  f"median over {len(walls)} rounds"
                  + (f", wider than the items_per_s bound {bound}: "
                     "unresolved" if spread > bound else ""))
        for problem in result["problems"]:
            print(f"  problem: {problem}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<48} {m['value']:>16.6g} {m['unit']}")

    stem = f"{'trace' if args.trace else 'result'}-{args.workload}-{args.seed}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "results": results}, indent=1) + "\n")
    if len(results) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in results.items()
                   for metric, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
