"""Benchmark for coslab: verify-all, s2-bandlimit and classify-sweep.

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy:

    python3 bench/run.py --workload s2-bandlimit --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36 --trace 1 --out results.json

Each workload runs in its own process as a closed loop with one operation in
flight, with BLAS pinned to one thread.  The run sets up ``SETUP_REPS`` times
(input generation plus a warm-up), then repeats passes of the workload's
fixed work for about ``--seconds`` seconds.  ``run_s`` is the sum over the
operations of a pass of the fastest time of each operation's kind in the run
(see ``fast_pass``).  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it holds the details: the
environment, every pass and set-up time, residuals and the trace summary.

A traced run spends the first half of its time on untraced passes and the
second half on traced ones, so the tracing overhead is measured in the same
process; end-to-end numbers always come from an untraced run.  The spans of
a traced run are written to ``bench/out/``.

``--seed`` defaults to DEFAULT_SEED.  Seed 7919 is held out: nothing was
tuned on it, so a later performance claim can be checked on it.  ``--smoke`` shrinks
every workload to a few seconds for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("verify-all", "s2-bandlimit", "classify-sweep")
DEFAULT_SEED = 1
SETUP_REPS = 3
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every end-to-end figure of an untraced run; BENCHMARK.json gates a subset
UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "accuracy_digits": "digits", "peak_rss_mb": "MB", "fail_frac": "fraction"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    p.add_argument("--out", help="with --workload all: write every result here")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "coslab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no coslab source tree at {ROOT / 'src'} (or no BENCHMARK.json); "
              "run from a full checkout", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


def run_one(args, spec: dict) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("COSLAB_THREADS", None)
    load_start = os.getloadavg()

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import coslab
    import tracing
    import workloads
    import_s = perf_counter() - start
    if Path(coslab.__file__).resolve().parent != (ROOT / "src" / "coslab").resolve():
        print(f"error: imported coslab from {coslab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tally = workloads.Tally()
    tracer = tracing.Tracer()
    cls = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            tracer.install()
        setup_s = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            with tracer.span("bench.setup"):
                wl = cls(args.seed, args.smoke, tally, tracer, tmp)
                wl.setup()
            setup_s.append(perf_counter() - t0)
        tracer.uninstall()
        kinds, ops = zip(*wl.ops())
        if args.trace:
            untraced, untraced_op_s = measure(ops, tally, tracer, args.seconds / 2,
                                              min_passes=1)
            tracer.window = "run"
            tracer.install()
            passes, op_s = measure(ops, tally, tracer, args.seconds / 2, min_passes=1)
            tracer.uninstall()
        else:
            passes, op_s = measure(ops, tally, tracer, args.seconds, min_passes=2)

    samples = [t for times in op_s for t in times]
    tail, tail_pct = tail_latency(samples)
    keys = wl.accuracy_keys or tuple(tally.worst)
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_s),
        "run_s": fast_pass(kinds, op_s),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_tail_ms": 1e3 * tail,
        "accuracy_digits": tally.accuracy_digits(keys),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": tally.failed / tally.attempted,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(load_start),
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end.items()},
        "import_s": import_s, "setup_reps_s": setup_s, "pass_s": passes,
        "pass_median_s": statistics.median(passes), "ops_per_pass": len(ops),
        "op_samples": len(samples), "op_tail_pct": tail_pct, "errors": tally.errors,
        "worst_residuals": tally.worst, "workload_detail": wl.detail(),
    }
    if args.trace:
        # end-to-end figures of a traced run mix traced and untraced passes;
        # only the untraced run's are reported
        del detail["end_to_end"]
        summary = tracer.summary(SETUP_REPS, passes, fast_pass(kinds, op_s),
                                 fast_pass(kinds, untraced_op_s), len(untraced))
        summary["metrics"].update({k: v for k, v in tally.worst.items()
                                   if k.startswith("sphere.")})
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        detail["trace"] = summary
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        values, wanted = summary["metrics"], spec["per_layer"]
    else:
        values, wanted = end_to_end, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def measure(ops, tally, tracer, seconds: float, min_passes: int):
    """Repeat passes over ``ops`` while another pass fits in ``seconds``.

    Returns the wall time of each pass and, for each operation, its wall
    time in every pass.
    """
    pass_s, op_s = [], [[] for _ in ops]
    start = perf_counter()
    while True:
        p0 = perf_counter()
        with tracer.span("bench.pass"):
            for op, times in zip(ops, op_s):
                o0 = perf_counter()
                tally.run(op)
                times.append(perf_counter() - o0)
        pass_s.append(perf_counter() - p0)
        if (len(pass_s) >= min_passes
                and perf_counter() - start + statistics.median(pass_s) > seconds):
            return pass_s, op_s


def fast_pass(kinds, op_s: list[list[float]]) -> float:
    """Wall time of one pass with every operation at its fastest in the run.

    ``kinds[i]`` is the kind of operation ``i`` and ``op_s[i]`` its times.
    On a shared host the speed of the CPU switches between fast and slow
    phases, up to 2x apart, lasting from under a second to minutes, so the
    time of a whole pass (and the median over passes) depends on the phases
    a run happens to meet.  Every kind runs at least once per pass, so its
    fastest time is one from the fastest phase the run met that was longer
    than one operation.  This removes the short phases; a slow phase as long
    as the whole run still shows.
    """
    fastest: dict = {}
    for kind, times in zip(kinds, op_s):
        fastest[kind] = min(fastest.get(kind, math.inf), *times)
    return sum(fastest[kind] for kind in kinds)


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than eleven samples no percentile qualifies, and the maximum
    is reported as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def environment(load_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown (not a git checkout)"


def run_all(args, spec: dict) -> int:
    """Run every workload in its own process and print every metric by name."""
    results = {}
    for name in WORKLOAD_NAMES:
        results[name] = {}
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"error: {name} --trace {trace} exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
            key = "traced" if trace else "untraced"
            results[name][key] = {"result": json.loads(lines[-1]),
                                  "detail": json.loads(lines[-2])["detail"]}
    for name, runs in results.items():
        res = runs["untraced"]["result"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in runs["untraced"]["detail"]["end_to_end"].items():
            print(f"  {metric:<16} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    print(json.dumps({name: runs["untraced"]["result"] for name, runs in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
