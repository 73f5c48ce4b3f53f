"""csdenoise benchmark runner.

    python3 perfbench/run.py --workload {train-csdn,train-pcn,denoise} \
        --seed N --seconds S --trace {0,1}

One closed-loop caller: the timed operation runs serially in this single
process, and the next call starts when the previous one has returned.
OpenBLAS is pinned to one thread before numpy loads, because concurrent
load on a two-core machine makes multi-threaded small GEMMs erratic. The
process is pinned to one CPU: on a two-vCPU virtual machine that cut the
spread of train-pcn operation times from 15-20% to 8-11% of the median.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
- throughput, in megapixels per second through the entry point, from the
  median operation time; the first operation of a run pays first-touch
  costs, so it is checked but left out of the median;
- peak RSS of this process;
- set-up time: the median of five package imports, each in a fresh
  interpreter, plus the median of five set-ups;
- the share of operations that passed their output check.

With ``--trace 1`` operations alternate between untraced and traced, so
drift in machine speed hits both alike. The last line then holds
per-layer metrics per training step or per image, from the traced
operations, and the spans are written to ``perfbench/work/``. In both
modes the line before the last holds the environment and the workload
properties.

The package is imported from ``src/`` next to this directory; without it
the runner exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
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
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
PINNED_CPU = max(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train-csdn", "train-pcn", "denoise"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="input sizes; 'smoke' is for the runner's own test")
    return p.parse_args(argv)


def environment(args, blas_threads_seen):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_seen": blas_threads_seen,
        "pinned_cpu": PINNED_CPU,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def openblas_threads():
    """Thread count OpenBLAS reports, or None where the library is not found."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_ops(workload, seconds, tracer=None):
    """Run operations back to back while the next one is expected to fit.

    With a tracer, every odd-numbered operation runs traced. Returns
    (per-op seconds, per-op traced flags, per-op check details, failures).
    """
    times, traced, details, failed = [], [], [], 0
    start = time.perf_counter()
    i = 0
    while True:
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.install()
            tracer.begin_op(i)
        t = time.perf_counter()
        try:
            result = workload.op(i)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, exc
        dt = time.perf_counter() - t
        if on:
            tracer.end_op()
            tracer.uninstall()
        times.append(dt)
        traced.append(on)
        if error is None:
            try:
                details.append(workload.check(result))
            except Exception as exc:  # a mismatch or an unreadable output
                error = exc
        if error is not None:
            failed += 1
            print(f"operation {i} failed: {error!r}", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(times) > seconds and (tracer is None or any(traced)):
            return times, traced, details, failed


def fresh_import_seconds(repeats):
    """Median time to import the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import csdenoise; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times)


def warm_median(times):
    """Median operation time without the first, cold, operation."""
    return statistics.median(times[1:] if len(times) > 1 else times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if PINNED_CPU is not None:
        os.sched_setaffinity(0, {PINNED_CPU})
    if not (ROOT / "src" / "csdenoise" / "__init__.py").is_file():
        print(f"error: no csdenoise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads as W
    from spans import Tracer, layer_metrics, unit_of

    import_s = fresh_import_seconds(SETUP_REPEATS)

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir()
    try:
        workload = W.WORKLOADS[args.workload](W.PROFILES[args.size], run_dir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup(args.seed)
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        reference = W.load_reference()
        attempted, failed = 0, 0
        problems = []

        if args.trace:
            tracer = Tracer()
            times, traced, _, failed = timed_ops(workload, args.seconds, tracer)
            attempted += len(times)
            plain = [t for t, on in zip(times, traced) if not on]
            with_spans = [t for t, on in zip(times, traced) if on]
            overhead = 100.0 * (statistics.median(with_spans) / warm_median(plain) - 1.0)
            spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans_path)
            units = len(with_spans) * workload.units_per_op
            metrics = {
                name: {"value": value, "unit": unit_of(name)}
                for name, value in layer_metrics(tracer, units, overhead).items()
            }
            details = {"spans": str(spans_path.relative_to(ROOT)), "op_seconds": times,
                       "traced": traced, "units": units}
        else:
            times, _, op_details, failed = timed_ops(workload, args.seconds)
            attempted += len(times)
            details = {"ops": len(times), "op_seconds": times,
                       "first_op": op_details[0] if op_details else None}

        # the canonical operation against its stored result, then the guard
        attempted += 2
        try:
            workload.check_reference(workload.reference_op(), reference[args.workload])
        except Exception as exc:  # a failed check is reported, not raised
            problems.append(f"reference: {exc!r}")
        try:
            details["properties"] = workload.guard(args.seed, reference)
        except Exception as exc:
            problems.append(f"guard: {exc!r}")
        failed += len(problems)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

        if not args.trace:
            metrics = {
                "mpix_per_s": {"value": workload.pixels_per_op / warm_median(times) / 1e6,
                               "unit": "Mpx/s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            }
        record = {
            "environment": environment(args, openblas_threads()),
            "setup_runs_s": setups,
            "import_s": import_s,
            "details": details,
            "problems": problems,
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        out = WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({**record, **result}, indent=1))
        print(json.dumps(record))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
