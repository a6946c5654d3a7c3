"""One benchmark process: set up a workload, then run its tasks back to back
for the given number of seconds and print the measurements as JSON.

`run.py` starts this script; the time from its start to the line READY is one
set-up sample.  With --setup-only the process exits there.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

MAX_REPORTED_FAILURES = 20


def tail(latencies: list) -> tuple:
    """The highest percentile that still has 10 samples beyond it:
    (value, percentile, sample count).  With 10 samples or fewer, the maximum."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: the next task starts when the last one is
    checked.  Only `task.run()` is timed."""
    latencies, kinds = [], []
    unexpected, known = [], []
    attempted = raised = failed_all = 0
    start = time.perf_counter()
    for i, task in enumerate(workload.tasks()):
        if time.perf_counter() - start >= seconds:
            break
        span = tracer.begin_task(i, task.kind) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out, error = task.run(), None
        except Exception as exc:  # a raising task is a failed task; the run goes on
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.end_task(span)
        attempted += 1
        latencies.append(elapsed)
        kinds.append(task.kind)
        if error is None:
            try:
                failed = task.check(out)
            except Exception as exc:  # a malformed answer fails its check
                failed = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            raised += 1
            failed = [error]
        if failed:
            failed_all += 1
            new = [f for f in failed if (task.kind, f) not in workload.known_failures]
            (unexpected if new else known).append({"task": i, "kind": task.kind, "checks": failed})
    busy = sum(latencies)
    tail_value, tail_pct, n = tail(latencies)
    by_kind: dict = {}
    for kind, t in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(t)
    return {
        "attempted": attempted,
        "raised": raised,
        "failed_all": failed_all,
        "failed_unexpected": len(unexpected),
        "unexpected_failures": unexpected[:MAX_REPORTED_FAILURES],
        "known_failures": known[:MAX_REPORTED_FAILURES],
        "tasks_per_s": (attempted - raised) / busy,
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_tail_ms": 1e3 * tail_value,
        "tail_percentile": tail_pct,
        "tail_samples": n,
        "busy_s": busy,
        "loop_wall_s": time.perf_counter() - start,
        "kinds": {k: {"tasks": len(v), "p50_ms": 1e3 * statistics.median(v)}
                  for k, v in sorted(by_kind.items())},
        "gauges": dict(workload.gauges),
    }


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads() -> int | None:
    import ctypes
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip(" \t:\n")
    except OSError:
        pass
    return None


def environment() -> dict:
    """What a result depends on besides the code; results whose records
    differ are not comparable."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "l3": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import asymmodes
    if Path(asymmodes.__file__).resolve().parent != ROOT / "src" / "asymmodes":
        print(f"error: imported asymmodes from {asymmodes.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from tracing import Library, Tracer, layer_report

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](Library(tracer), args.seed, args.out_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = run_loop(workload, args.seconds, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    if tracer is not None:
        result["layers"] = layer_report(tracer.spans)
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task, attrs, _child in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "task": task, **attrs}) + "\n")
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
