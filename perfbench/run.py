"""asymmodes benchmark.

    python3 perfbench/run.py --workload u1-fock --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints a readable report and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  Full results go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOAD_NAMES = ("u1-fock", "su2-build", "su2-oracle", "su2-channels")
# Set-up is sampled in fresh processes, two before the measured run and two
# after it, so that the median does not hang on one slow moment of the machine.
SETUP_BEFORE = SETUP_AFTER = 2
FAIL_RATIO_FLOOR = 1e-6
DEADLINE_S = 170  # every run ends within 180 s


class RunFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> tuple:
    """Run one worker process; returns (set-up seconds, result or None).
    Set-up is the time from starting the process to its READY line."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RunFailed(f"worker for {workload} exited with code {code}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise RunFailed(f"worker for {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def end_to_end(result: dict, setups: list) -> dict:
    # fail_ratio never reads 0, so that a relative bound on it stays defined:
    # with no failures it reads FAIL_RATIO_FLOOR, and any failure in a run of
    # fewer than a million tasks is a regression far beyond the bound.
    return {
        "setup_s": statistics.median(setups),
        "tasks_per_s": result["tasks_per_s"],
        "task_p50_ms": result["task_p50_ms"],
        "task_tail_ms": result["task_tail_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": max(result["failed_all"] / result["attempted"], FAIL_RATIO_FLOOR),
    }


def per_layer(traced: dict, plain: dict) -> dict:
    values = dict(traced["layers"]["metrics"])
    values.update(traced["gauges"])
    values["trace.overhead_ratio"] = traced["tasks_per_s"] / plain["tasks_per_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "asymmodes" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no asymmodes source (src/asymmodes); run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            # Same seed, fresh processes: the untraced half gives the base of
            # trace.overhead_ratio, the traced half the spans.
            half = args.seconds / 2
            _, plain = spawn(args.workload, args.seed, half, 0, deadline)
            _, result = spawn(args.workload, args.seed, half, 1, deadline)
            values = per_layer(result, plain)
            wanted = spec["per_layer"]
        else:
            def setup_only():
                return spawn(args.workload, args.seed, 0, 0, deadline, setup_only=True)[0]

            setups = [setup_only() for _ in range(SETUP_BEFORE)]
            setup_s, result = spawn(args.workload, args.seed, args.seconds, 0, deadline)
            setups += [setup_s] + [setup_only() for _ in range(SETUP_AFTER)]
            result["setup_samples_s"] = setups
            values = end_to_end(result, setups)
            wanted = spec["end_to_end"]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  metrics=metrics)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result, values if args.trace else None)
    print(json.dumps({
        "correct": result["failed_unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed_unexpected"],
        "metrics": metrics,
    }))
    return 0


def print_report(result: dict, layers: dict | None):
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "task_tail_ms":
            note = f"  (p{result['tail_percentile']:.1f} of {result['tail_samples']} tasks, 10 beyond)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in result["setup_samples_s"]) + ")"
        elif name == "fail_ratio":
            note = f"  ({result['failed_all']} of {result['attempted']} tasks failed a check)"
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}{note}")
    for kind, k in result["kinds"].items():
        print(f"  kind {kind:<28} {k['tasks']:>5} tasks  p50 {k['p50_ms']:.3f} ms")
    for f in result["known_failures"][:3]:
        print(f"  known failure: task {f['task']} {f['kind']} {', '.join(f['checks'])}")
    for f in result["unexpected_failures"]:
        print(f"  FAILED: task {f['task']} {f['kind']} {', '.join(f['checks'])}")
    if layers is not None:
        print(f"  {result['layers']['wait']}; spans in {result['spans_file']}")
        print("  per-layer: " + json.dumps(layers, sort_keys=True))
    print("  env: " + json.dumps(result["env"], sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
