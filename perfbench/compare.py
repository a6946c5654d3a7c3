"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result-*.json files that run.py writes to
perfbench/out/ (copy them away between commits).  For every workload and
end-to-end metric it prints each side's median and quartile spread and the
change of the median, marked against the bound in BENCHMARK.json.  Results
whose environment records differ (other than the git commit) are flagged:
their numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_COMMIT_KEYS = ("git_sha", "git_dirty")


def load(directory: str) -> list:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(directory).glob("result-*-trace0.json"))]


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def env_differences(results: list) -> dict:
    seen: dict = {}
    for r in results:
        for key, value in r["env"].items():
            if key not in SAME_COMMIT_KEYS:
                seen.setdefault(key, set()).add(json.dumps(value))
    return {key: sorted(values) for key, values in seen.items() if len(values) > 1}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no result-*-trace0.json files in one of the directories", file=sys.stderr)
        return 2
    for key, values in env_differences(base + new).items():
        print(f"ENVIRONMENT DIFFERS in {key}: {', '.join(values)}; these results are not comparable")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in sorted({r["workload"] for r in base + new}):
        print(f"{workload}  (runs: {sum(r['workload'] == workload for r in base)} base, "
              f"{sum(r['workload'] == workload for r in new)} new)")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in base if r["workload"] == workload]
            b = [r["metrics"][m["name"]]["value"] for r in new if r["workload"] == workload]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            unresolved = spread(a) > m["bound"] or spread(b) > m["bound"]
            mark = "REGRESSION" if worse else "unresolved" if unresolved else ""
            print(f"  {m['name']:<14} {ma:12.6g} (spread {spread(a):.3f})  ->  {mb:12.6g} "
                  f"(spread {spread(b):.3f})  {change:+.1%} {m['unit']}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
