"""Tests of the benchmark itself: every correctness check passes on a true
answer and fails on a corrupted one, the traced layers account for the task
time, and the runner refuses a directory without the library.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from tracing import MODULES, Library, Tracer, layer_report
from workloads import Su2Build, Su2Channels, Su2Oracle, U1Fock

HERE = Path(__file__).resolve().parent


def first_task(workload, kind):
    return next(t for t in workload.tasks() if t.kind == kind)


def answered(workload_cls, kind, tmp_path):
    workload = workload_cls(Library(), seed=7, out_dir=str(tmp_path))
    task = first_task(workload, kind)
    out = task.run()
    assert task.check(out) == []
    return task, out


@pytest.mark.parametrize("kind", ["coherent-40", "two-mode-49"])
def test_u1_checks_fail_on_corrupted_answers(kind, tmp_path):
    task, out = answered(U1Fock, kind, tmp_path)
    k = 1
    cases = {
        "bound": lambda o: o["bound"].__setitem__(k, o["bound"][k] * (1 + 1e-9)),
        "twirled-spectrum": lambda o: o["spectrum"].__setitem__(1, o["spectrum"][1] * (1 + 1e-6)),
        "ensemble": lambda o: o["residuals"].__setitem__(0, o["residuals"][0] + 1e-9),
    }
    for name, corrupt in cases.items():
        bad = {key: dict(v) if isinstance(v, dict) else v for key, v in out.items()}
        corrupt(bad)
        assert name in task.check(bad), name


def test_su2_build_checks_fail_on_corrupted_answers(tmp_path):
    task, out = answered(Su2Build, "spin-1", tmp_path)
    assert task.check({**out, "gram": 2e-10}) == ["gram"]
    assert task.check({**out, "twirl": out["twirl"] + 1e-9}) == ["twirl"]


def test_su2_oracle_checks_fail_on_corrupted_answers(tmp_path):
    task, out = answered(Su2Oracle, "spin-1/2", tmp_path)
    assert task.check({**out, "covariance": 1e-9}) == ["covariance"]
    mode = next(iter(out["quadrature"]))
    quadrature = {**out["quadrature"], mode: out["quadrature"][mode] + 1e-7}
    assert task.check({**out, "quadrature": quadrature}) == ["quadrature"]


def test_su2_channels_checks_fail_on_corrupted_answers(tmp_path):
    task, out = answered(Su2Channels, "1->1", tmp_path)
    mode = next(iter(out["before"]))
    closed = out["closed"]
    step = dataclasses.replace(closed.steps[1], lz2_mean=closed.steps[1].lz2_mean + 1e-8)
    psucc = dataclasses.replace(out["psucc"], delta=1e-7)
    cases = {
        "reduction": {"residual": 1e-8},
        "reconstruction": {"rebuilt": out["rebuilt"] + 1e-8},
        "monotone": {"after": {**out["after"], mode: out["before"][mode] + 1e-8}},
        "trajectory": {"closed": dataclasses.replace(closed, steps=(closed.steps[0], step, *closed.steps[2:]))},
        "psucc": {"psucc": psucc},
    }
    for name, change in cases.items():
        assert task.check({**out, **change}) == [name], name

    task, out = answered(Su2Channels, "6->6+cli", tmp_path)
    reduced = Path(out["cli_paths"]["reduced.json"])
    payload = json.loads(reduced.read_text())
    payload["residual"] += 1e-9
    reduced.write_text(json.dumps(payload))
    assert task.check(out) == ["cli"]


def test_known_failure_is_kept_apart_from_unexpected_ones():
    class Failing:
        known_failures = frozenset({("a", "gram")})
        gauges = {}

        def tasks(self):
            for kind, checks in (("a", ["gram"]), ("b", ["gram"]), ("a", [])):
                yield worker_task(kind, checks)

    def worker_task(kind, checks):
        from workloads import Task
        return Task(kind, lambda: None, lambda out: list(checks))

    result = worker.run_loop(Failing(), seconds=60)
    assert result["attempted"] == 3
    assert result["failed_all"] == 2
    assert result["failed_unexpected"] == 1
    assert result["unexpected_failures"][0]["kind"] == "b"


def test_raising_task_counts_as_failed():
    class Raising:
        known_failures = frozenset()
        gauges = {}

        def tasks(self):
            from workloads import Task

            def boom():
                raise ValueError("bad input")

            yield Task("x", boom, lambda out: [])

    result = worker.run_loop(Raising(), seconds=60)
    assert (result["attempted"], result["raised"], result["failed_unexpected"]) == (1, 1, 1)


def test_tail_has_ten_samples_beyond():
    value, pct, n = worker.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert worker.tail([3, 1, 2]) == (3, 100.0, 3)


def test_layer_shares_and_self_time_add_up_to_task_time(tmp_path):
    tracer = Tracer()
    workload = U1Fock(Library(tracer), seed=3, out_dir=str(tmp_path))
    result = worker.run_loop(workload, seconds=0.05, tracer=tracer)
    metrics = layer_report(tracer.spans)["metrics"]
    task_s = metrics["bench.task_s"]
    covered = sum(metrics[f"{m}.busy_s"] for m in MODULES) + metrics["bench.self_s"]
    assert covered == pytest.approx(task_s, rel=1e-9)
    assert sum(metrics[f"{m}.share"] for m in MODULES) + metrics["bench.self_s"] / task_s \
        == pytest.approx(1.0, rel=1e-9)
    assert metrics["u1.transition_bound.calls"] == result["attempted"]
    span = next(s for s in tracer.spans if s[0] == "u1.transition_bound")
    assert span[5]["d"] == 41 and span[5]["degeneracy"] == 1


def test_untraced_library_hands_out_the_library_functions():
    import asymmodes.u1
    assert Library().u1.transition_bound is asymmodes.u1.transition_bound


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "u1-fock", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
