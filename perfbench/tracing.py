"""Spans around the benchmark's calls into asymmodes, and the per-layer
metrics derived from them.

The benchmark reaches the library only through a `Library`.  Without a tracer
it hands out the library's own functions, so an untraced run pays nothing.
With a tracer every function is wrapped in a span named after the module that
defines it (`u1.transition_bound`).  Nothing inside the library is patched:
spans cover the benchmark's call sites only.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("linalg", "u1", "su2", "channels", "monotones", "rf", "serialize", "cli")

TASK_SPAN = "bench.task"

# Layers hand work straight to the next one; nothing is queued, so a span's
# time is all busy time.
WAIT_NOTE = "no layer queues work, so there is no wait-time metric"


class Tracer:
    """Keeps every span in memory until the run ends.

    A span is the list [name, start, end, parent index, task id, size
    attributes, time covered by child spans].
    """

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._task = None

    def _begin(self, name: str, attrs: dict) -> list:
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, self._task, attrs, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list):
        span[2] = time.perf_counter()
        self._open.pop()
        if span[3] is not None:
            self.spans[span[3]][6] += span[2] - span[1]

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            span = self._begin(name, size_attrs(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)

        return traced

    def begin_task(self, task_id: int, kind: str) -> list:
        self._task = task_id
        return self._begin(TASK_SPAN, {"kind": kind})

    def end_task(self, span: list):
        self._end(span)
        self._task = None


def size_attrs(args, kwargs) -> dict:
    """Sizes of a call: the dimension d and the largest twice_j or charge
    degeneracy of its representation argument, else d of its first basis,
    superoperator or matrix argument."""
    values = (*args, *kwargs.values())
    for a in values:
        charges = getattr(a, "charges", None)
        if charges is not None:
            counts = defaultdict(int)
            for n in charges:
                counts[n] += 1
            return {"d": len(charges), "degeneracy": max(counts.values())}
        if hasattr(a, "max_twice_j"):
            return {"d": a.dim, "twice_j": a.max_twice_j}
    for a in values:
        if hasattr(a, "dim_left"):
            return {"d": a.dim_left}
        if hasattr(a, "in_dim"):
            return {"d": a.in_dim}
        shape = getattr(a, "shape", None)
        if shape is not None and len(shape) >= 2:
            return {"d": int(shape[-1])}
    return {}


class _Module:
    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if self._tracer is not None and callable(obj) and not isinstance(obj, type):
            obj = self._tracer.wrap(obj)
        setattr(self, name, obj)
        return obj


class Library:
    """The asymmodes modules as the benchmark calls them: `lib.u1.transition_bound`."""

    def __init__(self, tracer: Tracer | None = None):
        for name in MODULES:
            setattr(self, name, _Module(importlib.import_module(f"asymmodes.{name}"), tracer))


def layer_report(spans: list) -> dict:
    """Per-function calls and busy time, per-module busy time and share of
    task time, the task time no span covers, and busy time by size.

    Busy time is a span's self time, so the module busy times plus
    `bench.self_s` add up to the task time.  Spans outside a task (set-up)
    are left out.
    """
    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    by_size: dict = defaultdict(lambda: defaultdict(float))
    task_s = bench_self = 0.0
    for name, start, end, _parent, task, attrs, child in spans:
        if task is None:
            continue
        self_s = end - start - child
        if name == TASK_SPAN:
            task_s += end - start
            bench_self += self_s
            continue
        calls[name] += 1
        busy[name] += self_s
        by_size[name][attrs.get("d", "-")] += self_s
    module_busy = {m: 0.0 for m in MODULES}
    for name, value in busy.items():
        module_busy[name.split(".", 1)[0]] += value
    metrics = {}
    for name in sorted(calls):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy[name]
    for m in MODULES:
        metrics[f"{m}.busy_s"] = module_busy[m]
        metrics[f"{m}.share"] = module_busy[m] / task_s if task_s else 0.0
    metrics["bench.self_s"] = bench_self
    metrics["bench.task_s"] = task_s
    return {
        "metrics": metrics,
        "busy_s_by_d": {name: dict(sorted(sizes.items(), key=lambda kv: str(kv[0])))
                        for name, sizes in sorted(by_size.items())},
        "wait": WAIT_NOTE,
    }
