"""Outside-in layer tracer.

A timing wrapper replaces each traced function on every module attribute of
the package that is bound to that function object, because the engines
import by name (``probability`` holds its own ``build_pure`` binding). A
traced class has its ``__init__`` wrapped instead, so isinstance checks keep
working. Spans nest through a call stack; a span's self time is its duration
minus the durations of its direct children. Spans stay in memory until the
run writes them out. A target that the package no longer defines is listed as
absent and reported with zero counts.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _build_key(counts: dict, args, kwargs) -> None:
    states = kwargs.get("states", args[0] if args else ())
    detectors = kwargs.get("detectors", args[1] if len(args) > 1 else ())
    counts.setdefault("keys", set()).add((tuple(states), tuple(detectors)))


def _ryser_ops(counts: dict, args, kwargs) -> None:
    n = np.shape(args[0])[0]
    counts["ops"] = counts.get("ops", 0) + n * ((1 << n) - 1)


def _batch_sizes(counts: dict, args, kwargs) -> None:
    shape = np.shape(args[0])
    b, n = shape[0], shape[-1]
    counts["perms"] = counts.get("perms", 0) + b
    counts["ops"] = counts.get("ops", 0) + b * n * ((1 << n) - 1)
    counts["bytes"] = counts.get("bytes", 0) + b * n * n * 16


@dataclass(frozen=True)
class Target:
    module: str                  # submodule of the package that defines it
    attr: str
    counter: Callable | None = None
    extras: tuple[tuple[str, str], ...] = ()  # (metric, unit) the counter feeds

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("spectral", "gram_matrix"),
    Target("spectral", "SpanBasis"),
    Target("jmatrix", "build_pure", _build_key, (("distinct_frac", "ratio"),)),
    Target("probability", "output_distribution"),
    Target("probability", "prob_jmatrix"),
    Target("probability", "prob_permanent_basis"),
    Target("probability", "prob_general"),
    Target("permanent", "permanent_ryser", _ryser_ops, (("ops", "count"),)),
    Target("permanent", "permanent_ryser_batch", _batch_sizes,
           (("perms", "count"), ("ops", "count"), ("bytes", "B"))),
)


@dataclass
class Tracer:
    package: str
    targets: tuple[Target, ...] = TARGETS
    spans: list = field(default_factory=list)    # [target, parent, unit, start, end]
    counts: list = field(default_factory=list)   # per unit: one dict per target
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(self.package + "."))]
        for index, target in enumerate(self.targets):
            home = sys.modules.get(f"{self.package}.{target.module}")
            original = getattr(home, target.attr, None)
            if original is None:
                self.absent.append(target.name)
                continue
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", self._wrap(index, init))
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def begin_unit(self) -> None:
        self.counts.append([{} for _ in self.targets])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, index: int, fn):
        target = self.targets[index]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            unit = len(self.counts) - 1
            if target.counter is not None:
                target.counter(self.counts[unit][index], args, kwargs)
            record = [index, stack[-1] if stack else -1, unit, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()

        return traced

    def unit_metrics(self) -> list[dict[str, float]]:
        """Per traced unit: calls, self time and counter metrics of every target."""
        units = len(self.counts)
        calls = np.zeros((units, len(self.targets)), dtype=np.int64)
        self_s = np.zeros((units, len(self.targets)))
        span_self = [end - start for _, _, _, start, end in self.spans]
        for target, parent, _, start, end in self.spans:
            if parent >= 0:
                span_self[parent] -= end - start
        for (target, _, unit, _, _), own in zip(self.spans, span_self):
            calls[unit, target] += 1
            self_s[unit, target] += own
        out = []
        for unit in range(units):
            metrics: dict[str, float] = {}
            for index, target in enumerate(self.targets):
                counts = self.counts[unit][index]
                n_calls = int(calls[unit, index])
                metrics[f"{target.name}.calls"] = n_calls
                metrics[f"{target.name}.self_s"] = float(self_s[unit, index])
                for extra, _ in target.extras:
                    if extra == "distinct_frac":
                        value = len(counts.get("keys", ())) / n_calls if n_calls else 0.0
                    else:
                        value = counts.get(extra, 0)
                    metrics[f"{target.name}.{extra}"] = value
            out.append(metrics)
        return out

    def summary(self) -> dict[str, float]:
        """Median over traced units of every per-unit metric; counts take the
        lower median, so they stay a value some unit produced."""
        per_unit = self.unit_metrics()
        return {key: (statistics.median if key.endswith("self_s") else statistics.median_low)(
                    [m[key] for m in per_unit]) for key in per_unit[0]}

    def metric_units(self) -> dict[str, str]:
        units = {}
        for target in self.targets:
            units[f"{target.name}.calls"] = "count"
            units[f"{target.name}.self_s"] = "s"
            for extra, unit in target.extras:
                units[f"{target.name}.{extra}"] = unit
        return units

    def dump(self) -> dict:
        return {"targets": [t.name for t in self.targets], "absent": self.absent,
                "columns": ["target", "parent", "unit", "start", "end"], "spans": self.spans}
