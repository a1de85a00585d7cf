"""Layer tracer: spans and work counts around calls into tardyjobs.

The tracer wraps public functions of the package from outside it.  Each
wrapped call records a span (name, start, end, parent span, solve id) in
memory; the parent is whichever wrapped call was open when it started, so
the spans of one solve form a tree.  A layer's self time is its span time
minus the part covered by its child spans.  Work counts are derived from the
arguments and return value of each call, after its span has closed.

A function is patched under every name that binds it inside the package:
``solvers`` imports ``convolve_naive`` and the builder functions, and
``builders`` imports ``convolve_sstep_concave`` and ``minplus_convolve``, so
patching only the defining module would miss those calls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

# Span record: [name, start_ns, end_ns, parent index or -1, solve id].
Span = list


def _pairs(args: tuple, kwargs: dict, result) -> dict:
    """Index pairs (k, j) that land inside the (max,+) output range."""
    a, b = sorted((len(args[0]), len(args[1])))
    if kwargs.get("full_length", False):
        return {"pairs": a * b}
    # output length is b, so row k of the shorter operand meets b - k entries
    return {"pairs": a * b - a * (a - 1) // 2}


def _all_pairs(args: tuple, kwargs: dict, result) -> dict:
    return {"pairs": len(args[0]) * len(args[1])}


def _entries(args: tuple, kwargs: dict, result) -> dict:
    return {"entries": len(result)}


def _range_width(args: tuple, kwargs: dict, result) -> dict:
    width = sum(iv[1] - iv[0] + 1 for iv in args[2].intervals if iv is not None)
    return {"range_width": width, "range_pairs": len(args[0]) * len(args[1])}


def _pick(args: tuple, kwargs: dict, result) -> dict:
    return {f"pick.{result.value}": 1}


def _instance_cells(args: tuple, kwargs: dict, result) -> dict:
    return {"cells": args[0].n * (args[0].d_max + 1)}


def _dp_cells(args: tuple, kwargs: dict, result) -> dict:
    return {"cells": len(args[0]) * (args[1] + 1)}


def _merge(item) -> dict:
    return {"merges": 1 if item[0] >= 2 else 0}


POLICIES = ("lawler-moore", "naive", "prediction", "concave-p", "inverse-w")

# Wrapped layers: "<module>.<function>" -> (work counter, counts it reports).
# forward_states is a generator; its counter sees each yielded item instead
# of a return value.
LAYERS: dict[str, tuple[Callable | None, tuple[str, ...]]] = {
    "solvers.auto_select": (_pick, tuple(f"pick.{p}" for p in POLICIES)),
    "solvers.lawler_moore": (_instance_cells, ("cells",)),
    "solvers.forward_states": (_merge, ("merges",)),
    "solvers.reconstruct_schedule": (_instance_cells, ("cells",)),
    "builders.build_solution_vector_dp": (_dp_cells, ("cells",)),
    "builders.step_concave_class_vector": (_entries, ("entries",)),
    "builders.build_solution_vector_concave": (_entries, ("entries",)),
    "builders.step_convex_class_vector": (_entries, ("entries",)),
    "maxplus.convolve_naive": (_pairs, ("pairs",)),
    "maxplus.convolve_sstep_concave": (_entries, ("entries",)),
    "maxplus.convolve_with_ranges": (_range_width, ("range_width", "range_ratio")),
    "maxplus.minplus_convolve": (_all_pairs, ("pairs",)),
    "fractional.fractional_solution_vector": (_entries, ("entries",)),
    "prediction.compute_range_intervals": (None, ()),
    "core.group_by_due_date": (None, ()),
    "generate.generate_instance": (None, ()),
}


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans and counts for the wrapped layers of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_id = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _start(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.solve_id])

    def _stop(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter_ns()

    def _add(self, name: str, work: dict) -> None:
        for key, value in work.items():
            self.counts[f"{name}.{key}"] += value

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stop()
            if counter is not None:
                self._add(name, counter(args, kwargs, result))
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable, counter: Callable) -> Callable:
        def steps(gen: Iterator) -> Iterator:
            while True:
                self._start(name)  # one span per next(): the work of one merge
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._stop()
                self._add(name, counter(item))
                yield item

        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return steps(fn(*args, **kwargs))

        return traced

    def install(self, layers=LAYERS) -> None:
        """Patch every binding of each named layer function inside the package."""
        modules = [m for key, m in sys.modules.items() if key == "tardyjobs" or key.startswith("tardyjobs.")]
        for name in layers:
            counter = LAYERS[name][0]
            module_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"tardyjobs.{module_name}"), fn_name)
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(name, original, counter)
            else:
                wrapped = self._wrap(name, original, counter)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_ms and work counts of every layer, zero where unused."""
        self_ns: dict[str, int] = defaultdict(int)
        for span, ns in zip(self.spans, self_times(self.spans)):
            self_ns[span[0]] += ns
        out: dict[str, float] = {}
        for name, (_, keys) in LAYERS.items():
            out[f"{name}.calls"] = self.counts.get(f"{name}.calls", 0)
            out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
            for key in keys:
                out[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0)
        # share of the |A|*|B| split pairs that the predicted ranges keep
        pairs = self.counts.get("maxplus.convolve_with_ranges.range_pairs", 0)
        width = out["maxplus.convolve_with_ranges.range_width"]
        out["maxplus.convolve_with_ranges.range_ratio"] = width / pairs if pairs else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write the spans as CSV: name, start_ns, end_ns, parent, solve_id, self_ns."""
        with open(path, "w") as f:
            f.write("name,start_ns,end_ns,parent,solve_id,self_ns\n")
            for span, ns in zip(self.spans, self_times(self.spans)):
                f.write(",".join(map(str, span)) + f",{ns}\n")
