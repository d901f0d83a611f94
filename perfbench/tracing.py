"""Spans and counters around the package's layers, installed from outside.

`Tracer.install` replaces each traced function on the module that defines
it and on every package module that imported it by name (so `core.apply_perm`
and `ramsey.apply_perm` both record), and `Tracer.restore` puts every
original object back.  Nothing under `src/` is edited.

A spanned call records (name, start, end, parent span, op id).  A counted
call only bumps a counter, for functions called once per tuple or pair,
where a span would cost more than the work.  `KConfig.from_function` is
counted rather than spanned, so building a configuration shows up in the
self time of the layer that asked for it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("core", "orders", "codes", "ramsey", "stats")

#: The CLI is traced at its entry point only: `cli.main` self time is all
#: that the CLI does outside the library, i.e. argument parsing, reading the
#: order file, rendering and writing output.
CLI_FUNCTIONS = ("main",)

#: Called once per tuple or pair: counted, not spanned.
COUNTED = {"core.tuple_rank", "core.as_entries", "core.format_sign", "core.parse_sign",
           "orders.order_type"}

#: Methods traced besides the public module functions.
METHODS = {
    "ramsey": {"PairColoring": ("from_orders", "color_of")},
    "core": {"KConfig": ("from_function",)},
}
COUNTED_METHODS = {"ramsey.PairColoring.color_of", "core.KConfig.from_function"}


def _size_of(name: str):
    """Work done by one call, read from its result, for the `*_per_op` sizes."""
    if name in ("orders.lin_order_to_config2", "core.KConfig.from_function"):
        return lambda result: len(result.values)
    if name == "ramsey.PairColoring.from_orders":
        return lambda result: len(result.colors)
    if name == "stats.orbit_average_all":
        return lambda result: result[0].trials if result else 0
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.calls: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn):
        size = _size_of(name)
        spans, stack, sizes = self.spans, self._stack, self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if size is not None:
                sizes[name] += size(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        size = _size_of(name)
        calls, sizes = self.calls, self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if size is not None:
                sizes[name] += size(result)
            return result

        return wrapper

    # -- install / restore --------------------------------------------------

    def _targets(self, package):
        """(layer name, function) for every traced module function."""
        out = []
        for short in MODULES + ("cli",):
            module = getattr(package, short)
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                if short == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                out.append((f"{short}.{attr}", fn))
        return out

    def install(self, package) -> None:
        """Wrap the traced functions and methods of the orderflow package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [package] + [getattr(package, m) for m in MODULES + ("cli",)]
        for name, fn in self._targets(package):
            counted = name in COUNTED or inspect.isgeneratorfunction(fn)
            wrapper = (self._counted if counted else self._spanned)(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for short, classes in METHODS.items():
            module = getattr(package, short)
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    name = f"{short}.{cls_name}.{attr}"
                    raw = vars(cls)[attr]
                    make = self._counted if name in COUNTED_METHODS else self._spanned
                    if isinstance(raw, classmethod):
                        new = classmethod(make(name, raw.__func__))
                    else:
                        new = make(name, raw)
                    self._saved.append((cls, attr, raw))
                    setattr(cls, attr, new)

    def restore(self) -> None:
        """Put back every object `install` replaced, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------

    def span_totals(self):
        """Per span name: calls, busy seconds (inclusive), self seconds."""
        child = defaultdict(float)
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[idx]
        return calls, busy, own

    def children_named(self, parent_name: str, child_name: str) -> int:
        """How many `child_name` spans sit directly under a `parent_name` span."""
        return sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json (except the two the run adds)."""
    span_calls, busy, own = tracer.span_totals()
    calls = tracer.calls + span_calls
    sizes = tracer.sizes

    def per_op(value):
        return value / ops

    def self_ms(name):
        return per_op(own[name] * 1e3)

    realizable_calls = calls["orders.is_circular_realizable"]
    colored = sizes["ramsey.PairColoring.from_orders"]
    orbit_busy = busy["stats.orbit_average_all"]
    return {
        "stats.orbit_average_all.self_ms_per_op": self_ms("stats.orbit_average_all"),
        "stats.orbit_average_all.trials_per_busy_s": (
            sizes["stats.orbit_average_all"] / orbit_busy if orbit_busy else 0.0
        ),
        "stats.stat_to_dict.calls_per_op": per_op(calls["stats.stat_to_dict"]),
        "cli.main.self_ms_per_op": self_ms("cli.main"),
        "ramsey.verify_proximality.calls_per_op": per_op(calls["ramsey.verify_proximality"]),
        "ramsey.verify_proximality.self_ms_per_op": self_ms("ramsey.verify_proximality"),
        "ramsey.verify_proximality.busy_ms_per_op": per_op(busy["ramsey.verify_proximality"] * 1e3),
        "orders.lin_order_to_config2.self_ms_per_op": self_ms("orders.lin_order_to_config2"),
        "orders.lin_order_to_config2.entries_per_op": per_op(sizes["orders.lin_order_to_config2"]),
        "core.apply_perm.self_ms_per_op": self_ms("core.apply_perm"),
        "ramsey.PairColoring.from_orders.self_ms_per_op": self_ms("ramsey.PairColoring.from_orders"),
        "ramsey.PairColoring.from_orders.pairs_per_op": per_op(colored),
        "ramsey.ramsey_mono_subset.self_ms_per_op": self_ms("ramsey.ramsey_mono_subset"),
        "ramsey.PairColoring.color_of.calls_per_op": per_op(calls["ramsey.PairColoring.color_of"]),
        "ramsey.coloring_use_ratio": (
            calls["ramsey.PairColoring.color_of"] / colored if colored else 0.0
        ),
        "orders.is_circular_realizable.calls_per_op": per_op(realizable_calls),
        "orders.is_circular_realizable.self_ms_per_op": self_ms("orders.is_circular_realizable"),
        "orders.is_circular_realizable.busy_ms_per_op": per_op(
            busy["orders.is_circular_realizable"] * 1e3
        ),
        "orders.is_circular_realizable.candidates_per_call": (
            tracer.children_named("orders.is_circular_realizable", "codes.circular_code")
            / realizable_calls
            if realizable_calls
            else 0.0
        ),
        "codes.apply_code.self_ms_per_op": self_ms("codes.apply_code"),
        "codes.apply_code.calls_per_op": per_op(calls["codes.apply_code"]),
        "codes.sign_code.calls_per_op": per_op(calls["codes.sign_code"]),
        "orders.order_type.calls_per_op": per_op(calls["orders.order_type"]),
        "core.is_alternating.self_ms_per_op": self_ms("core.is_alternating"),
        "core.KConfig.from_function.values_per_op": per_op(sizes["core.KConfig.from_function"]),
        "core.tuple_rank.calls_per_op": per_op(calls["core.tuple_rank"]),
        "core.config_to_text.self_ms_per_op": self_ms("core.config_to_text"),
    }
