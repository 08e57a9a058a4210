"""Span tracer for the per-layer benchmark run.

The tracer wraps the public functions of every ``valuegeom`` module from the
outside; the package itself carries no instrumentation. Modules import each
other's names directly (``values`` binds ``dividends`` from ``games``), so a
wrapper is installed under every name, in every ``valuegeom`` module
namespace, that is bound to the wrapped object. Otherwise nested calls would
bypass it. ``restore`` puts every original binding back.

A span is ``(function id, start ns, end ns, parent span index)``. Spans are
kept in memory and reduced to per-layer numbers when the run ends. A layer's
self time is a span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import types
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable, Iterable

#: The layers, one per ``valuegeom`` module, that per-layer metrics are named after.
LAYERS = ("serialize", "games", "values", "combinatorics", "geometry", "strata", "fitting", "trends", "verification", "cli")

#: Functions whose own self time is reported, besides their module's total.
SELF_TIMED = (
    "serialize.game_from_json",
    "games.dividends",
    "values.evaluate",
    "values.GeneralLinearValueMap.apply",
    "values.named_profile",
    "combinatorics.solidarity_stratum_epsilon",
    "geometry.inner_L",
    "geometry.projection_report",
    "fitting.solve_normal_equations",
    "trends.trend_table",
    "verification.run_all_checks",
    "cli.main",
)

#: Functions whose call count is reported, besides their module's total.
COUNTED = ("games.dividends", "values.evaluate", "geometry.inner_L")

#: Per-element helpers called once per coalition or per output number. Tracing
#: them would cost more than the work they do; their time stays in the caller.
PER_ELEMENT = frozenset({"serialize.parse_rational", "serialize.fraction_str", "serialize.rational_to_json"})

#: Modules traced only at their entry point: the command-line layer is one
#: layer (argument parsing, formatting, JSON encoding), not one per subcommand.
ENTRY_ONLY = {"cli": frozenset({"main"})}

#: Public methods traced besides the module-level functions.
METHODS = (
    "games.HOrthonormalBasis.dividend_rows",
    "games.HOrthonormalBasis.gram_is_identity",
    "values.GeneralLinearValueMap.apply",
)

#: Name of the spans that time the tracer's own hooks. They are children of
#: the caller, so hook work never counts as any layer's self time.
HOOK = "trace.hook"
#: Name of the root span the runner opens around each request.
REQUEST = "request"


def valuegeom_modules(package) -> list[types.ModuleType]:
    """The package and every submodule, imported (``__main__`` excepted)."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def traced_functions(modules: Iterable[types.ModuleType]) -> dict[str, Callable]:
    """Qualified name -> object, for every public function (lru-cached ones too) a module defines."""
    found: dict[str, Callable] = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            is_function = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
            if name.startswith("_") or not is_function or getattr(obj, "__module__", None) != mod.__name__:
                continue
            qual = f"{short}.{name}"
            if qual in PER_ELEMENT or (short in ENTRY_ONLY and name not in ENTRY_ONLY[short]):
                continue
            found[qual] = obj
    return found


class Tracer:
    """Installs span-recording wrappers and reduces the spans to layer metrics.

    The wrappers are built once; `install` and `restore` swap them in and
    out, so a run can alternate traced and untraced batches.
    """

    def __init__(self, package):
        self.names: list[str] = [HOOK, REQUEST]
        self.spans: list[tuple[int, int, int, int]] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self._plan: list[tuple[object, str, object, Callable]] = []
        modules = valuegeom_modules(package)
        wrappers = {id(fn): (fn, self._wrap(fn, qual)) for qual, fn in traced_functions(modules).items()}
        for mod in modules:
            for name, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._plan.append((mod, name, obj, hit[1]))
        for qual in METHODS:
            mod_short, cls_name, meth = qual.split(".")
            cls = getattr(sys.modules[f"{package.__name__}.{mod_short}"], cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if isinstance(original, types.FunctionType):
                self._plan.append((cls, meth, original, self._wrap(original, qual)))

    def install(self) -> None:
        for owner, name, _, wrapper in self._plan:
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Put back every attribute `install` replaced."""
        for owner, name, original, _ in self._plan:
            setattr(owner, name, original)

    def _wrap(self, fn: Callable, qual: str) -> Callable:
        fid = len(self.names)
        self.names.append(qual)
        hook = HOOKS.get(qual)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((fid, 0, 0, parent))  # completed below; the id is readable meanwhile
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (fid, start, end, parent)
            if hook is not None:
                h0 = perf_counter_ns()
                hook(self, parent, args, result)
                spans.append((0, h0, perf_counter_ns(), parent))
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- request roots ----------------------------------------------------

    def begin_request(self) -> int:
        idx = len(self.spans)
        self.stack.append(idx)
        self.spans.append((1, perf_counter_ns(), 0, -1))
        return idx

    def end_request(self, idx: int) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        fid, start, _, parent = self.spans[idx]
        self.spans[idx] = (fid, start, end, parent)

    def parent_name(self, parent: int) -> str | None:
        return self.names[self.spans[parent][0]] if parent >= 0 else None

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per qualified name: calls and self nanoseconds, over request subtrees only."""
        if self.stack:
            raise RuntimeError("summary taken while spans are still open")
        return summarize(self.spans, self.names)


def self_times(spans: list[tuple[int, int, int, int]]) -> list[int]:
    """Self time of each span: its duration minus the union of its children's intervals."""
    children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for fid, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for idx, (fid, start, end, parent) in enumerate(spans):
        covered = 0
        cursor = start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        result.append(end - start - covered)
    return result


def summarize(spans: list[tuple[int, int, int, int]], names: list[str]) -> dict[str, dict[str, float]]:
    """Calls and self time per qualified name, counting only spans under a request root.

    Span indices in ``spans`` are the parent references, so the list must be
    the tracer's own list (or a synthetic one built the same way).
    """
    selfs = self_times(spans)
    in_request = [False] * len(spans)
    for idx, (fid, _, _, parent) in enumerate(spans):
        # parents always precede their children in the list
        in_request[idx] = names[fid] == REQUEST or (parent >= 0 and in_request[parent])
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
    for idx, (fid, start, end, parent) in enumerate(spans):
        if in_request[idx]:
            entry = out[names[fid]]
            entry["calls"] += 1
            entry["self_ns"] += selfs[idx]
    return dict(out)


def _bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _on_game_from_json(tracer: Tracer, parent: int, args, result) -> None:
    text = args[0]
    tracer.counters["serialize.game_from_json.bytes"] += len(text.encode("utf-8") if isinstance(text, str) else text)


def _on_dividends(tracer: Tracer, parent: int, args, result) -> None:
    values = result.dividends
    bits = [_bits(x) for x in values]
    c = tracer.counters
    c["games.dividends.coalitions"] += len(values)
    c["games.dividend_bits.sum"] += sum(bits)
    c["games.dividend_bits.count"] += len(bits)
    tracer.maxima["games.dividend_bits_max"] = max(tracer.maxima["games.dividend_bits_max"], *bits)
    if tracer.parent_name(parent) == "values.evaluate":
        c["values.evaluate.nonzero_dividends"] += sum(1 for x in values if x)


def _on_solve_normal_equations(tracer: Tracer, parent: int, args, result) -> None:
    widest = max(_bits(Fraction(x)) for row in args[0] for x in row)
    tracer.maxima["fitting.gram_bits_max"] = max(tracer.maxima["fitting.gram_bits_max"], widest)


#: Operand-size hooks: ``hook(tracer, parent, args, result)`` runs after each
#: call of the named function, in a span of its own (see `HOOK`).
HOOKS = {
    "serialize.game_from_json": _on_game_from_json,
    "games.dividends": _on_dividends,
    "fitting.solve_normal_equations": _on_solve_normal_equations,
}


def layer_metrics(summary: dict[str, dict[str, float]], counters: Counter, maxima: Counter, ops: int) -> dict[str, float]:
    """Per-layer metrics per request: self time, call counts, operand sizes."""
    per_op = 1 / ops
    out: dict[str, float] = {}
    for layer in LAYERS:
        entries = [v for k, v in summary.items() if k.startswith(layer + ".")]
        out[f"{layer}.self_ms_per_op"] = sum(v["self_ns"] for v in entries) / 1e6 * per_op
        out[f"{layer}.calls_per_op"] = sum(v["calls"] for v in entries) * per_op
    empty = {"calls": 0, "self_ns": 0}
    for qual in SELF_TIMED:
        out[f"{qual}.self_ms_per_op"] = summary.get(qual, empty)["self_ns"] / 1e6 * per_op
    for qual in COUNTED:
        out[f"{qual}.calls_per_op"] = summary.get(qual, empty)["calls"] * per_op
    out["serialize.game_from_json.bytes_per_op"] = counters["serialize.game_from_json.bytes"] * per_op
    out["games.dividends.coalitions_per_op"] = counters["games.dividends.coalitions"] * per_op
    out["games.dividend_bits_max"] = maxima["games.dividend_bits_max"]
    count = counters["games.dividend_bits.count"]
    out["games.dividend_bits_mean"] = counters["games.dividend_bits.sum"] / count if count else 0.0
    out["values.evaluate.nonzero_dividends_per_op"] = counters["values.evaluate.nonzero_dividends"] * per_op
    out["fitting.gram_bits_max"] = maxima["fitting.gram_bits_max"]
    return out
