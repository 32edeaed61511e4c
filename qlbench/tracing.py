"""Spans around qlgame's public functions, installed from outside the package.

A Tracer wraps each listed function, and each listed class's
``__post_init__`` validation, so that every call records a span: name,
start, end, parent span, operation id and an item count.  Modules import
each other's names (``game`` binds ``hilbert.born_probability``), so every
``qlgame.*`` module attribute bound to the same function is patched, and
``uninstall`` restores all of them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass

LAYERS = {
    "probability": ("validate_context_data", "check_reversibility", "joint_distribution",
                    "Distribution", "TransitionMatrix", "JointTable"),
    "hilbert": ("born_probability", "inner_product", "expand_in_basis", "OrthonormalBasis"),
    "representation": ("interference_coefficients", "build_representation",
                       "reconstruct_data", "representation_to_json"),
    "game": ("total_averages", "ql_average", "zero_sum_symmetric_average",
             "interference_average", "three_player_representations", "multidim_average"),
    "classicality": ("bell_scan", "bell_check", "spin_system", "PairwiseSystem",
                     "joint_feasibility"),
    "montecarlo": ("simulate_game", "simulate_multidim", "stream_rng", "sample_outcomes",
                   "report_to_json"),
    "frequency": ("read_sequence", "estimate_frequencies", "running_frequencies",
                  "stabilization_report", "conditional_frequencies"),
}


def _feasibility_name(args, kwargs) -> str:
    system = args[0] if args else kwargs["system"]
    return f"classicality.joint_feasibility.k{len(system.alphabet)}"


# Span names split by an argument, and the item each span counts.
NAMERS = {"classicality.joint_feasibility": _feasibility_name}
SIZES = {
    "montecarlo.simulate_game": lambda report: report.trials,
    "montecarlo.sample_outcomes": len,
}
SPAN_NAMES = tuple(
    f"{layer}.{name}" + suffix
    for layer, names in LAYERS.items()
    for name in names
    for suffix in ((".k2", ".k3") if name == "joint_feasibility" else ("",))
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    items: int = 0
    error: str = ""  # class name of the exception the call raised


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        top = self._stack.pop()
        assert top == idx, "spans closed out of order"

    def wrap(self, name: str, fn):
        namer = NAMERS.get(name)
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[idx].error = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if size is not None:
                self.spans[idx].items = size(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """The span covers the whole iteration and counts the items yielded.
        It sits on the stack only while the generator runs, so the consumer's
        own calls between items are not counted as its children."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self._stack.pop()
            try:
                gen = fn(*args, **kwargs)
                while True:
                    self._stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._stack.pop()
                    self.spans[idx].items += 1
                    yield item
            finally:
                self.spans[idx].end = time.perf_counter()

        return traced

    # patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "qlgame" or n.startswith("qlgame.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"qlgame.{layer}"]
            for attr in names:
                obj = getattr(home, attr, None)
                name = f"{layer}.{attr}"
                if obj is None:
                    continue  # a later version removed it; it reports zero calls
                if inspect.isclass(obj):
                    original = obj.__dict__.get("__post_init__")
                    if original is not None:
                        self._patch(obj, "__post_init__", self.wrap(name, original))
                    continue
                wrapper = (self.wrap_generator if inspect.isgeneratorfunction(obj) else self.wrap)(name, obj)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is obj:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that the union of
    its children's intervals covers."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        end = -float("inf")
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, end)
            if hi > lo:
                covered += hi - lo
                end = hi
        out.append((s.end - s.start) - covered)
    return out


def has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Calls and self time per span name, plus the derived layer ratios."""
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    durations: dict[str, list[float]] = {}
    items: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        durations.setdefault(s.name, []).append(s.end - s.start)
        items[s.name] = items.get(s.name, 0) + s.items
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    def p50_us(name):
        return statistics.median(durations[name]) * 1e6 if name in durations else 0.0

    def rate(name):
        busy = sum(durations.get(name, ()))
        return items.get(name, 0) / busy if busy > 0 else 0.0

    builds = [s.error for s in spans if s.name == "representation.build_representation"]
    out["representation.build_representation.refusals"] = builds.count("HyperbolicContextError")
    out["representation.build_representation.errors"] = sum(
        1 for e in builds if e not in ("", "HyperbolicContextError")
    )
    rows = items.get("classicality.bell_scan", 0)
    in_scan = sum(
        1 for i, s in enumerate(spans)
        if s.name.startswith("classicality.joint_feasibility") and has_ancestor(spans, i, "classicality.bell_scan")
    )
    out["classicality.lp_calls_per_point"] = in_scan / rows if rows else 0.0
    out["classicality.joint_feasibility.k2.p50_us"] = p50_us("classicality.joint_feasibility.k2")
    out["classicality.joint_feasibility.k3.p50_us"] = p50_us("classicality.joint_feasibility.k3")
    out["montecarlo.trials_per_s"] = rate("montecarlo.simulate_game")
    out["montecarlo.sample_outcomes.outcomes_per_s"] = rate("montecarlo.sample_outcomes")
    return out


def spans_document(spans: list[Span]) -> dict:
    """Compact form for writing out: names once, times in ns from the first span."""
    names = sorted({s.name for s in spans})
    index = {n: k for k, n in enumerate(names)}
    t0 = spans[0].start if spans else 0.0
    return {
        "fields": ["name", "start_ns", "end_ns", "parent", "op", "items", "error"],
        "names": names,
        "spans": [
            [index[s.name], round((s.start - t0) * 1e9), round((s.end - t0) * 1e9),
             s.parent, s.op, s.items, s.error]
            for s in spans
        ],
    }
