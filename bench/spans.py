"""Span recorder for the traced benchmark run.

The recorder wraps packcrit functions at the module attribute their caller
looks them up through (``packcrit.criticality.chi_rho``, not only
``packcrit.packing.chi_rho``), so no program source changes.  Each wrapped
call opens a span with its name, its parent span, and its start and end
times.  Spans stay in memory; ``layer_metrics`` turns them into per-layer
numbers once the measured work is over.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Generator functions are timed as they are consumed:
every resumption is a span of its own.  A function that a module captured
by value when it loaded (a dict of predicates, say) cannot be wrapped this
way; ``captured_functions`` names every such container so the report can
say the calls through it are unmeasured rather than reporting zero.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter
from typing import Callable

# (module, attribute, span name, kind).  ``call`` opens a span per call,
# ``generator`` one per resumption, ``count`` only counts calls.
SITES: tuple[tuple[str, str, str, str], ...] = (
    ("packcrit.verify", "run_sweep", "verify.run_sweep", "call"),
    ("packcrit.verify", "evaluate_payload", "verify.evaluate_payload", "call"),
    ("packcrit.verify", "enumerate_graphs", "enumeration.enumerate_graphs", "generator"),
    ("packcrit.verify", "is_edge_critical", "criticality.is_edge_critical", "call"),
    ("packcrit.verify", "chi_rho", "packing.chi_rho", "call"),
    ("packcrit.verify", "is_alpha_critical", "independence.is_alpha_critical", "call"),
    ("packcrit.verify", "emit_graph6", "graphio.emit_graph6", "call"),
    ("packcrit.verify", "parse_graph6", "graphio.parse_graph6", "call"),
    ("packcrit.verify", "build", "families.build", "call"),
    ("packcrit.verify", "closed_form_chi_rho", "families.closed_form_chi_rho", "call"),
    ("packcrit.verify", "closed_form_critical", "families.closed_form_critical", "call"),
    ("packcrit.verify", "classify_radius1", "classify.classify_radius1", "call"),
    ("packcrit.verify", "classify_cactus_rad2_diam2", "classify.classify_cactus_rad2_diam2", "call"),
    ("packcrit.verify", "classify_cactus_rad2_diam3", "classify.classify_cactus_rad2_diam3", "call"),
    ("packcrit.verify", "block_graph_diam3_criterion", "classify.block_graph_diam3_criterion", "call"),
    ("packcrit.families", "parse_spec", "families.parse_spec", "call"),
    ("packcrit.families", "build", "families.build", "call"),
    ("packcrit.classify", "recognize", "families.recognize", "call"),
    ("packcrit.classify", "is_alpha_critical", "independence.is_alpha_critical", "call"),
    ("packcrit.enumeration", "representatives", "enumeration.representatives", "call"),
    ("packcrit.enumeration", "canonical_cert", "enumeration.canonical_cert", "call"),
    ("packcrit.enumeration", "find_isomorphism", "iso.find_isomorphism", "call"),
    ("packcrit.enumeration", "vertex_profiles", "iso.vertex_profiles", "call"),
    ("packcrit.enumeration", "_grow", "enumeration.candidates", "count"),
    ("packcrit.iso", "find_isomorphism", "iso.find_isomorphism", "call"),
    ("packcrit.iso", "vertex_profiles", "iso.vertex_profiles", "call"),
    ("packcrit.criticality", "chi_rho", "packing.chi_rho", "call"),
    ("packcrit.packing", "chi_rho", "packing.chi_rho", "call"),
    ("packcrit.packing", "max_i_packing", "packing.max_i_packing", "call"),
    ("packcrit.packing", "all_pairs_distances", "graphs.all_pairs_distances", "call"),
    ("packcrit.packing", "mis_size_bits", "independence.mis_size_bits", "call"),
    ("packcrit.independence", "mis_size_bits", "independence.mis_size_bits", "call"),
    ("packcrit.independence", "all_pairs_distances", "graphs.all_pairs_distances", "call"),
)


def _count_isomorphism_hit(rec: "Recorder", args: tuple, result) -> None:
    if result is not None:
        rec.counts["iso.find_isomorphism.hits"] += 1


def _count_new_classes(rec: "Recorder", args: tuple, result) -> None:
    # representatives() caches per (structure, order); count each level once.
    if args not in rec.seen_levels:
        rec.seen_levels.add(args)
        rec.counts["enumeration.classes"] += len(result)


# Span name -> hook called with (recorder, args, result) after each call.
HOOKS: dict[str, Callable] = {
    "iso.find_isomorphism": _count_isomorphism_hit,
    "enumeration.representatives": _count_new_classes,
}


class Recorder:
    """In-memory span store.  ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # One entry per span: [name, parent index or -1, start, end].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen_levels: set = set()
        self.unmeasured: list[str] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, self.clock(), None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span and count the call."""
        self.counts[name + ".calls"] += 1
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self, args, result)
        return result

    def consume(self, name: str, iterator):
        """Yield from ``iterator``, with one span around each resumption."""
        while True:
            idx = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(idx)
            yield item

    # -- installing wrappers -----------------------------------------------

    def wrap(self, module: types.ModuleType, attr: str, name: str, kind: str) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.unmeasured.append(f"{module.__name__}.{attr}: no such function; {name} not traced there")
            return

        if kind == "call":
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        elif kind == "generator":
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                return self.consume(name, fn(*args, **kwargs))
        elif kind == "count":
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
        else:
            raise ValueError(f"unknown site kind {kind!r}")

        functools.update_wrapper(wrapper, fn)
        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self, sites=SITES) -> None:
        import importlib

        for modname, attr, name, kind in sites:
            self.wrap(importlib.import_module(modname), attr, name, kind)
        self.unmeasured.extend(captured_functions("packcrit"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (a span nested in one of
        the same name is not counted twice) and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, parent, t0, t1) in enumerate(spans):
            row = out.setdefault(name, {"calls": self.counts.get(name + ".calls", 0), "s": 0.0, "self_s": 0.0})
            dur = t1 - t0
            row["self_s"] += dur - child[i]
            if not self._has_ancestor(i, lambda n: n == name):
                row["s"] += dur
        return out

    def _has_ancestor(self, idx: int, match: Callable[[str], bool]) -> bool:
        parent = self.spans[idx][1]
        while parent >= 0:
            if match(self.spans[parent][0]):
                return True
            parent = self.spans[parent][1]
        return False

    def group_seconds(self, prefix: str) -> float:
        """Seconds inside spans whose name starts with ``prefix``, counting
        each outermost such span once."""
        match = lambda n: n.startswith(prefix)
        return sum(
            (t1 - t0
             for i, (name, parent, t0, t1) in enumerate(self.spans)
             if match(name) and not self._has_ancestor(i, match)),
            0.0,
        )

    def child_count(self, parent_name: str, child_name: str) -> int:
        spans = self.spans
        return sum(
            1 for name, parent, _, _ in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )


def captured_functions(package: str) -> list[str]:
    """Module-level containers in ``package`` that hold functions by value.
    Calls made through them bypass attribute wrappers, so they are
    reported as unmeasured."""
    import sys

    found = []
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in sorted(vars(module).items()):
            if isinstance(value, dict):
                members = list(value.values())
            elif isinstance(value, (list, tuple)):
                members = list(value)
            else:
                continue
            held = sorted(
                getattr(m, "__name__", "?") for m in members if isinstance(m, types.FunctionType)
            )
            if held:
                found.append(f"{modname}.{attr} holds {', '.join(held)} by value: calls through it are unmeasured")
    return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_per_call"):
        return "count/call"
    return "count"


def layer_metrics(rec: Recorder, t: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its recorder and
    ``rec.table()``: all but the tracing overhead, which needs an untraced
    pass to compare with."""
    c = rec.counts
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    row = lambda name: t.get(name, zero)
    calls = lambda name: c.get(name + ".calls", 0)

    candidates = c.get("enumeration.candidates", 0)
    classes = c.get("enumeration.classes", 0)
    iso_calls = calls("iso.find_isomorphism")
    iec_calls = calls("criticality.is_edge_critical")
    deletions = rec.child_count("criticality.is_edge_critical", "packing.chi_rho") - iec_calls
    run_sweep_s = row("verify.run_sweep")["s"]
    evaluate_s = row("verify.evaluate_payload")["s"]
    return {
        "enumeration.representatives.self_s": row("enumeration.representatives")["self_s"],
        "enumeration.enumerate_graphs.s": row("enumeration.enumerate_graphs")["s"],
        "enumeration.candidates": candidates,
        "enumeration.classes": classes,
        "enumeration.accept_ratio": _ratio(classes, candidates),
        "enumeration.canonical_cert.calls": calls("enumeration.canonical_cert"),
        "enumeration.canonical_cert.s": row("enumeration.canonical_cert")["s"],
        "iso.find_isomorphism.calls": iso_calls,
        "iso.find_isomorphism.s": row("iso.find_isomorphism")["s"],
        "iso.find_isomorphism.hit_ratio": _ratio(c.get("iso.find_isomorphism.hits", 0), iso_calls),
        "iso.vertex_profiles.s": row("iso.vertex_profiles")["s"],
        "criticality.is_edge_critical.calls": iec_calls,
        "criticality.is_edge_critical.s": row("criticality.is_edge_critical")["s"],
        "criticality.is_edge_critical.self_s": row("criticality.is_edge_critical")["self_s"],
        "criticality.deletions_per_call": _ratio(deletions, iec_calls),
        "packing.chi_rho.calls": calls("packing.chi_rho"),
        "packing.chi_rho.s": row("packing.chi_rho")["s"],
        "packing.chi_rho.self_s": row("packing.chi_rho")["self_s"],
        "packing.max_i_packing.calls": calls("packing.max_i_packing"),
        "packing.max_i_packing.s": row("packing.max_i_packing")["s"],
        "independence.mis_size_bits.calls": calls("independence.mis_size_bits"),
        "independence.mis_size_bits.s": row("independence.mis_size_bits")["s"],
        "independence.is_alpha_critical.calls": calls("independence.is_alpha_critical"),
        "independence.is_alpha_critical.s": row("independence.is_alpha_critical")["s"],
        "graphs.all_pairs_distances.calls": calls("graphs.all_pairs_distances"),
        "graphs.all_pairs_distances.s": row("graphs.all_pairs_distances")["s"],
        "graphio.emit_graph6.calls": calls("graphio.emit_graph6"),
        "graphio.parse_graph6.calls": calls("graphio.parse_graph6"),
        "graphio.s": rec.group_seconds("graphio."),
        "families.build.calls": calls("families.build"),
        "families.s": rec.group_seconds("families."),
        "classify.calls": sum(v for k, v in c.items() if k.startswith("classify.") and k.endswith(".calls")),
        "classify.s": rec.group_seconds("classify."),
        "verify.run_sweep.s": run_sweep_s,
        "verify.evaluate_payload.calls": calls("verify.evaluate_payload"),
        "verify.evaluate_payload.s": evaluate_s,
        "verify.payload_s": run_sweep_s - evaluate_s,
    }
