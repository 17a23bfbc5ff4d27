"""Per-layer tracing for the traced benchmark run.

The benchmark never edits ``src/``: :func:`install` wraps the public
entry points of repro's layers (functions, methods and the registered
pipeline passes) from outside, and :func:`uninstall` puts the originals
back.  A span is recorded per call, nested under the span that was open
when the call began, so every span has a self time (its duration minus
the time its child spans cover).  Spans live in memory and are exported
once, when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

#: (span name, module, attribute) for every wrapped entry point.  An
#: attribute ``Class.method`` wraps the method on the class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("synth.algorithm1", "repro.synth.algorithm1", "algorithm1"),
    ("network.read_blif", "repro.network.blif", "read_blif"),
    ("network.write_blif", "repro.network.blif", "save_blif"),
    ("network.topological_order", "repro.network.netlist", "Network.topological_order"),
    ("network.transitive_fanin", "repro.network.netlist", "Network.transitive_fanin"),
    ("network.collapse", "repro.network.bdd_build", "ConeCollapser.node_function"),
    ("network.instantiate", "repro.network.transform", "instantiate_dectree"),
    ("network.sweep", "repro.network.transform", "sweep"),
    ("network.strash", "repro.network.transform", "strash"),
    ("reach.dc_manager_init", "repro.reach.dontcare", "DontCareManager.__init__"),
    ("reach.unreachable_for", "repro.reach.dontcare", "DontCareManager.unreachable_for"),
    ("bidec.decompose_cone", "repro.bidec.api", "decompose_cone"),
    ("sat.solve", "repro.sat.solver", "Solver.solve"),
    ("engine.copy_cone", "repro.engine.passes", "copy_cone"),
    ("parallel.dc_cubes", "repro.synth.conetask", "dont_care_cubes"),
    ("parallel.extract", "repro.synth.conetask", "extract_cone_task"),
    ("parallel.execute", "repro.engine.parallel", "ParallelConeScheduler.execute"),
    ("parallel.merge", "repro.synth.conetask", "merge_cone_result"),
)

#: Span durations kept per call (for percentiles), by span name.
SAMPLED = ("bidec.decompose_cone",)


class _Node:
    __slots__ = ("name", "calls", "total", "self_time", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict[str, _Node] = {}

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "children": [child.to_dict() for child in self.children.values()],
        }


class Tracer:
    """Span stack plus per-name and per-path aggregates (one thread)."""

    def __init__(self) -> None:
        self.root = _Node("(root)")
        self._stack: list[list[Any]] = []
        self._depth: dict[str, int] = {}
        #: name -> [calls, total_s (outermost calls only), self_s]
        self.by_name: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.per_circuit: dict[str, dict[str, float]] = {}
        self._circuit: dict[str, float] = {}
        self.bdd_stats: list[Any] = []

    def enter(self, name: str) -> list[Any]:
        parent = self._stack[-1][0] if self._stack else self.root
        # A direct recursive call folds into its caller's tree node.
        recursive = parent.name == name
        node = parent if recursive else parent.children.get(name)
        if node is None:
            node = parent.children[name] = _Node(name)
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [node, time.perf_counter(), 0.0, recursive]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list[Any]) -> None:
        elapsed = time.perf_counter() - frame[1]
        self._stack.pop()
        node = frame[0]
        name = node.name
        own = elapsed - frame[2]
        node.calls += 1
        if not frame[3]:
            node.total += elapsed
        node.self_time += own
        depth = self._depth[name] - 1
        self._depth[name] = depth
        stats = self.by_name.get(name)
        if stats is None:
            stats = self.by_name[name] = [0, 0.0, 0.0]
        stats[0] += 1
        if depth == 0:
            stats[1] += elapsed
        stats[2] += own
        self._circuit[name] = self._circuit.get(name, 0.0) + own
        if name in self.samples:
            self.samples[name].append(elapsed)
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def span(self, name: str, circuit: str | None = None):
        if circuit is not None:
            self._circuit = self.per_circuit.setdefault(circuit, {})
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    def wrap(self, name: str, function: Callable) -> Callable:
        enter, leave = self.enter, self.leave

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def export(self) -> dict[str, Any]:
        hits = misses = inserts = 0
        for stats in self.bdd_stats:
            counters = stats.as_dict()
            inserts += counters["unique.inserts"] + 2
            for key, value in counters.items():
                if key.endswith(".hits"):
                    hits += value
                elif key.endswith(".misses"):
                    misses += value
        return {
            "by_name": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in self.by_name.items()
            },
            "tree": self.root.to_dict(),
            "samples": self.samples,
            "per_circuit": self.per_circuit,
            "bdd": {
                "managers_created": len(self.bdd_stats),
                "nodes_allocated": inserts,
                "cache_hits": hits,
                "cache_misses": misses,
            },
        }


def _resolve(module_name: str, attribute: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target (and every registered pass's ``run``) and return
    the function that restores the originals.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name, so ``from x import f`` call sites
    are traced too."""
    from repro.bdd.manager import BDDManager
    from repro.engine.passes import available_passes, make_pass

    restore: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, leaf: str, wrapped: Any) -> None:
        restore.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, wrapped)

    targets = [(name, *_resolve(module, attr)) for name, module, attr in TARGETS]
    for name in available_passes():
        targets.append((f"engine.pass.{name}", type(make_pass(name)), "run"))
    loaded = [
        module
        for key, module in list(sys.modules.items())
        if key == "repro" or key.startswith("repro.")
    ]
    for name, owner, leaf in targets:
        original = owner.__dict__[leaf]
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, type):
            patch(owner, leaf, wrapped)
            continue
        for module in loaded:
            if module.__dict__.get(leaf) is original:
                patch(module, leaf, wrapped)

    original_init = BDDManager.__dict__["__init__"]

    @functools.wraps(original_init)
    def counted_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        tracer.bdd_stats.append(self.enable_stats())

    patch(BDDManager, "__init__", counted_init)

    def uninstall() -> None:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)

    return uninstall
