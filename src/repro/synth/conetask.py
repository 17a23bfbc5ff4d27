"""Serializable per-cone work units for parallel Algorithm 1.

Algorithm 1 rewrites each output cone independently once the don't-care
intervals are extracted, which makes cone-level resynthesis
embarrassingly parallel.  A :class:`ConeTask` captures everything one
cone rewrite needs in plain JSON-friendly data:

* the **cone slice** — the sink's transitive fanin as a standalone
  combinational network whose primary inputs are the cone's sources
  (latch outputs become plain inputs; the slice has a single output),
* the **don't-care spec** — the unreachable-state set over the cone's
  present-state support, shipped as disjoint BDD path cubes over latch
  *names* so the worker can rebuild the interval ``[f&~u, f|u]`` in a
  private manager with any variable numbering,
* the decomposition **options** (support bound, gate repertoire,
  objective, acceptance ratio, sharing flags) and per-task resource
  budgets.

:func:`run_cone_task` is the process-pool entry point: it rebuilds the
slice in a fresh :class:`~repro.bdd.manager.BDDManager`, collapses the
sink, widens with the don't cares, bi-decomposes, applies the acceptance
test, and returns a serialized replacement network (or a ``kept``/
``copied`` verdict).  It is deterministic — same task dict, same result
— which is what lets the scheduler promise ``workers=N`` bit-identical
to ``workers=1``.  :func:`merge_cone_result` folds a result back into
the growing rebuilt network in the parent.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import obs as _obs

CONE_TASK_VERSION = 1

#: The :class:`~repro.engine.context.SynthesisOptions` fields a task
#: carries, in wire order.
TASK_OPTION_KEYS = (
    "max_support", "gates", "objective", "sharing_choice", "enable_sharing",
    "acceptance_ratio", "backend", "cegar_iterations",
)

#: Injected fault modes understood by :func:`run_cone_task` (test/chaos
#: hooks for the scheduler's degradation paths).
FAULT_MODES = ("raise", "hang", "exit", "starve")


@dataclass
class ConeTask:
    """One sink's bi-decomposition job, fully serialized."""

    sink: str
    #: ``network_to_dict`` dump of the cone slice (single-output).
    slice: dict[str, Any]
    #: Disjoint cubes over latch names (``[[name, bool], ...]`` lists)
    #: whose disjunction is the unreachable-state set, or ``None`` when
    #: no don't-care information applies (combinational cone, cube
    #: blow-up, or don't cares disabled).
    dc_cubes: Optional[list[list[list[Any]]]]
    #: Decomposition knobs the worker honours (:data:`TASK_OPTION_KEYS`;
    #: a missing one takes its ``SynthesisOptions`` default).
    options: dict[str, Any] = field(default_factory=dict)
    #: Per-task budgets enforced by a worker-local governor.
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None
    #: Test-only fault injection (see :data:`FAULT_MODES`).
    fault: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": CONE_TASK_VERSION,
            "sink": self.sink,
            "slice": self.slice,
            "dc_cubes": self.dc_cubes,
            "options": dict(self.options),
            "node_budget": self.node_budget,
            "time_budget": self.time_budget,
            "fault": self.fault,
        }

    def task_key(self) -> str:
        """Structural identity of this cone job, known *before* any BDD
        is built.

        A sha256 over the canonical JSON of the cone slice, the shipped
        don't-care cubes, and the decomposition options — everything
        that determines the worker's output.  Slice extraction is
        deterministic (sorted cone inputs, topological node order), so
        the same cone of the same design under the same knobs always
        hashes the same.  This is the key the ledger records costs
        under and the cost model predicts by; the *exact*
        function-canonical key (the interval signature) is computed
        worker-side by :func:`interval_signature` once the BDD exists.
        """
        payload = json.dumps(
            {
                "slice": self.slice,
                "dc_cubes": self.dc_cubes,
                "options": self.options,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ConeTask":
        version = data.get("version")
        if version != CONE_TASK_VERSION:
            raise ValueError(
                f"unsupported cone task version {version!r} "
                f"(expected {CONE_TASK_VERSION})"
            )
        return cls(
            sink=data["sink"],
            slice=data["slice"],
            dc_cubes=data.get("dc_cubes"),
            options=dict(data.get("options", {})),
            node_budget=data.get("node_budget"),
            time_budget=data.get("time_budget"),
            fault=data.get("fault"),
        )


# ---------------------------------------------------------------------------
# Parent side: extraction and merge
# ---------------------------------------------------------------------------


def extract_cone_slice(source, sink: str):
    """The sink's cone as a standalone single-output network.

    Cone sources (primary inputs *and* latch outputs) become primary
    inputs, in the sorted order of :meth:`Network.cone_inputs`, so the
    slice is purely combinational and its serialization deterministic.
    """
    from repro.network.netlist import Network

    piece = Network(f"{source.name}::{sink}")
    for name in source.cone_inputs(sink):
        piece.add_input(name)
    for name in source.in_topological_order(source.transitive_fanin([sink])):
        node = source.nodes[name]
        piece.add_node(name, node.op, list(node.fanins), node.cover)
    piece.add_output(sink)
    return piece


def extract_cone_task(
    source,
    sink: str,
    *,
    dc_cubes: Optional[list[list[list[Any]]]] = None,
    options: Optional[dict[str, Any]] = None,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    fault: Optional[str] = None,
) -> ConeTask:
    """Build the serialized task for one sink of ``source``."""
    from repro.engine.checkpoint import network_to_dict

    return ConeTask(
        sink=sink,
        slice=network_to_dict(extract_cone_slice(source, sink)),
        dc_cubes=dc_cubes,
        options=dict(options or {}),
        node_budget=node_budget,
        time_budget=time_budget,
        fault=fault,
    )


def dont_care_cubes(
    manager, unreachable: int, max_cubes: int = 2048
) -> Optional[list[list[list[Any]]]]:
    """Serialize an unreachable-state BDD as name-keyed path cubes.

    Returns ``None`` (meaning "ship no don't cares" — sound, merely less
    optimising) when the path count exceeds ``max_cubes``.
    """
    from repro.bdd.count import iter_cubes

    cubes = iter_cubes(manager, unreachable, max_cubes=max_cubes)
    if cubes is None:
        return None
    return [
        sorted(
            [[manager.var_name(var), bool(pol)] for var, pol in cube.items()]
        )
        for cube in cubes
    ]


def merge_cone_result(
    rebuilt, sink: str, replacement: dict[str, Any], reserved=None
) -> int:
    """Fold a worker's replacement network into ``rebuilt``.

    Node names are kept when free and deterministically renamed when
    they collide with a signal of ``rebuilt`` or (the sink aside) of
    ``reserved``, the source network whose uncopied signals the worker
    could not see; renames apply to later fanins.  The slice's inputs
    already exist in ``rebuilt``, so only logic nodes are added.  A sink
    ``rebuilt`` already defines raises ``ValueError`` before any change.
    Returns the number of nodes merged.
    """
    from repro.engine.checkpoint import network_from_dict

    if rebuilt.is_signal(sink):
        # The sink's own name must survive as the cone's output alias.
        raise ValueError(
            f"cone sink {sink!r} already defined in the rebuilt network"
        )
    piece = network_from_dict(replacement)
    rename: dict[str, str] = {}
    for name, node in piece.nodes.items():
        fanins = [rename.get(f, f) for f in node.fanins]
        target_name = name
        if rebuilt.is_signal(name) or (
            name != sink and reserved is not None and reserved.is_signal(name)
        ):
            target_name = rebuilt.fresh_name(f"{name}_p", reserved)
            rename[name] = target_name
        rebuilt.add_node(target_name, node.op, fanins, node.cover)
    return len(piece.nodes)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def interval_signature(manager, interval) -> str:
    """Exact function-canonical signature of a don't-care interval.

    BDDs are canonical: two cones compute the same incompletely
    specified function iff their ``[lower, upper]`` interval BDDs are
    isomorphic.  This hashes the shared DAG of both bounds by assigning
    sequential canonical ids in a deterministic postorder (terminals
    pinned to 0/1, internal nodes keyed by ``(var_name, lo_id, hi_id)``)
    so the digest is independent of the worker's private node numbering
    and variable creation order.  Recorded in the ledger's cone rows —
    the lookup key a future cross-run cone cache needs.
    """
    ids: dict[int, int] = {0: 0, 1: 1}
    entries: list[list[Any]] = []

    def canonize(root: int) -> None:
        stack = [root]
        while stack:
            node = stack.pop()
            if node in ids:
                continue
            lo, hi = manager.lo(node), manager.hi(node)
            if lo in ids and hi in ids:
                ids[node] = len(ids)
                entries.append(
                    [manager.var_name(manager.top_var(node)),
                     ids[lo], ids[hi]]
                )
            else:
                stack.append(node)
                if hi not in ids:
                    stack.append(hi)
                if lo not in ids:
                    stack.append(lo)

    canonize(interval.lower)
    canonize(interval.upper)
    payload = json.dumps(
        {"nodes": entries,
         "roots": [ids[interval.lower], ids[interval.upper]]},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _apply_fault(fault: Optional[str]) -> None:
    if not fault:
        return
    if fault == "raise":
        raise RuntimeError("injected worker fault")
    if fault == "hang":
        time.sleep(3600)
    elif fault == "exit":
        os._exit(13)
    # "starve" is handled by the caller (budget of zero).


def run_cone_task(data: dict[str, Any]) -> dict[str, Any]:
    """Process-pool entry point: execute one serialized cone task.

    Always returns a result dict (``action`` of ``decomposed``,
    ``kept-cost`` or ``copied``); unexpected exceptions propagate to the
    parent through the executor so their tracebacks reach the crash
    bundle.  Worker-local budget exhaustion is *not* an error — it comes
    back as ``action="copied"`` with a ``degrade_reason``.
    """
    from repro.bdd.manager import BDDManager, FALSE
    from repro.engine.checkpoint import network_from_dict, network_to_dict
    from repro.engine.context import SynthesisOptions
    from repro.engine.governor import ResourceGovernor
    from repro.engine.passes import synthesize_cone
    from repro.intervals import Interval
    from repro.network.bdd_build import ConeCollapser
    from repro.network.netlist import Network

    task = ConeTask.from_dict(data)
    started_wall = time.time()
    began = time.perf_counter()
    phases: list[dict[str, float]] = []

    @contextmanager
    def phase(name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            phases.append({"name": name, "start": start - began, "dur": dur})
            _obs.event(
                "cone.progress", sink=task.sink, phase=name, dur=round(dur, 6)
            )

    _apply_fault(task.fault)
    options = SynthesisOptions.from_dict(task.options)
    node_budget = 0 if task.fault == "starve" else task.node_budget
    governor = ResourceGovernor(
        time_budget=task.time_budget, node_budget=node_budget
    )
    slice_net = network_from_dict(task.slice)
    sink = task.sink
    _obs.event("cone.start", sink=sink, cone_inputs=len(slice_net.inputs))

    signature: Optional[str] = None
    backend_name: Optional[str] = None

    def base(action: str, **extra: Any) -> dict[str, Any]:
        result = {
            "version": CONE_TASK_VERSION,
            "sink": sink,
            "action": action,
            "signature": signature,
            "cone_inputs": len(slice_net.inputs),
            "tree_cost": None,
            "original_cost": None,
            "replacement": None,
            "degrade_reason": None,
            "backend": backend_name,
            "pid": os.getpid(),
            "started_wall": started_wall,
            "elapsed": time.perf_counter() - began,
            "phases": phases,
            "nodes_allocated": governor.nodes_allocated(),
        }
        result.update(extra)
        if action == "copied":
            _obs.event(
                "cone.degrade", sink=sink, reason=result["degrade_reason"]
            )
        _obs.event(
            "cone.end",
            sink=sink,
            action=action,
            elapsed=round(result["elapsed"], 6),
            degrade_reason=result["degrade_reason"],
        )
        return result

    manager = governor.attach_manager(BDDManager())
    collapser = ConeCollapser(
        slice_net, manager, source_order=list(slice_net.inputs)
    )
    with phase("collapse"):
        f = collapser.node_function(sink)
    if governor.out_of_budget():
        return base("copied", degrade_reason=governor.reason)

    unreachable = FALSE
    if task.dc_cubes:
        var_of = collapser.var_of
        for cube in task.dc_cubes:
            literals = {var_of[name]: bool(pol) for name, pol in cube}
            unreachable = manager.apply_or(
                unreachable, manager.cube(literals)
            )
    interval = Interval.with_dont_cares(manager, f, unreachable)
    # Exact cone identity (function + don't cares) for the ledger; the
    # BDD is already built, so this is a linear walk over its DAG.
    signature = interval_signature(manager, interval)

    replacement = Network(f"{slice_net.name}::rebuilt")
    for name in slice_net.inputs:
        replacement.add_input(name)
    replacement.add_output(sink)
    outcome, tree = synthesize_cone(
        interval,
        options,
        governor,
        {},
        source=slice_net,
        sink=sink,
        cone_inputs=len(slice_net.inputs),
        target=replacement,
        collapser=collapser,
        phase=phase,
        stop_on_budget=True,
    )
    backend_name = outcome.backend
    return base(
        outcome.action,
        tree_cost=outcome.tree_cost,
        original_cost=outcome.original_cost,
        degrade_reason=(
            governor.reason if outcome.action == "copied" else None
        ),
        replacement=None if tree is None else network_to_dict(replacement),
    )


def format_worker_error(exc: BaseException) -> dict[str, str]:
    """Exception → JSON-friendly record, preserving the remote traceback
    text ``concurrent.futures`` chains onto pool exceptions."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }
