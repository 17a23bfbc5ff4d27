"""The pass protocol, the pass registry, and the standard Algorithm 1
passes.

A pass is any object with a ``name`` string, a ``params`` dict (used for
declarative config round-trips) and a ``run(context)`` method that
mutates a :class:`~repro.engine.context.SynthesisContext`.  Registered
passes can be instantiated by name from JSON/dict pipeline configs (see
:mod:`repro.engine.pipeline`); anything else can still be appended to a
:class:`Pipeline` programmatically.

The standard passes re-express the stages of the paper's Algorithm 1
(latch cleanup, don't-care retrieval, interval widening +
bi-decomposition, instantiation, structural cleanup) that used to be
fused into one monolithic loop.  Budget checks go through the context's
:class:`~repro.engine.governor.ResourceGovernor`: exhaustion downgrades
the remaining cones to structural copy and marks the context degraded —
it never raises.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro import obs as _obs
from repro.bdd.manager import FALSE
from repro.bidec.recursive import DecTree
from repro.engine.context import (
    SignalRecord,
    SynthesisContext,
    SynthesisOptions,
)
from repro.intervals import Interval
from repro.network.netlist import Network
from repro.network.transform import (
    cleanup_latches,
    instantiate_dectree,
    strash,
    sweep,
)


@runtime_checkable
class Pass(Protocol):
    """What a pipeline stage must provide."""

    name: str
    params: dict[str, Any]

    def run(self, context: SynthesisContext) -> None: ...


_REGISTRY: dict[str, Callable[..., Pass]] = {}


def register_pass(name: str) -> Callable[[Callable[..., Pass]], Callable[..., Pass]]:
    """Class decorator: make a pass constructible by name from configs."""

    def decorate(factory: Callable[..., Pass]) -> Callable[..., Pass]:
        _REGISTRY[name] = factory
        return factory

    return decorate


def make_pass(name: str, **params: Any) -> Pass:
    """Instantiate a registered pass by name."""
    factory = _REGISTRY.get(name)
    if factory is None:
        # The parallel scheduler registers its pass on import; pull it
        # in so configs naming "decompose_parallel" work regardless of
        # which engine entry point ran first.
        import repro.engine.parallel  # noqa: F401 - registration side effect

        factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown pass {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return factory(**params)


def available_passes() -> list[str]:
    """Names instantiable via :func:`make_pass` / pipeline configs."""
    import repro.engine.parallel  # noqa: F401 - registration side effect

    return sorted(_REGISTRY)


class _BasePass:
    """Param bookkeeping shared by the standard passes.

    A parameter given at construction time overrides the same-named
    attribute of the context's :class:`SynthesisOptions`, which lets a
    declarative config retune one stage without forking the options."""

    name = "base"

    def __init__(self, **params: Any) -> None:
        self.params = params

    def options_for(self, context: SynthesisContext) -> SynthesisOptions:
        """The context's options with this pass's option-named params
        applied on top (other params, such as test hooks, are ignored)."""
        known = vars(context.options)
        return replace(
            context.options,
            **{k: v for k, v in self.params.items() if k in known},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.params}>"


# ---------------------------------------------------------------------------
# Standard passes
# ---------------------------------------------------------------------------


@register_pass("cleanup")
class LatchCleanupPass(_BasePass):
    """Section 3.6 structural pre-processing of the source network."""

    name = "cleanup"

    def run(self, context: SynthesisContext) -> None:
        context.latch_cleanup = cleanup_latches(context.source)


@register_pass("dontcares")
class DontCarePass(_BasePass):
    """Attach the unreachable-state don't-care store (lazy per-partition
    reachability, budgets flowing from the governor)."""

    name = "dontcares"

    def run(self, context: SynthesisContext) -> None:
        source = context.source
        if not source.latches:
            return
        options = self.options_for(context)
        dc_source = options.dc_source
        if dc_source == "reachability":
            from repro.reach.dontcare import DontCareManager

            context.dc_manager = DontCareManager(
                source,
                max_partition_size=options.max_partition_size,
                time_budget=options.reach_time_budget,
                governor=context.governor,
                auto_reorder=options.auto_reorder,
                reorder_threshold=options.reorder_threshold,
            )
        elif dc_source == "induction":
            from repro.reach.induction import InductiveInvariant

            context.dc_manager = _InductionAdapter(InductiveInvariant(source))
        else:
            raise ValueError(f"unknown dc_source {dc_source!r}")


@register_pass("decompose")
class DecomposePass(_BasePass):
    """The Algorithm 1 loop: collapse each sink's cone, widen it with
    unreachable-state don't cares, bi-decompose, and instantiate the
    tree into the rebuilt network with sharing.

    Budget exhaustion (checked per signal through the governor) copies
    the remaining cones structurally and marks the context degraded."""

    name = "decompose"

    def run(self, context: SynthesisContext) -> None:
        source = context.source
        rebuilt = context.ensure_rebuilt()
        options = self.options_for(context)
        # Per-sink safe point for --auto-reorder: between sinks the only
        # live collapser-manager handles are the cone cache and the
        # sharing table, both remapped by the compaction.
        for sink, cone_inputs in eligible_cones(
            context, options.max_cone_inputs, context.maybe_compact_bdds
        ):
            collapser = context.ensure_collapser()
            with _obs.span("algorithm1.collapse"):
                f = collapser.node_function(sink)
            unreachable = FALSE
            if context.dc_manager is not None:
                ps_support = {
                    name for name in cone_inputs if name in source.latches
                }
                if ps_support:
                    with _obs.span("algorithm1.dontcare"):
                        unreachable = context.dc_manager.unreachable_for(
                            ps_support, collapser.manager, collapser.var_of
                        )
            interval = Interval.with_dont_cares(
                collapser.manager, f, unreachable
            )
            signal_record, tree = synthesize_cone(
                interval,
                options,
                context.governor,
                context.share_table,
                source=source,
                sink=sink,
                cone_inputs=len(cone_inputs),
                target=rebuilt,
                collapser=collapser,
                phase=lambda step: _obs.span(f"algorithm1.{step}"),
            )
            settle_cone(context, signal_record, tree)


@register_pass("finalize")
class FinalizePass(_BasePass):
    """Wire the rebuilt network's interface: outputs, latch data inputs,
    and structural copies of any sink the decompose loop never reached."""

    name = "finalize"

    def run(self, context: SynthesisContext) -> None:
        source = context.source
        rebuilt = context.ensure_rebuilt()
        for output in source.outputs:
            rebuilt.add_output(context.signal_map.get(output, output))
        for latch in rebuilt.latches.values():
            latch.data_in = context.signal_map.get(latch.data_in, latch.data_in)
        # Make sure structurally copied sinks that were never reached exist.
        for sink in rebuilt.combinational_sinks():
            if not rebuilt.is_signal(sink):
                copy_cone(source, rebuilt, sink)


@register_pass("sweep")
class SweepPass(_BasePass):
    """Propagate buffers/constants and drop dangling logic."""

    name = "sweep"

    def run(self, context: SynthesisContext) -> None:
        removed = sweep(context.result_network())
        context.artifacts["sweep.removed"] = (
            context.artifacts.get("sweep.removed", 0) + removed
        )


@register_pass("strash")
class StrashPass(_BasePass):
    """Structural hashing over the result network."""

    name = "strash"

    def run(self, context: SynthesisContext) -> None:
        merged = strash(context.result_network())
        context.artifacts["strash.merged"] = (
            context.artifacts.get("strash.merged", 0) + merged
        )


# ---------------------------------------------------------------------------
# Helpers shared by the passes (formerly privates of synth.algorithm1)
# ---------------------------------------------------------------------------


class _InductionAdapter:
    """Presents an :class:`InductiveInvariant` through the
    ``unreachable_for(ps_support, manager, var_of)`` interface of
    :class:`DontCareManager`."""

    def __init__(self, invariant) -> None:
        self._invariant = invariant

    def unreachable_for(self, ps_support, target, var_of):
        relevant = {
            name: var for name, var in var_of.items() if name in ps_support
        }
        return self._invariant.unreachable_for(target, relevant)


def copy_cone(source: Network, target: Network, sink: str) -> None:
    """Structurally copy a sink's cone into the rebuilt network, keeping
    original names (idempotent)."""
    for name in source.in_topological_order(source.transitive_fanin([sink])):
        if target.is_signal(name):
            continue
        node = source.nodes[name]
        target.add_node(name, node.op, list(node.fanins), node.cover)


def eligible_cones(
    context: SynthesisContext,
    max_cone_inputs: int,
    safe_point: Optional[Callable[[], Any]] = None,
) -> Iterator[tuple[str, list[str]]]:
    """Classify the source's combinational sinks for a decompose pass:
    settle each sink that gets no decomposition (inputs, latches and
    sinks already rebuilt map to themselves; budget exhaustion copies
    and degrades; over-wide cones are ``kept-large``) and yield
    ``(sink, cone_inputs)`` for the rest.  Lazy, so each budget check
    follows the caller's work on the previous cone.  ``safe_point``
    runs at the start of every sink."""
    source = context.source
    rebuilt = context.ensure_rebuilt()
    governor = context.governor
    for sink in source.combinational_sinks():
        if safe_point is not None:
            safe_point()
        if (
            sink in source.inputs
            or sink in source.latches
            or rebuilt.is_signal(sink)  # copied or merged earlier
        ):
            context.signal_map[sink] = sink
        elif governor.out_of_budget():
            settle_cone(
                context,
                SignalRecord(sink, 0, "copied"),
                degrade_reason=governor.reason or "budget exhausted",
            )
        else:
            cone_inputs = source.cone_inputs(sink)
            if len(cone_inputs) <= max_cone_inputs:
                yield sink, cone_inputs
            else:
                settle_cone(
                    context, SignalRecord(sink, len(cone_inputs), "kept-large")
                )


def synthesize_cone(
    interval: Interval,
    options: SynthesisOptions,
    governor: Any,
    share_table: dict[int, str],
    *,
    source: Network,
    sink: str,
    cone_inputs: int,
    target: Network,
    collapser: Any,
    phase: Callable[[str], Any],
    stop_on_budget: bool = False,
) -> tuple[SignalRecord, Optional[DecTree]]:
    """The per-cone step of Algorithm 1, shared by the in-process
    ``decompose`` pass and the cone worker (:func:`run_cone_task`).

    Routes the interval to a backend and bi-decomposes it.  A tree
    dearer than ``acceptance_ratio`` times :func:`cone_literals` is
    ``kept-cost``; an accepted one is instantiated into ``target``
    (its variables named by ``collapser``, a ``ConeCollapser``, and its
    gate names avoiding every ``source`` signal) with ``sink`` as a
    buffer of it, and returned.  ``phase(name)`` wraps the
    ``decompose`` and ``instantiate`` steps for the caller's
    telemetry.  With ``stop_on_budget``, a governor that ran out during
    decomposition makes the cone ``copied``.
    """
    from repro.bidec.api import decompose_cone
    from repro.bidec.backends import backend_for_interval

    with phase("decompose"):
        backend_name, backend = backend_for_interval(
            options.backend,
            interval,
            cegar_iterations=options.cegar_iterations,
            governor=governor,
        )
        tree = decompose_cone(
            interval,
            max_support=options.max_support,
            gates=tuple(options.gates),
            objective=options.objective,
            sharing_choice=options.sharing_choice,
            share_table=share_table,
            backend=backend,
        )

    def outcome(action: str, *costs: int) -> SignalRecord:
        return SignalRecord(
            sink, cone_inputs, action, *costs, backend=backend_name
        )

    if stop_on_budget and governor.out_of_budget():
        return outcome("copied"), None
    original_cost = cone_literals(source, sink)
    tree_cost = tree.cost()
    if tree_cost > options.acceptance_ratio * max(original_cost, 1):
        return outcome("kept-cost", tree_cost, original_cost), None
    use_sharing = options.enable_sharing or options.sharing_choice
    with phase("instantiate"):
        var_to_signal = {
            var: name for name, var in collapser.var_of.items()
        }
        new_signal = instantiate_dectree(
            target,
            tree,
            var_to_signal,
            sink,
            share_table if use_sharing else None,
            reserved=source,
        )
        # Keep the sink's own name alive (primary-output names are part
        # of the interface; sweep squeezes the alias out elsewhere).
        target.add_node(sink, "buf", [new_signal])
    return outcome("decomposed", tree_cost, original_cost), tree


def settle_cone(
    context: SynthesisContext,
    signal_record: SignalRecord,
    tree: Optional[DecTree] = None,
    *,
    replacement: Optional[dict[str, Any]] = None,
    degrade_reason: Optional[str] = None,
) -> None:
    """Enter one sink's outcome in the rebuilt network and the records:
    a decomposed sink is already built in place or is merged from a
    worker's ``replacement``; any other outcome copies the source cone.
    ``degrade_reason`` marks the context degraded."""
    sink = signal_record.signal
    rebuilt = context.ensure_rebuilt()
    if signal_record.action != "decomposed":
        copy_cone(context.source, rebuilt, sink)
    elif replacement is not None:
        from repro.synth import conetask

        conetask.merge_cone_result(
            rebuilt, sink, replacement, reserved=context.source
        )
    if degrade_reason is not None:
        context.mark_degraded(degrade_reason)
    context.signal_map[sink] = sink
    context.records.append(record(signal_record, tree))


def cone_literals(network: Network, sink: str) -> int:
    """Literal estimate of a sink's existing cone (nodes shared with other
    cones are charged fully — the acceptance test is deliberately
    conservative)."""
    total = 0
    cone = network.transitive_fanin([sink])
    for name in cone:
        node = network.nodes.get(name)
        if node is None:
            continue
        if node.op == "cover":
            assert node.cover is not None
            total += node.cover.literal_count()
        elif node.op in ("and", "or", "xor"):
            total += len(node.fanins)
        elif node.op == "not":
            total += 1
    return total


def record(
    signal_record: SignalRecord, tree: Optional[DecTree] = None
) -> SignalRecord:
    """Publish one per-signal outcome to the obs registry (identity
    passthrough when instrumentation is off).

    Decomposed signals additionally contribute the accepted gate mix
    (``algorithm1.gates.or/and/xor``) and the cost trajectory, and every
    signal leaves an event so the per-signal literal/area trajectory can
    be replayed from a report.
    """
    if not _obs.enabled():
        return signal_record
    action = signal_record.action.replace("-", "_")
    _obs.inc("algorithm1.signals")
    _obs.inc(f"algorithm1.signals.{action}")
    if signal_record.cone_inputs:
        _obs.observe("algorithm1.cone.inputs", signal_record.cone_inputs)
    if signal_record.tree_cost is not None:
        _obs.observe("algorithm1.tree.cost", signal_record.tree_cost)
    if signal_record.original_cost is not None:
        _obs.observe("algorithm1.original.cost", signal_record.original_cost)
    if tree is not None:
        gate_mix: dict[str, int] = {}
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.op != "leaf":
                gate_mix[node.op] = gate_mix.get(node.op, 0) + 1
                stack.extend(node.children)
        for gate, count in gate_mix.items():
            _obs.inc(f"algorithm1.gates.{gate}", count)
    if signal_record.backend is not None:
        _obs.inc(
            "algorithm1.backend."
            + signal_record.backend.replace("-", "_")
        )
    _obs.event(
        "algorithm1.signal",
        signal=signal_record.signal,
        action=signal_record.action,
        cone_inputs=signal_record.cone_inputs,
        tree_cost=signal_record.tree_cost,
        original_cost=signal_record.original_cost,
        backend=signal_record.backend,
    )
    return signal_record
