"""Pass-boundary checkpoint/resume for synthesis pipelines.

A checkpoint is a JSON file written after every completed pass: the
pipeline's declarative config and position, the synthesis options, the
serialized source/rebuilt networks, the signal map and per-signal
records, and the degradation state.  Killing a run and calling
:func:`resume_pipeline` reproduces the uninterrupted result — the BDD
manager, cone collapser and don't-care store are deliberately *not*
serialized (they are rebuilt lazily; reachability is recomputed on
demand), so a checkpoint stays small and portable.

Only pipelines made of registered passes can be resumed (the config
round trip reinstantiates passes by name); the sharing table does not
survive a resume, which matters only if the run died *inside* the
decompose pass — in that case the pass restarts from its beginning.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from repro.engine.context import (
    SignalRecord,
    SynthesisContext,
    SynthesisOptions,
)
from repro.engine.governor import ResourceGovernor
from repro.logic.sop import Cover, Cube
from repro.network.netlist import Network

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Network (de)serialization — tolerates mid-pipeline dangling references,
# which the BLIF writer does not.
# ---------------------------------------------------------------------------


def network_to_dict(network: Network) -> dict[str, Any]:
    """JSON-friendly structural dump preserving node insertion order."""
    return {
        "name": network.name,
        "inputs": list(network.inputs),
        "outputs": list(network.outputs),
        "latches": [
            [latch.name, latch.data_in, bool(latch.init)]
            for latch in network.latches.values()
        ],
        "nodes": [
            [
                node.name,
                node.op,
                list(node.fanins),
                (
                    [[list(lit) for lit in cube.literals] for cube in node.cover]
                    if node.cover is not None
                    else None
                ),
            ]
            for node in network.nodes.values()
        ],
    }


def network_from_dict(data: dict[str, Any]) -> Network:
    network = Network(data["name"])
    network.inputs = list(data["inputs"])
    network.outputs = list(data["outputs"])
    for name, data_in, init in data["latches"]:
        network.add_latch(name, data_in, bool(init))
    for name, op, fanins, cover in data["nodes"]:
        parsed = None
        if cover is not None:
            parsed = Cover(
                [
                    Cube(tuple((var, bool(pol)) for var, pol in cube))
                    for cube in cover
                ]
            )
        network.add_node(name, op, fanins, parsed)
    return network


def json_safe_artifacts(artifacts: dict[str, Any]) -> dict[str, Any]:
    """Artifacts that survive a JSON round trip (custom passes may stash
    live objects there; those are simply not checkpointed)."""
    safe: dict[str, Any] = {}
    for key, value in artifacts.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        safe[key] = value
    return safe


# ---------------------------------------------------------------------------
# Checkpoint write / read / resume
# ---------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    pipeline: "Pipeline",
    context: SynthesisContext,
    next_pass: int,
) -> dict[str, Any]:
    """Serialize pipeline position + context state to ``path``
    (atomically, via a sibling temp file).  Returns the written dict."""
    data = {
        "version": CHECKPOINT_VERSION,
        "pipeline": pipeline.to_config(),
        "next_pass": next_pass,
        "options": context.options.to_dict(),
        "source": network_to_dict(context.source),
        "rebuilt": (
            network_to_dict(context.rebuilt)
            if context.rebuilt is not None
            else None
        ),
        "signal_map": dict(context.signal_map),
        "records": [dict(vars(r)) for r in context.records],
        "latch_cleanup": dict(context.latch_cleanup),
        "degraded": context.degraded,
        "degrade_reason": context.degrade_reason,
        "pass_log": list(context.pass_log),
        "artifacts": json_safe_artifacts(context.artifacts),
        "elapsed": context.runtime(),
        "governor": context.governor.snapshot(),
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_suffix(target.suffix + ".tmp")
    scratch.write_text(json.dumps(data, indent=1) + "\n")
    scratch.replace(target)
    return data


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    data = json.loads(Path(path).read_text())
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return data


def restore_context(
    data: dict[str, Any], governor: Optional[ResourceGovernor] = None
) -> SynthesisContext:
    """Rebuild a :class:`SynthesisContext` from checkpoint data.

    The fresh governor's wall-clock budget is the original budget minus
    the time already spent (floored at zero), so a resumed run honours
    the overall budget rather than restarting it."""
    options = SynthesisOptions.from_dict(data["options"])
    prior = float(data.get("elapsed", 0.0))
    if governor is None:
        remaining = (
            max(0.0, options.time_budget - prior)
            if options.time_budget is not None
            else None
        )
        governor = ResourceGovernor(
            time_budget=remaining, node_budget=options.node_budget
        )
    source = network_from_dict(data["source"])
    context = SynthesisContext(source, options, governor=governor)
    # SynthesisContext copies its network argument; replace the copy with
    # the deserialized source directly to avoid double work.
    context.source = source
    if data.get("rebuilt") is not None:
        context.rebuilt = network_from_dict(data["rebuilt"])
    context.signal_map = dict(data.get("signal_map", {}))
    context.records = [SignalRecord(**r) for r in data.get("records", [])]
    context.latch_cleanup = dict(data.get("latch_cleanup", {}))
    context.degraded = bool(data.get("degraded", False))
    context.degrade_reason = data.get("degrade_reason")
    context.pass_log = list(data.get("pass_log", []))
    context.artifacts = dict(data.get("artifacts", {}))
    context.prior_elapsed = prior
    if context.degraded and context.degrade_reason:
        governor.mark_exhausted(context.degrade_reason)
    return context


def resume_pipeline(
    path: str | Path,
    governor: Optional[ResourceGovernor] = None,
    checkpoint: bool = True,
    stop_after: Optional[str] = None,
) -> SynthesisContext:
    """Load a checkpoint and run the remaining passes; returns the
    finished context (``context.to_report()`` for the usual report).

    With ``checkpoint=True`` (default) the resumed run keeps writing
    checkpoints to the same path."""
    from repro.engine.pipeline import Pipeline

    data = load_checkpoint(path)
    context = restore_context(data, governor=governor)
    pipeline = Pipeline.from_config(data["pipeline"])
    pipeline.run(
        context,
        checkpoint=str(path) if checkpoint else None,
        start=int(data["next_pass"]),
        stop_after=stop_after,
    )
    return context
