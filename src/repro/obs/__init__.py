"""Observability substrate: metrics, phase-scoped tracing and run reports.

Usage pattern::

    from repro import obs

    obs.enable()                       # before building managers
    with obs.span("myphase"):
        obs.inc("myfamily.widgets")
        obs.observe("myfamily.size", 42)
    report = obs.report()              # JSON-serialisable dict

Everything is a no-op while disabled (the default), so library code is
instrumented unconditionally.  See :mod:`repro.obs.registry` for the
data model and :mod:`repro.obs.reporting` for rendering/persistence.

Importing this package loads only :mod:`repro.obs.registry`; the
rendering, trace, monitor and crash-bundle names below are loaded on
first use.  The *live telemetry* layer — :mod:`repro.obs.bus`
(cross-process worker event stream), :mod:`repro.obs.openmetrics`
(OpenMetrics exposition) and :mod:`repro.obs.logging` (structured JSONL
run log) — is deliberately **not** re-exported here: those modules are
imported only by the CLI when their flags are given, and engine layers
reach them solely through ``sys.modules.get(...)``, so a run without the
flags never loads them at all.
"""

import importlib
from typing import Any

from repro.obs.registry import (
    Histogram,
    Registry,
    SpanStat,
    current_span_path,
    disable,
    enable,
    enabled,
    event,
    inc,
    observe,
    registry,
    report,
    reset,
    scope,
    set_gauge,
    span,
    stamp,
    track_bdd_manager,
)

#: Names loaded from their module on first access.
_LAZY = {
    "cache_efficiency": "repro.obs.reporting",
    "render_profile": "repro.obs.reporting",
    "write_report": "repro.obs.reporting",
    "TraceRecorder": "repro.obs.trace",
    "tracing": "repro.obs.trace",
    "RuntimeMonitor": "repro.obs.monitor",
    "set_crash_context": "repro.obs.crashdump",
    "write_crash_bundle": "repro.obs.crashdump",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "Histogram",
    "Registry",
    "RuntimeMonitor",
    "SpanStat",
    "TraceRecorder",
    "cache_efficiency",
    "current_span_path",
    "disable",
    "enable",
    "enabled",
    "event",
    "inc",
    "observe",
    "registry",
    "render_profile",
    "report",
    "reset",
    "scope",
    "set_crash_context",
    "set_gauge",
    "span",
    "stamp",
    "track_bdd_manager",
    "tracing",
    "write_crash_bundle",
    "write_report",
]
