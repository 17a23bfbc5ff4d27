"""Structured JSONL run log (``--log-json PATH``).

The log is a stdlib :class:`logging.Handler` on the ``repro`` logger,
fed by an obs event sink: every record :func:`repro.obs.event` builds
(and every worker record the telemetry bus passes on) becomes one
``logging`` record, and :class:`JsonFormatter` writes it back out as the
event record's own JSON — one object per line, the same fields the
report ring and the trace hold (``v``, ``ev``, ``t``, ``pid``, ``run``
when stamped, then the event's fields).  Greppable, ``jq``-able,
append-only.

Writing never raises into the host run: an unwritable path is counted
in :attr:`JsonlHandler.write_errors` and the run goes on.  The CLI is
the sole importer, so a run without ``--log-json`` never loads this
module.  (The absolute-import policy means this name never shadows the
stdlib ``logging`` either.)
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Any

from repro.obs.registry import add_sink, remove_sink

#: The logger every event is logged on.
logger = logging.getLogger("repro")


class JsonFormatter(logging.Formatter):
    """Formats a log record as one JSON line: the obs event record it
    carries."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(record.obs_record, separators=(",", ":"), default=str)


class JsonlHandler(logging.FileHandler):
    """Appends JSON lines to ``path``, counting what it wrote and what
    failed to write instead of raising."""

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # the first write fails and is counted
        super().__init__(path, mode="a", encoding="utf-8", delay=True)
        self.setFormatter(JsonFormatter())
        self.records_written = 0
        self.write_errors = 0

    def emit(self, record: logging.LogRecord) -> None:
        errors = self.write_errors
        try:
            if self.stream is None:
                self.stream = self._open()
        except OSError:
            self.handleError(record)
            return
        logging.StreamHandler.emit(self, record)  # failures: handleError
        if self.write_errors == errors:
            self.records_written += 1

    def handleError(self, record: logging.LogRecord) -> None:
        self.write_errors += 1


def _log_sink(record: dict[str, Any]) -> None:
    logger.info(record["ev"], extra={"obs_record": record})


def install(path: str | Path) -> JsonlHandler:
    """Start logging every event record to ``path``; returns the
    handler to pass to :func:`uninstall`."""
    handler = JsonlHandler(path)
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    add_sink(_log_sink)
    return handler


def uninstall(handler: JsonlHandler) -> None:
    """Detach and close ``handler``; the event sink goes with the last
    JSONL handler."""
    logger.removeHandler(handler)
    handler.close()
    if not any(isinstance(h, JsonlHandler) for h in logger.handlers):
        remove_sink(_log_sink)
        logger.setLevel(logging.NOTSET)
