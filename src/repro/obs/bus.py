"""Live telemetry bus: streaming worker events while cones are in flight.

The bus carries event records between processes and keeps the live
per-worker view.  While a bus is active (:func:`activate`), every worker
the process pool forks sends each record its :func:`repro.obs.event`
builds down a pipe the parent created, as one line of JSON, and nothing
else: the report ring, trace, run log and ledger belong to the parent.
A parent-side reader thread passes each worker record through the
parent's own event fan-out (:func:`repro.obs.registry.dispatch`), so
every parent sink sees worker records exactly as it sees its own.  One
of those sinks is the bus itself: it counts records by ``ev`` and keeps
a per-worker view (in-flight cone, phase, last event) that the
:class:`~repro.obs.monitor.RuntimeMonitor` folds into status.json and
:mod:`repro.obs.openmetrics` renders for scraping.

Design constraints, in order:

* **Out-of-band.**  Telemetry must never change synthesis output.  The
  bus only observes; the scheduler's plan-ordered merge is untouched,
  so ``workers=N`` stays bit-identical with the bus on or off.
* **Truthful under pressure.**  The write end is non-blocking: when the
  kernel buffer is full the record is *dropped and counted*, never
  blocked on.  Each later record a worker sends carries its cumulative
  ``dropped`` count, and the reader counts unparseable or torn lines,
  so ``events_dropped`` is exact.
* **No torn lines.**  Records are capped below ``PIPE_BUF`` (POSIX
  guarantees atomic pipe writes up to that size), so a reader never
  sees two workers' bytes interleaved mid-line; an oversized record is
  replaced by a small ``truncated`` marker rather than split.
* **Import-free when off.**  Engine layers reach an active bus only
  through ``sys.modules.get("repro.obs.bus")``.  The one engine-side
  import is the parallel pass bringing up a private bus for a pool run
  while obs is on, so a run with obs off never imports this module (the
  CI telemetry-smoke job asserts exactly that in a fresh interpreter).

The record schema is :func:`repro.obs.event`'s.  The records that move
a worker's row are the cone lifecycle events, each with ``sink``:

=================  ====================================================
``cone.start``     ``cone_inputs``
``cone.progress``  ``phase`` (collapse/decompose/instantiate), ``dur``
``heartbeat``      sent every heartbeat interval while a cone is in
                   flight
``cone.degrade``   ``reason``
``cone.end``       ``action``, ``elapsed``, ``degrade_reason``
=================  ====================================================
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Optional
from repro.obs.registry import (
    RECORD_VERSION,
    add_sink,
    dispatch,
    forward_to,
    registry,
    remove_sink,
    stamp,
)
from repro.obs.registry import event as _event

#: Hard cap on one encoded record.  POSIX guarantees pipe writes up to
#: ``PIPE_BUF`` (>= 512, 4096 on Linux) are atomic; staying well under
#: it means a record is written whole or not at all — never torn.
MAX_RECORD_BYTES = 3072

#: Default worker heartbeat period in seconds (0 disables heartbeats).
DEFAULT_HEARTBEAT = 0.5

#: Default liveness horizon: a worker whose cone has been in flight
#: with no event for this long is considered stalled.
DEFAULT_STALL_AFTER = 10.0

#: The events that move a worker's row in the aggregate.
WORKER_EVENTS = frozenset(
    ("cone.start", "cone.progress", "cone.end", "cone.degrade", "heartbeat")
)

#: Line the reader treats as a :meth:`TelemetryBus.sync` marker.
_SYNC = b"sync "


class _Emitter:
    """Send side of the pipe: writes records whole, dropping (and
    counting) on back-pressure."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.dropped = 0
        self._lock = threading.Lock()

    def write(self, record: dict[str, Any]) -> bool:
        if self.dropped:
            record = {**record, "dropped": self.dropped}
        data = (json.dumps(record, separators=(",", ":"), default=str)
                + "\n").encode()
        if len(data) > MAX_RECORD_BYTES:
            # Replace, don't split: a split record would tear the frame.
            marker = {
                "v": RECORD_VERSION, "ev": record.get("ev"),
                "pid": record.get("pid"), "t": record.get("t"),
                "truncated": True,
            }
            if self.dropped:
                marker["dropped"] = self.dropped
            data = (json.dumps(marker, separators=(",", ":")) + "\n").encode()
        with self._lock:
            try:
                os.write(self.fd, data)
                return True
            except (BlockingIOError, InterruptedError):
                self.dropped += 1  # kernel buffer full: bounded queue
            except OSError:
                self.dropped += 1  # reader gone; stay silent forever
            return False


class _Heartbeat:
    """Liveness ticker of one process: while a cone this process started
    is in flight, emit a ``heartbeat`` event every ``interval`` seconds,
    so liveness shows even inside an opaque symbolic step.  A heartbeat
    and the ``cone.end`` that stops it take one lock, so a worker never
    sends a heartbeat for a cone after that cone's end."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.sink: Optional[str] = None
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def observe(self, record: dict[str, Any]) -> None:
        ev = record["ev"]
        if ev == "cone.start":
            with self._lock:
                self.sink = record.get("sink")
            if self.interval > 0 and self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-bus-heartbeat", daemon=True
                )
                self._thread.start()
        elif ev == "cone.end":
            with self._lock:
                self.sink = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                if self.sink is not None:
                    _event("heartbeat", sink=self.sink)

    def stop(self) -> None:
        self._stop.set()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class TelemetryBus:
    """Parent-side transport + aggregate of the event stream.

    Construct in the parent and :func:`activate` it before the worker
    pool forks.  A daemon reader thread passes worker records through
    the parent's event fan-out as they arrive; the bus's own sink keeps
    the aggregate that :meth:`snapshot` / :meth:`worker_summary` expose
    to the monitor and the OpenMetrics exporter.  :meth:`close`
    deactivates, drains, and releases both pipe ends.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        shard: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT,
        stall_after: float = DEFAULT_STALL_AFTER,
    ) -> None:
        self.run_id = run_id
        self.shard = shard
        self.heartbeat_interval = heartbeat_interval
        self.stall_after = stall_after
        self.pid = os.getpid()
        self._read_fd, self._write_fd = os.pipe()
        # Non-blocking sends are what makes the queue bounded: a full
        # kernel buffer drops (counted) instead of stalling a worker.
        os.set_blocking(self._write_fd, False)
        self._lock = threading.Lock()
        self._closed = False
        self._heartbeat = _Heartbeat(heartbeat_interval)
        self._synced = threading.Condition()
        self._sync_sent = 0
        self._sync_seen = 0
        self.started_at = time.time()
        self.workers: dict[int, dict[str, Any]] = {}
        self.counts: dict[str, int] = {}
        #: Lines that failed to parse (torn/corrupt) — reader-side drops.
        self.parse_errors = 0
        #: Per-pid cumulative drop counts reported by emitters.
        self._reported_drops: dict[int, int] = {}
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-bus-reader", daemon=True
        )
        self._reader.start()

    def meta(self) -> dict[str, Any]:
        """The ``run``/``shard`` fields records carry while this bus is
        active."""
        fields: dict[str, Any] = {}
        if self.run_id is not None:
            fields["run"] = self.run_id
        if self.shard is not None:
            fields["shard"] = self.shard
        return fields

    # -- ingest ---------------------------------------------------------

    def _read_loop(self) -> None:
        buffer = b""
        while True:
            try:
                chunk = os.read(self._read_fd, 65536)
            except OSError:
                break
            if not chunk:
                break
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                self._ingest(line)
        if buffer:
            # Trailing bytes with no newline at EOF: a torn final write
            # (e.g. a worker killed mid-line) — counted, never raised.
            self._ingest(buffer)

    def _ingest(self, line: bytes) -> None:
        if not line.strip():
            return
        if line.startswith(_SYNC):
            with self._synced:
                self._sync_seen = int(line[len(_SYNC):])
                self._synced.notify_all()
            return
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "ev" not in record:
                raise ValueError("not an event record")
        except (ValueError, UnicodeDecodeError):
            with self._lock:
                self.parse_errors += 1
            return
        dispatch(record)

    def sync(self, timeout: float = 2.0) -> bool:
        """Wait until the reader has passed on every record already in
        the pipe: a marker line goes in behind them and the reader
        reports reaching it.  The parallel pass calls this once its
        workers are done, so the parent's sinks hold every worker
        record before the pass ends.  False on timeout."""
        with self._synced:
            self._sync_sent += 1
            token = self._sync_sent
        data = _SYNC + b"%d\n" % token
        deadline = time.monotonic() + timeout
        while True:
            try:
                os.write(self._write_fd, data)
                break
            except BlockingIOError:
                if time.monotonic() > deadline:
                    return False
                time.sleep(0.001)
            except OSError:
                return False
        with self._synced:
            return self._synced.wait_for(
                lambda: self._sync_seen >= token,
                max(0.0, deadline - time.monotonic()),
            )

    def observe(self, record: dict[str, Any]) -> None:
        """The bus's event sink in the parent: count the record and move
        its worker's row."""
        ev = str(record.get("ev") or "unknown")
        pid = record.get("pid")
        if pid == self.pid:
            self._heartbeat.observe(record)  # cones run inline (workers=1)
        received = time.time()
        with self._lock:
            self.counts[ev] = self.counts.get(ev, 0) + 1
            if not isinstance(pid, int):
                return
            reported = record.get("dropped")
            if isinstance(reported, (int, float)) and reported > 0:
                previous = self._reported_drops.get(pid, 0)
                if reported > previous:
                    self._reported_drops[pid] = int(reported)
            if ev not in WORKER_EVENTS:
                return
            worker = self.workers.setdefault(
                pid,
                {
                    "pid": pid, "events": 0, "state": "idle",
                    "sink": None, "sink_started": None,
                    "last_action": None, "first_seen": received,
                },
            )
            worker["events"] += 1
            worker["last_seen"] = received
            if ev == "cone.start":
                worker["state"] = "busy"
                worker["sink"] = record.get("sink")
                worker["sink_started"] = received
                worker["cone_inputs"] = record.get("cone_inputs")
            elif ev == "cone.progress":
                worker["phase"] = record.get("phase")
            elif ev == "cone.end":
                worker["state"] = "idle"
                worker["sink"] = None
                worker["sink_started"] = None
                worker["phase"] = None
                worker["last_action"] = record.get("action")
            elif ev == "cone.degrade":
                worker["degraded"] = worker.get("degraded", 0) + 1

    # -- aggregate views ------------------------------------------------

    @property
    def events_dropped(self) -> int:
        """Exact count of records that never made it into the aggregate:
        emitter-side drops (back-pressure) plus reader-side parse
        failures (torn/corrupt lines)."""
        with self._lock:
            return self.parse_errors + sum(self._reported_drops.values())

    def events_total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def worker_summary(
        self,
        stall_after: Optional[float] = None,
        now: Optional[float] = None,
    ) -> list[dict[str, Any]]:
        """Per-worker liveness rows for status.json.

        A worker is **stalled** when its cone has been in flight with no
        event (not even a heartbeat) for ``stall_after`` seconds — the
        signature of a dead or wedged process.
        """
        horizon = self.stall_after if stall_after is None else stall_after
        current = time.time() if now is None else now
        rows: list[dict[str, Any]] = []
        with self._lock:
            workers = [dict(w) for w in self.workers.values()]
        for worker in sorted(workers, key=lambda w: w["pid"]):
            row = {
                "pid": worker["pid"],
                "state": worker["state"],
                "sink": worker.get("sink"),
                "phase": worker.get("phase"),
                "events": worker["events"],
                "last_action": worker.get("last_action"),
                "last_event_age": round(
                    max(0.0, current - worker.get("last_seen", current)), 3
                ),
                "stalled": False,
            }
            if worker["state"] == "busy":
                started = worker.get("sink_started") or current
                row["in_flight_s"] = round(max(0.0, current - started), 3)
                if row["last_event_age"] > horizon:
                    row["stalled"] = True
                    row["stall_reason"] = (
                        f"no event for {row['last_event_age']:.1f}s"
                    )
            rows.append(row)
        return rows

    def snapshot(self, recent: int = 16) -> dict[str, Any]:
        """JSON-safe aggregate: event counts, drop accounting, per-worker
        rows, and the ``recent`` newest records of the report's ring."""
        with self._lock:
            counts = dict(self.counts)
            parse_errors = self.parse_errors
            reported = sum(self._reported_drops.values())
        return {
            "run": self.run_id,
            "started_at": self.started_at,
            "events": counts,
            "events_total": sum(counts.values()),
            "events_dropped": parse_errors + reported,
            "parse_errors": parse_errors,
            "workers": self.worker_summary(),
            "recent": registry().recent_events(recent),
        }

    # -- teardown -------------------------------------------------------

    def close(self, drain_timeout: float = 2.0) -> None:
        """Deactivate (if active), close the parent's write end, wait for
        the reader to drain to EOF, and release the read end.  EOF
        arrives once every child holding an inherited write fd has
        exited — the scheduler reaps its pools before the CLI closes the
        bus, so the wait is bounded by ``drain_timeout`` regardless."""
        if self._closed:
            return
        self._closed = True
        if _active_bus is self:
            deactivate()
        self._heartbeat.stop()
        try:
            os.close(self._write_fd)
        except OSError:
            pass
        self._reader.join(timeout=drain_timeout)
        try:
            os.close(self._read_fd)
        except OSError:
            pass

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
# The active bus (the ledger idiom: engine layers reach it via sys.modules)
# ---------------------------------------------------------------------------

_active_bus: Optional[TelemetryBus] = None


def activate(bus: TelemetryBus) -> None:
    """Make ``bus`` the process-wide active bus: its sink joins the
    event fan-out, records carry its ``run``/``shard``, and workers
    forked from now on send their records down its pipe (engine layers
    find it through ``sys.modules.get("repro.obs.bus").active()``)."""
    global _active_bus
    if _active_bus is not None:
        deactivate()
    _active_bus = bus
    stamp(**bus.meta())
    add_sink(bus.observe)


def deactivate() -> None:
    global _active_bus
    bus = _active_bus
    if bus is None:
        return
    _active_bus = None
    remove_sink(bus.observe)
    stamp(**dict.fromkeys(bus.meta()))
    bus._heartbeat.stop()
    bus._heartbeat = _Heartbeat(bus.heartbeat_interval)


def active() -> Optional[TelemetryBus]:
    """The active bus, or ``None``."""
    return _active_bus


def _after_fork_in_child() -> None:
    """A worker forked while a bus is active: every record it builds
    goes down the pipe, and nowhere else."""
    bus = _active_bus
    if bus is None:
        return
    emitter = _Emitter(bus._write_fd)
    heartbeat = _Heartbeat(bus.heartbeat_interval)

    def send(record: dict[str, Any]) -> None:
        heartbeat.observe(record)
        emitter.write(record)

    forward_to(send)


os.register_at_fork(after_in_child=_after_fork_in_child)
