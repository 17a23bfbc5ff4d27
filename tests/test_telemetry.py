"""Live-telemetry layer tests: bus transport, OpenMetrics, structured
logging, stall detection, and the fault paths.

The promises under test, in the bus's own priority order:

* **out-of-band** — parallel synthesis is bit-identical with the full
  telemetry stack on or off;
* **truthful under pressure** — back-pressure drops are counted exactly
  (emitter-side cumulative counts plus reader-side parse errors), an
  oversized record is truncated rather than torn, and a worker killed
  mid-line never corrupts the stream for anyone else;
* **observable failure** — a worker that dies with a cone in flight is
  flagged *stalled* by the monitor's liveness rules, and a crashing run
  embeds the structured log's tail in its crash bundle;
* **import-free when off** — a run without telemetry flags never
  imports any of the three live-telemetry modules or the trace recorder;
* **worker records reach the report** — an instrumented pool run with
  no live view still reports every worker's cone records.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import urllib.request

import pytest

from repro import obs
from repro.engine import Pipeline, SynthesisContext, SynthesisOptions
from repro.engine.checkpoint import network_to_dict
from repro.obs import bus as obs_bus
from repro.obs import crashdump
from repro.obs import ledger as obs_ledger
from repro.obs import logging as obs_logging
from repro.obs import openmetrics
from repro.obs.ledger import RunLedger
from repro.obs.monitor import RuntimeMonitor, process_rss_kb
from repro.synth import algorithm1

from strategies import small_circuit

# ``repro.obs.registry`` the module (``repro.obs.registry`` the attribute
# is the accessor function).
obs_registry = importlib.import_module("repro.obs.registry")


def wait_until(predicate, timeout=5.0, poll=0.01):
    """Poll ``predicate`` until true or ``timeout`` elapses (the bus
    reader ingests on its own thread, so tests must wait, not sleep)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


def canonical_report(report) -> dict:
    """Deterministic portion of a synthesis report (the bit-identity
    comparison unit, mirroring test_parallel_engine)."""
    return {
        "network": network_to_dict(report.network),
        "records": [vars(r) for r in report.records],
        "latch_cleanup": dict(report.latch_cleanup),
        "degraded": report.degraded,
    }


def decompose_sinks(net):
    return [
        s
        for s in net.combinational_sinks()
        if s not in net.inputs and s not in net.latches
    ]


@pytest.fixture
def obs_session():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def bus():
    instance = obs_bus.TelemetryBus(run_id="testrun", heartbeat_interval=0)
    yield instance
    instance.close()


# ---------------------------------------------------------------------------
# Bus transport
# ---------------------------------------------------------------------------


def in_worker(*events):
    """Emit ``(name, fields)`` events from a forked child, as a pool
    worker does, and reap it; returns the child's pid."""
    child = os.fork()
    if child == 0:
        try:
            for name, fields in events:
                obs.event(name, **fields)
        finally:
            os._exit(0)
    os.waitpid(child, 0)
    return child


class TestBusTransport:
    def test_cone_lifecycle_round_trip(self, bus, obs_session):
        obs_bus.activate(bus)
        child = in_worker(
            ("cone.start", {"sink": "n42", "cone_inputs": 5}),
            ("cone.progress", {"sink": "n42", "phase": "collapse",
                               "dur": 0.125}),
            ("cone.end", {"sink": "n42", "action": "decomposed",
                          "elapsed": 0.5}),
        )
        assert bus.sync()
        assert bus.counts == {
            "cone.start": 1,
            "cone.progress": 1,
            "cone.end": 1,
        }
        assert bus.events_dropped == 0
        (worker,) = bus.worker_summary()
        assert worker["pid"] == child
        assert worker["state"] == "idle"
        assert worker["last_action"] == "decomposed"
        assert worker["events"] == 3
        # The worker's records reached the parent's ring, each carrying
        # the bus meta.
        records = obs.report()["events"]
        assert [r["ev"] for r in records] == [
            "cone.start", "cone.progress", "cone.end",
        ]
        assert all(r["pid"] == child for r in records)
        assert all(r.get("run") == "testrun" for r in records)

    def test_degrade_event_precedes_copied_end(self, bus, obs_session):
        """A cone the worker degrades itself sends ``cone.degrade``
        before its ``cone.end``."""
        net = small_circuit(7)
        victim = decompose_sinks(net)[1]
        obs_bus.activate(bus)
        context = SynthesisContext(
            net.copy(), SynthesisOptions(parallel_workers=1)
        )
        pipe = Pipeline(["cleanup", "dontcares"])
        pipe.add("decompose_parallel", fault_spec={victim: "starve"})
        pipe.run(context)
        assert bus.counts.get("cone.degrade") == 1
        (worker,) = bus.worker_summary()
        assert worker["state"] == "idle"
        events = [
            r["ev"] for r in obs.report()["events"]
            if r.get("sink") == victim
        ]
        assert events.index("cone.degrade") < events.index("cone.end")

    def test_backpressure_drops_and_counts_exactly(self):
        """A full kernel buffer drops (bounded queue) and the emitter's
        cumulative count rides the next successful record."""
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        try:
            emitter = obs_bus._Emitter(write_fd)
            flood = {"v": 1, "ev": "flood", "payload": "x" * 512}
            sent = 0
            while emitter.dropped == 0 and sent < 20000:
                emitter.write(flood)
                sent += 1
            assert emitter.dropped > 0, "pipe never filled"
            before = emitter.dropped
            # Nothing read yet: every further write also drops.
            assert emitter.write(flood) is False
            assert emitter.dropped == before + 1
            # Drain the kernel buffer, then the next write goes through
            # and reports the cumulative drop count.
            os.set_blocking(read_fd, False)
            try:
                while os.read(read_fd, 65536):
                    pass
            except BlockingIOError:
                pass
            assert emitter.write({"v": 1, "ev": "after"}) is True
            tail = os.read(read_fd, 65536).decode()
            record = json.loads(tail.strip().splitlines()[-1])
            assert record["ev"] == "after"
            assert record["dropped"] == emitter.dropped
        finally:
            os.close(read_fd)
            os.close(write_fd)

    def test_reported_drops_reach_bus_aggregate(self, bus):
        obs_bus.activate(bus)
        emitter = obs_bus._Emitter(bus._write_fd)
        emitter.dropped = 3  # as if back-pressure had struck
        emitter.write({"v": 1, "ev": "cone.start", "pid": 1, "sink": "s"})
        assert bus.sync()
        assert bus.counts.get("cone.start") == 1
        assert bus.events_dropped == 3
        assert bus.snapshot()["events_dropped"] == 3

    def test_oversized_record_truncated_not_torn(self, bus, obs_session):
        obs_bus.activate(bus)
        in_worker(("huge", {"blob": "y" * (2 * obs_bus.MAX_RECORD_BYTES)}))
        assert bus.sync()
        assert bus.counts.get("huge") == 1
        assert bus.parse_errors == 0
        record = bus.snapshot()["recent"][-1]
        assert record.get("truncated") is True
        assert "blob" not in record

    def test_torn_final_line_counted_as_drop(self):
        bus = obs_bus.TelemetryBus()
        os.write(bus._write_fd, b'{"v":1,"ev":"cone.start","pid":')
        bus.close()  # EOF with a partial line pending
        assert bus.parse_errors == 1
        assert bus.events_dropped == 1
        assert not bus.counts

    def test_parent_events_fold_without_worker_row(self, bus):
        obs_bus.activate(bus)
        obs.event("shard.dispatch", cones=4, workers=2)
        obs.event("cone.merged", sink="a", merged=1, total=4)
        assert bus.counts == {"shard.dispatch": 1, "cone.merged": 1}
        assert bus.worker_summary() == []
        assert bus.events_total() == 2

    def test_heartbeat_streams_while_cone_in_flight(self):
        bus = obs_bus.TelemetryBus(heartbeat_interval=0.05)
        obs_bus.activate(bus)
        try:
            obs.event("cone.start", sink="slow", cone_inputs=9)
            assert wait_until(lambda: bus.counts.get("heartbeat", 0) >= 2)
            obs.event("cone.end", sink="slow", action="decomposed")
            (worker,) = bus.worker_summary()
            assert worker["state"] == "idle"
            beats = bus.counts["heartbeat"]
            time.sleep(0.2)
            assert bus.counts["heartbeat"] == beats  # none after the end
        finally:
            bus.close()

    def test_attachment_restores_previous_target(self, bus):
        before = obs_registry._stamp
        obs_bus.activate(bus)
        assert obs_bus.active() is bus
        assert bus.observe in obs_registry._sinks
        assert obs_registry._stamp["run"] == "testrun"
        obs_bus.deactivate()
        assert obs_bus.active() is None
        assert obs_registry._sinks == ()
        assert obs_registry._stamp == before
        # A child forked now keeps its own (empty) fan-out.
        in_worker(("nobody", {}))
        assert bus.sync()
        assert bus.counts == {}


# ---------------------------------------------------------------------------
# Stall detection
# ---------------------------------------------------------------------------


class TestStallDetection:
    def _busy_worker(self, bus):
        obs_bus.activate(bus)
        obs.event("cone.start", sink="n9", cone_inputs=4)
        time.sleep(0.2)  # a measurable start->heartbeat gap
        obs.event("heartbeat", sink="n9")
        obs_bus.deactivate()
        assert bus.counts.get("heartbeat") == 1
        with bus._lock:
            return dict(bus.workers[os.getpid()])

    def test_silent_worker_flagged_stalled(self, bus):
        worker = self._busy_worker(bus)
        rows = bus.worker_summary(
            stall_after=5.0, now=worker["last_seen"] + 30.0
        )
        (row,) = rows
        assert row["stalled"] is True
        assert "no event" in row["stall_reason"]
        # Within the horizon the same worker is healthy.
        (fresh,) = bus.worker_summary(
            stall_after=5.0, now=worker["last_seen"] + 1.0
        )
        assert fresh["stalled"] is False

    def test_monitor_folds_stall_into_status(self, bus, tmp_path):
        self._busy_worker(bus)
        status = tmp_path / "status.json"
        monitor = RuntimeMonitor(
            interval=60, status_file=status, bus=bus, stall_after=0.0
        )
        time.sleep(0.05)  # let last_event_age exceed the zero horizon
        sample = monitor.sample()
        assert sample["bus"]["workers_stalled"] == 1
        assert sample["workers"][0]["stalled"] is True
        written = json.loads(status.read_text())
        assert written["bus"]["workers_stalled"] == 1


# ---------------------------------------------------------------------------
# Fault paths
# ---------------------------------------------------------------------------


class TestWorkerFaults:
    def test_worker_death_leaves_stream_coherent(self):
        """A worker hard-killed by an injected fault (os._exit breaks
        the whole pool) never tears the stream: every surviving cone's
        records parse, starts match ends, and nothing is dropped."""
        net = small_circuit(7)
        victim = decompose_sinks(net)[1]
        bus = obs_bus.TelemetryBus(run_id="faultrun", heartbeat_interval=0)
        obs_bus.activate(bus)
        try:
            context = SynthesisContext(
                net.copy(), SynthesisOptions(parallel_workers=2)
            )
            pipe = Pipeline(["cleanup", "dontcares"])
            pipe.add("decompose_parallel", fault_spec={victim: "exit"})
            for name in ("finalize", "sweep", "strash", "sweep"):
                pipe.add(name)
            pipe.run(context)
            report = context.to_report()
        finally:
            obs_bus.deactivate()
        assert report.degraded
        total = bus.counts.get("cone.merged", 0)
        assert total > 0
        assert wait_until(
            lambda: bus.counts.get("cone.end", 0) >= total - 1
        )
        bus.close()
        assert bus.parse_errors == 0
        assert bus.events_dropped == 0
        # The killed victim dies before its first record, and an
        # innocent cone caught mid-flight by the pool breakage is
        # retried (re-emitting its lifecycle) — so starts may exceed
        # ends and ends may exceed merges, but never the reverse.
        assert bus.counts["cone.start"] >= bus.counts["cone.end"]
        assert bus.counts["cone.end"] >= total - 1
        assert bus.counts.get("shard.dispatch") == 1

    def test_killed_mid_cone_worker_marked_stalled(self, bus):
        """A child that dies *after* cone.start (mid-cone) leaves a busy
        row with no further events — exactly what the stall rules catch,
        and what the monitor surfaces as workers_stalled."""
        obs_bus.activate(bus)
        # Forked worker: announce a cone, then die silently.
        child = in_worker(("cone.start", {"sink": "doomed", "cone_inputs": 6}))
        assert bus.sync()
        assert bus.counts.get("cone.start") == 1
        assert bus.parse_errors == 0
        (row,) = bus.worker_summary(stall_after=0.0, now=time.time() + 1.0)
        assert row["pid"] == child
        assert row["state"] == "busy"
        assert row["sink"] == "doomed"
        assert row["stalled"] is True
        monitor = RuntimeMonitor(interval=60, bus=bus, stall_after=0.0)
        time.sleep(0.05)
        assert monitor.sample()["bus"]["workers_stalled"] == 1

    def test_crash_bundle_embeds_log_tail(self, tmp_path, obs_session):
        """The bundle's tail is the newest event records: the same
        records the run log's last lines hold."""
        path = tmp_path / "run.jsonl"
        handler = obs_logging.install(path)
        obs.stamp(run="r1")
        try:
            obs.event("pipeline.pass", index=0)
            obs.event("governor.exhausted", pass_name="x")
            bundle = crashdump.build_crash_bundle(RuntimeError("boom"))
        finally:
            obs.stamp(run=None)
            obs_logging.uninstall(handler)
        tail = bundle["log_tail"]
        assert [r["ev"] for r in tail] == [
            "pipeline.pass", "governor.exhausted",
        ]
        assert all(r["run"] == "r1" for r in tail)
        logged = [json.loads(line) for line in path.read_text().splitlines()]
        assert logged == tail
        assert bundle["exception"]["message"] == "boom"


# ---------------------------------------------------------------------------
# RSS probe (the platform-unit fix)
# ---------------------------------------------------------------------------


class TestProcessRss:
    def _force_fallback(self, monkeypatch, maxrss):
        import resource

        real_open = open

        def deny_proc(path, *args, **kwargs):
            if str(path).startswith("/proc/"):
                raise OSError("no procfs")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", deny_proc)

        class Usage:
            ru_maxrss = maxrss

        monkeypatch.setattr(resource, "getrusage", lambda who: Usage)

    def test_linux_kibibytes_pass_through(self, monkeypatch):
        """Linux ru_maxrss is already KiB: a 5 GiB process must NOT be
        divided down (the old magnitude guess misclassified it)."""
        five_gib_kb = 5 * 1024 * 1024
        self._force_fallback(monkeypatch, five_gib_kb)
        monkeypatch.setattr(sys, "platform", "linux")
        assert process_rss_kb() == five_gib_kb

    def test_darwin_bytes_converted(self, monkeypatch):
        self._force_fallback(monkeypatch, 256 * 1024 * 1024)  # bytes
        monkeypatch.setattr(sys, "platform", "darwin")
        assert process_rss_kb() == 256 * 1024


# ---------------------------------------------------------------------------
# OpenMetrics rendering, parsing, exporting
# ---------------------------------------------------------------------------


SAMPLE_REGISTRY = {
    "counters": {"pipeline.passes": 7, "parallel.tasks": 26},
    "gauges": {"bdd.nodes.peak": 1234},
    "histograms": {"cone.elapsed": {"count": 3, "total": 1.5}},
    "spans": {"algorithm1/decompose": {"count": 1, "total": 0.75}},
}

SAMPLE_BUS = {
    "events": {"cone.start": 4, "cone.end": 3},
    "events_dropped": 2,
    "workers": [
        {"pid": 11, "state": "busy", "stalled": True,
         "in_flight_s": 9.5, "sink": 'we"ird\\sink'},
        {"pid": 12, "state": "idle", "stalled": False},
    ],
}


class TestOpenMetrics:
    def test_metric_name_mapping(self):
        assert openmetrics.metric_name("bdd.cache.and.hits") == (
            "repro_bdd_cache_and_hits"
        )
        assert openmetrics.metric_name("9weird name!", prefix="") == (
            "_9weird_name_"
        )

    def test_render_parse_round_trip(self):
        text = openmetrics.render(
            registry_snapshot=SAMPLE_REGISTRY,
            monitor_sample={
                "elapsed": 12.5,
                "sample_index": 4,
                "rss_kb": 2048,
                "parallel": {"parallel.cones.total": 26},
            },
            bus_snapshot=SAMPLE_BUS,
        )
        families = openmetrics.parse_openmetrics(text)
        passes = families["repro_pipeline_passes_total"]
        assert passes["type"] == "counter"
        assert passes["samples"] == [({}, 7.0)]
        summary = families["repro_cone_elapsed"]
        assert summary["type"] == "summary"
        assert ({}, 3.0) in summary["samples"]
        span = families["repro_span_seconds"]
        assert ({"span": "algorithm1/decompose"}, 1.0) in span["samples"]
        assert families["repro_bus_events_dropped_total"]["samples"] == [
            ({}, 2.0)
        ]
        stalled = dict(
            (labels["pid"], value)
            for labels, value in families["repro_bus_worker_stalled"]["samples"]
        )
        assert stalled == {"11": 1.0, "12": 0.0}
        # Label escaping survives the round trip.
        flight = families["repro_bus_worker_in_flight_seconds"]["samples"]
        assert flight == [({"pid": "11", "sink": 'we"ird\\sink'}, 9.5)]
        assert families["repro_parallel_cones_total"]["samples"] == [
            ({}, 26.0)
        ]

    @pytest.mark.parametrize(
        "text,match",
        [
            ("# TYPE repro_x counter\nrepro_x_total 1\n", "EOF"),
            ("# TYPE repro_x counter\n\n# EOF\n", "blank"),
            ("repro_x 1\n# EOF\n", "no # TYPE"),
            ("# TYPE repro_x gauge\nrepro_x one\n# EOF\n", "non-numeric"),
            ("# TYPE repro_x widget\n# EOF\n", "bad TYPE"),
            ("# EOF\nrepro_x 1\n", "after # EOF"),
        ],
    )
    def test_parser_rejects_malformed(self, text, match):
        with pytest.raises(ValueError, match=match):
            openmetrics.parse_openmetrics(text)

    def test_exporter_textfile_atomic_refresh(self, tmp_path):
        target = tmp_path / "metrics" / "repro.om"
        exporter = openmetrics.MetricsExporter(path=target)
        exporter.export({"elapsed": 1.0, "sample_index": 0})
        first = openmetrics.parse_openmetrics(target.read_text())
        assert first["repro_monitor_elapsed_seconds"]["samples"] == [
            ({}, 1.0)
        ]
        exporter.export({"elapsed": 2.0, "sample_index": 1})
        second = openmetrics.parse_openmetrics(target.read_text())
        assert second["repro_monitor_elapsed_seconds"]["samples"] == [
            ({}, 2.0)
        ]
        exporter.close()
        leftovers = [p for p in target.parent.iterdir() if p != target]
        assert leftovers == [], "scratch temp file leaked"

    def test_exporter_http_endpoint(self, bus):
        exporter = openmetrics.MetricsExporter(port=0, bus=bus)
        try:
            port = exporter.bound_port
            assert port
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == (
                    openmetrics.CONTENT_TYPE
                )
                families = openmetrics.parse_openmetrics(
                    response.read().decode()
                )
            assert "repro_bus_events_dropped_total" in families
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=5
                )
        finally:
            exporter.close()


# ---------------------------------------------------------------------------
# Structured logger
# ---------------------------------------------------------------------------


class TestStructuredLogger:
    def test_unwritable_path_degrades_to_tail(self, tmp_path, obs_session):
        """An unwritable log path is counted, never raised, and the
        record still reaches the ring the crash bundle's tail reads."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        handler = obs_logging.install(blocker / "run.jsonl")
        try:
            obs.event("still.recorded")
        finally:
            obs_logging.uninstall(handler)
        assert handler.write_errors == 1
        assert handler.records_written == 0
        assert obs.report()["events"][-1]["ev"] == "still.recorded"

    def test_module_registry_and_tail(self, tmp_path, obs_session):
        """install() makes the log a sink on the ``repro`` logger: each
        line is the very record the ring keeps; uninstall() takes the
        sink away again."""
        path = tmp_path / "run.jsonl"
        handler = obs_logging.install(path)
        try:
            assert handler in obs_logging.logger.handlers
            obs.event("hello", n=1, sink="a")
        finally:
            obs_logging.uninstall(handler)
        assert handler not in obs_logging.logger.handlers
        assert obs_logging._log_sink not in obs_registry._sinks
        obs.event("after.uninstall")
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert record == obs.report()["events"][0]
        assert record["ev"] == "hello"
        assert record["v"] == 1
        assert record["pid"] == os.getpid()
        assert record["n"] == 1 and record["sink"] == "a"
        assert handler.records_written == 1


# ---------------------------------------------------------------------------
# Per-pass size deltas (pipeline -> report/profile/ledger)
# ---------------------------------------------------------------------------


class TestPassDeltas:
    def test_report_passes_carry_size_deltas(self):
        report = algorithm1(small_circuit(3), SynthesisOptions())
        assert report.passes
        for row in report.passes:
            for key in ("nodes", "literals", "latches"):
                assert isinstance(row[key], int)
                assert isinstance(row[f"{key}_delta"], int)
        # Deltas telescope: final size = first before-size + sum(deltas).
        final = report.passes[-1]
        assert final["nodes"] == report.network.stats()["nodes"]

    def test_profile_table_shows_deltas(self, obs_session):
        result = algorithm1(small_circuit(3), SynthesisOptions())
        text = obs.render_profile(
            {**obs.report(), "run": {"passes": result.passes}}
        )
        assert "pipeline passes" in text
        assert "Δnodes" in text and "Δlits" in text

    def test_ledger_pass_rows_carry_metrics(self, tmp_path):
        with RunLedger(tmp_path / "runs.db") as ledger:
            run_id = ledger.begin_run(command="test")
            obs_ledger.activate(ledger, run_id)
            try:
                algorithm1(small_circuit(3), SynthesisOptions())
            finally:
                obs_ledger.deactivate()
            rows = ledger.passes(run_id)
            assert rows
            for row in rows:
                metrics = row["metrics"]
                assert set(metrics) >= {
                    "nodes", "literals", "latches", "nodes_delta",
                }


# ---------------------------------------------------------------------------
# Determinism and the off path
# ---------------------------------------------------------------------------


#: Modules a run without telemetry flags must never import.
OFF_PATH_BANNED = (
    "repro.obs.bus", "repro.obs.openmetrics", "repro.obs.logging",
    "repro.obs.trace",
)


def run_fresh(script):
    """Run ``script`` in a fresh interpreter with ``src`` on the path."""
    import subprocess

    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


class TestOutOfBand:
    def test_parallel_bit_identical_with_full_telemetry(self, tmp_path):
        """workers=1 and workers=2 with the whole stack live (bus +
        logger + exporter) equal the bare workers=2 run bit for bit."""
        net = small_circuit(3)
        golden = canonical_report(
            algorithm1(net.copy(), SynthesisOptions(parallel_workers=2))
        )
        handler = obs_logging.install(tmp_path / "run.jsonl")
        bus = obs_bus.TelemetryBus(run_id="det", heartbeat_interval=0.05)
        obs_bus.activate(bus)
        exporter = openmetrics.MetricsExporter(
            path=tmp_path / "m.om", bus=bus
        )
        try:
            for workers in (1, 2):
                report = algorithm1(
                    net.copy(),
                    SynthesisOptions(parallel_workers=workers),
                )
                exporter.export()
                assert canonical_report(report) == golden, (
                    f"telemetry changed output at workers={workers}"
                )
        finally:
            obs_bus.deactivate()
            exporter.close()
            bus.close()
            obs_logging.uninstall(handler)
        assert bus.counts.get("cone.start", 0) > 0
        assert bus.events_dropped == 0
        # Worker records reached the structured log through the bus.
        logged = [
            json.loads(line)
            for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        assert [r for r in logged if r["ev"].startswith("cone.")]
        openmetrics.parse_openmetrics((tmp_path / "m.om").read_text())

    def test_disabled_path_imports_nothing(self):
        """A fresh interpreter running a parallel synthesis without
        telemetry flags must never import the live-telemetry modules."""
        script = (
            "import sys\n"
            "from repro.benchgen import generate_sequential_circuit\n"
            "from repro.synth import SynthesisOptions, algorithm1\n"
            "net = generate_sequential_circuit('offpath', num_inputs=3,"
            " num_outputs=2, num_latches=3, seed=1)\n"
            "algorithm1(net, SynthesisOptions(parallel_workers=2))\n"
            f"banned = [m for m in {OFF_PATH_BANNED!r} if m in sys.modules]\n"
            "assert not banned, f'telemetry imported on off path: {banned}'\n"
        )
        run_fresh(script)

    def test_cli_off_path_imports_nothing(self, tmp_path):
        """``optimize --workers 2`` with no telemetry flag, in a fresh
        interpreter, loads none of the telemetry modules — the trace
        recorder included, although every cone merge asks for it."""
        from repro import cli

        source = tmp_path / "s344.blif"
        assert cli.main(["generate", "s344", "-o", str(source)]) == 0
        script = (
            "import sys\n"
            "from repro import cli\n"
            f"rc = cli.main(['optimize', {str(source)!r}, '-o', "
            f"{str(tmp_path / 'out.blif')!r}, '--workers', '2'])\n"
            "assert rc == 0\n"
            f"banned = [m for m in {OFF_PATH_BANNED!r} if m in sys.modules]\n"
            "assert not banned, f'telemetry imported on off path: {banned}'\n"
        )
        run_fresh(script)


class TestReportHoldsWorkerRecords:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stats_json_counts_every_cone(self, tmp_path, workers):
        """``--stats-json`` alone (no live view, so no CLI bus) still
        reports one ``cone.start`` and one ``cone.end`` per cone task
        when the cones run in pool workers."""
        from repro import cli

        source = tmp_path / "s344.blif"
        assert cli.main(["generate", "s344", "-o", str(source)]) == 0
        stats = tmp_path / "stats.json"
        assert cli.main([
            "optimize", str(source), "-o", str(tmp_path / "out.blif"),
            "--workers", str(workers), "--stats-json", str(stats),
        ]) == 0
        report = json.loads(stats.read_text())
        tasks = report["counters"]["parallel.tasks"]
        evs = [e["ev"] for e in report["events"]]
        assert tasks > 0
        assert evs.count("cone.start") == evs.count("cone.end") == tasks
        assert evs.count("cone.merged") == tasks
        assert obs_bus.active() is None


# ---------------------------------------------------------------------------
# One event model: every sink receives the same records
# ---------------------------------------------------------------------------


def record_names(tmp_path, tag):
    """``ev`` multisets of one CLI run's log, trace instants and report."""
    from collections import Counter

    log = Counter(
        json.loads(line)["ev"]
        for line in (tmp_path / f"{tag}.jsonl").read_text().splitlines()
    )
    trace = json.loads((tmp_path / f"{tag}.trace").read_text())
    instants = Counter(
        e["name"] for e in trace["traceEvents"] if e["ph"] == "i"
    )
    report = json.loads((tmp_path / f"{tag}.json").read_text())
    events = Counter(e["ev"] for e in report["events"])
    return log, instants, events


class TestOneEventModel:
    @pytest.fixture(scope="class")
    def s344_runs(self, tmp_path_factory):
        from repro import cli

        tmp_path = tmp_path_factory.mktemp("one_event_model")
        source = tmp_path / "s344.blif"
        assert cli.main(["generate", "s344", "-o", str(source)]) == 0
        for workers in (0, 2):
            tag = f"w{workers}"
            assert cli.main([
                "optimize", str(source), "-o", str(tmp_path / f"{tag}.blif"),
                "--workers", str(workers),
                "--trace", str(tmp_path / f"{tag}.trace"),
                "--log-json", str(tmp_path / f"{tag}.jsonl"),
                "--stats-json", str(tmp_path / f"{tag}.json"),
            ]) == 0
        return tmp_path

    @pytest.mark.parametrize("workers", [0, 2])
    def test_log_trace_and_report_hold_the_same_records(
        self, s344_runs, workers
    ):
        log, instants, events = record_names(s344_runs, f"w{workers}")
        assert log == instants == events
        assert log["pipeline.pass"] == 7
        assert log["run.start"] == log["run.end"] == 1

    def test_serial_log_holds_every_signal_outcome(self, s344_runs):
        log, _, _ = record_names(s344_runs, "w0")
        assert log["algorithm1.signal"] == 26

    def test_parallel_log_holds_worker_records(self, s344_runs):
        log, _, _ = record_names(s344_runs, "w2")
        assert log["cone.start"] == log["cone.end"] == log["cone.merged"] > 0
        report = json.loads((s344_runs / "w2.json").read_text())
        pids = {e["pid"] for e in report["events"] if e["ev"] == "cone.end"}
        assert os.getpid() not in pids and len(pids) >= 1

    def test_profile_renders_every_pass_from_a_tiny_ring(
        self, tmp_path, monkeypatch, capsys
    ):
        """The pass table reads the pass log, not the ring, so a ring
        that wraps early still shows all 7 passes."""
        from collections import deque

        from repro import cli

        monkeypatch.setattr(obs.registry(), "events", deque(maxlen=2))
        source = tmp_path / "s344.blif"
        assert cli.main(["generate", "s344", "-o", str(source)]) == 0
        capsys.readouterr()
        assert cli.main([
            "optimize", str(source), "-o", str(tmp_path / "out.blif"),
            "--workers", "2", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        table = out.split("pipeline passes", 1)[1].split("\n\n", 1)[0]
        rows = [line.split()[1] for line in table.splitlines()[2:]]
        assert rows == [
            "cleanup", "dontcares", "decompose_parallel", "finalize",
            "sweep", "strash", "sweep",
        ]
        assert "event buffer wrapped" in out


# ---------------------------------------------------------------------------
# repro top
# ---------------------------------------------------------------------------


class TestTopView:
    def _status(self, **overrides):
        status = {
            "pid": 4242,
            "time_unix": 1000.0,
            "elapsed": 12.25,
            "sample_index": 9,
            "interval": 1.0,
            "bdd": {"nodes": 54321, "managers": 2},
            "rss_kb": 4096,
            "spans": {"1": "algorithm1", "2": "algorithm1/decompose"},
            "parallel": {
                "parallel.cones.total": 20,
                "parallel.cones.merged": 5,
                "parallel.cones.degraded": 1,
            },
            "bus": {
                "events_total": 77,
                "events_dropped": 0,
                "workers_stalled": 1,
            },
            "workers": [
                {"pid": 10, "state": "busy", "sink": "n1",
                 "phase": "decompose", "in_flight_s": 2.0, "events": 12,
                 "stalled": False},
                {"pid": 11, "state": "busy", "sink": "n2",
                 "in_flight_s": 60.0, "events": 3, "stalled": True},
            ],
            "ledger": {"run_id": "abc123", "path": "/tmp/runs.db"},
            "governor": {"nodes_allocated": 999, "node_budget": 5000,
                         "remaining_time": 30.0},
        }
        status.update(overrides)
        return status

    def test_waiting_frame_without_status(self):
        from repro.cli import render_top

        assert "waiting for status file" in render_top(None)

    def test_full_frame(self):
        from repro.cli import render_top

        view = render_top(self._status(), now=1001.0)
        assert "pid 4242" in view
        assert "[STALE]" not in view
        assert "run: abc123" in view
        assert "phase: algorithm1/decompose" in view
        assert "5/20" in view and "(1 degraded)" in view
        assert "77 events" in view
        assert "STALLED" in view
        assert "999 nodes / 5000" in view

    def test_stale_flag(self):
        from repro.cli import render_top

        view = render_top(self._status(), now=1010.0)
        assert "[STALE]" in view

    def test_cmd_top_once(self, tmp_path, capsys):
        from repro import cli

        status_path = tmp_path / "status.json"
        status_path.write_text(json.dumps(self._status()))
        metrics_path = tmp_path / "m.om"
        metrics_path.write_text(
            openmetrics.render(registry_snapshot=SAMPLE_REGISTRY)
        )
        rc = cli.main([
            "top",
            "--status-file", str(status_path),
            "--metrics-file", str(metrics_path),
            "--once", "--no-clear",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top — pid 4242" in out
        assert "repro_parallel_tasks_total" in out
