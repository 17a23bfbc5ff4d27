#!/usr/bin/env python3
"""Live telemetry walkthrough: watch a parallel synthesis from outside.

Wires up the full live-telemetry stack — the cross-process event bus,
the runtime monitor with its status.json heartbeat, the OpenMetrics
exporter, and the structured JSONL run log — around one parallel
Algorithm 1 run, exactly as the CLI does for::

    repro optimize bench.blif -o opt.blif --workers 2 \\
        --status-file status.json --metrics-file metrics.om \\
        --log-json run.jsonl

then plays dashboard itself: renders one ``repro top`` frame from the
status file it just wrote, validates the OpenMetrics exposition with
the same minimal parser the CI watcher uses, and digests the bus
aggregate and the run log.

Run:  python examples/live_dashboard.py [bench] [workers]
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.benchgen import iscas_analog
from repro.cli import render_top
from repro.obs import bus as obs_bus
from repro.obs import logging as obs_logging
from repro.obs import openmetrics
from repro.obs.monitor import RuntimeMonitor
from repro.synth import SynthesisOptions, algorithm1


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "s344"
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    network = iscas_analog(bench)
    outdir = Path(tempfile.mkdtemp(prefix="repro_live_"))
    status_path = outdir / "status.json"
    metrics_path = outdir / "metrics.om"
    log_path = outdir / "run.jsonl"

    # The CLI assembles exactly this stack when the flags are given;
    # engine layers only ever see it through sys.modules, so a run
    # without it never imports any of these modules.  Every event
    # record, a worker's included, reaches every sink: the log file,
    # the bus aggregate, and (with obs enabled) the report and trace.
    log_handler = obs_logging.install(log_path)
    bus = obs_bus.TelemetryBus(run_id="live-demo")
    obs_bus.activate(bus)
    exporter = openmetrics.MetricsExporter(path=metrics_path, bus=bus)
    monitor = RuntimeMonitor(
        interval=0.2, status_file=status_path, bus=bus, exporter=exporter
    )

    with monitor:
        report = algorithm1(
            network, SynthesisOptions(parallel_workers=workers)
        )

    # Teardown order matters: monitor took its final sample above,
    # exporter flushes next, then the bus drains to EOF and the log
    # closes last.
    exporter.close()
    bus.close()
    obs_logging.uninstall(log_handler)

    print(f"== {bench}: workers={workers}, "
          f"{report.decomposed()} of {len(report.records)} cones "
          f"decomposed ==\n")

    # One frame of `repro top`, from the same files an operator tails.
    status = json.loads(status_path.read_text())
    families = openmetrics.parse_openmetrics(metrics_path.read_text())
    print(render_top(status, families))

    snap = bus.snapshot(recent=0)
    print("\nbus aggregate")
    for event, count in sorted(snap["events"].items()):
        print(f"  {event:<16} {count:>6}")
    print(f"  {'dropped':<16} {snap['events_dropped']:>6}")

    per_worker = {}
    cone_ends = [
        record for record in map(json.loads, log_path.read_text().splitlines())
        if record["ev"] == "cone.end"
    ]
    for record in cone_ends:
        per_worker[record["pid"]] = per_worker.get(record["pid"], 0) + 1
    print(f"\nrun log: {log_path}")
    print(f"  {len(cone_ends)} cone completions across "
          f"{len(per_worker)} worker pid(s)")
    print(f"  status file: {status_path}")
    print(f"  metrics file: {metrics_path} "
          f"({len(families)} OpenMetrics families)")


if __name__ == "__main__":
    main()
