"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``stats FILE``
    Print interface/size statistics of a BLIF or ``.bench`` netlist.
``optimize FILE -o OUT``
    Run the Algorithm 1 synthesis pipeline and write the optimised
    netlist.  Every :class:`SynthesisOptions` knob is a flag; resource
    budgets (``--time-budget``/``--node-budget``) degrade gracefully,
    ``--pipeline-config`` swaps in a declarative pass list,
    ``--checkpoint``/``--resume`` persist and pick up pass-boundary
    state, and ``--workers N`` shards cone decomposition across worker
    processes (bit-identical output for any worker count;
    ``--worker-timeout`` bounds each cone).
``resynth FILE -o OUT``
    Iterate Algorithm 1 to a literal-count fixpoint (the Section 3.7
    re-synthesis loop), printing the literal trajectory.
``map FILE``
    Technology-map a netlist and report area/delay (optionally after
    optimisation with ``--optimize``).
``reach FILE``
    Partitioned reachability analysis; report per-partition state counts
    and the approximate ``log2`` of the reachable space.
``decompose FILE SIGNAL``
    Collapse one signal, retrieve its unreachable-state don't cares, and
    report its best bi-decomposition with and without them.
``check LEFT RIGHT``
    Equivalence check between two netlists (BDD engine; ``--sat`` for
    the SAT miter; ``--sequential`` for the reachable-constrained check).
``generate NAME -o OUT``
    Emit one of the benchmark analogs (s344..s9234, seq4..seq9) as BLIF.
``profile TARGET``
    Run a workload under full instrumentation and print the phase-time /
    cache-efficiency table (``TARGET`` is a netlist path or a known
    benchmark name).

``trace FILE``
    Summarize a recorded trace (top spans by self time, counter tracks,
    unclosed spans) and optionally convert JSONL to Chrome trace-event
    JSON with ``--convert OUT``.
``history {list,show,compare,regressions,export} --ledger PATH``
    Inspect a run ledger (see below): list recorded runs, show one run's
    pass/cone rows, compare two runs for synthesis-quality or wall-time
    regressions (exit 2 on regression — a CI gate), scan every
    (command, input) trajectory, or export everything as JSONL.

The ``optimize``, ``reach``, ``decompose`` and ``map`` commands accept
``--profile`` (print the table after the run) and ``--stats-json PATH``
(write the machine-readable metrics report); either flag turns the
:mod:`repro.obs` instrumentation on for the run.

The long-run commands (``optimize``, ``resynth``, ``profile``) also
accept ``--trace FILE`` (record a span/counter timeline, Chrome JSON or
``.jsonl``), ``--status-file PATH`` (atomically rewritten heartbeat a
watcher can poll) and ``--monitor-interval SECS`` (sampling period of
the runtime monitor; ``0`` disables it).  On an unhandled exception any
instrumented command writes a crash-diagnostic bundle (exception +
traceback, obs report, trace tail, BDD manager stats, latest checkpoint
path) before re-raising; ``--crash-dump PATH`` sets its location.

Live telemetry (same long-run commands): ``--metrics-file PATH``
atomically rewrites an OpenMetrics text exposition every monitor
interval, ``--metrics-port PORT`` serves it at
``http://127.0.0.1:PORT/metrics`` on a daemon thread, and
``--log-json PATH`` appends every event record as one JSON line (pass
boundaries, per-signal outcomes, per-cone worker events).  Any of these
— or ``--status-file`` — also brings up the cross-process telemetry
bus: worker processes stream per-cone start/progress/heartbeat/degrade
events to the parent while cones are in flight, status.json gains
per-worker liveness rows with stalled-cone detection, and ``repro top
--status-file PATH`` tails it all into a live terminal view.  The whole
layer is off by default, adds zero imports when off, and is strictly
out-of-band: synthesis output is bit-identical with telemetry on or off.

The same long-run commands accept ``--ledger PATH``: append this run —
wall/literal/degradation results, per-pass timings and, for parallel
runs, one row per cone (sink, inputs, action, elapsed, costs, worker
pid, backend) — to a persistent SQLite run ledger (WAL mode, safe for
concurrent appenders) that ``repro history`` reads.  The ledger only
records: the output is bit-identical with or without it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.network.netlist import NetlistError, Network


def _load(path: str) -> Network:
    from repro.network import read_bench, read_blif

    if path.endswith(".bench"):
        return read_bench(path)
    return read_blif(path)


def _save(network: Network, path: str) -> None:
    from repro.network import expand_covers, save_bench, save_blif, save_verilog, sweep

    if path.endswith(".bench"):
        # .bench has no cover construct; expand to primitives first.
        prepared = network.copy()
        if any(node.op == "cover" for node in prepared.nodes.values()):
            expand_covers(prepared)
            sweep(prepared)
        save_bench(prepared, path)
    elif path.endswith(".v"):
        save_verilog(network, path)
    else:
        save_blif(network, path)


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "profile", False) or getattr(args, "stats_json", None))


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable instrumentation when ``--profile``/``--stats-json`` was
    given (before any manager is built, so cache stats are tracked)."""
    if _obs_requested(args):
        from repro import obs

        obs.reset()
        obs.enable()
        return True
    return False


def _obs_finish(args: argparse.Namespace, active: bool, **run_info) -> None:
    """Emit the requested report(s) and switch instrumentation back off."""
    if not active:
        return
    from repro import obs

    obs.disable()
    report = obs.report()
    if run_info:
        report["run"] = run_info
    if getattr(args, "stats_json", None):
        obs.write_report(args.stats_json, report)
        print(f"wrote {args.stats_json}")
    if getattr(args, "profile", False):
        print(obs.render_profile(report))


class _Diagnostics:
    """Per-command tracing/monitoring/telemetry lifecycle for the CLI
    flags.  This is the *only* place the live-telemetry modules
    (``repro.obs.bus`` / ``openmetrics`` / ``logging``) are imported —
    engine layers reach them through ``sys.modules``, so a run without
    these flags never loads them (the CI telemetry-smoke job asserts it
    in a fresh interpreter)."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro import obs
        from repro.obs import crashdump
        from repro.obs import trace as obs_trace

        self.trace_path = getattr(args, "trace", None)
        status_file = getattr(args, "status_file", None)
        interval = getattr(args, "monitor_interval", 1.0)
        metrics_file = getattr(args, "metrics_file", None)
        metrics_port = getattr(args, "metrics_port", None)
        log_json = getattr(args, "log_json", None)
        self.recorder = None
        self.monitor = None
        self.log_handler = None
        self.bus = None
        self.exporter = None
        self._enabled_obs = False
        crashdump.clear_crash_context()
        crashdump.set_crash_context(command=getattr(args, "command", None))
        # Tracing rides the obs switch: enable it (without clobbering a
        # --profile/--stats-json reset that already happened) so spans
        # and manager stats are collected.
        if not obs.enabled():
            obs.reset()
            obs.enable()
            self._enabled_obs = True
        if self.trace_path:
            self.recorder = obs_trace.install()
        self.log_path = log_json
        if log_json:
            from repro.obs import logging as obs_logging

            self.log_handler = obs_logging.install(log_json)
        # The telemetry bus backs every live view (status.json worker
        # rows, OpenMetrics worker gauges, worker records in the log),
        # so any of those outputs brings it up.  Out-of-band by design:
        # synthesis output is bit-identical with or without it.
        if status_file or metrics_file or metrics_port is not None or log_json:
            from repro.obs import bus as obs_bus

            self.bus = obs_bus.TelemetryBus()
            obs_bus.activate(self.bus)
        if metrics_file or metrics_port is not None:
            from repro.obs import openmetrics as obs_openmetrics

            self.exporter = obs_openmetrics.MetricsExporter(
                path=metrics_file, port=metrics_port, bus=self.bus
            )
            if self.exporter.bound_port is not None:
                print(
                    "metrics endpoint: "
                    f"http://127.0.0.1:{self.exporter.bound_port}/metrics"
                )
        if interval and interval > 0 and (
            self.trace_path or status_file or self.exporter is not None
        ):
            from repro.obs import RuntimeMonitor

            self.monitor = RuntimeMonitor(
                interval=interval,
                status_file=status_file,
                recorder=self.recorder,
                bus=self.bus,
                exporter=self.exporter,
            )
            self.monitor.start()
        obs.event(
            "run.start",
            command=getattr(args, "command", None),
            argv=list(sys.argv[1:]),
        )

    def make_governor(self, options) -> "object | None":
        """A governor built from the options' budgets, registered with
        the monitor so status samples show remaining budget."""
        from repro.engine import ResourceGovernor

        governor = ResourceGovernor(
            time_budget=options.time_budget, node_budget=options.node_budget
        )
        if self.monitor is not None:
            self.monitor.governor = governor
        return governor

    def _teardown_telemetry(self, chatter: bool) -> None:
        """Shared success/crash teardown of the live-telemetry layer, in
        dependency order: the ``run.end`` record, final monitor sample
        (reads bus), final exposition (reads bus), bus drain/close, log
        close last."""
        from repro import obs

        obs.event(
            "run.end",
            bus_events=self.bus.events_total() if self.bus else 0,
            bus_dropped=self.bus.events_dropped if self.bus else 0,
        )
        if self.monitor is not None:
            self.monitor.stop()
            if chatter and self.monitor.status_file is not None:
                print(f"wrote {self.monitor.status_file}")
        if self.exporter is not None:
            self.exporter.close()
            if chatter and self.exporter.path is not None:
                print(f"wrote {self.exporter.path}")
        if self.bus is not None:
            self.bus.close()
        if self.log_handler is not None:
            from repro.obs import logging as obs_logging

            obs_logging.uninstall(self.log_handler)
            if chatter:
                print(
                    f"wrote {self.log_path} "
                    f"({self.log_handler.records_written} log records)"
                )

    def finish(self) -> None:
        from repro import obs
        from repro.obs import trace as obs_trace

        self._teardown_telemetry(chatter=True)
        if self.recorder is not None:
            obs_trace.uninstall()
            written = self.recorder.write(self.trace_path)
            print(
                f"wrote {written} ({len(self.recorder.records())} trace "
                f"records, {self.recorder.dropped} dropped)"
            )
        if self._enabled_obs:
            obs.disable()

    def abort(self) -> None:
        """Crash-path teardown: stop the sampler thread, close the
        telemetry layer and uninstall the tracer without the
        success-path chatter (the crash handler has already flushed the
        partial trace and embedded the log tail)."""
        from repro import obs
        from repro.obs import trace as obs_trace

        self._teardown_telemetry(chatter=False)
        if self.recorder is not None:
            obs_trace.uninstall()
        if self._enabled_obs:
            obs.disable()


#: The diagnostics of the currently-running CLI command, so the crash
#: handler can tear down the sampler thread and tracer it started.
_ACTIVE_DIAG: "_Diagnostics | None" = None


def _diag_begin(args: argparse.Namespace) -> "_Diagnostics | None":
    """Start tracing/monitoring when any of the diagnostic flags was
    given (after :func:`_obs_begin`, whose reset must come first)."""
    global _ACTIVE_DIAG
    if (
        getattr(args, "trace", None)
        or getattr(args, "status_file", None)
        or getattr(args, "metrics_file", None)
        or getattr(args, "metrics_port", None) is not None
        or getattr(args, "log_json", None)
    ):
        _ACTIVE_DIAG = _Diagnostics(args)
        return _ACTIVE_DIAG
    return None


def _diag_finish(diag: "_Diagnostics | None") -> None:
    global _ACTIVE_DIAG
    if diag is not None:
        diag.finish()
    _ACTIVE_DIAG = None


def _ledger_begin(
    args: argparse.Namespace, command: str, network, options, pipeline=None
):
    """Open the run ledger and register this run when ``--ledger`` was
    given; returns an ``(ledger, run_id)`` handle or ``None``.

    This is the *only* place the ledger module is imported — engine
    layers reach the active run through ``sys.modules``, so runs
    without the flag never load it (and never touch the disk for it).
    """
    path = getattr(args, "ledger", None)
    if not path:
        return None
    from repro import obs
    from repro.obs import crashdump
    from repro.obs import ledger as obs_ledger

    ledger = obs_ledger.RunLedger(path)
    run_id = ledger.begin_run(
        command=command,
        argv=list(sys.argv[1:]),
        input=getattr(args, "file", None) or getattr(args, "target", None),
        netlist_signature=obs_ledger.netlist_signature(network),
        config_hash=obs_ledger.config_hash(
            options,
            pipeline.pass_names() if pipeline is not None else None,
        ),
        workers=getattr(options, "parallel_workers", 0) or 0,
        instrumented=obs.enabled(),
    )
    obs_ledger.activate(ledger, run_id)
    crashdump.set_crash_context(
        ledger_path=str(ledger.path), ledger_run_id=run_id
    )
    if _ACTIVE_DIAG is not None:
        if _ACTIVE_DIAG.monitor is not None:
            _ACTIVE_DIAG.monitor.extra["ledger"] = {
                "path": str(ledger.path), "run_id": run_id
            }
        if _ACTIVE_DIAG.bus is not None:
            _ACTIVE_DIAG.bus.run_id = run_id
    # Correlate the event records with the ledger row: every record
    # carries the run id from here on.
    obs.stamp(run=run_id)
    return ledger, run_id


def _ledger_finish(handle, status: str = "finished", **fields) -> None:
    """Finalise and close the run opened by :func:`_ledger_begin`."""
    if handle is None:
        return
    from repro import obs
    from repro.obs import ledger as obs_ledger

    ledger, run_id = handle
    try:
        ledger.finish_run(run_id, status=status, **fields)
    finally:
        obs_ledger.deactivate()
        obs.stamp(run=None)
        ledger.close()
    print(f"ledger: run {run_id} -> {ledger.path}")


def _peak_nodes() -> "int | None":
    """Peak BDD node count of this run when instrumentation is on
    (``None`` otherwise — an uninstrumented run tracks no managers)."""
    from repro import obs

    if not obs.enabled():
        return None
    try:
        from repro.obs.registry import registry

        return registry().bdd_peak_nodes()
    except Exception:
        return None


def cmd_stats(args: argparse.Namespace) -> int:
    network = _load(args.file)
    stats = network.stats()
    print(f"{network.name}:")
    for key, value in stats.items():
        print(f"  {key:>8}: {value}")
    if args.bdd:
        from repro.bdd import BDDManager
        from repro.network.bdd_build import ConeCollapser

        manager = BDDManager()
        manager.enable_stats()
        collapser = ConeCollapser(network, manager)
        skipped = 0
        for sink in network.combinational_sinks():
            if sink in network.inputs or sink in network.latches:
                continue
            if len(network.cone_inputs(sink)) > args.max_cone_inputs:
                skipped += 1
                continue
            collapser.node_function(sink)
        print("bdd (collapsed combinational cones):")
        snapshot = manager.stats_snapshot()
        for key in ("num_vars", "num_nodes", "unique_size"):
            print(f"  {key:>16}: {snapshot[key]}")
        print(f"  {'peak_nodes':>16}: {snapshot['num_nodes']}")
        for op in (
            "ite", "and", "or", "xor", "not",
            "exists", "forall", "and_exists",
        ):
            hits = snapshot[f"cache.{op}.hits"]
            misses = snapshot[f"cache.{op}.misses"]
            size = snapshot[f"cache.{op}.size"]
            lookups = hits + misses
            rate = f"{100 * hits / lookups:5.1f}%" if lookups else "    -"
            print(
                f"  {f'cache.{op}':>16}: size={size} hits={hits} "
                f"misses={misses} rate={rate}"
            )
        if skipped:
            print(f"  (skipped {skipped} cones over "
                  f"{args.max_cone_inputs} inputs)")
    return 0


def _synthesis_options(args: argparse.Namespace):
    """Build :class:`SynthesisOptions` from the shared synthesis flags."""
    from repro.synth import SynthesisOptions

    return SynthesisOptions(
        use_unreachable_states=not args.no_states,
        dc_source=args.dc_source,
        max_partition_size=args.partition_size,
        max_support=args.max_support,
        max_cone_inputs=args.cone_inputs,
        objective=args.objective,
        acceptance_ratio=args.acceptance_ratio,
        enable_sharing=not args.no_sharing,
        time_budget=args.time_budget,
        node_budget=args.node_budget,
        parallel_workers=args.workers,
        worker_timeout=args.worker_timeout,
        auto_reorder=args.auto_reorder,
        reorder_threshold=args.reorder_threshold,
        backend=args.backend,
        cegar_iterations=args.cegar_iterations,
    )


def cmd_optimize(args: argparse.Namespace) -> int:
    import json

    from repro.network import outputs_equal
    from repro.synth import algorithm1

    obs_active = _obs_begin(args)
    diag = _diag_begin(args)
    network = _load(args.file)
    options = _synthesis_options(args)
    if args.resume:
        if not args.checkpoint:
            print("--resume needs --checkpoint PATH", file=sys.stderr)
            return 1
        if not Path(args.checkpoint).exists():
            print(f"no checkpoint at {args.checkpoint}", file=sys.stderr)
            return 1
        from repro.engine import resume_pipeline

        ledger = _ledger_begin(args, "optimize", network, options)
        report = resume_pipeline(args.checkpoint).to_report()
    else:
        pipeline = None
        if args.pipeline_config:
            from repro.engine import Pipeline, SynthesisOptions

            config = json.loads(Path(args.pipeline_config).read_text())
            options = SynthesisOptions.from_dict(
                config.get("options", {}), base=options
            )
            pipeline = Pipeline.from_config(config)
        ledger = _ledger_begin(args, "optimize", network, options, pipeline)
        governor = diag.make_governor(options) if diag else None
        report = algorithm1(
            network,
            options,
            pipeline=pipeline,
            governor=governor,
            checkpoint=args.checkpoint,
        )
    if not outputs_equal(network, report.network, cycles=32):
        print("ERROR: random simulation found a mismatch", file=sys.stderr)
        _ledger_finish(ledger, status="failed")
        return 1
    before, after = network.stats(), report.network.stats()
    print(
        f"literals {before['literals']} -> {after['literals']}, "
        f"and/inv {before['and_inv']} -> {after['and_inv']}, "
        f"decomposed {report.decomposed()} signals in {report.runtime:.1f}s"
    )
    if report.degraded:
        print(f"degraded: {report.degrade_reason}")
        cones = report.artifacts.get("parallel.degraded_cones")
        if cones:
            print(f"degraded cones: {', '.join(cones)}")
    _save(report.network, args.output)
    print(f"wrote {args.output}")
    _ledger_finish(
        ledger,
        wall=report.runtime,
        peak_nodes=_peak_nodes(),
        literals_before=before["literals"],
        literals_after=after["literals"],
        latches=len(report.network.latches),
        decomposed=report.decomposed(),
        degraded=report.degraded,
        degraded_cones=sum(
            1 for r in report.records if getattr(r, "action", None) == "copied"
        ),
    )
    _diag_finish(diag)
    from repro.engine.checkpoint import json_safe_artifacts

    _obs_finish(
        args,
        obs_active,
        command="optimize",
        input=args.file,
        literals_before=before["literals"],
        literals_after=after["literals"],
        decomposed=report.decomposed(),
        degraded=report.degraded,
        runtime=report.runtime,
        passes=report.passes,
        artifacts=json_safe_artifacts(report.artifacts),
    )
    return 0


def cmd_resynth(args: argparse.Namespace) -> int:
    import time

    from repro.network import outputs_equal
    from repro.synth import resynthesis_loop

    obs_active = _obs_begin(args)
    diag = _diag_begin(args)
    network = _load(args.file)
    options = _synthesis_options(args)
    ledger = _ledger_begin(args, "resynth", network, options)
    governor = diag.make_governor(options) if diag else None
    began = time.perf_counter()
    report = resynthesis_loop(
        network, options, max_rounds=args.rounds, governor=governor
    )
    wall = time.perf_counter() - began
    if not outputs_equal(network, report.network, cycles=32):
        print("ERROR: random simulation found a mismatch", file=sys.stderr)
        _ledger_finish(ledger, status="failed")
        return 1
    trajectory = " -> ".join(str(n) for n in report.literal_trajectory)
    print(f"literal trajectory: {trajectory}")
    print(
        f"best {report.network.literal_count()} literals "
        f"after {len(report.rounds)} round(s), "
        f"reduction {report.total_reduction():.3f}"
    )
    if report.degraded:
        print("degraded: resource budget exhausted mid-loop")
    _save(report.network, args.output)
    print(f"wrote {args.output}")
    _ledger_finish(
        ledger,
        wall=wall,
        peak_nodes=_peak_nodes(),
        literals_before=report.literal_trajectory[0]
        if report.literal_trajectory else None,
        literals_after=report.network.literal_count(),
        latches=len(report.network.latches),
        degraded=report.degraded,
        extra={"rounds": len(report.rounds),
               "trajectory": report.literal_trajectory},
    )
    _diag_finish(diag)
    _obs_finish(
        args,
        obs_active,
        command="resynth",
        input=args.file,
        passes=[row for round_ in report.rounds for row in round_.passes],
        trajectory=report.literal_trajectory,
        rounds=len(report.rounds),
        degraded=report.degraded,
    )
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    from repro.mapping import load_library, map_network

    obs_active = _obs_begin(args)
    network = _load(args.file)
    if args.optimize:
        from repro.network import outputs_equal
        from repro.synth import algorithm1

        optimized = algorithm1(network).network
        if not outputs_equal(network, optimized, cycles=32):
            print(
                "ERROR: random simulation found a mismatch", file=sys.stderr
            )
            return 1
        network = optimized
    library = load_library(args.library)
    result = map_network(network, library, mode=args.mode)
    print(
        f"area={result.area:.1f} delay={result.delay:.2f} "
        f"gates={result.num_gates}"
    )
    _obs_finish(
        args,
        obs_active,
        command="map",
        input=args.file,
        area=result.area,
        delay=result.delay,
        gates=result.num_gates,
    )
    return 0


def cmd_reach(args: argparse.Namespace) -> int:
    from repro.reach import DontCareManager

    obs_active = _obs_begin(args)
    network = _load(args.file)
    manager = DontCareManager(
        network,
        max_partition_size=args.partition_size,
        time_budget=args.time_budget,
    )
    manager.compute_all()
    for index, partition in enumerate(manager.partitions):
        result = manager.reachability(index)
        status = "converged" if result.converged else "cut off"
        print(
            f"partition {index}: {len(partition.latches)} latches, "
            f"{result.num_states()} states reached in {result.iterations} "
            f"steps ({status}, {result.runtime:.2f}s)"
        )
    log2_states = manager.approximate_log2_states()
    print(f"approx log2(reachable states) = {log2_states:.2f}")
    _obs_finish(
        args,
        obs_active,
        command="reach",
        input=args.file,
        partitions=len(manager.partitions),
        log2_states=log2_states,
    )
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    from repro.bdd import BDDManager, support
    from repro.bidec import decompose_interval
    from repro.intervals import Interval
    from repro.network import ConeCollapser
    from repro.reach import DontCareManager

    obs_active = _obs_begin(args)
    network = _load(args.file)
    signal = args.signal
    if not network.is_signal(signal):
        print(f"no signal {signal!r} in the network", file=sys.stderr)
        return 1
    collapser = ConeCollapser(network, BDDManager())
    f = collapser.node_function(signal)
    names = {var: name for name, var in collapser.var_of.items()}

    def describe(result):
        if result is None:
            return "none"
        s1 = sorted(names[v] for v in support(collapser.manager, result.g1))
        s2 = sorted(names[v] for v in support(collapser.manager, result.g2))
        return f"{result.gate.upper()}(g1{s1}, g2{s2})"

    exact = decompose_interval(Interval.exact(collapser.manager, f))
    print(f"support: {sorted(names[v] for v in support(collapser.manager, f))}")
    print(f"without states: {describe(exact)}")
    ps_support = {
        name for name in network.cone_inputs(signal) if name in network.latches
    }
    if ps_support:
        dcm = DontCareManager(network, max_partition_size=args.partition_size)
        unreachable = dcm.unreachable_for(
            ps_support, collapser.manager, collapser.var_of
        )
        interval = Interval.with_dont_cares(collapser.manager, f, unreachable)
        # Section 3.5.3: abstract redundant variables first — don't cares
        # frequently collapse the function below bi-decomposable size.
        reduced, dropped = interval.reduce_support()
        remaining = reduced.support()
        if len(remaining) < 2:
            member = reduced.any_member()
            if member in (0, 1):
                simplified = f"constant {member}"
            else:
                (var,) = support(collapser.manager, member)
                polarity = "" if collapser.manager.hi(member) == 1 else "~"
                simplified = f"literal {polarity}{names[var]}"
            print(f"with states:    simplifies to {simplified}")
        else:
            widened = decompose_interval(reduced)
            print(f"with states:    {describe(widened)}")
        if dropped:
            print(
                "                (unreachable states made "
                f"{sorted(names[v] for v in dropped)} redundant)"
            )
    else:
        print("with states:    (no present-state support)")
    _obs_finish(args, obs_active, command="decompose", input=args.file,
                signal=signal)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.network.check import (
        combinational_equivalent_bdd,
        combinational_equivalent_sat,
        sequential_equivalent_reachable,
    )

    left, right = _load(args.left), _load(args.right)
    if args.sequential:
        result = sequential_equivalent_reachable(left, right)
        kind = "sequential (reachable-constrained)"
    elif args.sat:
        result = combinational_equivalent_sat(left, right)
        kind = "combinational (SAT)"
    else:
        result = combinational_equivalent_bdd(left, right)
        kind = "combinational (BDD)"
    if result.equivalent:
        print(f"EQUIVALENT [{kind}]")
        return 0
    print(f"NOT EQUIVALENT [{kind}]: signal {result.failing_signal}")
    if result.counterexample:
        print(f"counterexample: {result.counterexample}")
    return 2


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.network import random_simulation, save_vcd

    network = _load(args.file)
    frames = random_simulation(
        network, cycles=args.cycles, width=1, seed=args.seed
    )
    save_vcd(network, frames, args.output)
    print(f"wrote {args.output}: {args.cycles} cycles, "
          f"{len(network.inputs) + len(network.latches) + len(network.outputs)} signals")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    network = _load(args.file)
    _save(network, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.benchgen import ISCAS_SPECS, MACRO_SPECS, industrial_analog, iscas_analog

    if args.name in ISCAS_SPECS:
        network = iscas_analog(args.name, latch_scale=args.scale)
    elif args.name in MACRO_SPECS:
        network = industrial_analog(args.name, scale=args.scale)
    else:
        known = sorted(ISCAS_SPECS) + sorted(MACRO_SPECS)
        print(f"unknown benchmark {args.name!r}; known: {known}", file=sys.stderr)
        return 1
    _save(network, args.output)
    print(f"wrote {args.output}: {network.stats()}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro import obs

    obs.reset()
    obs.enable()
    diag = _diag_begin(args)
    start = time.perf_counter()
    if Path(args.target).exists():
        network = _load(args.target)
        name = Path(args.target).name
    else:
        from repro.benchgen import (
            ISCAS_SPECS,
            MACRO_SPECS,
            industrial_analog,
            iscas_analog,
        )

        if args.target in ISCAS_SPECS:
            network = iscas_analog(args.target)
        elif args.target in MACRO_SPECS:
            network = industrial_analog(args.target)
        else:
            known = sorted(ISCAS_SPECS) + sorted(MACRO_SPECS)
            print(
                f"{args.target!r} is neither a file nor a known benchmark; "
                f"known: {known}",
                file=sys.stderr,
            )
            return 1
        name = args.target
    run_info: dict = {"command": "profile", "workload": args.workload,
                      "target": name}
    from repro.synth import SynthesisOptions as _Options

    ledger = _ledger_begin(
        args, "profile", network,
        _Options(time_budget=args.time_budget),
    )
    if args.workload == "optimize":
        from repro.synth import SynthesisOptions, algorithm1

        report = algorithm1(
            network, SynthesisOptions(time_budget=args.time_budget)
        )
        run_info["decomposed"] = report.decomposed()
        run_info["literals_before"] = network.stats()["literals"]
        run_info["literals_after"] = report.network.stats()["literals"]
        run_info["passes"] = report.passes
    elif args.workload == "reach":
        from repro.reach import DontCareManager

        manager = DontCareManager(network, time_budget=args.time_budget)
        manager.compute_all()
        run_info["log2_states"] = manager.approximate_log2_states()
    elif args.workload == "map":
        from repro.mapping import load_library, map_network

        result = map_network(network, load_library())
        run_info["area"] = result.area
        run_info["delay"] = result.delay
    else:
        raise ValueError(f"unknown workload {args.workload!r}")
    run_info["wall_time"] = time.perf_counter() - start
    _ledger_finish(
        ledger,
        wall=run_info["wall_time"],
        peak_nodes=_peak_nodes(),
        literals_before=run_info.get("literals_before"),
        literals_after=run_info.get("literals_after"),
        area=run_info.get("area"),
        delay=run_info.get("delay"),
        extra={"workload": args.workload},
    )
    _diag_finish(diag)
    obs.disable()
    snapshot = obs.report()
    snapshot["run"] = run_info
    print(
        f"profile: {args.workload} on {name} "
        f"({run_info['wall_time']:.2f}s wall)"
    )
    print(obs.render_profile(snapshot))
    if args.stats_json:
        obs.write_report(args.stats_json, snapshot)
        print(f"wrote {args.stats_json}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import trace as obs_trace

    try:
        records, metadata = obs_trace.load_trace(args.file)
    except FileNotFoundError:
        print(f"error: no trace file at {args.file}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        print(f"error: {args.file} is not a readable trace: {exc}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"no trace records in {args.file}", file=sys.stderr)
        return 1
    if args.convert:
        payload = obs_trace.records_to_chrome(records, metadata=metadata)
        target = Path(args.convert)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload) + "\n")
        print(f"wrote {target} ({len(records)} records)")
    summary = obs_trace.summarize(records)
    print(obs_trace.render_summary(summary, metadata, top=args.top))
    return 0


def _history_list(ledger, args) -> int:
    runs = ledger.runs(
        command=args.run_command, input=args.input, limit=args.limit
    )
    if not runs:
        print("no runs recorded")
        return 0
    print(f"{'id':<12} {'command':<9} {'status':<9} {'lits':>6} "
          f"{'wall':>8} {'deg':>4} {'instr':>5}  input")
    for run in runs:
        lits = run.get("literals_after")
        wall = run.get("wall")
        print(
            f"{run['id']:<12} {run.get('command') or '-':<9} "
            f"{run.get('status') or '-':<9} "
            f"{lits if lits is not None else '-':>6} "
            f"{f'{wall:.2f}s' if wall is not None else '-':>8} "
            f"{run.get('degraded_cones') if run.get('degraded_cones') is not None else '-':>4} "
            f"{'yes' if run.get('instrumented') else 'no':>5}  "
            f"{run.get('input') or '-'}"
        )
    return 0


def _history_show(ledger, args) -> int:
    run = ledger.run(args.run_id)
    print(f"run {run['id']}:")
    for key in (
        "command", "status", "input", "netlist_signature", "config_hash",
        "workers", "instrumented", "wall", "peak_nodes",
        "literals_before", "literals_after", "area", "delay", "latches",
        "decomposed", "degraded", "degraded_cones",
    ):
        value = run.get(key)
        if value is not None:
            print(f"  {key:>18}: {value}")
    passes = ledger.passes(run["id"])
    if passes:
        print("  passes:")
        for row in passes:
            elapsed = row.get("elapsed")
            mark = " (exhausted)" if row.get("exhausted") else ""
            print(f"    {row['idx']:>2} {row['pass']:<20} "
                  f"{f'{elapsed:.3f}s' if elapsed is not None else '-'}{mark}")
    cones = ledger.cones(run["id"])
    if cones:
        slowest = sorted(
            cones, key=lambda c: c.get("elapsed") or 0.0, reverse=True
        )[: args.top]
        print(f"  cones ({len(cones)} total, slowest {len(slowest)}):")
        for cone in slowest:
            elapsed = cone.get("elapsed")
            print(
                f"    {cone['sink']:<16} {cone.get('action') or '-':<10} "
                f"{f'{elapsed:.3f}s' if elapsed is not None else '-':>8} "
                f"{cone.get('backend') or '-':<9} "
                f"inputs={cone.get('cone_inputs')}"
            )
    return 0


def _history_compare(ledger, args) -> int:
    from repro.obs.ledger import compare_runs

    if args.base and args.current:
        base, current = ledger.run(args.base), ledger.run(args.current)
    else:
        runs = ledger.runs(
            command=args.run_command, input=args.input, status="finished"
        )
        if len(runs) < 2:
            print("error: need two finished runs to compare "
                  f"(found {len(runs)})", file=sys.stderr)
            return 1
        base, current = runs[-2], runs[-1]
    result = compare_runs(base, current, wall_threshold=args.wall_threshold)
    print(f"comparing {base['id']} (base) -> {current['id']} (current)")
    for note in result["notes"]:
        print(f"  note: {note}")
    for row in result["rows"]:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        ratio = f" ({row['ratio']}x)" if "ratio" in row else ""
        print(f"  {row['metric']:>16}: {row['base']} -> "
              f"{row['current']}{ratio}  {verdict}")
    if result["regressions"]:
        print(f"{len(result['regressions'])} regression(s) detected",
              file=sys.stderr)
        return 2
    print("no regressions")
    return 0


def _history_regressions(ledger, args) -> int:
    from repro.obs.ledger import trajectory_regressions

    found = trajectory_regressions(ledger, wall_threshold=args.wall_threshold)
    if not found:
        print("no regressions across any (command, input) trajectory")
        return 0
    for entry in found:
        print(f"{entry['command']} {entry['input']}: "
              f"{entry['base']} -> {entry['current']}")
        for line in entry["regressions"]:
            print(f"  {line}")
    print(f"{len(found)} trajectory regression(s) detected", file=sys.stderr)
    return 2


def _history_export(ledger, args) -> int:
    count = ledger.export_jsonl(args.output)
    print(f"wrote {args.output} ({count} runs)")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.ledger import LedgerError, RunLedger

    try:
        ledger = RunLedger(args.ledger, readonly=True)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        handler = {
            "list": _history_list,
            "show": _history_show,
            "compare": _history_compare,
            "regressions": _history_regressions,
            "export": _history_export,
        }[args.history_command]
        return handler(ledger, args)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        ledger.close()


def render_top(
    status: "dict | None",
    metrics_families: "dict | None" = None,
    now: "float | None" = None,
) -> str:
    """One frame of the ``repro top`` live view, rendered from a
    status.json sample (and optionally parsed OpenMetrics families).
    Pure function — the tests drive it directly."""
    import time as _time

    lines: list[str] = []
    current = _time.time() if now is None else now
    if not status:
        return "repro top — waiting for status file ..."
    age = max(0.0, current - float(status.get("time_unix") or current))
    stale = " [STALE]" if age > 3 * float(status.get("interval") or 1.0) else ""
    lines.append(
        f"repro top — pid {status.get('pid')}  "
        f"elapsed {float(status.get('elapsed') or 0.0):8.1f}s  "
        f"sample #{status.get('sample_index')}  "
        f"age {age:.1f}s{stale}"
    )
    ledger = status.get("ledger")
    if ledger:
        lines.append(f"  run: {ledger.get('run_id')} ({ledger.get('path')})")
    bdd = status.get("bdd") or {}
    rss = status.get("rss_kb")
    lines.append(
        f"  bdd: {int(bdd.get('nodes') or 0):>9} nodes / "
        f"{int(bdd.get('managers') or 0)} managers"
        + (f"   rss: {int(rss) // 1024} MiB" if rss else "")
    )
    governor = status.get("governor")
    if governor:
        budget = f"  budget: {int(governor.get('nodes_allocated') or 0)} nodes"
        if governor.get("node_budget"):
            budget += f" / {int(governor['node_budget'])}"
        if governor.get("remaining_time") is not None:
            budget += f"   time left: {governor['remaining_time']:.1f}s"
        lines.append(budget)
    spans = status.get("spans") or {}
    if spans:
        # The deepest active span names the live pipeline phase.
        deepest = max(spans.values(), key=lambda p: p.count("/"))
        lines.append(f"  phase: {deepest}")
    progress = status.get("parallel") or {}
    if progress.get("parallel.cones.total"):
        total = int(progress["parallel.cones.total"])
        merged = int(progress.get("parallel.cones.merged") or 0)
        degraded = int(progress.get("parallel.cones.degraded") or 0)
        width = 30
        filled = int(width * merged / total) if total else 0
        bar = "#" * filled + "-" * (width - filled)
        lines.append(
            f"  cones: [{bar}] {merged}/{total}"
            + (f"  ({degraded} degraded)" if degraded else "")
        )
    bus = status.get("bus")
    if bus:
        lines.append(
            f"  bus: {int(bus.get('events_total') or 0)} events, "
            f"{int(bus.get('events_dropped') or 0)} dropped, "
            f"{int(bus.get('workers_stalled') or 0)} stalled"
        )
    workers = status.get("workers")
    if workers:
        lines.append("")
        lines.append(
            f"  {'pid':>8} {'state':<7} {'cone':<20} {'phase':<12} "
            f"{'in-flight':>9} {'events':>7}"
        )
        for worker in workers:
            in_flight = worker.get("in_flight_s")
            flight = f"{in_flight:8.1f}s" if in_flight is not None else "        -"
            state = worker.get("state") or "?"
            if worker.get("stalled"):
                state = "STALLED"
            lines.append(
                f"  {worker.get('pid'):>8} {state:<7} "
                f"{(worker.get('sink') or '-'):<20.20} "
                f"{(worker.get('phase') or '-'):<12.12} "
                f"{flight} {int(worker.get('events') or 0):>7}"
            )
    if metrics_families:
        pairs = []
        for name in (
            "repro_parallel_tasks_total",
            "repro_pipeline_passes_total",
            "repro_bdd_nodes_peak",
        ):
            family = metrics_families.get(name)
            if family and family["samples"]:
                pairs.append(f"{name}={family['samples'][0][1]:g}")
        if pairs:
            lines.append("")
            lines.append("  metrics: " + "  ".join(pairs))
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Tail a run's status.json (+ optional metrics file) into a live
    refreshing terminal view."""
    import json as _json
    import time as _time

    def read_status() -> "dict | None":
        try:
            return _json.loads(Path(args.status_file).read_text())
        except (OSError, ValueError):
            return None

    def read_metrics() -> "dict | None":
        if not args.metrics_file:
            return None
        from repro.obs import openmetrics as obs_openmetrics

        try:
            return obs_openmetrics.parse_openmetrics(
                Path(args.metrics_file).read_text()
            )
        except (OSError, ValueError):
            return None

    frames = 0
    while True:
        view = render_top(read_status(), read_metrics())
        if not args.once and not args.no_clear:
            print("\x1b[2J\x1b[H", end="")
        print(view)
        frames += 1
        if args.once or (
            args.iterations is not None and frames >= args.iterations
        ):
            return 0
        try:
            _time.sleep(max(0.05, args.interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def _write_crash_diagnostics(args: argparse.Namespace, exc: BaseException) -> None:
    """Best-effort crash bundle + trace flush for instrumented runs.

    Only fires when the command opted into diagnostics (any of the
    trace/monitor/profile/stats flags, or an explicit ``--crash-dump``)
    so plain CLI usage never litters the working directory."""
    from repro.obs import crashdump
    from repro.obs import trace as obs_trace

    recorder = obs_trace.active()
    trace_path = getattr(args, "trace", None)
    if recorder is not None and trace_path:
        # Flush the ring buffer so the timeline up to the crash survives.
        try:
            recorder.write(trace_path)
            print(f"wrote {trace_path} (partial trace)", file=sys.stderr)
        except Exception:
            pass
    dump = getattr(args, "crash_dump", None)
    if dump is None:
        instrumented = trace_path or any(
            getattr(args, flag, None)
            for flag in ("status_file", "stats_json", "checkpoint")
        ) or getattr(args, "profile", False)
        if not instrumented:
            return
        dump = f"repro_crash_{getattr(args, 'command', 'run')}.json"
    written = crashdump.write_crash_bundle(dump, exc)
    if written is not None:
        print(f"crash bundle written to {written}", file=sys.stderr)
    # Mark the active ledger run crashed (after the bundle, which reads
    # the active-run identity).  sys.modules lookup — see repro.obs.ledger.
    ledger_mod = sys.modules.get("repro.obs.ledger")
    if ledger_mod is not None:
        try:
            ledger_mod.finish_active(
                status="crashed",
                extra={"error": f"{type(exc).__name__}: {exc}"},
            )
            ledger_mod.deactivate()
        except Exception:
            pass
        from repro import obs

        obs.stamp(run=None)
    global _ACTIVE_DIAG
    if _ACTIVE_DIAG is not None:
        _ACTIVE_DIAG.abort()
        _ACTIVE_DIAG = None


def build_parser() -> argparse.ArgumentParser:
    # Every synthesis flag's default is the SynthesisOptions default.
    from repro.engine.context import SynthesisOptions as Defaults

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sequential logic synthesis using symbolic bi-decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--profile", action="store_true",
            help="collect metrics and print the phase/cache table",
        )
        command.add_argument(
            "--stats-json", metavar="PATH", default=None,
            help="collect metrics and write the JSON report to PATH",
        )

    def add_trace_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace", metavar="FILE", default=None,
            help="record a span/counter timeline to FILE (Chrome "
                 "trace-event JSON; use a .jsonl suffix for JSONL)",
        )
        command.add_argument(
            "--status-file", metavar="PATH", default=None,
            help="atomically rewrite a status.json heartbeat every "
                 "monitor interval",
        )
        command.add_argument(
            "--monitor-interval", type=float, default=1.0, metavar="SECS",
            help="runtime-monitor sampling period (default 1.0; 0 "
                 "disables sampling)",
        )
        command.add_argument(
            "--crash-dump", metavar="PATH", default=None,
            help="where to write the crash-diagnostic bundle on an "
                 "unhandled exception (default: repro_crash_<cmd>.json "
                 "for instrumented runs)",
        )
        command.add_argument(
            "--metrics-file", metavar="PATH", default=None,
            help="atomically rewrite an OpenMetrics text exposition "
                 "every monitor interval (textfile-collector style)",
        )
        command.add_argument(
            "--metrics-port", type=int, default=None, metavar="PORT",
            help="serve the OpenMetrics exposition at "
                 "http://127.0.0.1:PORT/metrics on a daemon thread "
                 "(0 picks a free port)",
        )
        command.add_argument(
            "--log-json", metavar="PATH", default=None,
            help="append every event record (pass boundaries, per-signal "
                 "outcomes, worker cone events) to PATH as JSON lines",
        )

    def add_ledger_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--ledger", metavar="PATH", default=None,
            help="append this run (per-pass and per-cone rows included) "
                 "to the SQLite run ledger at PATH; inspect with "
                 "'repro history'",
        )

    p = sub.add_parser("stats", help="netlist statistics")
    p.add_argument("file")
    p.add_argument("--bdd", action="store_true",
                   help="collapse cones and report BDD manager statistics")
    p.add_argument("--max-cone-inputs", type=int,
                   default=Defaults.max_cone_inputs,
                   help="skip cones wider than this when collapsing")
    p.set_defaults(func=cmd_stats)

    def add_synthesis_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--no-states", action="store_true",
                             help="disable unreachable-state don't cares")
        command.add_argument("--dc-source",
                             choices=("reachability", "induction"),
                             default=Defaults.dc_source,
                             help="how to approximate unreachable states")
        command.add_argument("--partition-size", type=int,
                             default=Defaults.max_partition_size,
                             help="latch-partition size cap")
        command.add_argument("--max-support", type=int,
                             default=Defaults.max_support,
                             help="support size above which the greedy "
                                  "fallback replaces symbolic enumeration")
        command.add_argument("--cone-inputs", type=int,
                             default=Defaults.max_cone_inputs,
                             help="cones wider than this are kept "
                                  "structurally")
        command.add_argument("--objective",
                             choices=("balanced", "min_total"),
                             default=Defaults.objective,
                             help="partition-size objective")
        command.add_argument("--acceptance-ratio", type=float,
                             default=Defaults.acceptance_ratio,
                             help="accept a rebuilt cone only if its cost "
                                  "is at most this multiple of the original")
        command.add_argument("--no-sharing", action="store_true",
                             help="disable cross-signal function reuse")
        command.add_argument("--time-budget", type=float,
                             default=Defaults.time_budget,
                             help="global wall-clock budget in seconds "
                                  "(exhaustion degrades, never fails)")
        command.add_argument("--node-budget", type=int,
                             default=Defaults.node_budget,
                             help="global BDD-node budget "
                                  "(exhaustion degrades, never fails)")
        command.add_argument("--workers", type=int,
                             default=Defaults.parallel_workers,
                             help="shard cone decomposition over this many "
                                  "worker processes (0 = in-process; any "
                                  "count is bit-identical to --workers 1)")
        command.add_argument("--worker-timeout", type=float,
                             default=Defaults.worker_timeout,
                             help="per-cone wall-clock limit in parallel "
                                  "mode; a cone whose worker exceeds it "
                                  "degrades to a structural copy")
        command.add_argument("--auto-reorder", action="store_true",
                             help="dynamically reorder/compact BDD managers "
                                  "at safe points once they grow past "
                                  "--reorder-threshold nodes (output is "
                                  "bit-identical either way)")
        command.add_argument("--reorder-threshold", type=int,
                             default=Defaults.reorder_threshold,
                             help="node growth since the last rebuild that "
                                  "triggers --auto-reorder")
        command.add_argument("--backend",
                             choices=("bdd", "sat-cegar", "auto"),
                             default=Defaults.backend,
                             help="bi-decomposition backend: the symbolic "
                                  "BDD enumeration, the CEGAR-solved 2QBF "
                                  "SAT search, or per-cone auto-routing")
        command.add_argument("--cegar-iterations", type=int,
                             default=Defaults.cegar_iterations,
                             help="CEGAR candidate budget per cone for the "
                                  "sat-cegar backend (exhaustion degrades "
                                  "to the BDD backend)")

    p = sub.add_parser("optimize", help="run the Algorithm 1 pipeline")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    add_synthesis_flags(p)
    p.add_argument("--pipeline-config", metavar="PATH", default=None,
                   help="JSON pipeline config: "
                        '{"options": {...}, "passes": [...]}')
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="write pass-boundary checkpoints to PATH")
    p.add_argument("--resume", action="store_true",
                   help="resume from the --checkpoint file instead of "
                        "starting over")
    add_obs_flags(p)
    add_trace_flags(p)
    add_ledger_flag(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "resynth",
        help="iterate Algorithm 1 to a literal-count fixpoint",
    )
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--rounds", type=int, default=4,
                   help="maximum re-synthesis rounds")
    add_synthesis_flags(p)
    add_obs_flags(p)
    add_trace_flags(p)
    add_ledger_flag(p)
    p.set_defaults(func=cmd_resynth)

    p = sub.add_parser("map", help="technology mapping")
    p.add_argument("file")
    p.add_argument("--library", default=None, help="genlib file (default: bundled)")
    p.add_argument("--mode", choices=("area", "delay"), default="area")
    p.add_argument("--optimize", action="store_true",
                   help="run Algorithm 1 before mapping")
    add_obs_flags(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("reach", help="partitioned reachability analysis")
    p.add_argument("file")
    p.add_argument("--partition-size", type=int,
                   default=Defaults.max_partition_size)
    p.add_argument("--time-budget", type=float,
                   default=Defaults.reach_time_budget)
    add_obs_flags(p)
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("decompose", help="bi-decompose one signal")
    p.add_argument("file")
    p.add_argument("signal")
    p.add_argument("--partition-size", type=int,
                   default=Defaults.max_partition_size)
    add_obs_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "profile",
        help="run a workload under instrumentation and print the "
             "phase-time/cache-efficiency table",
    )
    p.add_argument("target", help="netlist path or benchmark name (e.g. s344)")
    p.add_argument("--workload", choices=("optimize", "reach", "map"),
                   default="optimize")
    p.add_argument("--time-budget", type=float, default=Defaults.time_budget)
    p.add_argument("--stats-json", metavar="PATH", default=None,
                   help="also write the JSON report to PATH")
    add_trace_flags(p)
    add_ledger_flag(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "trace",
        help="summarize or convert a recorded trace file",
    )
    p.add_argument("file", help="trace file (Chrome JSON or JSONL)")
    p.add_argument("--top", type=int, default=10,
                   help="how many spans to list by self time")
    p.add_argument("--convert", metavar="OUT", default=None,
                   help="also write the records as Chrome trace-event "
                        "JSON to OUT (JSONL -> Chrome conversion)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "history",
        help="inspect a run ledger: list/show runs, compare for "
             "regressions, export JSONL",
    )
    hist = p.add_subparsers(dest="history_command", required=True)

    def add_ledger_path(command: argparse.ArgumentParser) -> None:
        command.add_argument("--ledger", required=True, metavar="PATH",
                             help="run-ledger SQLite file")

    h = hist.add_parser("list", help="list recorded runs")
    add_ledger_path(h)
    h.add_argument("--command", dest="run_command", default=None,
                   help="only runs of this CLI command")
    h.add_argument("--input", default=None,
                   help="only runs over this input path")
    h.add_argument("--limit", type=int, default=20,
                   help="show at most the newest N runs")
    h.set_defaults(func=cmd_history)

    h = hist.add_parser("show", help="one run in full (passes + cones)")
    add_ledger_path(h)
    h.add_argument("run_id", help="run id (unique prefix accepted)")
    h.add_argument("--top", type=int, default=10,
                   help="how many slowest cones to list")
    h.set_defaults(func=cmd_history)

    h = hist.add_parser(
        "compare",
        help="compare two runs (default: latest two finished); exit 2 "
             "on a quality or wall-time regression",
    )
    add_ledger_path(h)
    h.add_argument("base", nargs="?", default=None,
                   help="baseline run id (default: second-newest)")
    h.add_argument("current", nargs="?", default=None,
                   help="candidate run id (default: newest)")
    h.add_argument("--command", dest="run_command", default=None,
                   help="restrict the default pick to this CLI command")
    h.add_argument("--input", default=None,
                   help="restrict the default pick to this input path")
    h.add_argument("--wall-threshold", type=float, default=0.25,
                   help="fractional wall-time slowdown tolerated "
                        "(default 0.25)")
    h.set_defaults(func=cmd_history)

    h = hist.add_parser(
        "regressions",
        help="scan every (command, input) trajectory: latest vs "
             "previous run; exit 2 if any regressed",
    )
    add_ledger_path(h)
    h.add_argument("--wall-threshold", type=float, default=0.25)
    h.set_defaults(func=cmd_history)

    h = hist.add_parser("export", help="dump all runs as JSONL")
    add_ledger_path(h)
    h.add_argument("-o", "--output", required=True)
    h.set_defaults(func=cmd_history)

    p = sub.add_parser(
        "top",
        help="live terminal view of a running synthesis: tails the "
             "--status-file (and optionally --metrics-file) another "
             "repro process is writing",
    )
    p.add_argument("--status-file", required=True, metavar="PATH",
                   help="status.json the observed run rewrites")
    p.add_argument("--metrics-file", metavar="PATH", default=None,
                   help="OpenMetrics textfile of the same run")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECS",
                   help="refresh period (default 1.0)")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="stop after N frames (default: until Ctrl-C)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame and exit")
    p.add_argument("--no-clear", action="store_true",
                   help="do not clear the screen between frames")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("check", help="equivalence check two netlists")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--sat", action="store_true", help="use the SAT miter")
    p.add_argument("--sequential", action="store_true",
                   help="reachable-constrained sequential check")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="random simulation to a VCD trace")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cycles", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convert", help="convert between BLIF/.bench/Verilog")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("generate", help="emit a benchmark analog")
    p.add_argument("name")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NetlistError as exc:
        # A malformed input file, or two netlists whose interfaces
        # differ, is the user's to fix: one line, exit 1, no traceback
        # and no crash bundle.
        global _ACTIVE_DIAG
        if _ACTIVE_DIAG is not None:
            _ACTIVE_DIAG.abort()
            _ACTIVE_DIAG = None
        if args.command == "profile" or _obs_requested(args):
            from repro import obs

            obs.disable()  # switched on for the run
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Crash diagnostics for instrumented runs: bundle + partial
        # trace flush, then the exception propagates unchanged.
        try:
            _write_crash_diagnostics(args, exc)
        except Exception:  # pragma: no cover - diagnostics must not mask
            pass
        raise


if __name__ == "__main__":  # pragma: no cover - exercised via tests/main
    raise SystemExit(main())
