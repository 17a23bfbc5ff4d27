"""Timed flow process: ``read_blif -> algorithm1 -> save_blif`` per circuit.

Started by ``run.py`` as a fresh interpreter, so its resident-set peak
is the flow's own.  Usage::

    python3 perfbench/flow.py REQUEST.json RESULT.json

The request names the input BLIFs, the output directory, the synthesis
options, the minimum measuring time and whether to trace.  The flow is
repeated over all circuits until that time has passed (at least once;
exactly once when traced).  Each circuit is timed from the start of the
read to the end of the write; nothing else is inside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any


#: Iterations of the host-speed probe (about 10 ms on a 2.1 GHz x86_64 core).
PROBE_ITERATIONS = 60_000
#: Probe duration at the reference host speed that flow times are
#: rescaled to (the probe's typical time on an idle 2.1 GHz x86_64 core).
REFERENCE_PROBE_S = 0.010
#: Probe samples taken before and after each circuit.
PROBE_SAMPLES = 2


def host_probe() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    The flow is interpreter-bound, so this loop slows down with it when
    the host is contended.  Times are rescaled by
    ``REFERENCE_PROBE_S / probe`` to what they would be at reference
    speed."""
    began = time.perf_counter()
    table: dict[int, int] = {}
    value = 0
    for index in range(PROBE_ITERATIONS):
        value = (value * 31 + index) & 0xFFF
        table[value] = table.get(value, 0) + 1
    return time.perf_counter() - began


def _probes() -> list[float]:
    return [host_probe() for _ in range(PROBE_SAMPLES)]


def _run_circuit(network_mod, synth_mod, options, source: Path, target: Path) -> dict[str, Any]:
    began = time.perf_counter()
    network = network_mod.read_blif(source)
    report = synth_mod.algorithm1(network, options)
    network_mod.save_blif(report.network, target)
    elapsed = time.perf_counter() - began
    actions: dict[str, int] = {}
    backends: dict[str, int] = {}
    for record in report.records:
        actions[record.action] = actions.get(record.action, 0) + 1
        if record.backend is not None:
            backends[record.backend] = backends.get(record.backend, 0) + 1
    return {
        "flow_s": elapsed,
        "degraded": bool(report.degraded),
        "degraded_cones": list(report.artifacts.get("parallel.degraded_cones", [])),
        "actions": actions,
        "backends": backends,
        "cone_elapsed": [
            row["elapsed"]
            for row in report.artifacts.get("parallel.cone_stats", [])
            if row.get("elapsed") is not None
        ],
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN covers the pool
    # workers, which the scheduler has reaped by the time a circuit ends.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _reset_circuit_peak() -> None:
    """Restart this process's resident-set high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _circuit_peak_mb() -> float:
    """This process's resident-set high-water mark since the last reset."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    from repro import network as network_mod
    from repro import synth as synth_mod
    from repro.bdd import native
    from repro.synth import SynthesisOptions

    import repro.engine.parallel  # noqa: F401 - traced entry points must be loaded
    import repro.bidec.backends  # noqa: F401
    import repro.reach.dontcare  # noqa: F401

    native.kernel()  # loaded before timing, as the set-up probe does
    options = SynthesisOptions(
        parallel_workers=request["workers"], backend=request["backend"]
    )
    inputs = [Path(p) for p in request["inputs"]]
    out_dir = Path(request["outputs"])
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = uninstall = None
    if request["trace"]:
        import layers

        tracer = layers.Tracer()
        uninstall = layers.install(tracer)

    passes: list[dict[str, Any]] = []
    began = time.perf_counter()
    while True:
        rows: dict[str, Any] = {}
        for source in inputs:
            target = out_dir / source.name
            gc.collect()
            _reset_circuit_peak()
            probes = _probes()
            try:
                if tracer is not None:
                    with tracer.span("flow", circuit=source.stem):
                        row = _run_circuit(network_mod, synth_mod, options, source, target)
                else:
                    row = _run_circuit(network_mod, synth_mod, options, source, target)
                row["sha256"] = hashlib.sha256(target.read_bytes()).hexdigest()
            except Exception as exc:  # one circuit failing must not end the run
                row = {
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            row["probe_s"] = probes + _probes()
            row["rss_mb"] = _circuit_peak_mb()
            rows[source.stem] = row
        passes.append(rows)
        if tracer is not None or time.perf_counter() - began >= request["seconds"]:
            break

    result: dict[str, Any] = {
        "passes": passes,
        "peak_rss_mb": _peak_rss_mb(),
        "native_kernel": native.native_status()["loaded"],
    }
    if tracer is not None:
        uninstall()
        result["trace"] = tracer.export()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
