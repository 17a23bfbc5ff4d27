"""Whole-flow synthesis benchmark: one workload at one seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload macro --seed 0 --seconds 10 --trace 0

Steps, in order:

1. set-up: time fresh interpreters until ``repro`` is importable and the
   native BDD kernel is loaded (median of several; skipped when traced);
2. generate the workload's circuits from ``--seed`` and write them as
   BLIF, so the flow receives only files;
3. run the timed flow (``read_blif -> algorithm1 -> save_blif`` per
   circuit) in a fresh process, repeated until ``--seconds`` have passed;
   with ``--trace 1`` a second, traced flow process follows;
4. check every output against its input by seeded random simulation
   from reset, read it back for its literal count, and map input and
   output with the bundled library for the area and delay ratios.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A detail record (environment stamp,
per-circuit rows, output digests, span tree) is written under
``.perfbench/records/`` or to ``--record``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 3
CHECK_CYCLES = 32
#: Wall-clock limit of the flow processes of one run, counted from the end
#: of set-up; checks and mapping take well under the rest of 180 s.
FLOW_LIMIT_S = 160.0

#: Runs in a fresh interpreter; "ready to synthesize" means the flow's
#: modules are imported and the native kernel is loaded (or refused).
SETUP_PROBE = (
    "import repro.network, repro.synth, repro.engine.parallel\n"
    "from repro.bdd import native\n"
    "native.kernel()\n"
)

END_TO_END = {
    "flow_s": "s",
    "setup_s": "s",
    "circuit_rss_mb": "MB",
    "literals": "count",
    "area_ratio": "ratio",
    "delay_ratio": "ratio",
}

#: Spans reported as ``<name>_calls`` and ``<name>_s`` (self time).
CALL_SPANS = (
    "network.topological_order",
    "network.transitive_fanin",
    "network.collapse",
    "reach.unreachable_for",
    "bidec.decompose_cone",
    "sat.solve",
    "engine.copy_cone",
)
#: Spans reported as ``<name>_s`` (self time) only.
TIME_SPANS = (
    "network.read_blif",
    "network.write_blif",
    "network.instantiate",
    "network.sweep",
    "network.strash",
    "reach.dc_manager_init",
    "parallel.dc_cubes",
    "parallel.extract",
    "parallel.execute",
    "parallel.merge",
)
PASSES = ("cleanup", "dontcares", "decompose", "decompose_parallel", "finalize", "sweep", "strash")
#: Parent spans whose self time is reported as an unattributed share.
PARENTS = (
    "flow",
    "synth.algorithm1",
    "engine.pass.decompose",
    "engine.pass.decompose_parallel",
    "network.collapse",
    "reach.unreachable_for",
    "bidec.decompose_cone",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from workloads import WORKLOADS

    units: dict[str, str] = {}
    for span in CALL_SPANS:
        units[f"{span}_calls"] = "count"
        units[f"{span}_s"] = "s"
    for span in TIME_SPANS:
        units[f"{span}_s"] = "s"
    for name in PASSES:
        units[f"engine.pass.{name}_s"] = "s"
    units.update(
        {
            "engine.degraded_cones": "count",
            "bidec.cone_p50_ms": "ms",
            "bidec.cone_p99_ms": "ms",
            "bidec.accept_ratio": "ratio",
            "bidec.sat_share": "ratio",
            "bdd.managers_created": "count",
            "bdd.nodes_allocated": "count",
            "bdd.cache_hit_ratio": "ratio",
            "parallel.workers": "count",
            "parallel.nproc": "count",
            "parallel.parent_serial_share": "ratio",
            "parallel.worker_busy_share": "ratio",
            "parallel.cone_p50_ms": "ms",
            "parallel.cone_p99_ms": "ms",
            "parallel.lpt_bound_s": "s",
            "peak_rss_mb": "MB",
            "mapping.map_s": "s",
            "check.simulate_s": "s",
            "fail_rate": "ratio",
            "trace.overhead_ratio": "ratio",
            "trace.pass_coverage": "ratio",
        }
    )
    for parent in PARENTS:
        units[f"unattributed.{parent}_share"] = "ratio"
    circuits: list[str] = []
    for workload in WORKLOADS.values():
        circuits += [c for c in workload.circuits if c not in circuits]
    for circuit in circuits:
        units[f"circuit.{circuit}.flow_s"] = "s"
        units[f"circuit.{circuit}.literals"] = "count"
    return units


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Keep compiler and interpreter scratch files inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def lpt_makespan(durations: list[float], workers: int) -> float:
    """Longest-processing-time-first schedule length on ``workers``."""
    loads = [0.0] * max(1, workers)
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)


def measure_setup(env: dict[str, str]) -> float:
    """Median fresh-interpreter time to a synthesis-ready ``repro``, at
    reference host speed (host probes taken around each start).

    One unmeasured start first builds the native kernel and byte-code
    caches, which users pay once per checkout, not per run."""
    from flow import REFERENCE_PROBE_S, host_probe

    command = [sys.executable, "-c", SETUP_PROBE]
    subprocess.run(command, env=env, check=True, capture_output=True, timeout=900)
    times = []
    for _ in range(SETUP_PROBES):
        before = host_probe()
        began = time.perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - began
        probe = (before + host_probe()) / 2
        times.append(elapsed * REFERENCE_PROBE_S / probe)
    return statistics.median(times)


def run_flow(
    request: dict[str, Any], path: Path, env: dict[str, str], deadline: float
) -> dict[str, Any]:
    """One flow process; its JSON result.

    The process leads its own session, so on timeout the whole group,
    pool workers included, is killed and reaped."""
    request_path = path.with_suffix(".request.json")
    result_path = path.with_suffix(".result.json")
    request_path.write_text(json.dumps(request))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "flow.py"), str(request_path), str(result_path)],
        env=env,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if code != 0:
        raise RuntimeError(f"flow process exited with code {code}")
    return json.loads(result_path.read_text())


def scaled_flow(row: dict[str, Any]) -> float:
    """A circuit's flow time rescaled to reference host speed by the
    mean of the host probes taken just before and after it."""
    from flow import REFERENCE_PROBE_S

    if "flow_s" not in row:
        return 0.0
    return row["flow_s"] * REFERENCE_PROBE_S / statistics.mean(row["probe_s"])


def pass_totals(result: dict[str, Any], scaled: bool = True) -> list[float]:
    """Summed circuit flow times of each pass (rescaled, or wall)."""
    return [
        sum(scaled_flow(row) if scaled else row.get("flow_s", 0.0) for row in rows.values())
        for rows in result["passes"]
    ]


def check_outputs(names: list[str], in_dir: Path, out_dir: Path, seed: int) -> dict[str, Any]:
    """Simulate each output against its input and map both."""
    from repro.mapping import load_library, map_network
    from repro.network import outputs_equal, read_blif

    library = load_library()
    rows: dict[str, Any] = {}
    simulate_s = map_s = 0.0
    for name in names:
        target = out_dir / f"{name}.blif"
        if not target.exists():
            rows[name] = {"ok": False, "reason": "no output"}
            continue
        source = read_blif(in_dir / f"{name}.blif")
        result = read_blif(target)
        began = time.perf_counter()
        ok = outputs_equal(source, result, cycles=CHECK_CYCLES, seed=seed)
        simulate_s += time.perf_counter() - began
        began = time.perf_counter()
        before = map_network(source, library)
        after = map_network(result, library)
        map_s += time.perf_counter() - began
        rows[name] = {
            "ok": ok,
            "reason": None if ok else "simulation mismatch",
            "literals_in": source.stats()["literals"],
            "literals": result.stats()["literals"],
            "area_ratio": after.area / before.area,
            "delay_ratio": after.delay / before.delay,
        }
    return {"rows": rows, "simulate_s": simulate_s, "map_s": map_s}


def spec_of(name: str) -> str:
    return name.rsplit("_", 1)[0] if "_" in name else name


# ---------------------------------------------------------------------------
# per-layer metrics from the traced process
# ---------------------------------------------------------------------------


def layer_metrics(
    trace: dict[str, Any],
    traced: dict[str, Any],
    untraced: dict[str, Any],
    check: dict[str, Any],
    names: list[str],
    workers: int,
) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times from the traced process are rescaled to reference host speed
    with that pass's own probe ratio, like ``flow_s``; shares and ratios
    are taken between wall times of the same process."""
    spans = trace["by_name"]
    traced_wall = pass_totals(traced, scaled=False)[0]
    traced_flow = pass_totals(traced)[0]
    speed = traced_flow / traced_wall

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    values: dict[str, float] = {}
    for span in CALL_SPANS:
        values[f"{span}_calls"] = spans.get(span, {}).get("calls", 0)
        values[f"{span}_s"] = self_s(span) * speed
    for span in TIME_SPANS:
        values[f"{span}_s"] = self_s(span) * speed
    for name in PASSES:
        values[f"engine.pass.{name}_s"] = self_s(f"engine.pass.{name}") * speed

    rows = [row for row in traced["passes"][0].values() if "error" not in row]
    actions: dict[str, int] = {}
    backends: dict[str, int] = {}
    cone_elapsed: list[float] = []
    lpt = 0.0
    degraded = 0
    for row in rows:
        for key, count in row["actions"].items():
            actions[key] = actions.get(key, 0) + count
        for key, count in row["backends"].items():
            backends[key] = backends.get(key, 0) + count
        cone_elapsed += row["cone_elapsed"]
        lpt += lpt_makespan(row["cone_elapsed"], workers)
        degraded += len(row["degraded_cones"])
    degraded += actions.get("copied", 0)
    attempted = actions.get("decomposed", 0) + actions.get("kept-cost", 0)
    samples = [s * 1000.0 * speed for s in trace["samples"]["bidec.decompose_cone"]]
    cone_ms = [s * 1000.0 * speed for s in cone_elapsed]
    values["engine.degraded_cones"] = degraded
    values["bidec.cone_p50_ms"] = percentile(samples, 0.5)
    values["bidec.cone_p99_ms"] = percentile(samples, 0.99)
    values["bidec.accept_ratio"] = actions.get("decomposed", 0) / attempted if attempted else 0.0
    values["bidec.sat_share"] = backends.get("sat-cegar", 0) / attempted if attempted else 0.0
    bdd = trace["bdd"]
    probes = bdd["cache_hits"] + bdd["cache_misses"]
    values["bdd.managers_created"] = bdd["managers_created"]
    values["bdd.nodes_allocated"] = bdd["nodes_allocated"]
    values["bdd.cache_hit_ratio"] = bdd["cache_hits"] / probes if probes else 0.0

    execute = total_s("parallel.execute")
    values["parallel.workers"] = workers
    values["parallel.nproc"] = nproc()
    values["parallel.parent_serial_share"] = 1.0 - execute / traced_wall if execute else 0.0
    values["parallel.worker_busy_share"] = (
        sum(cone_elapsed) / (workers * execute) if execute else 0.0
    )
    values["parallel.cone_p50_ms"] = percentile(cone_ms, 0.5)
    values["parallel.cone_p99_ms"] = percentile(cone_ms, 0.99)
    values["parallel.lpt_bound_s"] = lpt * speed
    values["peak_rss_mb"] = untraced["peak_rss_mb"]
    values["mapping.map_s"] = check["map_s"]
    values["check.simulate_s"] = check["simulate_s"]
    values["trace.overhead_ratio"] = traced_flow / statistics.median(pass_totals(untraced))
    # Pass, read and write spans are siblings under each circuit's flow
    # span, so their totals add up without overlap.
    covered = sum(
        total_s(name)
        for name in spans
        if name.startswith("engine.pass.") or name in ("network.read_blif", "network.write_blif")
    )
    values["trace.pass_coverage"] = covered / traced_wall
    for parent in PARENTS:
        total = total_s(parent)
        values[f"unattributed.{parent}_share"] = self_s(parent) / total if total else 0.0

    per_spec: dict[str, dict[str, float]] = {"flow_s": {}, "literals": {}}
    for name in names:
        spec = spec_of(name)
        flow = statistics.median(scaled_flow(p[name]) for p in untraced["passes"])
        per_spec["flow_s"][spec] = per_spec["flow_s"].get(spec, 0.0) + flow
        literals = check["rows"][name].get("literals", 0)
        per_spec["literals"][spec] = per_spec["literals"].get(spec, 0) + literals
    for key in per_layer_units():
        if key.startswith("circuit."):
            _, spec, field = key.split(".")
            values[key] = per_spec[field].get(spec, 0)
    return values


def render_tree(node: dict[str, Any], depth: int = 0, lines: list[str] | None = None) -> list[str]:
    """Span tree with self time and an ``(unattributed)`` row per parent."""
    lines = [] if lines is None else lines
    pad = "  " * depth
    if depth:
        lines.append(
            f"{pad}{node['name']:<{48 - len(pad)}} {node['calls']:>9} "
            f"{node['total_s']:>10.3f} {node['self_s']:>10.3f}"
        )
    children = sorted(node["children"], key=lambda child: -child["total_s"])
    for child in children:
        render_tree(child, depth + 1, lines)
    if depth and children:
        inner = "  " * (depth + 1)
        lines.append(
            f"{inner}{'(unattributed)':<{48 - len(inner)}} {'':>9} "
            f"{node['self_s']:>10.3f} {'':>10}"
        )
    return lines


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="detail record path (JSON)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, circuit_names, write_inputs

    workload = WORKLOADS[args.workload]
    cores = nproc()
    workers = min(workload.workers, cores) if workload.workers else 0
    env = child_env()
    run_dir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    in_dir, out_dir = run_dir / "in", run_dir / "out"
    names = circuit_names(workload)
    traced = None
    try:
        setup_s = None if args.trace else measure_setup(env)
        deadline = time.monotonic() + FLOW_LIMIT_S
        write_inputs(workload, args.seed, in_dir)
        request = {
            "inputs": [str(in_dir / f"{name}.blif") for name in names],
            "outputs": str(out_dir),
            "workers": workers,
            "backend": workload.backend,
            "seconds": args.seconds,
            "trace": False,
        }
        untraced = run_flow(request, run_dir / "flow", env, deadline)
        if args.trace:
            traced = run_flow(
                dict(request, trace=True, outputs=str(run_dir / "out-traced")),
                run_dir / "flow-traced",
                env,
                deadline,
            )
        check = check_outputs(names, in_dir, out_dir, args.seed)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"perfbench: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # -- failures, determinism and end-to-end metrics --------------------
    failures: dict[str, str] = {}
    nondeterministic: list[str] = []
    for name in names:
        rows = [p[name] for p in untraced["passes"]]
        if traced is not None:
            rows += [p[name] for p in traced["passes"]]
        errors = [row["error"] for row in rows if "error" in row]
        if errors:
            failures[name] = errors[0]
        elif any(row["degraded"] for row in rows):
            failures[name] = "degraded"
        elif not check["rows"][name]["ok"]:
            failures[name] = check["rows"][name]["reason"]
        if len({row.get("sha256") for row in rows}) != 1:
            nondeterministic.append(name)
    ok_rows = [check["rows"][n] for n in names if n not in failures]
    totals = pass_totals(untraced)
    wall_totals = pass_totals(untraced, scaled=False)
    metrics = {
        "flow_s": statistics.median(totals),
        "setup_s": setup_s,
        "circuit_rss_mb": statistics.mean(
            row["rss_mb"] for row in untraced["passes"][0].values()
        ),
        "literals": sum(check["rows"][n].get("literals", 0) for n in names),
        "area_ratio": geomean([row["area_ratio"] for row in ok_rows]),
        "delay_ratio": geomean([row["delay_ratio"] for row in ok_rows]),
    }
    # A degraded or raising circuit counts as failed; "correct" is about
    # the outputs written: each one simulates equal and repeats exactly.
    correct = all(check["rows"][n]["ok"] for n in names) and not nondeterministic
    env_stamp = {
        "native_kernel": untraced["native_kernel"],
        "python": platform.python_version(),
        "nproc": cores,
        "workers": workers,
        "seed": args.seed,
        "machine": platform.machine(),
    }

    # -- report ------------------------------------------------------------
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace}")
    print(f"  why: {workload.why}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env_stamp.items()))
    print(
        f"  passes={len(totals)} flow_s at reference speed="
        + ", ".join(f"{t:.3f}" for t in totals)
        + " wall="
        + ", ".join(f"{t:.3f}" for t in wall_totals)
    )
    for name in names:
        row = check["rows"][name]
        flows = [scaled_flow(p[name]) for p in untraced["passes"]]
        print(
            f"  {name:<10} flow_s={statistics.median(flows):8.3f} "
            f"literals={row.get('literals_in', 0)}->{row.get('literals', 0)} "
            f"area={row.get('area_ratio', 0):.4f} delay={row.get('delay_ratio', 0):.4f} "
            f"{failures.get(name, 'ok')}"
        )
    if nondeterministic:
        print("  NONDETERMINISTIC outputs: " + ", ".join(nondeterministic))
    print(f"  fail_rate={len(failures) / len(names):.4f} ({len(failures)}/{len(names)})")

    record: dict[str, Any] = {
        "workload": workload.name,
        "env": env_stamp,
        "metrics": metrics,
        "flow_wall_s": statistics.median(wall_totals),
        "failures": failures,
        "nondeterministic": nondeterministic,
        "digests": {n: untraced["passes"][0][n].get("sha256") for n in names},
        "passes": untraced["passes"],
        "check": check,
    }
    if args.trace:
        if traced["native_kernel"] != untraced["native_kernel"]:
            correct = False
        values = layer_metrics(traced["trace"], traced, untraced, check, names, max(1, workers))
        values["fail_rate"] = len(failures) / len(names)
        units = per_layer_units()
        out = {key: {"value": values[key], "unit": units[key]} for key in units}
        print(f"  {'span':<46} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for line in render_tree(traced["trace"]["tree"]):
            print("  " + line)
        print("  largest self times per circuit:")
        for circuit, spans in traced["trace"]["per_circuit"].items():
            top = sorted(spans.items(), key=lambda item: -item[1])[:3]
            print(f"    {circuit:<10} " + ", ".join(f"{n} {t:.3f}s" for n, t in top))
        record["trace"] = traced["trace"]
        record["per_layer"] = values
        record["digests_traced"] = {n: traced["passes"][0][n].get("sha256") for n in names}
    else:
        out = {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END.items()}
    for key, entry in out.items():
        print(f"  {key:<44} {entry['value']:>16.6f} {entry['unit']}")

    record_path = args.record or WORK / "records" / f"{workload.name}-s{args.seed}-t{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(names),
                "failed": len(failures),
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
