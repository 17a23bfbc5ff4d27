"""Process-pool parallel cone synthesis.

Algorithm 1's decompose loop treats every combinational sink
independently: collapse the cone, widen with unreachable-state don't
cares, bi-decompose, accept or keep.  The
:class:`ParallelConeScheduler` shards exactly that loop across a
``concurrent.futures.ProcessPoolExecutor``: the parent extracts one
serialized :class:`~repro.synth.conetask.ConeTask` per eligible sink
(cone slice + don't-care cubes + options), workers rebuild each task in
a private :class:`~repro.bdd.manager.BDDManager` and run
:func:`~repro.synth.conetask.run_cone_task`, and the parent merges the
returned replacement networks **in the fixed sink order** — which is
what makes ``workers=N`` bit-identical to ``workers=1`` (``workers=1``
runs the very same serialized tasks through the very same worker
function, just inline).

Failure is degradation, not death:

* a worker that raises degrades its cone to a structural copy (the
  exception + remote traceback land in the crash context via
  :func:`repro.obs.crashdump.record_worker_failure`),
* a worker that exceeds ``worker_timeout`` is abandoned (the future
  times out; lingering processes are terminated at shutdown),
* a worker that *dies* (``os._exit``, OOM-kill) breaks the whole pool —
  every not-yet-finished task is then retried once, each in its own
  single-worker pool, so the crasher is identified and degraded while
  innocent tasks complete.  No task runs more than twice.

Trade-off vs the in-process ``decompose`` pass: the cross-cone sharing
table cannot travel between processes (BDD node ids are manager-local),
so parallel mode shares logic only *within* each cone; the later
``strash`` pass recovers structural sharing.  Parallel and serial
results are therefore sequentially equivalent but not bit-identical.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import sys
import time
from typing import Any, Optional

from repro import obs as _obs
from repro.engine.context import SignalRecord, SynthesisContext
from repro.engine.passes import (
    _BasePass,
    eligible_cones,
    register_pass,
    settle_cone,
)
from repro.synth.conetask import (
    TASK_OPTION_KEYS,
    ConeTask,
    dont_care_cubes,
    extract_cone_task,
    format_worker_error,
    run_cone_task,
)

try:  # BrokenProcessPool location is stable but guard for safety
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - ancient stdlib layouts
    BrokenProcessPool = RuntimeError  # type: ignore[misc,assignment]


class ConeShardAborted(RuntimeError):
    """Raised by the ``abort_after_merges`` test hook to simulate a kill
    between cone merges (checkpoint/resume tests)."""


#: Extra seconds the parent waits beyond ``worker_timeout`` before
#: abandoning a future, so a worker-side graceful degrade (its governor
#: tripping) wins over a parent-side hard kill when both are close.
TIMEOUT_GRACE = 2.0

#: Cap on don't-care cubes shipped per task; beyond it the task carries
#: no don't cares (a sound under-approximation).
MAX_DC_CUBES = 2048


def _failure(sink: str, kind: str, detail: str) -> dict[str, Any]:
    """A pseudo-result marking a cone whose worker never delivered."""
    return {
        "sink": sink,
        "action": "failed",
        "kind": kind,
        "detail": detail,
        "replacement": None,
        "degrade_reason": f"worker {kind}: {detail}",
    }


class ParallelConeScheduler:
    """Executes serialized cone tasks across worker processes and merges
    the results deterministically.

    ``workers <= 1`` executes tasks inline (same worker function, same
    serialized inputs — the determinism baseline); ``workers >= 2`` uses
    a process pool with ``fork`` start method where available.  The
    parent-side wait per future is ``timeout + TIMEOUT_GRACE`` seconds
    (unlimited when ``timeout`` is ``None``); note the inline path
    cannot enforce timeouts.

    A :class:`~repro.obs.costmodel.ConeCostModel` (optional) reorders
    *dispatch only*: tasks are submitted to the pool longest-predicted
    first (LPT), which trims the makespan tail, while callers still
    merge in their own fixed order — results are keyed by sink, so the
    dispatch permutation cannot change the output.  The order actually
    used is recorded in :attr:`dispatch_order` after each ``execute``.
    """

    def __init__(
        self,
        workers: int,
        timeout: Optional[float] = None,
        cost_model: Optional[Any] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.cost_model = cost_model
        #: Sinks in the order the last ``execute`` dispatched them.
        self.dispatch_order: list[str] = []

    # -- execution ------------------------------------------------------

    def _dispatch_permutation(self, tasks: list[ConeTask]) -> list[int]:
        """LPT permutation from the cost model, or the identity (static
        plan order) when no model is loaded or prediction fails."""
        identity = list(range(len(tasks)))
        model = self.cost_model
        if model is None:
            return identity
        try:
            order = list(model.order(tasks))
        except Exception:
            if _obs.enabled():
                _obs.inc("parallel.costmodel.errors")
            return identity
        if sorted(order) != identity:  # not a permutation — ignore it
            return identity
        return order

    def execute(self, tasks: list[ConeTask]) -> dict[str, dict[str, Any]]:
        """Run every task; returns ``{sink: result_or_failure}`` with an
        entry for each task (failures never raise)."""
        if not tasks:
            self.dispatch_order = []
            return {}
        order = self._dispatch_permutation(tasks)
        dispatch = [tasks[i] for i in order]
        self.dispatch_order = [task.sink for task in dispatch]
        if self.workers == 1:
            return self._execute_inline(dispatch)
        return self._execute_pool(dispatch)

    def _execute_inline(
        self, tasks: list[ConeTask]
    ) -> dict[str, dict[str, Any]]:
        results: dict[str, dict[str, Any]] = {}
        for task in tasks:
            try:
                results[task.sink] = run_cone_task(task.to_dict())
            except Exception as exc:
                error = format_worker_error(exc)
                self._note_failure(task.sink, "exception", error)
                results[task.sink] = _failure(
                    task.sink, "exception", error["message"]
                )
        return results

    def _wait_timeout(self) -> Optional[float]:
        if self.timeout is None:
            return None
        return self.timeout + TIMEOUT_GRACE

    def _make_executor(
        self, workers: int
    ) -> concurrent.futures.ProcessPoolExecutor:
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            mp_context = None
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context
        )

    def _reap(
        self, executor: concurrent.futures.ProcessPoolExecutor
    ) -> None:
        """Shut the pool down without waiting and terminate any worker
        still alive (hung or abandoned ones).

        The process handles must be captured *before* ``shutdown`` —
        it nulls ``_processes``, and a hung worker that survives would
        block the executor's management thread (and so interpreter
        exit) forever."""
        processes = dict(getattr(executor, "_processes", None) or {})
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:  # pragma: no cover - defensive
                pass

    def _execute_pool(
        self, tasks: list[ConeTask]
    ) -> dict[str, dict[str, Any]]:
        results: dict[str, dict[str, Any]] = {}
        wait = self._wait_timeout()
        pool_broke = False
        executor = self._make_executor(self.workers)
        try:
            submitted = [
                (task, executor.submit(run_cone_task, task.to_dict()))
                for task in tasks
            ]
            for task, future in submitted:
                sink = task.sink
                try:
                    results[sink] = future.result(timeout=wait)
                except concurrent.futures.TimeoutError:
                    self._note_failure(sink, "timeout", None)
                    results[sink] = _failure(
                        sink, "timeout", f"exceeded {self.timeout}s"
                    )
                except BrokenProcessPool:
                    pool_broke = True
                    break
                except Exception as exc:
                    error = format_worker_error(exc)
                    self._note_failure(sink, "exception", error)
                    results[sink] = _failure(
                        sink, "exception", error["message"]
                    )
        finally:
            self._reap(executor)
        if pool_broke:
            # A worker died hard and took the pool with it; the stdlib
            # cannot attribute the death, so retry every unfinished task
            # alone in its own single-worker pool: the crasher breaks
            # only its own pool (and is degraded), innocents complete.
            # Each task therefore runs at most twice.
            if _obs.enabled():
                _obs.inc("parallel.pool.broken")
            remaining = [t for t in tasks if t.sink not in results]
            for task in remaining:
                results[task.sink] = self._run_isolated(task)
        return results

    def _run_isolated(self, task: ConeTask) -> dict[str, Any]:
        sink = task.sink
        if _obs.enabled():
            _obs.inc("parallel.tasks.retried")
        executor = self._make_executor(1)
        try:
            future = executor.submit(run_cone_task, task.to_dict())
            try:
                return future.result(timeout=self._wait_timeout())
            except concurrent.futures.TimeoutError:
                self._note_failure(sink, "timeout", None)
                return _failure(sink, "timeout", f"exceeded {self.timeout}s")
            except BrokenProcessPool as exc:
                self._note_failure(
                    sink, "pool-broken", format_worker_error(exc)
                )
                return _failure(
                    sink, "pool-broken", "worker process died"
                )
            except Exception as exc:
                error = format_worker_error(exc)
                self._note_failure(sink, "exception", error)
                return _failure(sink, "exception", error["message"])
        finally:
            self._reap(executor)

    def _note_failure(
        self,
        sink: str,
        kind: str,
        error: Optional[dict[str, Any]],
    ) -> None:
        from repro.obs import crashdump as _crash

        _crash.record_worker_failure(sink, kind, error)
        if _obs.enabled():
            _obs.inc("parallel.tasks.failed")
            _obs.inc(f"parallel.tasks.{kind.replace('-', '_')}")
            _obs.event(
                "parallel.worker.failure",
                sink=sink,
                kind=kind,
                error=(error or {}).get("message"),
            )


def _merge_worker_trace(result: dict[str, Any]) -> None:
    """Mirror a worker's phase timings into the installed trace recorder
    as external spans on a per-worker-pid track."""
    from repro.obs import trace as _trace

    recorder = _trace.active()
    if recorder is None:
        return
    started = result.get("started_wall")
    pid = result.get("pid")
    if started is None or pid is None:
        return
    sink = result.get("sink")
    recorder.emit_external_span(
        "parallel.cone",
        started,
        float(result.get("elapsed", 0.0)),
        tid=int(pid),
        args={"sink": sink, "action": result.get("action")},
    )
    for phase in result.get("phases") or ():
        recorder.emit_external_span(
            f"parallel.{phase['name']}",
            started + float(phase["start"]),
            float(phase["dur"]),
            tid=int(pid),
            args={"sink": sink},
        )


@register_pass("decompose_parallel")
class DecomposeParallelPass(_BasePass):
    """The Algorithm 1 decompose loop, sharded across worker processes.

    Classification, the per-cone step and the settling of results are
    the serial pass's (see :func:`~repro.engine.passes.eligible_cones`);
    eligible cones become serialized :class:`ConeTask` objects, the
    scheduler runs them, and results are settled in sink order.  Worker
    failures degrade their cone to a structural copy and mark the
    context degraded — never fatal.

    Test/chaos params: ``fault_spec`` (``{sink: mode}`` with modes from
    :data:`repro.synth.conetask.FAULT_MODES`) injects worker faults;
    ``_abort_after_merges`` (int, ephemeral — see
    :meth:`Pipeline.to_config`) raises :class:`ConeShardAborted` after
    that many merges to exercise mid-shard checkpoint/resume.
    """

    name = "decompose_parallel"

    def run(self, context: SynthesisContext) -> None:
        options = self.options_for(context)
        workers = max(1, int(options.parallel_workers or 1))
        timeout = options.worker_timeout
        fault_spec: dict[str, str] = self.params.get("fault_spec") or {}
        abort_after = self.params.get("_abort_after_merges")

        task_options = {
            key: getattr(options, key) for key in TASK_OPTION_KEYS
        }
        task_options["gates"] = list(options.gates)

        tasks: list[ConeTask] = [
            extract_cone_task(
                context.source,
                sink,
                dc_cubes=self._cone_dc_cubes(context, sink, cone_inputs),
                options=task_options,
                node_budget=context.options.node_budget,
                time_budget=timeout,
                fault=fault_spec.get(sink),
            )
            for sink, cone_inputs in eligible_cones(
                context, options.max_cone_inputs
            )
        ]

        context.artifacts["parallel.workers"] = workers
        if not tasks:
            context.artifacts.setdefault("parallel.degraded_cones", [])
            return

        # -- execution ---------------------------------------------------
        cost_model = self._load_cost_model()
        scheduler = ParallelConeScheduler(
            workers, timeout=timeout, cost_model=cost_model
        )
        if _obs.enabled():
            _obs.set_gauge("parallel.workers", workers)
            _obs.inc("parallel.tasks", len(tasks))
            # Progress gauges the RuntimeMonitor mirrors into status.json.
            _obs.set_gauge("parallel.cones.total", len(tasks))
            _obs.set_gauge("parallel.cones.merged", 0)
            _obs.set_gauge("parallel.cones.degraded", 0)
        # Live telemetry bus (sys.modules only — never an import): while
        # one is active, the workers the pool forks stream their event
        # records to the parent as cones run.  Purely out-of-band —
        # dispatch, execution and merge below are untouched.
        bus = None
        bus_mod = sys.modules.get("repro.obs.bus")
        if bus_mod is not None:
            bus = bus_mod.active()
        if bus is not None and cost_model:
            try:
                bus.set_expected_costs(
                    {t.sink: cost_model.predict(t) for t in tasks}
                )
            except Exception:
                pass
        _obs.event(
            "shard.dispatch", cones=len(tasks), workers=workers,
            profile_guided=bool(cost_model),
        )
        began = time.perf_counter()
        with _obs.span("algorithm1.parallel.execute"):
            results = scheduler.execute(tasks)
        if bus is not None:
            bus.sync()
        if _obs.enabled():
            _obs.observe(
                "parallel.execute.elapsed", time.perf_counter() - began
            )
        context.artifacts["parallel.dispatch"] = {
            "order": list(scheduler.dispatch_order),
            "profile_guided": bool(cost_model),
            "backend_option": task_options["backend"],
        }

        # -- deterministic merge (sink order, not completion order) ------
        degraded_cones: list[str] = []
        cone_stats: list[dict[str, Any]] = []
        merges = 0
        for task in tasks:
            sink = task.sink
            result = results.get(sink) or _failure(
                sink, "missing", "no result returned"
            )
            self._merge_one(context, task, result, degraded_cones)
            cone_stats.append(
                {
                    "sink": sink,
                    "task_key": task.task_key(),
                    "signature": result.get("signature"),
                    "cone_inputs": int(
                        result.get("cone_inputs")
                        or len(task.slice.get("inputs", []))
                    ),
                    "action": result.get("action"),
                    "elapsed": result.get("elapsed"),
                    "tree_cost": result.get("tree_cost"),
                    "original_cost": result.get("original_cost"),
                    "pid": result.get("pid"),
                    "backend": result.get("backend"),
                }
            )
            merges += 1
            _obs.event(
                "cone.merged",
                sink=sink,
                action=result.get("action"),
                merged=merges,
                total=len(tasks),
            )
            if _obs.enabled():
                _obs.set_gauge("parallel.cones.merged", merges)
                _obs.set_gauge(
                    "parallel.cones.degraded", len(degraded_cones)
                )
            if context.mid_pass_checkpoint is not None:
                context.mid_pass_checkpoint()
            if abort_after is not None and merges >= int(abort_after):
                raise ConeShardAborted(
                    f"aborted after {merges} cone merge(s) (test hook)"
                )
        context.artifacts["parallel.degraded_cones"] = degraded_cones
        context.artifacts["parallel.tasks"] = {
            "total": len(tasks),
            "degraded": len(degraded_cones),
        }
        context.artifacts["parallel.cone_stats"] = cone_stats
        # Per-cone routing outcome ("auto" resolved per cone in the
        # worker) next to the dispatch order it applied to.
        dispatch = context.artifacts.get("parallel.dispatch")
        if dispatch is not None:
            dispatch["backends"] = {
                row["sink"]: row["backend"] for row in cone_stats
            }
        # Ledger append via sys.modules — never an import, so ledger-off
        # runs stay I/O-free (bench_ledger asserts the module is absent).
        ledger_mod = sys.modules.get("repro.obs.ledger")
        if ledger_mod is not None:
            ledger_mod.record_cones_active(cone_stats)

    def _load_cost_model(self) -> Optional[Any]:
        """The cone cost model for this run: the ``_cost_model``
        ephemeral param (test hook) wins; otherwise learn from the
        active ledger's history when one is live.  Never raises — no
        model just means static plan order."""
        model = self.params.get("_cost_model")
        if model is not None:
            return model
        ledger_mod = sys.modules.get("repro.obs.ledger")
        if ledger_mod is None:
            return None
        active = ledger_mod.active_run()
        if active is None:
            return None
        try:
            from repro.obs.costmodel import ConeCostModel

            loaded = ConeCostModel.from_ledger(active[0])
        except Exception:
            if _obs.enabled():
                _obs.inc("parallel.costmodel.errors")
            return None
        return loaded if loaded else None

    # -- helpers ----------------------------------------------------------

    def _cone_dc_cubes(
        self, context: SynthesisContext, sink: str, cone_inputs: list[str]
    ) -> Optional[list[list[list[Any]]]]:
        """The cone's unreachable-state set as portable cubes (parent
        side; ``None`` when no don't cares apply)."""
        if context.dc_manager is None:
            return None
        source = context.source
        ps_support = {n for n in cone_inputs if n in source.latches}
        if not ps_support:
            return None
        collapser = context.ensure_collapser()
        for name in sorted(ps_support):
            collapser.source_var(name)
        with _obs.span("algorithm1.dontcare"):
            unreachable = context.dc_manager.unreachable_for(
                ps_support, collapser.manager, collapser.var_of
            )
        cubes = dont_care_cubes(
            collapser.manager, unreachable, max_cubes=MAX_DC_CUBES
        )
        if cubes is None and _obs.enabled():
            _obs.inc("parallel.dc.overflow")
        return cubes

    def _merge_one(
        self,
        context: SynthesisContext,
        task: ConeTask,
        result: dict[str, Any],
        degraded_cones: list[str],
    ) -> None:
        sink = task.sink
        action = result.get("action")
        _merge_worker_trace(result)
        nodes = result.get("nodes_allocated")
        if nodes:
            context.governor.add_external_nodes(int(nodes))
        cone_inputs = int(result.get("cone_inputs") or 0)
        if action in ("decomposed", "kept-cost"):
            settle_cone(
                context,
                SignalRecord(
                    sink,
                    cone_inputs,
                    action,
                    result.get("tree_cost"),
                    result.get("original_cost"),
                    backend=result.get("backend"),
                ),
                replacement=result.get("replacement"),
            )
            if _obs.enabled():
                _obs.inc("parallel.tasks.completed")
            return
        # "copied" (worker budget exhaustion) or "failed" (worker never
        # delivered): structural copy, context degraded, cone listed.
        degraded_cones.append(sink)
        settle_cone(
            context,
            SignalRecord(sink, cone_inputs, "copied"),
            degrade_reason=result.get("degrade_reason") or "worker degraded",
        )
        if _obs.enabled() and action == "copied":
            _obs.inc("parallel.tasks.worker_degraded")
