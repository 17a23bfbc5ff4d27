"""Tests for the observability substrate (repro.obs) and its wiring
through the BDD, reachability, bi-decomposition and synthesis layers."""

import gc
import json
import threading

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with a disabled, empty registry."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestRegistryBasics:
    def test_disabled_is_noop(self):
        obs.inc("x.count")
        obs.set_gauge("x.level", 3)
        obs.observe("x.size", 7)
        obs.event("x.happened")
        with obs.span("x.phase"):
            pass
        report = obs.report()
        assert report["enabled"] is False
        assert report["counters"] == {}
        assert report["gauges"] == {}
        assert report["histograms"] == {}
        assert report["spans"] == {}
        assert report["events"] == []

    def test_disabled_span_is_shared_null_object(self):
        assert obs.span("a") is obs.span("b")

    def test_counters_gauges_histograms(self):
        obs.enable()
        obs.inc("fam.count")
        obs.inc("fam.count", 4)
        obs.set_gauge("fam.level", 2)
        obs.set_gauge("fam.level", 9)
        for value in (1, 2, 3, 10):
            obs.observe("fam.size", value)
        report = obs.report()
        assert report["counters"]["fam.count"] == 5
        assert report["gauges"]["fam.level"] == 9
        histogram = report["histograms"]["fam.size"]
        assert histogram["count"] == 4
        assert histogram["min"] == 1 and histogram["max"] == 10
        assert histogram["total"] == 16
        assert histogram["mean"] == 4.0

    def test_histogram_buckets_are_powers_of_two(self):
        obs.enable()
        for value in (0, 1, 2, 3, 4, 100):
            obs.observe("fam.size", value)
        buckets = obs.report()["histograms"]["fam.size"]["buckets"]
        # 0 and 1 share bucket "0", 2 -> "1", 3 and 4 -> "2", 100 -> "7".
        assert buckets == {"0": 2, "1": 1, "2": 2, "7": 1}

    def test_events_recorded_and_bounded(self):
        obs.enable()
        for index in range(5):
            obs.event("fam.tick", index=index)
        events = obs.report()["events"]
        assert len(events) == 5
        assert events[0]["ev"] == "fam.tick"
        assert events[0]["index"] == 0
        assert all("t" in event for event in events)

    def test_event_sinks_follow_the_switches(self):
        """Off means no sink: :func:`obs.event` returns after one check.
        Enabling adds the record ring; an installed tracer adds the trace
        sink; both go again on disable."""
        import importlib

        from repro.obs import trace as obs_trace

        registry_mod = importlib.import_module("repro.obs.registry")
        assert registry_mod._sinks == ()
        obs.event("dropped.on.the.floor")
        obs.enable()
        assert registry_mod._sinks == (obs.registry().append_event,)
        recorder = obs_trace.install()
        try:
            assert registry_mod._sinks == (
                obs.registry().append_event, recorder.event,
            )
            obs.event("seen", n=1)
        finally:
            obs_trace.uninstall()
        obs.disable()
        assert registry_mod._sinks == ()
        (record,) = obs.report()["events"]
        assert record["ev"] == "seen" and record["v"] == 1
        assert [r["name"] for r in recorder.records()] == ["seen"]

    def test_enable_disable_scope(self):
        assert not obs.enabled()
        with obs.scope():
            assert obs.enabled()
            obs.inc("fam.inside")
            with obs.scope(False):
                assert not obs.enabled()
                obs.inc("fam.suppressed")
        assert not obs.enabled()
        counters = obs.report()["counters"]
        assert counters == {"fam.inside": 1}

    def test_reset_clears_everything(self):
        obs.enable()
        obs.inc("fam.count")
        with obs.span("fam.phase"):
            pass
        obs.reset()
        report = obs.report()
        assert report["counters"] == {} and report["spans"] == {}


class TestSpans:
    def test_span_nesting_paths(self):
        obs.enable()
        with obs.span("outer"):
            assert obs.current_span_path() == "outer"
            with obs.span("inner"):
                assert obs.current_span_path() == "outer/inner"
            with obs.span("inner"):
                pass
        assert obs.current_span_path() == ""
        spans = obs.report()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 2
        assert spans["outer"]["total"] >= spans["outer/inner"]["total"]

    def test_span_stack_unwinds_on_exception(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise RuntimeError("boom")
        assert obs.current_span_path() == ""
        spans = obs.report()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 1

    def test_span_stack_is_thread_local(self):
        obs.enable()
        barrier = threading.Barrier(2, timeout=10)
        seen: dict[str, str] = {}

        def worker(name: str) -> None:
            with obs.span(name):
                barrier.wait()  # both threads inside their outer span
                with obs.span(f"{name}.child"):
                    seen[name] = obs.current_span_path()
                barrier.wait()

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in ("alpha", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each thread saw only its own stack, never the sibling's frames.
        assert seen == {
            "alpha": "alpha/alpha.child",
            "beta": "beta/beta.child",
        }
        spans = obs.report()["spans"]
        assert spans["alpha"]["count"] == 1
        assert spans["beta/beta.child"]["count"] == 1

    def test_families_group_by_first_segment(self):
        obs.enable()
        obs.inc("reach.iterations")
        obs.observe("bidec.bi_size.or", 12)
        with obs.span("algorithm1.run"):
            with obs.span("reach.fixpoint"):
                pass
        families = obs.report()["families"]
        assert "reach" in families and "bidec" in families
        assert "algorithm1" in families
        assert "algorithm1.run/reach.fixpoint" in families["algorithm1"]["spans"]


class TestJsonRoundTrip:
    def test_report_serialises_and_round_trips(self):
        obs.enable()
        obs.inc("fam.count", 2)
        obs.observe("fam.size", 3.5)
        obs.event("fam.evt", detail="text")
        with obs.span("fam.phase"):
            pass
        report = obs.report()
        encoded = json.dumps(report)
        assert json.loads(encoded) == json.loads(json.dumps(json.loads(encoded)))
        decoded = json.loads(encoded)
        assert decoded["counters"]["fam.count"] == 2
        assert decoded["families"]["fam"]["histograms"]["fam.size"]["count"] == 1

    def test_write_report(self, tmp_path):
        obs.enable()
        obs.inc("fam.count")
        path = tmp_path / "report.json"
        written = obs.write_report(path, extra={"command": "test"})
        on_disk = json.loads(path.read_text())
        assert on_disk["run"]["command"] == "test"
        assert on_disk["counters"] == written["counters"]


class TestBddManagerTracking:
    def test_manager_counts_cache_hits_and_misses(self):
        from repro.bdd import BDDManager

        obs.enable()
        manager = BDDManager(4)
        f = manager.apply_and(manager.var(0), manager.var(1))
        manager.apply_and(manager.var(0), manager.var(1))  # cached
        assert manager.stats is not None
        assert manager.stats.and_hits >= 1
        assert manager.stats.and_misses >= 1
        counters = obs.report()["counters"]
        assert counters["bdd.cache.and.hits"] >= 1
        assert counters["bdd.cache.and.misses"] >= 1
        gauges = obs.report()["gauges"]
        assert gauges["bdd.managers.live"] == 1
        assert gauges["bdd.nodes.peak"] == manager.num_nodes
        assert f  # keep the manager alive to here

    def test_dead_manager_counts_are_flushed(self):
        from repro.bdd import BDDManager

        obs.enable()
        manager = BDDManager(4)
        manager.apply_xor(manager.var(0), manager.var(1))
        misses = manager.stats.xor_misses
        assert misses >= 1
        del manager
        gc.collect()
        report = obs.report()
        assert report["gauges"]["bdd.managers.live"] == 0
        assert report["gauges"]["bdd.managers.total"] == 1
        assert report["counters"]["bdd.cache.xor.misses"] == misses

    def test_untracked_manager_when_disabled(self):
        from repro.bdd import BDDManager

        manager = BDDManager(4)
        assert manager.stats is None
        manager.apply_and(manager.var(0), manager.var(1))
        assert "bdd" not in obs.report()["families"]

    def test_enable_stats_later(self):
        from repro.bdd import BDDManager

        manager = BDDManager(4)
        assert manager.stats is None
        stats = manager.enable_stats()
        manager.apply_and(manager.var(0), manager.var(1))
        assert stats.and_misses >= 1
        snapshot = manager.stats_snapshot()
        assert snapshot["unique_size"] == manager.unique_size
        assert snapshot["cache.and.size"] >= 1

    def test_clear_caches_returns_eviction_count_and_event(self):
        from repro.bdd import BDDManager

        obs.enable()
        manager = BDDManager(4)
        manager.apply_and(manager.var(0), manager.var(1))
        manager.negate(manager.var(2))
        evicted = manager.clear_caches()
        assert evicted >= 2
        assert manager.cache_sizes() == {
            "ite": 0, "and": 0, "or": 0, "xor": 0, "not": 0,
            "exists": 0, "forall": 0, "and_exists": 0,
        }
        assert manager.clear_caches() == 0
        events = [
            event
            for event in obs.report()["events"]
            if event["ev"] == "bdd.clear_caches"
        ]
        assert events and events[0]["evicted"] == evicted
        counters = obs.report()["counters"]
        assert counters["bdd.cache.clears"] == 2
        assert counters["bdd.cache.evicted"] == evicted


class TestLayerInstrumentation:
    def test_reach_metrics(self):
        from repro.benchgen import iscas_analog
        from repro.reach import TransitionSystem, forward_reachable

        network = iscas_analog("s344")
        with obs.scope():
            result = forward_reachable(
                TransitionSystem(network, list(network.latches)[:6])
            )
        assert result.converged
        counters = obs.report()["counters"]
        assert counters["reach.runs"] == 1
        assert counters["reach.converged"] == 1
        assert counters["reach.iterations"] == result.iterations
        histograms = obs.report()["histograms"]
        assert histograms["reach.frontier.size"]["count"] == result.iterations
        assert histograms["reach.image.time"]["count"] == result.iterations
        assert "reach.fixpoint" in obs.report()["spans"]

    def test_bidec_metrics(self, manager4):
        from repro.bidec import decompose_interval
        from repro.intervals import Interval

        f = manager4.apply_or(
            manager4.apply_and(manager4.var(0), manager4.var(1)),
            manager4.apply_and(manager4.var(2), manager4.var(3)),
        )
        with obs.scope():
            result = decompose_interval(Interval.exact(manager4, f))
        assert result is not None
        report = obs.report()
        counters = report["counters"]
        assert counters["bidec.attempt.or"] == 1
        assert counters[f"bidec.accepted.{result.gate}"] == 1
        assert counters["bidec.spaces.or"] >= 1
        assert report["histograms"]["bidec.bi_size.or"]["count"] >= 1
        assert any(path.startswith("bidec.build.") for path in report["spans"])

    def test_algorithm1_metrics(self):
        from repro.benchgen import iscas_analog
        from repro.synth import SynthesisOptions, algorithm1

        network = iscas_analog("s344")
        with obs.scope():
            synth_report = algorithm1(
                network, SynthesisOptions(use_unreachable_states=False)
            )
        report = obs.report()
        counters = report["counters"]
        assert counters["algorithm1.runs"] == 1
        assert counters["algorithm1.signals"] == len(synth_report.records)
        assert counters["algorithm1.signals.decomposed"] == (
            synth_report.decomposed()
        )
        gauges = report["gauges"]
        assert gauges["algorithm1.literals.before"] > 0
        assert gauges["algorithm1.literals.after"] > 0
        assert "algorithm1.run" in report["spans"]
        # The per-signal trajectory is replayable from events.
        actions = [
            event["action"]
            for event in report["events"]
            if event["ev"] == "algorithm1.signal"
        ]
        assert len(actions) == len(synth_report.records)


class TestProfileRendering:
    def test_render_profile_lists_phases_and_cache_rates(self):
        from repro.bdd import BDDManager

        obs.enable()
        manager = BDDManager(4)
        manager.apply_and(manager.var(0), manager.var(1))
        manager.apply_and(manager.var(0), manager.var(1))
        with obs.span("algorithm1.run"):
            obs.inc("algorithm1.signals")
        text = obs.render_profile(obs.report())
        assert "phase timings" in text
        assert "algorithm1.run" in text
        assert "BDD cache efficiency" in text
        assert "and" in text

    def test_render_profile_empty(self):
        text = obs.render_profile(obs.report())
        assert "no metrics" in text

    def test_render_profile_nests_spans_under_their_parents(self):
        # Sorted globally by total, "dontcare/fixpoint" (4 s) would print
        # right after "dontcare" (5 s) and ahead of "decompose/build" (1 s),
        # and "build" would land under "dontcare".
        def stat(count, total):
            return {"count": count, "total": total, "mean": total / count}

        spans = {
            "run": stat(1, 10.0),
            "run/decompose": stat(3, 2.0),
            "run/decompose/build": stat(9, 1.5),
            "run/dontcare": stat(3, 5.0),
            "run/dontcare/fixpoint": stat(2, 4.0),
            "other": stat(1, 8.0),
        }
        lines = obs.render_profile({"spans": spans}).splitlines()[2:]
        rows = [line.split() for line in lines]
        assert [(line.split()[0], len(line) - len(line.lstrip())) for line in lines] == [
            ("run", 2),
            ("dontcare", 4),
            ("fixpoint", 6),
            ("(unattributed)", 6),
            ("decompose", 4),
            ("build", 6),
            ("(unattributed)", 6),
            ("(unattributed)", 4),
            ("other", 2),
        ]
        # Columns: span count total self mean [share]; unattributed rows
        # carry the parent's self time as both total and self.
        assert rows[0][1:4] == ["1", "10.000", "3.000"]
        assert rows[1][3] == "1.000"
        assert rows[2][3] == "4.000"
        assert rows[3][1:] == ["1.000", "1.000"]
        assert rows[6][1:] == ["0.500", "0.500"]
        assert rows[7][1:] == ["3.000", "3.000"]
        assert rows[8][3] == "8.000"

    def test_render_profile_keeps_orphan_spans(self):
        # A child whose parent span has not closed yet (a mid-run
        # snapshot) is listed at the top level under its full path.
        text = obs.render_profile(
            {"spans": {"run/collapse": {"count": 2, "total": 0.5, "mean": 0.25}}}
        )
        assert text.splitlines()[2].split()[:4] == ["run/collapse", "2", "0.500", "0.500"]

    def test_cache_efficiency_extraction(self):
        from repro.bdd import BDDManager

        obs.enable()
        manager = BDDManager(3)
        manager.apply_and(manager.var(0), manager.var(1))
        manager.apply_and(manager.var(0), manager.var(1))
        efficiency = obs.cache_efficiency(obs.report())
        assert "and" in efficiency
        assert 0 < efficiency["and"]["rate"] < 1


class TestCliIntegration:
    def test_optimize_stats_json_has_all_families(self, tmp_path):
        from repro.cli import main

        bench = tmp_path / "bench.blif"
        assert main(["generate", "s344", "-o", str(bench)]) == 0
        out = tmp_path / "opt.blif"
        report_path = tmp_path / "report.json"
        assert main(
            [
                "optimize",
                str(bench),
                "-o",
                str(out),
                "--stats-json",
                str(report_path),
            ]
        ) == 0
        report = json.loads(report_path.read_text())
        for family in ("bdd", "reach", "bidec", "algorithm1"):
            assert family in report["families"], family
            assert any(report["families"][family].values()), family
        assert report["run"]["command"] == "optimize"
        assert report["run"]["decomposed"] >= 1
        # The flag must not leave instrumentation on for later work.
        assert not obs.enabled()

    def test_profile_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "profile.json"
        assert main(
            [
                "profile",
                "s344",
                "--workload",
                "reach",
                "--stats-json",
                str(report_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "BDD cache efficiency" in out
        report = json.loads(report_path.read_text())
        assert report["run"]["workload"] == "reach"
        assert "log2_states" in report["run"]

    def test_stats_bdd_flag(self, tmp_path, capsys):
        from repro.cli import main

        bench = tmp_path / "bench.blif"
        assert main(["generate", "s344", "-o", str(bench)]) == 0
        assert main(["stats", str(bench), "--bdd"]) == 0
        out = capsys.readouterr().out
        assert "unique_size" in out
        assert "cache.and" in out
