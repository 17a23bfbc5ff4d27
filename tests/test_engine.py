"""Tests for the pass-pipeline engine: governor budgets and graceful
degradation, pipeline building/config, and checkpoint/resume."""

import json

import pytest

from repro.benchgen import generate_sequential_circuit, iscas_analog
from repro.engine import (
    Pipeline,
    ResourceGovernor,
    SynthesisContext,
    SynthesisOptions,
    available_passes,
    make_pass,
    register_pass,
    resume_pipeline,
    standard_pipeline,
)
from repro.network import outputs_equal
from repro.synth import algorithm1


def small_circuit(seed=9):
    return generate_sequential_circuit(
        "eng",
        num_inputs=4,
        num_outputs=5,
        num_latches=8,
        counter_fraction=0.6,
        seed=seed,
    )


class TestGovernor:
    def test_unlimited_never_exhausts(self):
        governor = ResourceGovernor()
        assert not governor.out_of_budget()
        assert governor.remaining_time() is None
        assert governor.time_slice(5.0) == 5.0
        assert governor.time_slice(None) is None

    def test_time_budget_trips_and_latches(self):
        governor = ResourceGovernor(time_budget=0.0)
        assert governor.out_of_budget()
        assert governor.exhausted
        assert "time budget" in governor.reason
        # Latched: stays exhausted and keeps the first reason.
        assert governor.out_of_budget()
        governor.mark_exhausted("something else")
        assert "time budget" in governor.reason

    def test_node_budget_counts_attached_managers(self):
        from repro.bdd import BDDManager

        governor = ResourceGovernor(node_budget=10)
        manager = governor.attach_manager(BDDManager(4))
        governor.attach_manager(manager)  # idempotent
        assert not governor.out_of_budget()
        f = manager.apply_and(manager.var(0), manager.var(1))
        for i in range(2, 4):
            f = manager.apply_xor(f, manager.var(i))
        assert governor.nodes_allocated() == manager.num_nodes
        assert governor.out_of_budget()
        assert "node budget" in governor.reason

    def test_time_slice_takes_minimum(self):
        governor = ResourceGovernor(time_budget=100.0)
        assert governor.time_slice(5.0) == 5.0
        assert 0 < governor.time_slice(None) <= 100.0

    def test_snapshot_is_json_friendly(self):
        governor = ResourceGovernor(time_budget=1.0, node_budget=100)
        snapshot = governor.snapshot()
        json.dumps(snapshot)
        assert snapshot["exhausted"] is False


class TestDegradation:
    def test_zero_time_budget_degrades_not_raises(self):
        net = small_circuit()
        report = algorithm1(net, SynthesisOptions(time_budget=0.0))
        assert report.degraded
        assert "time budget" in report.degrade_reason
        assert report.decomposed() == 0
        assert outputs_equal(net, report.network, cycles=40)

    def test_starved_node_budget_degrades_not_raises(self):
        net = small_circuit()
        report = algorithm1(net, SynthesisOptions(node_budget=40))
        assert report.degraded
        assert "node budget" in report.degrade_reason
        assert outputs_equal(net, report.network, cycles=40)

    def test_mid_pipeline_exhaustion_still_equivalent(self):
        """A budget sized to trip partway through the decompose loop
        leaves a mixed decomposed/copied network that still checks out."""
        net = iscas_analog("s344")
        report = algorithm1(
            net,
            SynthesisOptions(max_partition_size=8, node_budget=3000),
        )
        assert report.degraded
        assert outputs_equal(net, report.network, cycles=30)
        # The budget tripped mid-loop: some signals were processed before
        # exhaustion, the rest were copied structurally.
        actions = {r.action for r in report.records}
        assert "copied" in actions
        assert actions - {"copied"}

    def test_unstarved_run_not_degraded(self):
        net = small_circuit()
        report = algorithm1(net, SynthesisOptions(max_partition_size=8))
        assert not report.degraded
        assert report.degrade_reason is None

    def test_dontcare_manager_skips_uncomputed_partitions(self):
        from repro.bdd import BDDManager
        from repro.bdd.manager import FALSE
        from repro.reach.dontcare import DontCareManager

        net = small_circuit()
        governor = ResourceGovernor(time_budget=0.0)
        dcm = DontCareManager(net, max_partition_size=4, governor=governor)
        manager = BDDManager()
        var_of = {name: manager.new_var(name) for name in net.latches}
        unreachable = dcm.unreachable_for(
            set(net.latches), manager, var_of
        )
        # No partition was allowed to run: no don't-care information.
        assert unreachable == FALSE


class TestPipeline:
    def test_standard_pipeline_pass_names(self):
        pipeline = standard_pipeline(SynthesisOptions())
        assert pipeline.pass_names() == [
            "cleanup", "dontcares", "decompose", "finalize",
            "sweep", "strash", "sweep",
        ]
        trimmed = standard_pipeline(
            SynthesisOptions(
                preprocess_latches=False, use_unreachable_states=False
            )
        )
        assert trimmed.pass_names()[0] == "decompose"

    def test_config_round_trip(self):
        pipeline = Pipeline(
            ["cleanup", {"pass": "decompose", "max_support": 9}, "sweep"]
        )
        config = pipeline.to_config()
        assert config == {
            "passes": ["cleanup", {"pass": "decompose", "max_support": 9},
                       "sweep"]
        }
        rebuilt = Pipeline.from_config(config)
        assert rebuilt.pass_names() == pipeline.pass_names()
        assert rebuilt.passes[1].params == {"max_support": 9}

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            Pipeline(["no-such-pass"])
        with pytest.raises(ValueError, match="unknown pass"):
            make_pass("also-missing")

    def test_available_passes(self):
        names = available_passes()
        for expected in ("cleanup", "dontcares", "decompose", "finalize",
                         "sweep", "strash"):
            assert expected in names

    def test_pass_params_override_options(self):
        """A decompose pass param beats the context's options: with
        max_cone_inputs forced to 1 nothing is decomposed."""
        net = small_circuit()
        pipeline = Pipeline(
            [{"pass": "decompose", "max_cone_inputs": 1},
             "finalize", "sweep", "strash", "sweep"]
        )
        report = algorithm1(
            net, SynthesisOptions(max_partition_size=8), pipeline=pipeline
        )
        assert report.decomposed() == 0
        assert outputs_equal(net, report.network, cycles=40)

    def test_custom_registered_pass_and_artifacts(self):
        @register_pass("test-count-nodes")
        class CountNodesPass:
            name = "test-count-nodes"

            def __init__(self, **params):
                self.params = params

            def run(self, context):
                context.artifacts["node-count"] = len(
                    context.result_network().nodes
                )

        net = small_circuit()
        options = SynthesisOptions(max_partition_size=8)
        pipeline = standard_pipeline(options)
        pipeline.add("test-count-nodes")
        context = SynthesisContext(net, options)
        pipeline.run(context)
        assert context.artifacts["node-count"] == len(
            context.result_network().nodes
        )
        assert context.artifacts["sweep.removed"] >= 0

    def test_pass_log_records_every_pass(self):
        net = small_circuit()
        report = algorithm1(net, SynthesisOptions(max_partition_size=8))
        assert [p["pass"] for p in report.passes] == [
            "cleanup", "dontcares", "decompose", "finalize",
            "sweep", "strash", "sweep",
        ]
        assert all(p["elapsed"] >= 0 for p in report.passes)

    def test_pipeline_emits_obs_events(self):
        from repro import obs

        net = small_circuit()
        obs.reset()
        with obs.scope():
            report = algorithm1(net, SynthesisOptions(max_partition_size=8))
            snapshot = obs.report()
        obs.reset()
        rows = [e for e in snapshot["events"]
                if e["ev"] == "pipeline.pass"]
        assert [r["pass_name"] for r in rows] == [
            "cleanup", "dontcares", "decompose", "finalize",
            "sweep", "strash", "sweep",
        ]
        assert snapshot["counters"]["pipeline.passes"] == 7
        # The profile's pass table reads the pass log the CLI puts
        # under "run".
        snapshot["run"] = {"passes": report.passes}
        rendered = obs.render_profile(snapshot)
        assert "pipeline passes" in rendered


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_result(self, tmp_path):
        net = small_circuit()
        options = SynthesisOptions(max_partition_size=8)
        uninterrupted = algorithm1(net, options)

        checkpoint = str(tmp_path / "run.json")
        context = SynthesisContext(net, options)
        standard_pipeline(options).run(
            context, checkpoint=checkpoint, stop_after="decompose"
        )
        # The "killed" run left a checkpoint mid-pipeline.
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["next_pass"] == 3
        assert data["rebuilt"] is not None

        resumed = resume_pipeline(checkpoint).to_report()
        assert (
            resumed.network.literal_count()
            == uninterrupted.network.literal_count()
        )
        assert [vars(r) for r in resumed.records] == [
            vars(r) for r in uninterrupted.records
        ]
        assert outputs_equal(net, resumed.network, cycles=40)
        assert not resumed.degraded

    def test_crash_mid_pass_resumes_from_pass_start(self, tmp_path):
        """A pass that dies leaves the previous boundary's checkpoint;
        resuming re-runs the dead pass and completes."""

        @register_pass("test-explode")
        class ExplodePass:
            name = "test-explode"

            def __init__(self, **params):
                self.params = params
                self.armed = params.get("armed", True)

            def run(self, context):
                if self.armed:
                    raise RuntimeError("killed")

        net = small_circuit()
        options = SynthesisOptions(max_partition_size=8)
        reference = algorithm1(net, options)

        checkpoint = str(tmp_path / "crash.json")
        pipeline = Pipeline(
            ["cleanup", "dontcares", "decompose",
             {"pass": "test-explode", "armed": False},
             "finalize", "sweep", "strash", "sweep"]
        )
        pipeline.passes[3].armed = True
        context = SynthesisContext(net, options)
        with pytest.raises(RuntimeError, match="killed"):
            pipeline.run(context, checkpoint=checkpoint)

        data = json.loads((tmp_path / "crash.json").read_text())
        assert data["next_pass"] == 3  # decompose completed, explode did not

        resumed = resume_pipeline(checkpoint).to_report()
        assert (
            resumed.network.literal_count()
            == reference.network.literal_count()
        )
        assert outputs_equal(net, resumed.network, cycles=40)

    def test_runtime_accumulates_across_resume(self, tmp_path):
        net = small_circuit()
        options = SynthesisOptions(max_partition_size=8)
        checkpoint = str(tmp_path / "rt.json")
        context = SynthesisContext(net, options)
        standard_pipeline(options).run(
            context, checkpoint=checkpoint, stop_after="decompose"
        )
        first_leg = context.runtime()
        resumed = resume_pipeline(checkpoint).to_report()
        assert resumed.runtime >= first_leg

    def test_resume_preserves_degraded_state(self, tmp_path):
        net = small_circuit()
        options = SynthesisOptions(max_partition_size=8, time_budget=0.0)
        checkpoint = str(tmp_path / "deg.json")
        context = SynthesisContext(net, options)
        standard_pipeline(options).run(
            context, checkpoint=checkpoint, stop_after="decompose"
        )
        assert context.degraded
        resumed = resume_pipeline(checkpoint).to_report()
        assert resumed.degraded
        assert "time budget" in resumed.degrade_reason
        assert outputs_equal(net, resumed.network, cycles=40)

    def test_checkpoint_version_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            resume_pipeline(str(path))

    def test_network_dict_round_trip(self):
        from repro.engine import network_from_dict, network_to_dict

        net = small_circuit()
        clone = network_from_dict(network_to_dict(net))
        assert clone.inputs == net.inputs
        assert clone.outputs == net.outputs
        assert set(clone.latches) == set(net.latches)
        assert list(clone.nodes) == list(net.nodes)
        assert outputs_equal(net, clone, cycles=40)


class TestOptionsDict:
    def test_round_trip(self):
        options = SynthesisOptions(max_support=9, gates=("or", "xor"))
        data = json.loads(json.dumps(options.to_dict()))
        restored = SynthesisOptions.from_dict(data)
        assert restored == options
        assert restored.gates == ("or", "xor")

    def test_partial_overrides_base(self):
        base = SynthesisOptions(max_support=9)
        merged = SynthesisOptions.from_dict(
            {"objective": "min_total"}, base=base
        )
        assert merged.max_support == 9
        assert merged.objective == "min_total"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown synthesis option"):
            SynthesisOptions.from_dict({"warp_factor": 9})
