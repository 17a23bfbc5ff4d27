"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.network import outputs_equal, parse_blif, read_blif, save_blif

DEMO = """
.model demo
.inputs a en
.outputs z
.latch n0 q0 0
.latch n1 q1 0
.names q0 en n0
10 1
01 1
.names q1 q0 en n1
010 1
110 1
101 1
.names q0 q1 a z
111 1
001 1
.end
"""


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.blif"
    path.write_text(DEMO)
    return str(path)


class TestStats:
    def test_stats(self, demo_path, capsys):
        assert main(["stats", demo_path]) == 0
        out = capsys.readouterr().out
        assert "latches: 2" in out

    def test_bench_input(self, tmp_path, capsys):
        path = tmp_path / "x.bench"
        path.write_text("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
        assert main(["stats", str(path)]) == 0
        assert "inputs: 1" in capsys.readouterr().out


class TestOptimize:
    def test_optimize_roundtrip(self, demo_path, tmp_path, capsys):
        out_path = str(tmp_path / "opt.blif")
        assert main(["optimize", demo_path, "-o", out_path]) == 0
        optimized = read_blif(out_path)
        assert outputs_equal(parse_blif(DEMO), optimized, cycles=40)
        assert "decomposed" in capsys.readouterr().out

    def test_no_states_flag(self, demo_path, tmp_path):
        out_path = str(tmp_path / "opt2.blif")
        assert main(["optimize", demo_path, "-o", out_path, "--no-states"]) == 0

    def test_all_knobs_reachable(self, demo_path, tmp_path):
        out_path = str(tmp_path / "opt3.blif")
        assert main([
            "optimize", demo_path, "-o", out_path,
            "--dc-source", "induction", "--objective", "min_total",
            "--max-support", "8", "--acceptance-ratio", "1.5",
            "--no-sharing", "--cone-inputs", "10",
        ]) == 0
        assert outputs_equal(parse_blif(DEMO), read_blif(out_path), cycles=40)

    def test_starved_budget_degrades_gracefully(self, demo_path, tmp_path, capsys):
        out_path = str(tmp_path / "opt4.blif")
        assert main([
            "optimize", demo_path, "-o", out_path, "--time-budget", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "degraded: time budget exhausted" in out
        assert outputs_equal(parse_blif(DEMO), read_blif(out_path), cycles=40)

    def test_pipeline_config(self, demo_path, tmp_path, capsys):
        config = tmp_path / "pipe.json"
        config.write_text(
            '{"options": {"use_unreachable_states": false},'
            ' "passes": ["cleanup", "decompose", "finalize",'
            ' "sweep", "strash", "sweep"]}'
        )
        out_path = str(tmp_path / "opt5.blif")
        assert main([
            "optimize", demo_path, "-o", out_path,
            "--pipeline-config", str(config),
        ]) == 0
        assert outputs_equal(parse_blif(DEMO), read_blif(out_path), cycles=40)

    def test_checkpoint_and_resume(self, demo_path, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck.json")
        out_path = str(tmp_path / "opt6.blif")
        assert main([
            "optimize", demo_path, "-o", out_path,
            "--checkpoint", checkpoint,
        ]) == 0
        first = capsys.readouterr().out
        resumed_path = str(tmp_path / "opt7.blif")
        assert main([
            "optimize", demo_path, "-o", resumed_path,
            "--checkpoint", checkpoint, "--resume",
        ]) == 0
        assert outputs_equal(
            read_blif(out_path), read_blif(resumed_path), cycles=40
        )
        assert "wrote" in first

    def test_resume_without_checkpoint_errors(self, demo_path, tmp_path):
        out_path = str(tmp_path / "opt8.blif")
        assert main(["optimize", demo_path, "-o", out_path, "--resume"]) == 1
        assert main([
            "optimize", demo_path, "-o", out_path,
            "--resume", "--checkpoint", str(tmp_path / "missing.json"),
        ]) == 1


class TestOptionDefaults:
    @pytest.mark.parametrize("command", ["optimize", "resynth"])
    def test_flag_defaults_are_the_option_defaults(self, command):
        from repro.cli import _synthesis_options, build_parser
        from repro.synth import SynthesisOptions

        args = build_parser().parse_args([command, "f.blif", "-o", "g.blif"])
        assert _synthesis_options(args) == SynthesisOptions()

    def test_other_commands_share_the_defaults(self):
        from repro.cli import build_parser
        from repro.synth import SynthesisOptions

        parser = build_parser()
        stats = parser.parse_args(["stats", "f.blif"])
        assert stats.max_cone_inputs == SynthesisOptions.max_cone_inputs
        reach = parser.parse_args(["reach", "f.blif"])
        assert reach.partition_size == SynthesisOptions.max_partition_size
        assert reach.time_budget == SynthesisOptions.reach_time_budget
        decompose = parser.parse_args(["decompose", "f.blif", "z"])
        assert decompose.partition_size == SynthesisOptions.max_partition_size


class TestResynth:
    def test_resynth_roundtrip(self, demo_path, tmp_path, capsys):
        out_path = str(tmp_path / "resynth.blif")
        assert main(["resynth", demo_path, "-o", out_path,
                     "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "literal trajectory:" in out and "->" in out
        assert "round(s)" in out
        assert outputs_equal(parse_blif(DEMO), read_blif(out_path), cycles=40)

    def test_resynth_profile_flag(self, demo_path, tmp_path, capsys):
        out_path = str(tmp_path / "resynth2.blif")
        assert main(["resynth", demo_path, "-o", out_path,
                     "--rounds", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "pipeline passes" in out


class TestMap:
    def test_map(self, demo_path, capsys):
        assert main(["map", demo_path]) == 0
        out = capsys.readouterr().out
        assert "area=" in out and "delay=" in out

    def test_map_optimized(self, demo_path, capsys):
        assert main(["map", demo_path, "--optimize", "--mode", "delay"]) == 0


class TestReach:
    def test_reach(self, demo_path, capsys):
        assert main(["reach", demo_path]) == 0
        out = capsys.readouterr().out
        assert "log2(reachable states)" in out


class TestDecompose:
    def test_decompose_signal(self, demo_path, capsys):
        assert main(["decompose", demo_path, "z"]) == 0
        out = capsys.readouterr().out
        assert "without states:" in out and "with states:" in out

    def test_unknown_signal(self, demo_path):
        assert main(["decompose", demo_path, "ghost"]) == 1


class TestCheck:
    def test_equivalent(self, demo_path, tmp_path):
        copy_path = str(tmp_path / "copy.blif")
        save_blif(parse_blif(DEMO), copy_path)
        assert main(["check", demo_path, copy_path]) == 0
        assert main(["check", demo_path, copy_path, "--sat"]) == 0
        assert main(["check", demo_path, copy_path, "--sequential"]) == 0

    def test_not_equivalent(self, demo_path, tmp_path, capsys):
        broken = parse_blif(DEMO)
        from repro.network import Node

        broken.replace_node("z", Node("z", "and", ["q0", "a"]))
        broken_path = str(tmp_path / "broken.blif")
        save_blif(broken, broken_path)
        assert main(["check", demo_path, broken_path]) == 2
        assert "NOT EQUIVALENT" in capsys.readouterr().out


class TestSimulateConvert:
    def test_simulate_vcd(self, demo_path, tmp_path, capsys):
        out = str(tmp_path / "trace.vcd")
        assert main(["simulate", demo_path, "-o", out, "--cycles", "10"]) == 0
        text = (tmp_path / "trace.vcd").read_text()
        assert "$enddefinitions $end" in text and "#10" in text

    def test_convert_to_verilog(self, demo_path, tmp_path):
        out = str(tmp_path / "demo.v")
        assert main(["convert", demo_path, "-o", out]) == 0
        text = (tmp_path / "demo.v").read_text()
        assert text.startswith("module") and "endmodule" in text

    def test_convert_to_bench_roundtrip(self, demo_path, tmp_path):
        from repro.network import read_bench

        out = str(tmp_path / "demo.bench")
        assert main(["convert", demo_path, "-o", out]) == 0
        assert outputs_equal(parse_blif(DEMO), read_bench(out), cycles=30)


class TestTraceHardening:
    def test_missing_trace_is_friendly_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_corrupt_trace_is_friendly_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json at all")
        assert main(["trace", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_corrupt_chrome_trace_is_friendly_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [truncated')
        assert main(["trace", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestGenerate:
    def test_generate_iscas(self, tmp_path, capsys):
        out_path = str(tmp_path / "s344.blif")
        assert main(["generate", "s344", "-o", out_path]) == 0
        net = read_blif(out_path)
        assert len(net.latches) == 15

    def test_generate_unknown(self, tmp_path):
        assert main(["generate", "nope", "-o", str(tmp_path / "x.blif")]) == 1


#: Malformed netlists, each as (BLIF text, .bench text, the 1-based line
#: the diagnostic must name, a fragment of its message).
MALFORMED = {
    "undefined-fanin": (
        ".model t\n.inputs a b\n.outputs z\n.names a c z\n11 1\n.end\n",
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, c)\n",
        4, "undefined fanin 'c' of 'z'",
    ),
    "arity": (
        ".model t\n.inputs a b\n.outputs z\n.names a b z\n1 1\n.end\n",
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOT(a, b)\n",
        4, "",
    ),
    "cycle": (
        ".model t\n.inputs a\n.outputs z\n.names a y x\n11 1\n"
        ".names x y\n0 1\n.names y z\n1 1\n.end\n",
        "INPUT(a)\nOUTPUT(z)\n\nx = AND(a, y)\ny = NOT(x)\nz = BUFF(y)\n",
        4, "combinational cycle through 'x'",
    ),
    "duplicate": (
        ".model t\n.inputs a b\n.outputs z\n.names a z\n1 1\n"
        ".names b z\n1 1\n.end\n",
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n\nz = NOT(a)\nz = BUFF(b)\n",
        6, "signal 'z' already defined",
    ),
}


class TestMalformedInput:
    """A malformed netlist ends the run with one ``path:line`` line on
    stderr and exit code 1: no traceback and no crash bundle, even on an
    instrumented run that would write one for a crash."""

    @pytest.mark.parametrize("suffix", [".blif", ".bench"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_clean_diagnostic(self, case, suffix, tmp_path, monkeypatch, capsys):
        blif, bench, line, fragment = MALFORMED[case]
        path = tmp_path / f"{case}{suffix}"
        path.write_text(blif if suffix == ".blif" else bench)
        monkeypatch.chdir(tmp_path)
        code = main([
            "optimize", str(path), "-o", str(tmp_path / "out.blif"),
            "--stats-json", str(tmp_path / "stats.json"),
            "--trace", str(tmp_path / "run.trace"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        (message,) = captured.err.splitlines()
        assert message.startswith(f"error: {path}:{line}: ")
        assert fragment in message
        assert "Traceback" not in captured.err + captured.out
        assert not list(tmp_path.glob("repro_crash_*"))
        assert not (tmp_path / "out.blif").exists()

    def test_profile_leaves_instrumentation_off(self, tmp_path, capsys):
        from repro import obs

        path = tmp_path / "cycle.blif"
        path.write_text(MALFORMED["cycle"][0])
        assert main(["profile", str(path)]) == 1
        assert f"{path}:4: " in capsys.readouterr().err
        assert not obs.enabled()

    def test_reader_error_is_a_value_error(self):
        from repro.network import NetlistError

        blif = MALFORMED["cycle"][0]
        with pytest.raises(NetlistError, match=r"^<blif>:4: ") as info:
            parse_blif(blif)
        assert isinstance(info.value, ValueError)
