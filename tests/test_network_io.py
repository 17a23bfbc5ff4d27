"""Tests for BLIF and ISCAS89 bench readers/writers."""

import re
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    outputs_equal,
    parse_bench,
    parse_blif,
    write_bench,
    write_blif,
)

SAMPLE_BLIF = """
# a comment
.model sample
.inputs a b c
.outputs z y
.latch nz q 1
.names a b t1
11 1
.names t1 c q nz
1-- 1
-11 1
.names nz z
1 1
.names a c y
00 0
01 0
10 0
.end
"""

SAMPLE_BENCH = """
# sample bench
INPUT(a)
INPUT(b)
OUTPUT(z)
q = DFF(d)
n1 = NAND(a, b)
n2 = NOR(a, q)
n3 = XNOR(n1, n2)
d = AND(n3, b)
z = NOT(d)
"""


class TestBlif:
    def test_parse_interface(self):
        net = parse_blif(SAMPLE_BLIF)
        assert net.inputs == ["a", "b", "c"]
        assert net.outputs == ["z", "y"]
        assert net.latches["q"].data_in == "nz"
        assert net.latches["q"].init is True

    def test_offset_cover(self):
        """A cover with 0 output rows is parsed as a complemented node."""
        net = parse_blif(SAMPLE_BLIF)
        from repro.network import evaluate_combinational

        values = evaluate_combinational(
            net, {"a": 1, "b": 0, "c": 1, "q": 0}, 1
        )
        assert values["y"] == 1  # ~(offset) at a=1,c=1

    def test_roundtrip_equivalent(self):
        net = parse_blif(SAMPLE_BLIF)
        again = parse_blif(write_blif(net))
        assert outputs_equal(net, again, cycles=20)

    def test_continuation_lines(self):
        text = ".model c\n.inputs a \\\nb\n.outputs z\n.names a b z\n11 1\n.end\n"
        net = parse_blif(text)
        assert net.inputs == ["a", "b"]

    def test_constants(self):
        text = ".model k\n.outputs z o\n.names z\n.names o\n1\n.end\n"
        net = parse_blif(text)
        assert net.nodes["z"].op == "const0"
        assert net.nodes["o"].op == "const1"

    def test_unknown_construct_rejected(self):
        with pytest.raises(ValueError):
            parse_blif(".model x\n.gate nand2 a=a\n.end")

    def test_writer_emits_primitives(self):
        from repro.network import Network

        net = Network("w")
        net.add_input("a")
        net.add_input("b")
        net.add_node("x", "xor", ["a", "b"])
        net.add_node("n", "not", ["x"])
        net.add_output("n")
        text = write_blif(net)
        reparsed = parse_blif(text)
        assert outputs_equal(net, reparsed)


class TestBench:
    def test_parse_interface(self):
        net = parse_bench(SAMPLE_BENCH)
        assert net.inputs == ["a", "b"]
        assert net.outputs == ["z"]
        assert "q" in net.latches

    def test_inverted_gates_expanded(self):
        net = parse_bench(SAMPLE_BENCH)
        assert net.nodes["n1"].op == "not"  # NAND = NOT(AND)

    def test_roundtrip_equivalent(self):
        net = parse_bench(SAMPLE_BENCH)
        again = parse_bench(write_bench(net))
        assert outputs_equal(net, again, cycles=20)

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_bench("z = FROB(a)\n")
        with pytest.raises(ValueError):
            parse_bench("this is not bench\n")

    def test_cover_node_rejected_on_write(self):
        net = parse_blif(SAMPLE_BLIF)
        with pytest.raises(ValueError):
            write_bench(net)

    def test_cross_format(self):
        """bench -> blif -> parse keeps behaviour."""
        net = parse_bench(SAMPLE_BENCH)
        blif_text = write_blif(net)
        reparsed = parse_blif(blif_text)
        assert outputs_equal(net, reparsed, cycles=20)


class TestBlifFuzz:
    """Hypothesis-driven roundtrip: random small networks survive
    write/parse with identical behaviour."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_networks_roundtrip(self, seed):
        from repro.benchgen import generate_sequential_circuit

        net = generate_sequential_circuit(
            "fz", num_inputs=3, num_outputs=2, num_latches=4, seed=seed
        )
        again = parse_blif(write_blif(net))
        assert outputs_equal(net, again, cycles=12, seed=seed)


class TestFileIo:
    def test_save_and_read(self, tmp_path):
        from repro.network import read_blif, save_blif, read_bench, save_bench

        net = parse_blif(SAMPLE_BLIF)
        path = tmp_path / "x.blif"
        save_blif(net, path)
        assert outputs_equal(net, read_blif(path))
        bench_net = parse_bench(SAMPLE_BENCH)
        bench_path = tmp_path / "x.bench"
        save_bench(bench_net, bench_path)
        assert outputs_equal(bench_net, read_bench(bench_path))


# ---------------------------------------------------------------------------
# Reader mutation fuzz
# ---------------------------------------------------------------------------

#: Tokens a ``replace`` mutation may write besides the text's own.
GARBAGE_TOKENS = (
    "", "0", "1", "-", "2", "01", "x", "=", "(", ")", ",", "AND", "DFF",
    "FROB", ".names", ".latch", ".end", ".inputs", "\\",
)

TOKEN = re.compile(r"[^\s(),=]+")


@lru_cache(maxsize=None)
def written_text(fmt, seed):
    """``small_circuit(seed)`` as BLIF or ``.bench`` writer output."""
    from repro.network import expand_covers
    from strategies import small_circuit

    net = small_circuit(seed, latches=4)
    if fmt == "blif":
        return write_blif(net)
    expand_covers(net)
    return write_bench(net)


@st.composite
def mutants(draw):
    """Writer output with one to three line-level mutations: delete,
    duplicate, swap or truncate a line, or replace one token."""
    fmt = draw(st.sampled_from(["blif", "bench"]))
    text = written_text(fmt, draw(st.integers(0, 5)))
    lines = text.splitlines()
    vocabulary = sorted(set(TOKEN.findall(text))) + list(GARBAGE_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "truncate", "replace"]
        ))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            spans = [m.span() for m in TOKEN.finditer(lines[i])]
            if spans:
                start, end = draw(st.sampled_from(spans))
                token = draw(st.sampled_from(vocabulary))
                lines[i] = lines[i][:start] + token + lines[i][end:]
    return fmt, "\n".join(lines) + "\n"


class TestReaderMutationFuzz:
    """A mutated netlist either fails with ``NetlistError`` or parses to
    a network whose BLIF re-reads to the same netlist — never another
    exception, never a network the writer and reader disagree on."""

    @settings(max_examples=300, deadline=None)
    @given(mutants())
    def test_mutant_fails_cleanly_or_round_trips(self, mutant):
        from repro.network import NetlistError

        fmt, text = mutant
        parse = parse_blif if fmt == "blif" else parse_bench
        try:
            net = parse(text)
        except NetlistError:
            return
        blif = write_blif(net)
        assert write_blif(parse_blif(blif)) == blif
