"""ISCAS89 ``.bench`` reader and writer.

The format of the s-series sequential benchmarks: ``INPUT(a)``,
``OUTPUT(z)`` and ``g = OP(f1, f2, ...)`` lines with operators AND, OR,
NAND, NOR, XOR, XNOR, NOT, BUFF and DFF.  Inverted gates are expanded
into a primitive plus a NOT node on read and re-fused on write when
possible.
"""

from __future__ import annotations

import re
from itertools import islice
from pathlib import Path
from typing import Iterator

from repro.network.netlist import Network, NetlistError, check_read

_GATE_RE = re.compile(r"^\s*([\w.\[\]$]+)\s*=\s*(\w+)\s*\(([^)]*)\)\s*$")
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([\w.\[\]$]+)\s*\)\s*$")


def parse_bench(text: str, where: str = "<bench>") -> Network:
    """Parse ``.bench`` text into a :class:`Network`.

    A malformed netlist raises :class:`~repro.network.netlist.NetlistError`
    whose message starts with ``where:line``."""
    network = Network()
    gate_lines: list[tuple[int, str, str, list[str]]] = []
    defined_at: dict[str, int] = {}
    output_lines: dict[str, int] = {}

    def fail(number: int, reason: object) -> NetlistError:
        return NetlistError(f"{where}:{number}: {reason}")

    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            kind, name = io_match.groups()
            if kind == "INPUT":
                try:
                    network.add_input(name)
                except ValueError as exc:
                    raise fail(number, exc) from None
                defined_at[name] = number
            else:
                network.add_output(name)
                output_lines.setdefault(name, number)
            continue
        gate_match = _GATE_RE.match(line)
        if not gate_match:
            raise fail(number, f"unparseable bench line: {raw!r}")
        name, op, operand_text = gate_match.groups()
        operands = [token.strip() for token in operand_text.split(",") if token.strip()]
        gate_lines.append((number, name, op.upper(), operands))
    # Latches first so node fanins referencing latch outputs resolve.
    for number, name, op, operands in gate_lines:
        if op == "DFF":
            if len(operands) != 1:
                raise fail(number, f"DFF {name!r} takes exactly one input")
            try:
                network.add_latch(name, operands[0], init=False)
            except ValueError as exc:
                raise fail(number, exc) from None
            defined_at[name] = number
    for number, name, op, operands in gate_lines:
        if op == "DFF":
            continue
        known = len(network.nodes)
        try:
            _add_gate(network, name, op, operands)
        except ValueError as exc:
            raise fail(number, exc) from None
        # Gates this line added (an inverted gate's inner node included).
        for added in islice(reversed(network.nodes), len(network.nodes) - known):
            defined_at[added] = number
    check_read(network, where, defined_at, output_lines)
    return network


def _add_gate(network: Network, name: str, op: str, operands: list[str]) -> None:
    if op in ("AND", "OR", "XOR"):
        network.add_node(name, op.lower(), operands)
    elif op in ("NAND", "NOR", "XNOR"):
        inner = network.fresh_name(f"{name}_pos")
        network.add_node(inner, op[1:].lower() if op != "XNOR" else "xor", operands)
        network.add_node(name, "not", [inner])
    elif op == "NOT":
        network.add_node(name, "not", operands)
    elif op in ("BUFF", "BUF"):
        network.add_node(name, "buf", operands)
    elif op == "CONST0":
        network.add_node(name, "const0")
    elif op == "CONST1":
        network.add_node(name, "const1")
    else:
        raise ValueError(f"unknown bench gate type {op!r}")


def read_bench(path: str | Path) -> Network:
    """Read a ``.bench`` file from disk."""
    return parse_bench(Path(path).read_text(), str(path))


def _gate_line(network: Network, name: str) -> Iterator[str]:
    node = network.nodes[name]
    operands = ", ".join(node.fanins)
    if node.op in ("and", "or", "xor"):
        yield f"{name} = {node.op.upper()}({operands})"
    elif node.op == "not":
        yield f"{name} = NOT({operands})"
    elif node.op == "buf":
        yield f"{name} = BUFF({operands})"
    elif node.op in ("const0", "const1"):
        yield f"{name} = {node.op.upper()}()"
    else:  # cover — not expressible; expand via BLIF instead.
        raise ValueError(
            f"cover node {name!r} cannot be written to .bench; "
            "expand covers first (see network.transform.expand_covers)"
        )


def write_bench(network: Network) -> str:
    """Serialise a network as ``.bench`` text."""
    lines = [f"# {network.name}"]
    for name in network.inputs:
        lines.append(f"INPUT({name})")
    for name in network.outputs:
        lines.append(f"OUTPUT({name})")
    for latch in network.latches.values():
        lines.append(f"{latch.name} = DFF({latch.data_in})")
    for name in network.topological_order():
        lines.extend(_gate_line(network, name))
    return "\n".join(lines) + "\n"


def save_bench(network: Network, path: str | Path) -> None:
    """Write a network to a ``.bench`` file."""
    Path(path).write_text(write_bench(network))
