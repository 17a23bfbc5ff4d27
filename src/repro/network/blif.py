"""BLIF reader and writer.

Supports the subset of Berkeley BLIF used by synthesis benchmarks:
``.model/.inputs/.outputs/.latch/.names/.end``, line continuations, on-set
and off-set single-output covers, and latch init values.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from repro.logic.sop import Cover, Cube
from repro.network.netlist import Network, NetlistError, check_read


def _logical_lines(text: str) -> Iterator[tuple[int, str]]:
    """Strip comments, join ``\\`` continuations, drop blanks; yields
    ``(line number, text)`` with the number of a joined line's first
    physical line."""
    pending = ""
    start = 0
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        if not pending:
            start = number
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        yield start, (pending + line).strip()
        pending = ""
    if pending.strip():
        yield start, pending.strip()


def parse_blif(text: str, where: str = "<blif>") -> Network:
    """Parse BLIF text into a :class:`Network`.

    A malformed netlist raises :class:`~repro.network.netlist.NetlistError`
    whose message starts with ``where:line``."""
    network = Network()
    lines = list(_logical_lines(text))
    defined_at: dict[str, int] = {}
    output_lines: dict[str, int] = {}
    index = 0
    while index < len(lines):
        number, line = lines[index]
        index += 1
        tokens = line.split()
        keyword = tokens[0]
        known = len(network.nodes)
        try:
            if keyword == ".model":
                network.name = tokens[1] if len(tokens) > 1 else "top"
            elif keyword == ".inputs":
                for name in tokens[1:]:
                    network.add_input(name)
                    defined_at[name] = number
            elif keyword == ".outputs":
                for name in tokens[1:]:
                    network.add_output(name)
                    output_lines.setdefault(name, number)
            elif keyword == ".latch":
                data_in, output = tokens[1], tokens[2]
                init = False
                if tokens[3:]:
                    last = tokens[-1]
                    if last in ("0", "1", "2", "3"):
                        init = last == "1"
                network.add_latch(output, data_in, init)
                defined_at[output] = number
            elif keyword == ".names":
                signals = tokens[1:]
                output = signals[-1]
                fanins = signals[:-1]
                rows: list[tuple[str, str]] = []
                while index < len(lines) and not lines[index][1].startswith("."):
                    row = lines[index][1].split()
                    index += 1
                    if len(fanins) == 0:
                        rows.append(("", row[0]))
                    else:
                        rows.append((row[0], row[1]))
                _add_names_node(network, output, fanins, rows)
            elif keyword == ".end":
                break
            else:
                raise ValueError(f"unsupported BLIF construct: {keyword}")
        except (ValueError, IndexError) as exc:
            reason = exc if isinstance(exc, ValueError) else f"malformed {keyword}"
            raise NetlistError(f"{where}:{number}: {reason}") from None
        # Gates this line added (a cover's off-set shadow included).
        for name in islice(reversed(network.nodes), len(network.nodes) - known):
            defined_at[name] = number
    check_read(network, where, defined_at, output_lines)
    return network


def _add_names_node(
    network: Network,
    output: str,
    fanins: list[str],
    rows: list[tuple[str, str]],
) -> None:
    if not fanins:
        # Constant: a single "1" row is const1, no rows is const0.
        value = any(out_value == "1" for _, out_value in rows)
        network.add_node(output, "const1" if value else "const0")
        return
    out_values = {out_value for _, out_value in rows}
    if not rows:
        network.add_node(output, "const0")
        return
    if len(out_values) > 1:
        raise ValueError(f"mixed on/off-set cover for {output!r}")
    cubes = []
    for pattern, _ in rows:
        if len(pattern) != len(fanins):
            raise ValueError(f"cube arity mismatch in {output!r}")
        literals = {
            position: char == "1"
            for position, char in enumerate(pattern)
            if char != "-"
        }
        cubes.append(Cube.from_dict(literals))
    cover = Cover(cubes)
    if out_values == {"1"}:
        network.add_node(output, "cover", fanins, cover)
    else:
        # Off-set cover: output = NOT(OR of cubes).
        shadow = network.fresh_name(f"{output}_off")
        network.add_node(shadow, "cover", fanins, cover)
        network.add_node(output, "not", [shadow])


def read_blif(path: str | Path) -> Network:
    """Read a BLIF file from disk."""
    return parse_blif(Path(path).read_text(), str(path))


def _cover_rows(cover: Cover, arity: int) -> Iterator[str]:
    for cube in cover:
        literals = cube.as_dict()
        pattern = "".join(
            "1" if literals.get(i) is True else "0" if literals.get(i) is False else "-"
            for i in range(arity)
        )
        yield f"{pattern} 1"


def _node_lines(network: Network, name: str) -> Iterator[str]:
    node = network.nodes[name]
    arity = len(node.fanins)
    header = ".names " + " ".join(node.fanins + [name])
    if node.op == "cover":
        assert node.cover is not None
        yield header
        yield from _cover_rows(node.cover, arity)
    elif node.op == "and":
        yield header
        yield "1" * arity + " 1"
    elif node.op == "or":
        yield header
        for i in range(arity):
            yield "-" * i + "1" + "-" * (arity - i - 1) + " 1"
    elif node.op == "xor":
        yield header
        for minterm in range(1 << arity):
            if bin(minterm).count("1") % 2 == 1:
                yield (
                    "".join("1" if (minterm >> i) & 1 else "0" for i in range(arity))
                    + " 1"
                )
    elif node.op == "not":
        yield header
        yield "0 1"
    elif node.op == "buf":
        yield header
        yield "1 1"
    elif node.op == "const1":
        yield f".names {name}"
        yield "1"
    else:  # const0
        yield f".names {name}"


def write_blif(network: Network) -> str:
    """Serialise a network as BLIF text."""
    lines = [f".model {network.name}"]
    if network.inputs:
        lines.append(".inputs " + " ".join(network.inputs))
    if network.outputs:
        lines.append(".outputs " + " ".join(network.outputs))
    for latch in network.latches.values():
        lines.append(
            f".latch {latch.data_in} {latch.name} {1 if latch.init else 0}"
        )
    for name in network.topological_order():
        lines.extend(_node_lines(network, name))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def save_blif(network: Network, path: str | Path) -> None:
    """Write a network to a BLIF file."""
    Path(path).write_text(write_blif(network))
