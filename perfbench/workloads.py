"""Workload table and seeded input generation for the whole-flow benchmark.

Each workload is a batch of sequential circuits run closed loop, one
circuit after another in one process, through the same
``read_blif -> algorithm1 -> save_blif`` flow ``repro optimize`` uses.
Circuits come from the repo's own generators (``repro.benchgen``).
Seed 0 reproduces the spec seeds of ``MACRO_SPECS`` / ``ISCAS_SPECS``;
any other seed offsets every generator seed, so each seed is a new draw
of circuits with the same interface statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Generator-seed stride between instances.  Spec seeds lie in 4..9234,
#: so offsets of this size never land on another spec's seed.
SEED_STRIDE = 10007


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"macro"`` (Table 3.2 analogs) or ``"iscas"`` (Table 3.1 analogs).
    family: str
    circuits: tuple[str, ...]
    #: Interface scale of macro circuits (as ``industrial_analog``).
    scale: float = 1.0
    #: Seeded instances of every circuit per run.  More instances average
    #: out how much one random draw changes the work.
    instances: int = 1
    workers: int = 0
    backend: str = "bdd"


MACRO_SET = ("seq4", "seq5", "seq6", "seq7", "seq8", "seq9")
ISCAS_SET = ("s344", "s526", "s713", "s838", "s953", "s1269", "s5378", "s9234")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "macro",
            "Table 3.2 analogs at 0.5 scale, serial bdd: whole-netlist walks "
            "in network and reach dominate, so the quadratic-walk fix shows here",
            "macro",
            MACRO_SET,
            scale=0.5,
        ),
        Workload(
            "iscas",
            "Table 3.1 analogs, serial bdd: small netlists where bidec/bdd work "
            "dominates, so a walk fix barely moves it and kernel work does",
            "iscas",
            ISCAS_SET,
            instances=2,
        ),
        Workload(
            "macro-w2",
            "the macro circuits through the process pool at 2 workers: exposes "
            "the parent's serial share, which the serial macro run bypasses",
            "macro",
            MACRO_SET,
            scale=0.5,
            workers=2,
        ),
        Workload(
            "iscas-sat",
            "the iscas circuits under the sat-cegar backend: the only workload "
            "whose bidec layer runs through repro.sat",
            "iscas",
            ISCAS_SET,
            instances=2,
            backend="sat-cegar",
        ),
    ]
}


def instance_seed(spec_seed: int, seed: int, instance: int, instances: int) -> int:
    """Generator seed of one circuit instance; ``(0, 0)`` is the spec seed."""
    return spec_seed + SEED_STRIDE * (seed * instances + instance)


def circuit_names(workload: Workload) -> list[str]:
    """File stems of the workload's circuits, in run order."""
    if workload.instances == 1:
        return list(workload.circuits)
    return [
        f"{name}_{index}"
        for index in range(workload.instances)
        for name in workload.circuits
    ]


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Generate the workload's circuits for ``seed`` and write them as BLIF."""
    from repro.benchgen import (
        ISCAS_SPECS,
        MACRO_SPECS,
        generate_macro_block,
        generate_sequential_circuit,
    )
    from repro.network import save_blif

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    names = iter(circuit_names(workload))
    for index in range(workload.instances):
        for name in workload.circuits:
            if workload.family == "macro":
                spec = MACRO_SPECS[name]
                scale = workload.scale
                network = generate_macro_block(
                    spec.name,
                    max(4, round(spec.inputs * scale)),
                    max(2, round(spec.outputs * scale)),
                    max(6, round(spec.latches * scale)),
                    seed=instance_seed(spec.seed, seed, index, workload.instances),
                )
            else:
                spec = ISCAS_SPECS[name]
                network = generate_sequential_circuit(
                    spec.name,
                    spec.inputs,
                    spec.outputs,
                    spec.latches,
                    counter_fraction=spec.counter_fraction,
                    seed=instance_seed(spec.seed, seed, index, workload.instances),
                    max_block=spec.max_block,
                )
            path = directory / f"{next(names)}.blif"
            save_blif(network, path)
            paths.append(path)
    return paths
