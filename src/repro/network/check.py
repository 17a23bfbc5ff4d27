"""Equivalence checking of networks.

Two engines over the same miter formulation:

* BDD-based combinational equivalence (collapse both cones, compare
  canonical nodes) — exact, fast on collapsible logic;
* SAT-based combinational equivalence (Tseitin-encode both cones, assert
  the XOR of the outputs, decide) — robust when BDDs blow up.

Sequential equivalence is handled in the restricted form the paper's
flow needs: the optimised network may differ from the original only in
unreachable states, so a *combinational* check of all outputs and
next-state functions constrained to a reachable over-approximation
certifies the transformation (the conservative sequential-synthesis
correctness argument of Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.bdd.manager import BDDManager, FALSE
from repro.network.bdd_build import ConeCollapser
from repro.network.netlist import NetlistError, Network
from repro.sat.cnf import CnfBuilder, encode_cone
from repro.sat.solver import Solver


@dataclass
class CheckResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    #: Signal on which the first difference was found (None if equal).
    failing_signal: Optional[str] = None
    #: A distinguishing input assignment for the failing signal.
    counterexample: Optional[dict[str, bool]] = None


class InterfaceMismatch(NetlistError):
    """Two networks that cannot be compared signal by signal: their
    inputs, outputs or latches differ.  The message names the signals
    found on only one side (``left`` is the first network)."""


def _mismatch(kind: str, left: list[str], right: list[str]) -> InterfaceMismatch:
    sides = [
        f"only in {side}: {', '.join(sorted(names))}"
        for side, names in (
            ("left", set(left) - set(right)), ("right", set(right) - set(left))
        )
        if names
    ]
    return InterfaceMismatch(
        f"{kind} differ ({'; '.join(sides) or 'same names, other order'})"
    )


def _matched_interfaces(left: Network, right: Network) -> list[str]:
    if left.inputs != right.inputs:
        raise _mismatch("primary inputs", left.inputs, right.inputs)
    if left.outputs != right.outputs:
        raise _mismatch("primary outputs", left.outputs, right.outputs)
    if set(left.latches) != set(right.latches):
        raise _mismatch("latch sets", list(left.latches), list(right.latches))
    for name in left.latches:
        if left.latches[name].init != right.latches[name].init:
            raise InterfaceMismatch(f"latch {name!r} init values differ")
    # Signals to compare: outputs and next-state functions, keyed by the
    # latch name for the latter.
    return list(left.outputs) + list(left.latches)


def combinational_equivalent_bdd(
    left: Network,
    right: Network,
    care_set: Optional[int] = None,
    care_manager: Optional[BDDManager] = None,
    care_vars: Optional[Mapping[str, int]] = None,
) -> CheckResult:
    """BDD equivalence of every output and next-state function.

    With ``care_set`` (a BDD over latch variables of ``care_manager``,
    mapped by ``care_vars``), functions need only agree on the care
    states — the check the synthesis flow uses with the reachable
    over-approximation as care set.
    """
    signals = _matched_interfaces(left, right)
    manager = BDDManager()
    left_collapser = ConeCollapser(left, manager)
    # Share source variables by name between the two collapsers.
    for name in left.combinational_sources():
        left_collapser.source_var(name)
    right_collapser = ConeCollapser(right, manager)
    right_collapser._var_of = dict(left_collapser.var_of)  # shared sources

    care = None
    if care_set is not None:
        if care_manager is None or care_vars is None:
            raise ValueError("care_set needs its manager and variable map")
        from repro.bdd.compose import transfer

        mapping = {
            var: left_collapser.source_var(name)
            for name, var in care_vars.items()
        }
        care = transfer(care_manager, care_set, manager, mapping)

    for signal in signals:
        left_sink = left.latches[signal].data_in if signal in left.latches else signal
        right_sink = (
            right.latches[signal].data_in if signal in right.latches else signal
        )
        f = left_collapser.node_function(left_sink)
        g = right_collapser.node_function(right_sink)
        difference = manager.apply_xor(f, g)
        if care is not None:
            difference = manager.apply_and(difference, care)
        if difference != FALSE:
            from repro.bdd.count import pick_one

            model = pick_one(manager, difference)
            assert model is not None
            names = {var: name for name, var in left_collapser.var_of.items()}
            counterexample = {
                names[var]: value for var, value in model.items() if var in names
            }
            return CheckResult(False, signal, counterexample)
    return CheckResult(True)


def combinational_equivalent_sat(left: Network, right: Network) -> CheckResult:
    """SAT miter equivalence of every output and next-state function."""
    signals = _matched_interfaces(left, right)
    builder = CnfBuilder()
    sources = {
        name: builder.new_var() for name in left.combinational_sources()
    }
    left_literals: dict[str, int] = {}
    right_literals: dict[str, int] = {}
    for signal in signals:
        left_sink = left.latches[signal].data_in if signal in left.latches else signal
        right_sink = (
            right.latches[signal].data_in if signal in right.latches else signal
        )
        left_literals[signal] = encode_cone(left, left_sink, sources, builder)
        right_literals[signal] = encode_cone(right, right_sink, sources, builder)
    solver = builder.to_solver()
    for signal in signals:
        miter = CnfBuilder()
        miter.num_vars = solver.num_vars
        xor_out = miter.new_var()
        miter.add_xor2(xor_out, left_literals[signal], right_literals[signal])
        solver.add_clauses(miter.clauses)
        solver.num_vars = miter.num_vars
        if solver.solve([xor_out]):
            model = solver.model()
            counterexample = {
                name: model[literal] for name, literal in sources.items()
            }
            return CheckResult(False, signal, counterexample)
    return CheckResult(True)


def sequential_equivalent_reachable(
    left: Network,
    right: Network,
    max_partition_size: int = 24,
) -> CheckResult:
    """The conservative sequential check of the paper's setting: outputs
    and next-state functions must agree on (an over-approximation of) the
    reachable states of the *original* design ``left``.

    Sound for certifying Algorithm 1's output: if the check passes, no
    reachable behaviour changed (the over-approximate care set can only
    make the check stricter).
    """
    from repro.reach.dontcare import DontCareManager

    _matched_interfaces(left, right)  # fail before the reachability run
    dcm = DontCareManager(left, max_partition_size=max_partition_size)
    care_manager = BDDManager()
    care_vars = {name: care_manager.new_var(name) for name in left.latches}
    unreachable = dcm.unreachable_for(
        set(left.latches), care_manager, care_vars
    )
    care = care_manager.negate(unreachable)
    return combinational_equivalent_bdd(
        left, right, care_set=care, care_manager=care_manager, care_vars=care_vars
    )
