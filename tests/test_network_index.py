"""The cached topological order of :class:`~repro.network.netlist.Network`.

The order and its position index are built on first use and dropped by
every edit made through ``Network`` methods.  These tests check that no
edit leaves a stale order behind, that malformed edits still fail, and
that a whole Algorithm 1 run sorts a netlist only a constant number of
times, however many cones it collapses.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.benchgen.iscas import iscas_analog
from repro.engine.checkpoint import network_from_dict, network_to_dict
from repro.network.netlist import Network, Node
from repro.network.transform import (
    cleanup_latches,
    expand_to_two_input,
    strash,
    sweep,
)
from repro.synth import algorithm1

from strategies import circuits, small_circuit


def _warm(net: Network) -> None:
    """Build both the cached order and the position index."""
    net.in_topological_order(net.topological_order()[:1])


def _earlier_signals(net: Network, name: str) -> list[str]:
    """Signals ``name`` may read without closing a cycle."""
    order = net.topological_order()
    return net.combinational_sources() + order[: order.index(name)]


def _add_node(net: Network, rng: random.Random) -> Network:
    signals = net.combinational_sources() + list(net.nodes)
    fanins = rng.sample(signals, min(len(signals), rng.randint(1, 3)))
    net.add_node(net.fresh_name("e"), rng.choice(["and", "or", "xor"]), fanins)
    return net


def _replace_node(net: Network, rng: random.Random) -> Network:
    target = rng.choice(list(net.nodes))
    allowed = _earlier_signals(net, target)
    fanins = rng.sample(allowed, min(len(allowed), rng.randint(1, 3)))
    net.replace_node(target, Node(target, rng.choice(["and", "or"]), fanins))
    return net


def _set_fanins(net: Network, rng: random.Random) -> Network:
    variadic = [n for n, node in net.nodes.items() if node.op in ("and", "or", "xor")]
    if variadic:
        target = rng.choice(variadic)
        allowed = _earlier_signals(net, target)
        net.set_fanins(target, rng.sample(allowed, min(len(allowed), 2)))
    return net


def _remove_node(net: Network, rng: random.Random) -> Network:
    fanouts = net.fanout_map()
    unread = [name for name in net.nodes if name not in fanouts]
    if unread:
        net.remove_node(rng.choice(unread))
    return net


def _checkpoint_round_trip(net: Network, rng: random.Random) -> Network:
    restored = network_from_dict(network_to_dict(net))
    assert restored.topological_order() == net.topological_order()
    return restored


def _whole(transform):
    def edit(net: Network, rng: random.Random) -> Network:
        transform(net)
        return net

    return edit


#: Edit name -> ``edit(net, rng)`` returning the edited network.
EDITS = {
    "add_node": _add_node,
    "replace_node": _replace_node,
    "set_fanins": _set_fanins,
    "remove_node": _remove_node,
    "prune_dangling": _whole(Network.prune_dangling),
    "sweep": _whole(sweep),
    "strash": _whole(strash),
    "cleanup_latches": _whole(cleanup_latches),
    "expand_to_two_input": _whole(expand_to_two_input),
    "checkpoint": _checkpoint_round_trip,
}


class TestStaleCache:
    @given(
        circuits(min_latches=2, max_latches=5),
        st.lists(
            st.tuples(st.sampled_from(sorted(EDITS)), st.integers(0, 2**16)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_cached_order_matches_a_cold_sort_after_every_edit(self, net, edits):
        for kind, seed in edits:
            _warm(net)
            net = EDITS[kind](net, random.Random(seed))
            cold = net.copy().topological_order()
            assert net.topological_order() == cold, kind
            cone = net.transitive_fanin(net.combinational_sinks()[:1])
            assert net.in_topological_order(cone) == [n for n in cold if n in cone]

    @pytest.mark.parametrize("kind", sorted(EDITS))
    def test_each_edit_after_adding_a_dangling_node(self, kind):
        net = small_circuit(seed=5)
        for step, seed in (("add_node", 1), (kind, 2)):
            _warm(net)
            net = EDITS[step](net, random.Random(seed))
            assert net.topological_order() == net.copy().topological_order(), step

    def test_cone_order_is_the_whole_order_restricted_to_the_cone(self):
        net = iscas_analog("s344")
        order = net.topological_order()
        for sink in net.combinational_sinks():
            cone = net.transitive_fanin([sink])
            assert net.in_topological_order(cone) == [n for n in order if n in cone]

    def test_returned_order_is_a_copy(self):
        net = iscas_analog("s344")
        net.topological_order().clear()
        assert net.topological_order() == net.copy().topological_order()


def _chain() -> Network:
    net = Network("chain")
    net.add_input("a")
    net.add_latch("q", "n2")
    net.add_node("n1", "and", ["a", "q"])
    net.add_node("n2", "not", ["n1"])
    net.add_output("n2")
    return net


class TestErrorPaths:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda net: net.set_fanins("n1", ["a", "n2"]),
            lambda net: net.replace_node("n1", Node("n1", "buf", ["n2"])),
        ],
        ids=["set_fanins", "replace_node"],
    )
    def test_cycle_is_reported_after_warm_cache(self, edit):
        net = _chain()
        _warm(net)
        edit(net)
        with pytest.raises(ValueError, match="combinational cycle"):
            net.topological_order()
        with pytest.raises(ValueError, match="combinational cycle"):
            net.in_topological_order(["n1"])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda net: net.add_node("n3", "or", ["n2", "ghost"]),
            lambda net: net.set_fanins("n1", ["a", "ghost"]),
            lambda net: net.remove_node("n1"),
            lambda net: net.remove_latch("q"),
        ],
        ids=["add_node", "set_fanins", "remove_node", "remove_latch"],
    )
    def test_undefined_fanin_is_reported_after_warm_cache(self, edit):
        net = _chain()
        _warm(net)
        edit(net)
        with pytest.raises(ValueError, match="undefined fanin"):
            net.topological_order()


#: Full sorts one Algorithm 1 run may make: the cleaned source once, then
#: the rebuilt network once per sweep round and once for strash (5 today).
SORT_BUDGET = 6


class TestWalkCount:
    def test_algorithm1_sorts_a_constant_number_of_times(self, monkeypatch):
        cold_sort = Network._sort
        sorts = [0]

        def counted(self):
            sorts[0] += 1
            return cold_sort(self)

        monkeypatch.setattr(Network, "_sort", counted)
        counts = {}
        for name in ("s344", "s5378"):  # 26 and 212 sinks
            sorts[0] = 0
            algorithm1(iscas_analog(name))
            counts[name] = sorts[0]
        assert max(counts.values()) <= SORT_BUDGET, counts
