"""Sequential logic networks: netlist data structure, BLIF/ISCAS89 I/O,
bit-parallel simulation, BDD collapsing and structural transformations."""

from repro.network.netlist import (
    Network,
    Node,
    Latch,
    NetlistError,
    NODE_OPS,
    VARIADIC_OPS,
)
from repro.network.blif import parse_blif, read_blif, write_blif, save_blif
from repro.network.bench import parse_bench, read_bench, write_bench, save_bench
from repro.network.simulate import (
    evaluate_combinational,
    simulate_sequence,
    random_simulation,
    outputs_equal,
)
from repro.network.bdd_build import ConeCollapser
from repro.network.check import (
    CheckResult,
    combinational_equivalent_bdd,
    combinational_equivalent_sat,
    sequential_equivalent_reachable,
)
from repro.network.odc import observability_dont_cares, signal_interval_with_odc
from repro.network.aig import Aig, from_network as network_to_aig, to_network as aig_to_network, balance as aig_balance
from repro.network.verilog import write_verilog, save_verilog
from repro.network.vcd import trace_to_vcd, save_vcd
from repro.network.transform import (
    cleanup_latches,
    remove_dead_latches,
    remove_constant_latches,
    merge_cloned_latches,
    expand_covers,
    expand_to_two_input,
    strash,
    sweep,
    instantiate_dectree,
    replace_signal_definition,
)

__all__ = [
    "Network",
    "Node",
    "Latch",
    "NetlistError",
    "NODE_OPS",
    "VARIADIC_OPS",
    "parse_blif",
    "read_blif",
    "write_blif",
    "save_blif",
    "parse_bench",
    "read_bench",
    "write_bench",
    "save_bench",
    "evaluate_combinational",
    "simulate_sequence",
    "random_simulation",
    "outputs_equal",
    "ConeCollapser",
    "CheckResult",
    "combinational_equivalent_bdd",
    "combinational_equivalent_sat",
    "sequential_equivalent_reachable",
    "observability_dont_cares",
    "signal_interval_with_odc",
    "Aig",
    "network_to_aig",
    "aig_to_network",
    "aig_balance",
    "write_verilog",
    "save_verilog",
    "trace_to_vcd",
    "save_vcd",
    "cleanup_latches",
    "remove_dead_latches",
    "remove_constant_latches",
    "merge_cloned_latches",
    "expand_covers",
    "expand_to_two_input",
    "strash",
    "sweep",
    "instantiate_dectree",
    "replace_signal_definition",
]
