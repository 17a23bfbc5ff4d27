"""Tests for the symbolic (implicit) partition enumeration — the paper's
core construction (Section 3.4)."""

import math

from repro.bdd import BDDManager
from repro.bidec.checks import or_decomposable, xor_decomposable_cs
from repro.bidec.symbolic import (
    and_partition_space,
    or_partition_space,
    prune_dominated_pairs,
    xor_partition_space,
)
from repro.intervals import Interval

from conftest import random_bdd


def enumerate_or_feasible(interval, variables):
    """Oracle: all (support1, support2) pairs feasible per check (3.2)."""
    n = len(variables)
    feasible = set()
    for mask1 in range(1 << n):
        for mask2 in range(1 << n):
            support1 = {variables[i] for i in range(n) if (mask1 >> i) & 1}
            support2 = {variables[i] for i in range(n) if (mask2 >> i) & 1}
            xbar1 = set(variables) - support1
            xbar2 = set(variables) - support2
            if or_decomposable(interval, xbar1, xbar2):
                feasible.add((frozenset(support1), frozenset(support2)))
    return feasible


class TestOrSpace:
    def test_bi_matches_per_partition_checks(self, rng):
        """Bi(c1,c2) agrees with the explicit check (3.2) on EVERY
        assignment — the core claim of the symbolic formulation."""
        from repro.bdd.count import iter_models

        m = BDDManager(3)
        for _ in range(6):
            f, _ = random_bdd(m, 3, rng)
            dc, _ = random_bdd(m, 3, rng)
            interval = Interval.with_dont_cares(m, f, dc)
            if not interval.is_consistent():
                continue
            space = or_partition_space(interval)
            oracle = enumerate_or_feasible(interval, list(space.variables))
            got = set()
            all_c = list(space.c1_vars) + list(space.c2_vars)
            for model in iter_models(space.manager, space.bi, all_c):
                support1 = frozenset(
                    orig
                    for orig, c in zip(space.variables, space.c1_vars)
                    if model[c]
                )
                support2 = frozenset(
                    orig
                    for orig, c in zip(space.variables, space.c2_vars)
                    if model[c]
                )
                got.add((support1, support2))
            assert got == oracle

    def test_monotone_in_supports(self, rng):
        """If (S1,S2) is feasible then any supersets are feasible —
        consequence of (3.2); sanity on the Bi structure."""
        m = BDDManager(3)
        f, _ = random_bdd(m, 3, rng)
        interval = Interval.exact(m, f)
        space = or_partition_space(interval)
        pair = space.pick_partition()
        if pair is None:
            return
        s1, s2 = pair
        grown = s1 | {space.variables[0]}
        xbar1 = set(space.variables) - grown
        xbar2 = set(space.variables) - s2
        assert or_decomposable(interval, xbar1, xbar2)

    def test_and_space_duality(self, rng):
        m = BDDManager(3)
        f, _ = random_bdd(m, 3, rng)
        interval = Interval.exact(m, f)
        or_space = or_partition_space(interval.complement())
        and_space = and_partition_space(interval)
        assert and_space.gate == "and"
        assert and_space.bi_size == or_space.bi_size

    def test_bi_size_walked_on_first_read_only(self, monkeypatch):
        from repro.bdd import count

        m = BDDManager(3)
        f = m.apply_or(m.var(0), m.apply_and(m.var(1), m.var(2)))
        walks = []
        real = count.dag_size
        monkeypatch.setattr(
            count, "dag_size", lambda *a: walks.append(a) or real(*a)
        )
        space = or_partition_space(Interval.exact(m, f))
        assert walks == []
        size = space.bi_size
        assert size == real(space.manager, space.bi)
        assert space.bi_size == size
        assert len(walks) == 1

    def test_nontrivial_excludes_full_support(self):
        m = BDDManager(2)
        f = m.apply_and(m.var(0), m.var(1))  # not OR-decomposable
        space = or_partition_space(Interval.exact(m, f))
        assert space.is_feasible()  # trivial solutions exist (g1 = f)
        assert not space.nontrivial().is_feasible()


class TestSizeAnalysis:
    def test_mux_table_row_width2(self):
        """The Section 3.4.1 table, width-2 row: best partition (4,4)
        with 6 choices."""
        from repro.benchgen import multiplexer_function

        m = BDDManager()
        f, ctrl, data = multiplexer_function(m, 2)
        space = or_partition_space(Interval.exact(m, f)).nontrivial()
        assert space.best_balanced_pair() == (4, 4)
        assert space.count_choices(4, 4) == 6

    def test_mux_table_row_width3(self):
        """Width-3 row: best partition (7,7) with 70 = C(8,4) choices."""
        from repro.benchgen import multiplexer_function

        m = BDDManager()
        f, ctrl, data = multiplexer_function(m, 3)
        space = or_partition_space(Interval.exact(m, f)).nontrivial()
        assert space.best_balanced_pair() == (7, 7)
        assert space.count_choices(7, 7) == math.comb(8, 4)

    def test_size_pairs_contain_best(self, rng):
        m = BDDManager(4)
        f, _ = random_bdd(m, 4, rng)
        space = or_partition_space(Interval.exact(m, f)).nontrivial()
        pairs = space.size_pairs()
        best = space.best_balanced_pair()
        if best is not None:
            assert best in pairs

    def test_pick_partition_is_feasible(self, rng):
        m = BDDManager(4)
        for _ in range(10):
            f, _ = random_bdd(m, 4, rng)
            interval = Interval.exact(m, f)
            space = or_partition_space(interval).nontrivial()
            pair = space.pick_partition()
            if pair is None:
                continue
            support1, support2 = pair
            xbar1 = set(space.variables) - support1
            xbar2 = set(space.variables) - support2
            assert or_decomposable(interval, xbar1, xbar2)

    def test_iter_partitions_sizes(self, rng):
        m = BDDManager(4)
        f, _ = random_bdd(m, 4, rng)
        space = or_partition_space(Interval.exact(m, f)).nontrivial()
        best = space.best_balanced_pair()
        if best is None:
            return
        for s1, s2 in space.iter_partitions(best[0], best[1], limit=10):
            assert len(s1) == best[0] and len(s2) == best[1]

    def test_min_total_objective(self, rng):
        m = BDDManager(4)
        f, _ = random_bdd(m, 4, rng)
        space = or_partition_space(Interval.exact(m, f)).nontrivial()
        pairs = space.size_pairs()
        if not pairs:
            return
        mt = space.min_total_pair()
        assert mt[0] + mt[1] == min(a + b for a, b in pairs)


class TestBoundedSpace:
    def test_bounded_space_is_sound_subset(self, rng):
        """With a node budget the space contains only assignments that
        the exhaustive space also contains, and feasible picks still
        extract and verify."""
        from repro.bdd.count import iter_models
        from repro.bidec.extract import extract_or

        m = BDDManager(5)
        for _ in range(6):
            f, _ = random_bdd(m, 5, rng)
            interval = Interval.exact(m, f)
            full = or_partition_space(interval)
            bounded = or_partition_space(interval, node_budget=60)
            # Subset check via implication of the characteristic sets:
            # transfer both into comparable terms by enumerating models.
            full_set = {
                tuple(sorted((c, v) for c, v in model.items()))
                for model in iter_models(
                    full.manager,
                    full.bi,
                    list(full.c1_vars) + list(full.c2_vars),
                )
            }
            bounded_set = {
                tuple(sorted((c, v) for c, v in model.items()))
                for model in iter_models(
                    bounded.manager,
                    bounded.bi,
                    list(bounded.c1_vars) + list(bounded.c2_vars),
                )
            }
            assert bounded_set <= full_set
            pick = bounded.nontrivial().pick_partition()
            if pick is not None:
                assert extract_or(interval, *pick).verify(interval)

    def test_huge_budget_equals_exhaustive(self, rng):
        m = BDDManager(4)
        f, _ = random_bdd(m, 4, rng)
        interval = Interval.exact(m, f)
        full = or_partition_space(interval)
        bounded = or_partition_space(interval, node_budget=10**9)
        assert full.size_pairs() == bounded.size_pairs()


class TestXorSpace:
    def test_xor_bi_matches_cs_checks(self, rng):
        """Every assignment of the XOR Bi agrees with the constructive
        per-partition check on completely specified functions."""
        m = BDDManager(3)
        for _ in range(5):
            f, _ = random_bdd(m, 3, rng)
            interval = Interval.exact(m, f)
            space = xor_partition_space(interval)
            variables = list(space.variables)
            n = len(variables)
            from repro.bdd.count import iter_models

            all_c = list(space.c1_vars) + list(space.c2_vars)
            feasible = set()
            for model in iter_models(space.manager, space.bi, all_c):
                s1 = frozenset(
                    v for v, c in zip(variables, space.c1_vars) if model[c]
                )
                s2 = frozenset(
                    v for v, c in zip(variables, space.c2_vars) if model[c]
                )
                feasible.add((s1, s2))
            # Cross-check a sample of assignments both ways.
            for mask1 in range(1 << n):
                for mask2 in range(1 << n):
                    s1 = frozenset(variables[i] for i in range(n) if (mask1 >> i) & 1)
                    s2 = frozenset(variables[i] for i in range(n) if (mask2 >> i) & 1)
                    exclusive1 = sorted(set(variables) - s2)
                    exclusive2 = sorted(set(variables) - s1)
                    want = xor_decomposable_cs(m, f, exclusive1, exclusive2)
                    assert ((s1, s2) in feasible) == want, (s1, s2)

    def test_parity_fully_decomposable(self):
        m = BDDManager(4)
        parity = m.apply_xor(
            m.apply_xor(m.var(0), m.var(1)), m.apply_xor(m.var(2), m.var(3))
        )
        space = xor_partition_space(Interval.exact(m, parity)).nontrivial()
        assert space.best_balanced_pair() == (2, 2)

    def test_adder_best_partition(self):
        """Section 3.4.2: sum bit s2 (7 inputs) has best partition (2,5)."""
        from repro.benchgen import adder_sum_bit

        m = BDDManager()
        f, variables = adder_sum_bit(m, 2)
        space = xor_partition_space(Interval.exact(m, f)).nontrivial()
        assert space.best_balanced_pair() == (2, 5)


class TestDominance:
    def test_symbolic_prune_matches_explicit(self, rng):
        """The paper's BDD dominance subtraction yields exactly the same
        Pareto set as explicit pruning of decoded pairs."""
        m = BDDManager(5)
        for _ in range(8):
            f, _ = random_bdd(m, 5, rng)
            space = or_partition_space(Interval.exact(m, f)).nontrivial()
            explicit = space.size_pairs(prune_dominated=True)
            symbolic = space.size_pairs(prune_dominated=True, symbolic_prune=True)
            assert explicit == symbolic

    def test_symbolic_prune_on_mux(self):
        from repro.benchgen import multiplexer_function

        m = BDDManager()
        f, _, _ = multiplexer_function(m, 3)
        space = or_partition_space(Interval.exact(m, f)).nontrivial()
        assert space.size_pairs(symbolic_prune=True) == space.size_pairs()

    def test_prune_example_from_paper(self):
        """(3,5) is dominated by (3,4) — Section 3.5.2's example."""
        assert prune_dominated_pairs([(3, 5), (3, 4)]) == [(3, 4)]

    def test_prune_keeps_incomparable(self):
        pairs = [(3, 5), (4, 4), (5, 3)]
        assert prune_dominated_pairs(pairs) == sorted(pairs)

    def test_prune_transitive(self):
        assert prune_dominated_pairs([(2, 2), (2, 3), (3, 3), (4, 4)]) == [(2, 2)]

    def test_prune_empty(self):
        assert prune_dominated_pairs([]) == []
