"""Tests for the CDCL SAT solver, cross-validated against brute force."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.bidec.sat_encoding import SelectorCnf
from repro.logic.truthtable import TruthTable
from repro.sat import Solver


def brute_force_sat(num_vars, clauses):
    for assignment in itertools.product([False, True], repeat=num_vars):
        if all(
            any(
                assignment[abs(lit) - 1] == (lit > 0)
                for lit in clause
            )
            for clause in clauses
        ):
            return True
    return False


def random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve()

    def test_unit_clauses(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-2])
        assert solver.solve()
        model = solver.model()
        assert model[1] is True and model[2] is False

    def test_contradiction(self):
        solver = Solver()
        solver.add_clause([1])
        assert not solver.add_clause([-1]) or not solver.solve()

    def test_tautological_clause_ignored(self):
        solver = Solver()
        assert solver.add_clause([1, -1])
        assert solver.solve()

    def test_simple_unsat(self):
        solver = Solver()
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            solver.add_clause(clause)
        assert not solver.solve()

    def test_model_satisfies(self):
        rng = random.Random(3)
        clauses = random_cnf(rng, 8, 20)
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve():
            model = solver.model()
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)


class TestClausesAfterSolve:
    """Clauses added after a SAT answer are simplified against level 0,
    not against the model still on the trail."""

    def test_unit_falsified_by_last_model(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve()
        falsified = 1 if not solver.model()[1] else -1
        assert solver.add_clause([falsified])
        assert solver.solve()
        assert solver.model()[1] is (falsified > 0)

    def test_unit_satisfied_by_last_model_is_kept(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve()
        satisfied = 1 if solver.model()[1] else -1
        assert solver.add_clause([satisfied])
        assert not solver.solve([-satisfied])
        assert solver.solve()
        assert solver.model()[1] is (satisfied > 0)

    def test_unit_after_sat_answer_keeps_formula_sat(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.solve()
        solver.add_clause([1])
        assert solver.solve()
        assert solver.model()[1] is True


class TestAgainstBruteForce:
    def test_random_formulas(self):
        rng = random.Random(42)
        for trial in range(60):
            num_vars = rng.randint(2, 8)
            num_clauses = rng.randint(1, 24)
            clauses = random_cnf(rng, num_vars, num_clauses)
            solver = Solver()
            ok = True
            for clause in clauses:
                ok = solver.add_clause(clause) and ok
            got = ok and solver.solve()
            want = brute_force_sat(num_vars, clauses)
            assert got == want, (trial, clauses)

    def test_pigeonhole_3_2(self):
        """3 pigeons, 2 holes: classically UNSAT (needs real conflict
        analysis to finish quickly)."""
        solver = Solver()
        # var (p,h) = p*2 + h + 1 for p in 0..2, h in 0..1
        def v(p, h):
            return p * 2 + h + 1

        for p in range(3):
            solver.add_clause([v(p, 0), v(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-v(p1, h), -v(p2, h)])
        assert not solver.solve()

    def test_php_5_4(self):
        solver = Solver()

        def v(p, h):
            return p * 4 + h + 1

        for p in range(5):
            solver.add_clause([v(p, h) for h in range(4)])
        for h in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    solver.add_clause([-v(p1, h), -v(p2, h)])
        assert not solver.solve()


class TestAssumptions:
    def test_assumptions_restrict(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve([-1])
        assert solver.model()[2] is True
        assert solver.solve([1])

    def test_assumption_conflict(self):
        solver = Solver()
        solver.add_clause([1])
        assert not solver.solve([-1])

    def test_incremental_reuse(self):
        """The same solver answers a sequence of assumption queries
        correctly (the usage pattern of the SAT baseline)."""
        rng = random.Random(9)
        clauses = random_cnf(rng, 6, 14)
        solver = Solver()
        ok = True
        for clause in clauses:
            ok = solver.add_clause(clause) and ok
        for _ in range(20):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 7), rng.randint(0, 3))
            ]
            got = ok and solver.solve(assumptions)
            want = brute_force_sat(6, clauses + [[a] for a in assumptions])
            assert got == want, assumptions


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_vars=st.integers(min_value=2, max_value=7),
    num_clauses=st.integers(min_value=1, max_value=20),
)
def test_property_solver_matches_bruteforce(seed, num_vars, num_clauses):
    rng = random.Random(seed)
    clauses = random_cnf(rng, num_vars, num_clauses)
    solver = Solver()
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    assert (ok and solver.solve()) == brute_force_sat(num_vars, clauses)


# -- bulk clause loading -------------------------------------------------

_literal = st.integers(min_value=1, max_value=12).flatmap(
    lambda v: st.sampled_from([v, -v])
)
_load_step = st.one_of(
    # A batch of clauses, mostly three literals; duplicates, tautologies,
    # units and the empty clause all occur.
    st.tuples(
        st.just("clauses"),
        st.lists(
            st.one_of(
                st.lists(_literal, min_size=3, max_size=3),
                st.lists(_literal, max_size=5),
            ),
            max_size=12,
        ),
    ),
    # An external write of num_vars, as CnfBuilder.to_solver makes.
    st.tuples(st.just("raise"), st.integers(min_value=1, max_value=6)),
    # A solve, which leaves a model on the trail for the next batch.
    st.tuples(st.just("solve"), st.lists(_literal, max_size=3)),
)


def _watch_map(solver):
    top = solver.num_vars
    return {
        lit: list(solver._watches[lit])
        for v in range(1, min(top, solver._capacity) + 1)
        for lit in (v, -v)
        if solver._watches[lit]
    }


def _state(solver):
    return (
        solver.clauses,
        _watch_map(solver),
        solver._trail,
        solver._ok,
        solver.num_vars,
    )


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_load_step, max_size=8))
def test_add_clauses_matches_sequential_add_clause(steps):
    bulk, single = Solver(), Solver()
    for kind, payload in steps:
        if kind == "clauses":
            got = bulk.add_clauses(payload)
            want = all([single.add_clause(clause) for clause in payload])
            assert got == want
        elif kind == "raise":
            bulk.num_vars += payload
            single.num_vars += payload
        else:
            assert bulk.solve(payload) == single.solve(payload)
            assert bulk.model() == single.model()
        assert _state(bulk) == _state(single)


def test_add_clauses_on_root_assigned_literals():
    bulk, single = Solver(), Solver()
    clauses = [[1], [-2], [1, 2, 3], [-1, 3, 4], [2, 4, 5], [3, 4, 5], [5, 5, 6]]
    assert bulk.add_clauses(clauses)
    assert all([single.add_clause(clause) for clause in clauses])
    assert _state(bulk) == _state(single)
    assert bulk.clauses == [[3, 4], [4, 5], [3, 4, 5], [5, 6]]


# -- search trajectory ---------------------------------------------------

#: sha256 over every step of ``_trajectory_steps``.  CEGAR counterexamples
#: in the ``sat-cegar`` backend are solver models, so a change to the
#: decision order, watch order, learnt clauses or restarts moves synthesis
#: results even when every answer stays correct.  Recorded from the
#: original dict-based solver; any change to this digest must
#: state its literal delta on the E3/E4 tables.
TRAJECTORY_SHA256 = (
    "b67c6c42edbb44a1b42db54c5eafccd920834c53f95e1f837422e4e10e1916c0"
)


def _record(steps, solver, answer):
    model = solver.model() if answer else {}
    steps.append(
        (answer, tuple(model[v] for v in sorted(model)), len(solver.clauses))
    )


def _trajectory_steps():
    """Seeded incremental scenarios in the CEGAR pattern: assumption
    solves, and a blocking clause of the model after each SAT answer."""
    steps = []
    for seed, num_vars in ((1, 20), (2, 35), (3, 50), (10, 60), (32, 60)):
        rng = random.Random(seed)
        solver = Solver()
        for _ in range(int(num_vars * 4.26)):
            variables = rng.sample(range(1, num_vars + 1), 3)
            solver.add_clause(
                [v if rng.random() < 0.5 else -v for v in variables]
            )
        for _ in range(24):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 4))
            ]
            answer = solver.solve(assumptions)
            _record(steps, solver, answer)
            if answer:
                model = solver.model()
                block = rng.sample(range(1, num_vars + 1), 10)
                solver.add_clause([-v if model[v] else v for v in block])

    # Pigeonhole 7 -> 6 with the last pigeon relaxed by ``relax``: UNSAT
    # under the assumption -relax after enough conflicts to restart.
    pigeons, holes = 7, 6
    relax = pigeons * holes + 1
    solver = Solver()
    for p in range(pigeons):
        clause = [p * holes + h + 1 for h in range(holes)]
        solver.add_clause(clause + ([relax] if p == pigeons - 1 else []))
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-(p1 * holes + h + 1), -(p2 * holes + h + 1)])
    for assumptions in ([-relax], []):
        _record(steps, solver, solver.solve(assumptions))

    # The OR check of the sat-cegar backend on a fixed proper interval.
    rng = random.Random(5)
    manager = BDDManager(6)
    order = list(range(6))
    f, g, h = (TruthTable.random(6, rng).to_bdd(manager, order) for _ in range(3))
    cnf = SelectorCnf(manager, manager.apply_and(f, g), manager.apply_or(f, h))
    solver = cnf.builder.to_solver()
    solver.add_clause([cnf.lower_x])
    solver.add_clause([-cnf.upper_b])
    solver.add_clause([-cnf.upper_c])
    for _ in range(40):
        picked = rng.sample(cnf.support, rng.randint(2, len(cnf.support)))
        cut = rng.randint(1, len(picked) - 1)
        assumptions = cnf.selector_assumptions(picked[:cut], picked[cut:])
        _record(steps, solver, solver.solve(assumptions))
    return steps


def test_search_trajectory_is_pinned():
    steps = _trajectory_steps()
    assert any(answer for answer, _, _ in steps)
    assert not all(answer for answer, _, _ in steps)
    digest = hashlib.sha256(repr(steps).encode()).hexdigest()
    assert digest == TRAJECTORY_SHA256
