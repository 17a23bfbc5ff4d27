"""A CDCL SAT solver.

Backs the Lee-Jiang-Hung-style SAT-based bi-decomposition baseline [14]
that the paper positions its BDD-based formulation against.  Features:
two-watched-literal propagation, first-UIP conflict analysis with clause
learning, VSIDS-style activity decay, phase saving, and Luby restarts.

Literals are non-zero ints in DIMACS convention: ``v`` / ``-v`` for
variable ``v >= 1``.

State lives in flat lists.  ``_vals`` and ``_watches`` are indexed by
literal: with capacity ``n`` they hold ``2n + 1`` entries, positive
literals at ``1..n`` and negative literals from the end (Python's own
negative indexing), so ``_vals[lit]`` is 1 (true), -1 (false) or 0
(unassigned) for either polarity.  ``_level``, ``_reason``,
``_activity`` and ``_phase`` are indexed by variable.  Capacity grows
lazily to cover ``num_vars``, which callers may also raise by direct
assignment.

The search trajectory (decision order, watch-list order, the in-place
literal swaps, learnt clauses, backtrack levels and restarts) is part of
the contract: the ``sat-cegar`` backend turns models into partition
candidates, so a different trajectory means different synthesis results.
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import Iterable, Optional, Sequence


class Solver:
    """Incremental CDCL solver with assumption support."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self._capacity = 0
        self._vals: list[int] = [0]
        self._watches: list[list[list[int]]] = [[]]
        self._level: list[int] = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._ok = True

    def _grow(self, top: int) -> None:
        """Make room for variables up to ``top``, keeping every value."""
        old = self._capacity
        new = max(top, 2 * old)
        extra = new - old
        # Negative literals sit at the end, so the middle is where
        # the new entries go.
        vals = self._vals
        self._vals = vals[: old + 1] + [0] * (2 * extra) + vals[old + 1 :]
        watches = self._watches
        self._watches = (
            watches[: old + 1]
            + [[] for _ in range(2 * extra)]
            + watches[old + 1 :]
        )
        self._level.extend([0] * extra)
        self._reason.extend([None] * extra)
        self._activity.extend([0.0] * extra)
        self._phase.extend([False] * extra)
        self._capacity = new

    # -- problem construction -------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially
        unsatisfiable.

        Clauses are simplified against level 0 only, so any model left
        on the trail by a previous :meth:`solve` is cancelled first."""
        self._cancel_until(0)
        unique = set(literals)
        if any(-lit in unique for lit in unique):
            return True  # tautology
        clause = sorted(unique, key=abs)
        if clause and abs(clause[-1]) > self.num_vars:
            self.num_vars = abs(clause[-1])
        if not self._ok:
            return False
        if self.num_vars > self._capacity:
            self._grow(self.num_vars)
        vals = self._vals
        # At level 0 every assigned literal is a root assignment.
        simplified = []
        for lit in clause:
            value = vals[lit]
            if value > 0:
                return True
            if value == 0:
                simplified.append(lit)
        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            self._enqueue(simplified[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        self.clauses.append(simplified)
        self._watches[-simplified[0]].append(simplified)
        self._watches[-simplified[1]].append(simplified)
        return True

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> bool:
        """:meth:`add_clause` applied to each clause in order; returns
        False if any of those calls would have.

        Three-literal clauses over distinct unassigned variables (what
        the Tseitin MUX and XOR encodings emit) take a direct path that
        skips the generic simplification."""
        if not clauses:
            return True
        self._cancel_until(0)
        ok = True
        stored = self.clauses
        capacity = self._capacity
        vals = self._vals
        watches = self._watches
        for clause in clauses:
            if len(clause) == 3 and self._ok:
                x, y, z = clause
                ax = x if x > 0 else -x
                ay = y if y > 0 else -y
                az = z if z > 0 else -z
                # Sort by variable, as add_clause does.
                if ax > ay:
                    x, y, ax, ay = y, x, ay, ax
                if ay > az:
                    y, z, ay, az = z, y, az, ay
                    if ax > ay:
                        x, y, ax, ay = y, x, ay, ax
                if ax != ay and ay != az and az <= capacity:
                    if az > self.num_vars:
                        self.num_vars = az
                    if not (vals[x] or vals[y] or vals[z]):
                        clause = [x, y, z]
                        stored.append(clause)
                        watches[-x].append(clause)
                        watches[-y].append(clause)
                        continue
            ok &= self.add_clause(clause)
            capacity = self._capacity
            vals = self._vals
            watches = self._watches
        return ok

    # -- propagation ---------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        """Make the unassigned ``lit`` true at the current level."""
        self._vals[lit] = 1
        self._vals[-lit] = -1
        var = lit if lit > 0 else -lit
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause or None.

        Watch lists hold the clause lists themselves, and reasons are
        those same lists."""
        trail = self._trail
        vals = self._vals
        watches = self._watches
        levels = self._level
        reasons = self._reason
        level = len(self._trail_lim)
        qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = -lit
            watching = watches[lit]
            # Watchers that stay are compacted to the front, in order.
            kept = 0
            for position, clause in enumerate(watching):
                # Ensure the false literal is at slot 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if vals[first] <= 0:
                    # Look for a new literal to watch; most clauses have
                    # three, so that case skips the slot loop.
                    slot = 0
                    if len(clause) == 3:
                        if vals[clause[2]] >= 0:
                            slot = 2
                    else:
                        for candidate in range(2, len(clause)):
                            if vals[clause[candidate]] >= 0:
                                slot = candidate
                                break
                    if slot:
                        other = clause[slot]
                        clause[1] = other
                        clause[slot] = false_lit
                        watches[-other].append(clause)
                        continue
                    if vals[first] < 0:
                        # Conflict: the unvisited watchers stay too.
                        watching[kept] = clause
                        del watching[kept + 1 : position + 1]
                        self._qhead = len(trail)
                        return clause
                    vals[first] = 1
                    vals[-first] = -1
                    var = first if first > 0 else -first
                    levels[var] = level
                    reasons[var] = clause
                    trail.append(first)
                watching[kept] = clause
                kept += 1
            del watching[kept:]
        self._qhead = qhead
        return None

    # -- conflict analysis ------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        levels = self._level
        reasons = self._reason
        activity = self._activity
        trail = self._trail
        var_inc = self._var_inc
        learnt: list[int] = []
        seen: set[int] = set()
        counter = 0
        lit = 0
        skip = 0  # the variable asserted by the current reason clause
        clause = conflict
        trail_index = len(trail) - 1
        current_level = len(self._trail_lim)
        while True:
            for reason_lit in clause:
                var = reason_lit if reason_lit > 0 else -reason_lit
                if var == skip or var in seen or levels[var] == 0:
                    continue
                seen.add(var)
                bumped = activity[var] + var_inc
                activity[var] = bumped
                if bumped > 1e100:
                    activity[:] = [a * 1e-100 for a in activity]
                    var_inc *= 1e-100
                    self._var_inc = var_inc
                if levels[var] == current_level:
                    counter += 1
                else:
                    learnt.append(reason_lit)
            while abs(trail[trail_index]) not in seen:
                trail_index -= 1
            lit = -trail[trail_index]
            skip = lit if lit > 0 else -lit
            seen.discard(skip)
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            clause = reasons[skip]
            assert clause is not None
        learnt.insert(0, lit)
        if len(learnt) == 1:
            return learnt, 0
        backtrack = max(levels[abs(l)] for l in learnt[1:])
        return learnt, backtrack

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        trail = self._trail
        if len(trail_lim) > level:
            limit = trail_lim[level]
            vals = self._vals
            phase = self._phase
            for lit in trail[limit:]:
                vals[lit] = 0
                vals[-lit] = 0
                if lit > 0:
                    phase[lit] = True
                else:
                    phase[-lit] = False
            del trail[limit:]
            del trail_lim[level:]
        if self._qhead > len(trail):
            self._qhead = len(trail)

    # -- search --------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        """The unassigned variable of highest activity (lowest index on
        ties) in its saved phase."""
        top = self.num_vars
        free = compress(range(1, top + 1), map(not_, self._vals[1 : top + 1]))
        best = max(free, key=self._activity.__getitem__, default=0)
        if not best:
            return None
        return best if self._phase[best] else -best

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under the given assumption literals."""
        if not self._ok:
            return False
        top = max(self.num_vars, max(map(abs, assumptions), default=0))
        if top > self._capacity:
            self._grow(top)
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False
        vals = self._vals
        trail = self._trail
        trail_lim = self._trail_lim
        clauses = self.clauses
        watches = self._watches
        num_assumptions = len(assumptions)
        restarts = 0
        conflicts_left = _luby(restarts) * 64
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not trail_lim:
                    self._cancel_until(0)
                    self._ok = False
                    return False
                learnt, backtrack = self._analyze(conflict)
                self._cancel_until(backtrack)
                lit = learnt[0]
                if len(learnt) == 1:
                    if vals[lit] < 0:
                        self._ok = False
                        return False
                    reason = None
                else:
                    reason = learnt
                    clauses.append(learnt)
                    watches[-lit].append(learnt)
                    watches[-learnt[1]].append(learnt)
                if vals[lit] == 0:
                    self._enqueue(lit, reason)
                self._var_inc /= 0.95
                conflicts_left -= 1
                if conflicts_left <= 0 and len(trail_lim) > num_assumptions:
                    restarts += 1
                    conflicts_left = _luby(restarts) * 64
                    self._cancel_until(num_assumptions)
                continue
            # Apply pending assumptions as pseudo-decisions.
            depth = len(trail_lim)
            if depth < num_assumptions:
                lit = assumptions[depth]
                value = vals[lit]
                if value < 0:
                    self._cancel_until(0)
                    return False
                trail_lim.append(len(trail))
                if value > 0:
                    continue
            else:
                lit = self._decide()
                if lit is None:
                    return True
                trail_lim.append(len(trail))
            self._enqueue(lit, None)

    def model(self) -> dict[int, bool]:
        """Assignment after a satisfiable :meth:`solve` call (unassigned
        variables default to False)."""
        if self.num_vars > self._capacity:
            self._grow(self.num_vars)
        vals = self._vals
        return {var: vals[var] > 0 for var in range(1, self.num_vars + 1)}


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (MiniSat's recurrence)."""
    size, sequence = 1, 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        sequence -= 1
        index %= size
    return 1 << sequence
