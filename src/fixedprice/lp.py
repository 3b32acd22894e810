"""Exact rational linear programming via a sparse simplex.

An LP (``RationalLP``) stores each row once, as ``(column, coefficient)``
pairs in column order, which the tableau reads with no name lookup;
variable names serve only the views by name and ``solve_lp``'s assignment.

The solver keeps an integer tableau with a shared denominator (fraction-free
"integer pivoting") and returns a basic (vertex) optimal solution with exact
rational values.  The LPs of this package have a few nonzeros per row, so
each tableau row is a map of its nonzero entries.  A pivot rewrites, in
place, only the pivot row's columns of the rows with a nonzero in the pivot
column; the other entries change only when the pivot element differs from
the shared denominator, and then by their ratio.

Every LP starts at the basis of its slacks, one per row (an ``==`` row is
a ``<=`` and a ``>=`` row); a row with a negative rhs is violated there.
The feasibility phase, the dual simplex (Lemke 1954) under a zero
objective, pivots such rows feasible or finds that no point is; phase 2,
the primal simplex, then optimizes.  Each primal phase prices by
Dantzig's largest improving objective entry (lowest column on ties); it and
the dual simplex switch to Bland's rule after ``_DEGENERATE_LIMIT``
consecutive degenerate pivots, which keeps Bland's guarantee against
cycling.  The answer does not depend on the pivot path: after phase 2 the
lex phases move to the lexicographically smallest optimal vertex in
variable order, a point fixed by the feasible set, the objective and the
variable order alone.

Row generation (``_solve_by_rows``) grows an optimized tableau instead of
solving each larger LP anew: appended inequality rows are written in the
current basis, each with a new basic slack that is negative where the
vertex violates the row, and the dual simplex pivots them feasible while
the objective row stays optimal.  The lex phases then run again, so the
vertex is the one a cold solve of the grown LP returns.  ``solve_lp`` is
that loop with no row to add; the mechanism LP and the DSIC/BIC LPs each
add their IC rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .errors import LPInfeasibleError, LPUnboundedError
from .rational import format_rational, parse_rational

LE, GE, EQ = "<=", ">=", "=="

Number = Union[int, Fraction]

# Consecutive degenerate pivots (pivot row rhs 0) after which the entering
# column is Bland's smallest index, until a pivot moves the point.  The
# mechanism LPs' longest degenerate runs under Dantzig's rule stay below it;
# a small limit measured worse than Bland alone.
_DEGENERATE_LIMIT = 500


@dataclass(frozen=True)
class LPVariable:
    name: str
    lo: Fraction = Fraction(0)
    hi: Optional[Fraction] = None


@dataclass(frozen=True)
class LPRow:
    coefs: Tuple[Tuple[str, Number], ...]
    rel: str
    rhs: Number
    label: str = ""


@dataclass
class LPSolution:
    value: Fraction
    assignment: Dict[str, Fraction]

    def __getitem__(self, name: str) -> Fraction:
        return self.assignment[name]


class RationalLP:
    """A maximization LP over named, bounded variables with exact data.

    Rows and the objective are stored by column (a variable's index), rows
    as ``(column, coefficient)`` pairs in column order, zeros dropped and
    the builders' int data kept as int.  Names appear only in the ``rows``
    and ``objective`` views and ``to_text()``; ``add_row`` and
    ``set_objective`` take names, for hand-written LPs.
    """

    def __init__(self):
        self.variables: List[LPVariable] = []
        self._var_index: Dict[str, int] = {}
        self._rows: List[Tuple[Tuple[Tuple[int, Number], ...], str, Number, str]] = []
        self._objective: Dict[int, Number] = {}

    def add_variable(self, name: str, lo=0, hi=None) -> int:
        """Append a variable; returns its column."""
        if name in self._var_index:
            raise ValueError(f"duplicate variable {name!r}")
        lo = parse_rational(lo)
        hi = None if hi is None else parse_rational(hi)
        if hi is not None and hi < lo:
            raise ValueError(f"variable {name!r} has empty bounds [{lo}, {hi}]")
        self._var_index[name] = len(self.variables)
        self.variables.append(LPVariable(name, lo, hi))
        return len(self.variables) - 1

    def add_index_row(self, coefs: Mapping[int, Number], rel: str, rhs: Number,
                      label: str = "") -> None:
        """Append the row ``sum coefs[j]·x_j  rel  rhs`` over columns j, with
        int or Fraction data; every row given is kept, copies included."""
        if rel not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        row = sorted((j, c) for j, c in coefs.items() if c)
        if row and not (row[0][0] >= 0 and row[-1][0] < len(self.variables)):
            raise ValueError(f"row references unknown column in {row}")
        self._rows.append((tuple(row), rel, rhs, label))

    def set_index_objective(self, coefs: Mapping[int, Number]) -> None:
        """The objective ``sum coefs[j]·x_j`` over columns j."""
        self._objective = dict(coefs)

    def _by_column(self, coefs: Mapping[str, object], what: str) -> Dict[int, Fraction]:
        for name in coefs:
            if name not in self._var_index:
                raise ValueError(f"{what} references unknown variable {name!r}")
        return {self._var_index[name]: parse_rational(c) for name, c in coefs.items()}

    def add_row(self, coefs: Mapping[str, object], rel: str, rhs, label: str = "") -> None:
        """``add_index_row`` for a row given by variable names."""
        self.add_index_row(self._by_column(coefs, "row"), rel, parse_rational(rhs), label)

    def set_objective(self, coefs: Mapping[str, object]) -> None:
        """``set_index_objective`` for an objective given by variable names."""
        self.set_index_objective(self._by_column(coefs, "objective"))

    @property
    def rows(self) -> Tuple[LPRow, ...]:
        """The rows by variable name, in the order they were added."""
        names = [var.name for var in self.variables]
        return tuple(LPRow(tuple((names[j], c) for j, c in coefs), rel, rhs, label)
                     for coefs, rel, rhs, label in self._rows)

    @property
    def objective(self) -> Dict[str, Number]:
        """The objective coefficients by variable name."""
        return {self.variables[j].name: c for j, c in self._objective.items()}

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def to_text(self) -> str:
        """Plain-text rendering (exact rationals) for external cross-checks."""
        terms = [
            f"{format_rational(c)} {name}"
            for name, c in sorted(self.objective.items())
            if c != 0
        ]
        parts = ["max: " + (" + ".join(terms) if terms else "0")]
        for i, row in enumerate(self.rows):
            lhs = " + ".join(f"{format_rational(c)} {name}" for name, c in row.coefs)
            label = row.label or f"r{i}"
            parts.append(f"{label}: {lhs or '0'} {row.rel} {format_rational(row.rhs)}")
        for var in self.variables:
            hi = "inf" if var.hi is None else format_rational(var.hi)
            parts.append(f"bound: {format_rational(var.lo)} <= {var.name} <= {hi}")
        return "\n".join(parts) + "\n"


class _Tableau:
    """Integer-pivoting simplex state on sparse rows.

    Row ``i`` is a ``{column: int}`` map of its nonzero entries plus
    ``rhs[i]``; rows ``0 .. m-1`` are the constraints, row ``m`` the
    objective and row ``m + 1`` (present only during the feasibility and
    lex phases) the objective while the feasibility phase's zero row sits
    at ``m``, or the lex phases' scratch objective.
    Constraint row ``i`` is ``denom`` times the true tableau row, times the
    lcm of its canonical row's denominators until the row first serves as
    pivot row; ``denom`` is the previous pivot element and stays positive.
    Only a pivoted row can hold a structural basic variable, so its value
    is ``rhs / denom``.  Columns are the n structural variables, then the
    slack of each constraint row i, column n + i: a row per inequality and
    upper bound, two per ``==`` row, then the rows ``add_rows`` appends.
    A pivot on (r, c) edits the rows in place: a row with a nonzero in
    column c changes in row r's columns only, and every other entry and rhs
    changes only when the pivot element p differs from ``denom``, by
    p / denom.

    A column enters when its objective entry is positive; an objective row
    has one scale, so its raw integers compare exactly.  ``banned`` holds
    the columns the lex phases fix at 0: they stay nonbasic, because the
    entering choice skips them.  The lex phases price in the scratch row,
    so row ``m`` keeps the reduced costs of an optimal basis, none positive.

    An optimized tableau takes more inequality rows (``add_rows``): each is
    written in the current basis with a new slack column, basic in it, and
    ``reoptimize`` restores feasibility with the dual simplex, which keeps
    row ``m`` free of positive entries, before the lex phases run again.
    So a row-generation loop keeps one tableau instead of solving each grown
    LP from the start, and reaches the same vertex.
    """

    def __init__(self, lp: RationalLP):
        self.lp = lp
        n = len(lp.variables)
        self.lo = [v.lo for v in lp.variables]
        self.shift = any(self.lo)
        self.rows: List[Dict[int, int]] = []
        self.rhs: List[int] = []
        self.banned: Set[int] = set()

        # Upper bounds become rows, and "==" a "<=" and a ">=" row.  Each
        # row, as ``_int_row`` writes it, takes a basic slack whose entry is
        # the row's scale mult; a negative rhs is a violated row.
        constraints = itertools.chain(
            ((coefs, rel, rhs) for coefs, rel, rhs, _ in lp._rows),
            ((((idx, 1),), LE, v.hi)
             for idx, v in enumerate(lp.variables) if v.hi is not None),
        )
        for coefs, rel, rhs in constraints:
            ints, b, mult = self._int_row(coefs, rel, rhs)
            halves = [(ints, b)]
            if rel == EQ:
                halves.append(({j: -a for j, a in ints.items()}, -b))
            for row, b in halves:
                row[n + len(self.rows)] = mult
                self.rows.append(row)
                self.rhs.append(b)

        self.m = len(self.rows)
        self.basis: List[int] = list(range(n, n + self.m))
        ints, _, _ = self._int_row([(j, c) for j, c in lp._objective.items() if c], None, 0)
        self.rows.append(ints)
        self.rhs.append(0)
        self.denom = 1

    def _int_row(self, coefs, rel, rhs) -> Tuple[Dict[int, int], int, int]:
        """``(ints, b, mult)``: the row ``sum c·x_j  rel  rhs`` over columns
        ``(j, c)`` as integers ``ints`` and ``b``, ``mult`` times the row,
        ``mult`` the lcm of its denominators.  A constraint is first shifted
        to lower bounds 0 and, if ``>=``, negated to read ``<=``; an
        objective row (``rel`` None) is only scaled."""
        sign = 1
        if rel is not None:
            if self.shift:
                rhs -= sum((c * self.lo[j] for j, c in coefs), Fraction(0))
            if rel == GE:
                sign = -1
        # A list, as in ``lcm_of_denominators``.
        mult = math.lcm(rhs.denominator, *[c.denominator for _, c in coefs])
        ints = {j: sign * c.numerator * (mult // c.denominator) for j, c in coefs}
        return ints, sign * rhs.numerator * (mult // rhs.denominator), mult

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int, hit: List[int]) -> None:
        """Pivot on (r, c); ``hit`` lists the rows with a nonzero in column c."""
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        # The stored pivot entry must be positive so the shared denominator
        # stays positive; negating the pivot row leaves its equation as is.
        if prow[c] < 0:
            for j in prow:
                prow[j] = -prow[j]
            rhs[r] = -rhs[r]
        p, pb, d = prow[c], rhs[r], self.denom
        # Each new entry is (x·p − f·y) // d, exact, with f the row's entry in
        # column c and y the pivot row's in x's column: 0 in column c, and
        # x·p // d (never 0; x itself if p == d) where f or y is 0.
        if p != d:
            for i, row in enumerate(rows):
                for j in row.keys() - prow.keys() if c in row else row:
                    row[j] = row[j] * p // d
                if c not in row:
                    rhs[i] = rhs[i] * p // d
        others = [(j, y) for j, y in prow.items() if j != c]
        for i in hit:
            if i != r:
                row = rows[i]
                f = row.pop(c)
                for j, y in others:
                    if q := (row.get(j, 0) * p - f * y) // d:
                        row[j] = q
                    else:
                        row.pop(j, None)
                rhs[i] = (rhs[i] * p - f * pb) // d
        self.basis[r] = c
        self.denom = p

    def _ratio_leave(self, c: int, hit: List[int]) -> Optional[int]:
        """Leaving row for entering column ``c`` by the ratio test, the lowest
        basic column on ties (Bland's leaving rule); None if unbounded."""
        best, best_b, best_a = None, 0, 0
        m, rhs, rows = self.m, self.rhs, self.rows
        for i in hit:
            a = rows[i][c]
            if a <= 0 or i >= m:
                continue
            b = rhs[i]
            if best is None or b * best_a < best_b * a or (
                b * best_a == best_b * a and self.basis[i] < self.basis[best]
            ):
                best, best_b, best_a = i, b, a
        return best

    def _run(self, obj: int) -> None:
        """Pivot on objective row ``obj`` until no column improves it."""
        banned, degenerate = self.banned, 0
        while True:
            improving = [(x, -j) for j, x in self.rows[obj].items()
                         if x > 0 and j not in banned]
            if not improving:
                return
            # Dantzig: the largest entry, lowest column on ties; Bland: the
            # lowest column.
            if degenerate < _DEGENERATE_LIMIT:
                enter = -max(improving)[1]
            else:
                enter = -max(neg_j for _, neg_j in improving)
            hit = [i for i, row in enumerate(self.rows) if enter in row]
            leave = self._ratio_leave(enter, hit)
            if leave is None:
                raise LPUnboundedError("objective is unbounded above")
            degenerate = degenerate + 1 if self.rhs[leave] == 0 else 0
            self._pivot(leave, enter, hit)

    def _dual_run(self) -> None:
        """Dual simplex from a basis whose objective row ``m`` prices no
        column positive, until no constraint row has a negative rhs: after
        ``add_rows`` with the objective, in the feasibility phase with a
        zero row, which prices every column at 0.

        The leaving row is the one whose violated bound lies farthest from
        the vertex in the space of the nonbasic variables: the largest
        rhs² over the squared norm of its nonbasic entries, both read in one
        row, so the row's scale cancels.  The entering column keeps every
        objective entry at most 0: the least ratio of objective entry to
        the row's negative entry, the lowest column on ties.  A row with a
        negative rhs and no negative entry has no point with every variable
        at least 0.  After ``_DEGENERATE_LIMIT`` consecutive pivots that
        leave the objective as it was (the entering column priced at 0),
        the leaving row is the one with the lowest basic column, Bland's
        rule for the dual, until a pivot moves the objective.
        """
        m, rows, rhs, basis = self.m, self.rows, self.rhs, self.basis
        norms: Dict[int, int] = {}  # row -> squared norm, while the row is unchanged
        degenerate = 0
        while True:
            infeasible = [i for i in range(m) if rhs[i] < 0]
            if not infeasible:
                return
            if degenerate < _DEGENERATE_LIMIT:
                leave, best_b, best_w = None, 0, 1
                for i in infeasible:
                    w = norms.get(i)
                    if w is None:
                        own = basis[i]
                        w = norms[i] = sum(x * x for j, x in rows[i].items() if j != own)
                    b = rhs[i] * rhs[i]
                    if b * best_w > best_b * w:
                        leave, best_b, best_w = i, b, w
            else:
                leave = min(infeasible, key=basis.__getitem__)
            obj = rows[m]
            enter, best_f, best_a = None, 0, 0
            for j, a in sorted(rows[leave].items()):
                if a < 0:
                    f = obj.get(j, 0)
                    if enter is None or f * best_a < best_f * a:
                        enter, best_f, best_a = j, f, a
            if enter is None:
                raise LPInfeasibleError("no feasible point exists")
            degenerate = degenerate + 1 if best_f == 0 else 0
            hit = [i for i, row in enumerate(rows) if enter in row]
            d = self.denom
            self._pivot(leave, enter, hit)
            if self.denom != d:
                norms.clear()  # every row changed scale
            for i in hit:
                norms.pop(i, None)

    def _lex_min(self) -> None:
        """From an optimal basis, move to the lexicographically smallest
        optimal vertex in structural-variable order.

        A nonbasic column with a negative objective entry is 0 on the
        optimal face, so it is banned.  Then each structural variable in
        turn is minimised over what is left: a nonbasic one is already 0
        and is banned; a basic one, in row r, is minimised by the scratch
        objective row ``m + 1``, a copy of row r without its own column (its
        entry there is the positive ``denom``), and the columns that row
        prices negative are banned.  The pivots enter only columns that row
        ``m`` prices at 0, so they leave row ``m`` optimal.
        """
        m, basis, banned, rows, rhs = self.m, self.basis, self.banned, self.rows, self.rhs
        banned.update(j for j, x in rows[m].items() if x < 0)
        rows.append({})
        rhs.append(0)
        for k in range(len(self.lo)):
            if k not in basis:
                banned.add(k)
                continue
            r = basis.index(k)
            obj = dict(rows[r])
            del obj[k]
            rows[m + 1], rhs[m + 1] = obj, rhs[r]
            self._run(m + 1)
            banned.update(j for j, x in rows[m + 1].items() if x < 0)
        del rows[m + 1], rhs[m + 1]

    def optimize(self) -> None:
        """The feasibility phase if a start rhs is negative, then phase 2
        and the lex phases; call once, on a new tableau.  The feasibility
        phase is ``_dual_run`` under a zero row at ``m``, which prices no
        column; its pivots keep the objective, at ``m + 1``, up to date."""
        m = self.m
        if min(self.rhs[:m], default=0) < 0:
            self.rows.insert(m, {})
            self.rhs.insert(m, 0)
            self._dual_run()
            del self.rows[m], self.rhs[m]
        self._run(m)
        self._lex_min()

    def add_rows(self, rows: Sequence[Tuple[Mapping[int, Fraction], str, Fraction]]) -> None:
        """Append inequality rows ``(coefs, rel, rhs)`` to an optimized
        tableau, with ``coefs`` keyed by structural column and int or
        Fraction data; ``reoptimize`` then moves to the lex-min optimum of
        the grown LP.  ``self.lp`` does not get the rows.

        A row, written as integers ``a`` by ``_int_row`` (shifted to lower
        bounds 0, turned to ``<=``, scaled), gets a new slack column.
        A structural basic column c sits in a pivoted row R(c), whose entry
        in c is ``denom``, so the stored row ``denom·a − Σ a_c·R(c)`` is 0 in
        every basic column but its own slack: ``denom`` times the row in the
        current basis, as a constraint row that has not been a pivot row is
        kept.
        Its rhs is negative when the current vertex violates the row.
        """
        n, d = len(self.lo), self.denom
        basic_row = {c: i for i, c in enumerate(self.basis) if c < n}
        new_rows, new_rhs = [], []
        for coefs, rel, rhs in rows:
            if rel not in (LE, GE):
                raise ValueError(f"an added row must be an inequality, not {rel!r}")
            ints, b, mult = self._int_row(coefs.items(), rel, rhs)
            slack = n + len(self.basis)
            row = {slack: d * mult}
            b *= d
            for j, a in ints.items():
                row[j] = row.get(j, 0) + d * a
                i = basic_row.get(j)
                if i is not None:
                    for k, y in self.rows[i].items():
                        row[k] = row.get(k, 0) - a * y
                    b -= a * self.rhs[i]
            new_rows.append({j: x for j, x in row.items() if x})
            new_rhs.append(b)
            self.basis.append(slack)
        # Constraint rows stay before the objective row m.
        self.rows[self.m:self.m] = new_rows
        self.rhs[self.m:self.m] = new_rhs
        self.m += len(new_rows)

    def reoptimize(self) -> None:
        """After ``add_rows``: the dual simplex from the last optimal basis,
        then the lex phases with no column banned."""
        self.banned.clear()
        self._dual_run()
        self._lex_min()

    def vertex(self) -> List[int]:
        """The structural variables at the current vertex, less their lower
        bounds, times ``denom``."""
        n = len(self.lo)
        values = [0] * n
        for i in range(self.m):
            if self.basis[i] < n:
                values[self.basis[i]] = self.rhs[i]
        return values

    def solution(self) -> LPSolution:
        """The current vertex by variable name and its objective value; a
        zero entry is the lower bound itself, and no Fraction is built."""
        lp, d = self.lp, self.denom
        values = [Fraction(x, d) + var.lo if x else var.lo
                  for x, var in zip(self.vertex(), lp.variables)]
        value = sum((c * values[j] for j, c in lp._objective.items() if values[j]),
                    Fraction(0))
        return LPSolution(value, {var.name: x for var, x in zip(lp.variables, values)})


def _solve_by_rows(lp: RationalLP, separate: Callable) -> LPSolution:
    """Row generation (Dantzig, Fulkerson and Johnson 1954) on one tableau.

    Solve ``lp``, then append the inequality rows ``(coefs by column, rel,
    rhs)`` that ``separate`` finds violated by the vertex (given as
    ``_Tableau.vertex()``) and restore the lex-min optimum with the dual
    simplex, until it finds none.  A row in the LP holds at its optimum, so
    each round adds new rows, and with finitely many the loop ends.  When
    ``separate`` returns the violated rows of a larger LP, the last LP
    relaxes it and its optimum is feasible there, so the two share the
    optimal value and the lexicographically smallest point of the smaller
    optimal face, the larger LP's: the answer is the larger LP's value and
    vertex.
    """
    tab = _Tableau(lp)
    tab.optimize()
    while cuts := separate(tab.vertex()):
        tab.add_rows(cuts)
        tab.reoptimize()
    return tab.solution()


def solve_lp(lp: RationalLP) -> LPSolution:
    """Solve to a vertex optimum; raises on infeasible or unbounded input."""
    return _solve_by_rows(lp, lambda x: ())
