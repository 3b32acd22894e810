"""Exact rational linear programming via a dense two-phase simplex.

The solver keeps an integer tableau with a shared denominator (fraction-free
"integer pivoting"), uses Bland's anti-cycling rule, and returns a basic
(vertex) optimal solution with exact rational values.  Problems at the scale
of this package are a few hundred rows, for which a dense tableau is the
simplest reliable choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import LPInfeasibleError, LPUnboundedError
from .rational import format_rational, lcm_of_denominators, parse_rational

LE, GE, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class LPVariable:
    name: str
    lo: Fraction = Fraction(0)
    hi: Optional[Fraction] = None


@dataclass(frozen=True)
class LPRow:
    coefs: Tuple[Tuple[str, Fraction], ...]
    rel: str
    rhs: Fraction
    label: str = ""


@dataclass
class LPSolution:
    value: Fraction
    assignment: Dict[str, Fraction]

    def __getitem__(self, name: str) -> Fraction:
        return self.assignment[name]


class RationalLP:
    """A maximization LP over named, bounded variables with exact data."""

    def __init__(self):
        self.variables: List[LPVariable] = []
        self._var_index: Dict[str, int] = {}
        self.rows: List[LPRow] = []
        self._row_keys: set = set()
        self.objective: Dict[str, Fraction] = {}

    def add_variable(self, name: str, lo=0, hi=None) -> str:
        if name in self._var_index:
            raise ValueError(f"duplicate variable {name!r}")
        lo = parse_rational(lo)
        hi = None if hi is None else parse_rational(hi)
        if hi is not None and hi < lo:
            raise ValueError(f"variable {name!r} has empty bounds [{lo}, {hi}]")
        self._var_index[name] = len(self.variables)
        self.variables.append(LPVariable(name, lo, hi))
        return name

    def add_row(self, coefs: Mapping[str, object], rel: str, rhs, label: str = "",
                dedupe: bool = True) -> bool:
        """Add a constraint row; returns False if an identical row was merged."""
        if rel not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        cleaned = []
        for name, c in coefs.items():
            if name not in self._var_index:
                raise ValueError(f"row references unknown variable {name!r}")
            c = parse_rational(c)
            if c != 0:
                cleaned.append((name, c))
        cleaned.sort(key=lambda nc: self._var_index[nc[0]])
        clean = tuple(cleaned)
        rhs = parse_rational(rhs)
        key = (clean, rel, rhs)
        if dedupe and key in self._row_keys:
            return False
        self._row_keys.add(key)
        self.rows.append(LPRow(clean, rel, rhs, label))
        return True

    def set_objective(self, coefs: Mapping[str, object]) -> None:
        for name in coefs:
            if name not in self._var_index:
                raise ValueError(f"objective references unknown variable {name!r}")
        self.objective = {name: parse_rational(c) for name, c in coefs.items()}

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

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


def _scale_to_int(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Multiply a rational vector by the lcm of its denominators.

    Returns the integer vector and the multiplier used.
    """
    denom = lcm_of_denominators(values)
    return [int(v * denom) for v in values], denom


class _Tableau:
    """Integer-pivoting simplex state.

    Stored row ``i`` equals ``denom * scale[i]`` times the true tableau row,
    where ``scale[i]`` is the row's initial integer multiplier until the row
    first serves as pivot row (then 1), with its sign flipped by explicit row
    negations.  ``denom`` is the previous pivot element and stays positive.
    """

    def __init__(self, lp: RationalLP):
        self.lp = lp
        n = len(lp.variables)
        self.n_struct = n
        self.lo = [v.lo for v in lp.variables]

        # Shift every variable to start at 0; upper bounds become rows.
        raw: List[Tuple[List[Fraction], str, Fraction]] = []
        for row in lp.rows:
            dense = [Fraction(0)] * n
            shift = Fraction(0)
            for name, c in row.coefs:
                idx = lp._var_index[name]
                dense[idx] = c
                shift += c * self.lo[idx]
            raw.append((dense, row.rel, row.rhs - shift))
        for idx, v in enumerate(lp.variables):
            if v.hi is not None:
                dense = [Fraction(0)] * n
                dense[idx] = Fraction(1)
                raw.append((dense, LE, v.hi - v.lo))

        # Canonical orientation: "<=" with rhs >= 0 takes a slack basis;
        # ">=" with rhs > 0 takes surplus + artificial; "==" an artificial.
        canon: List[Tuple[List[Fraction], str, Fraction]] = []
        for dense, rel, rhs in raw:
            if rel == GE:
                dense, rhs, rel = [-c for c in dense], -rhs, LE
            if rhs < 0:
                dense, rhs = [-c for c in dense], -rhs
                rel = GE if rel == LE else EQ
            canon.append((dense, rel, rhs))

        m = len(canon)
        self.m = m
        n_slack = sum(1 for _, rel, _ in canon if rel in (LE, GE))
        n_art = sum(1 for _, rel, _ in canon if rel in (GE, EQ))
        self.n_cols = n + n_slack + n_art
        self.art_cols = set(range(n + n_slack, n + n_slack + n_art))

        self.rows_int: List[List[int]] = []
        self.scale: List[int] = []
        self.basis: List[int] = [0] * m
        slack_at, art_at = n, n + n_slack
        for i, (dense, rel, rhs) in enumerate(canon):
            full = list(dense) + [Fraction(0)] * (self.n_cols - n)
            if rel in (LE, GE):
                full[slack_at] = Fraction(1) if rel == LE else Fraction(-1)
                if rel == LE:
                    self.basis[i] = slack_at
                slack_at += 1
            if rel in (GE, EQ):
                full[art_at] = Fraction(1)
                self.basis[i] = art_at
                art_at += 1
            ints, mult = _scale_to_int(full + [rhs])
            self.rows_int.append(ints)
            self.scale.append(mult)

        obj = [Fraction(0)] * (self.n_cols + 1)
        for name, c in lp.objective.items():
            obj[lp._var_index[name]] = c
        self.obj2, _ = _scale_to_int(obj)

        if self.art_cols:
            # Phase-1 objective: maximize -sum(artificials), priced out over
            # the artificial-basic rows so every basic column has zero cost.
            obj1 = [Fraction(0)] * (self.n_cols + 1)
            for col in self.art_cols:
                obj1[col] = Fraction(-1)
            for i in range(m):
                if self.basis[i] in self.art_cols:
                    s = self.scale[i]
                    for j in range(self.n_cols + 1):
                        if self.rows_int[i][j]:
                            obj1[j] += Fraction(self.rows_int[i][j], s)
            self.obj1, _ = _scale_to_int(obj1)
        else:
            self.obj1 = None

        self.denom = 1
        self.banned: set = set()

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        # The stored pivot entry must be positive so the shared denominator
        # stays positive; negating a stored row (and its scale) leaves the
        # true tableau unchanged.
        if self.rows_int[r][c] < 0:
            self.rows_int[r] = [-x for x in self.rows_int[r]]
            self.scale[r] = -self.scale[r]
        prow = self.rows_int[r]
        p = prow[c]
        if p <= 0:
            raise AssertionError("pivot entry must be nonzero")
        d = self.denom
        for i in range(self.m):
            if i == r:
                continue
            row = self.rows_int[i]
            f = row[c]
            if f == 0:
                if p != d:
                    self.rows_int[i] = [(x * p) // d for x in row]
            else:
                self.rows_int[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
        for name in ("obj1", "obj2"):
            obj = getattr(self, name)
            if obj is None:
                continue
            f = obj[c]
            if f == 0:
                if p != d:
                    setattr(self, name, [(x * p) // d for x in obj])
            else:
                setattr(self, name, [(x * p - f * y) // d for x, y in zip(obj, prow)])
        self.scale[r] = 1
        self.basis[r] = c
        self.denom = p

    def _ratio_leave(self, c: int) -> Optional[int]:
        """Bland leaving row for entering column ``c``; None if unbounded."""
        best = None
        best_b = best_a = 0
        for i in range(self.m):
            sgn = 1 if self.scale[i] > 0 else -1
            a = self.rows_int[i][c] * sgn
            if a <= 0:
                continue
            b = self.rows_int[i][-1] * sgn
            if (
                best is None
                or b * best_a < best_b * a
                or (b * best_a == best_b * a and self.basis[i] < self.basis[best])
            ):
                best, best_b, best_a = i, b, a
        return best

    def _run(self, obj_name: str, phase_one: bool) -> None:
        while True:
            obj = getattr(self, obj_name)
            enter = None
            for j in range(self.n_cols):
                if obj[j] > 0 and j not in self.banned:
                    enter = j
                    break
            if enter is None:
                return
            leave = self._ratio_leave(enter)
            if leave is None:
                if phase_one:
                    raise AssertionError("phase-1 objective cannot be unbounded")
                raise LPUnboundedError("objective is unbounded above")
            self._pivot(leave, enter)

    def _drive_out_artificials(self) -> None:
        for i in range(self.m):
            if self.basis[i] not in self.art_cols:
                continue
            pivot_col = None
            for j in range(self.n_cols):
                if j in self.art_cols:
                    continue
                if self.rows_int[i][j] != 0:
                    pivot_col = j
                    break
            if pivot_col is None:
                continue  # redundant row; its artificial stays basic at 0
            # The row's basic value is 0 here, so this degenerate pivot
            # preserves feasibility regardless of the entry's sign.
            self._pivot(i, pivot_col)

    def solve(self) -> LPSolution:
        if self.obj1 is not None:
            self._run("obj1", phase_one=True)
            if self.obj1[-1] != 0:
                raise LPInfeasibleError("no feasible point exists")
            self._drive_out_artificials()
            self.banned |= self.art_cols
        self._run("obj2", phase_one=False)

        values = [Fraction(0)] * self.n_cols
        for i in range(self.m):
            values[self.basis[i]] = Fraction(
                self.rows_int[i][-1], self.denom * self.scale[i]
            )
        assignment = {
            var.name: values[idx] + var.lo
            for idx, var in enumerate(self.lp.variables)
        }
        value = sum(
            (c * assignment[name] for name, c in self.lp.objective.items()),
            Fraction(0),
        )
        return LPSolution(value=value, assignment=assignment)


def solve_lp(lp: RationalLP) -> LPSolution:
    """Solve to a vertex optimum; raises on infeasible or unbounded input."""
    return _Tableau(lp).solve()
