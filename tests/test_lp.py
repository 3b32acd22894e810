import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from fixedprice import (
    RationalLP,
    build_bm_lp,
    build_mechanism_lp,
    build_set_function_lp,
    load_instance,
    robust_revenue,
    solve_lp,
    solve_mechanism_lp,
    solve_multibuyer_lp,
)
from fixedprice import lp as lp_module
from fixedprice.extensions import build_multibuyer_lp, menu_from_json
from fixedprice.errors import LPInfeasibleError, LPUnboundedError
from fixedprice.lp import _DEGENERATE_LIMIT, EQ, GE, LE, _Tableau
from fixedprice.rational import format_rational, parse_rational, round_to_rational

from .helpers import (
    four_item_clash,
    random_instance,
    random_three_buyer,
    random_two_buyer,
    reference_lexmin,
    reference_pivot,
    robust_menu_instance,
    two_buyer_two_item,
)
from .test_golden_vertices import FIXTURES, golden_instances


class TestRationalParsing:
    def test_forms(self):
        assert parse_rational("1/6") == Fraction(1, 6)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational(3) == 3
        assert format_rational(Fraction(7, 6)) == "7/6"
        assert format_rational(Fraction(4, 2)) == "2"

    def test_floats_rejected_in_strict_parse(self):
        with pytest.raises(ValueError):
            parse_rational(0.25)

    def test_round_to_rational_recovers_small_fractions(self):
        x = Fraction(1, 3) + Fraction(1, 10**40)
        assert round_to_rational(x, Fraction(1, 10**30)) == Fraction(1, 3)

    def test_round_to_rational_negative(self):
        x = Fraction(-2, 7) - Fraction(1, 10**35)
        assert round_to_rational(x, Fraction(1, 10**30)) == Fraction(-2, 7)


def _assert_exactly_feasible(lp, sol):
    for var in lp.variables:
        x = sol[var.name]
        assert var.lo <= x and (var.hi is None or x <= var.hi), var.name
    for row in lp.rows:
        lhs = sum((c * sol[name] for name, c in row.coefs), Fraction(0))
        assert {LE: lhs <= row.rhs, GE: lhs >= row.rhs, EQ: lhs == row.rhs}[row.rel], row
    assert sol.value == sum(
        (c * sol[name] for name, c in lp.objective.items()), Fraction(0)
    )


def _mixed_problem(rng, planted: bool):
    """A box-bounded LP with "<=", ">=" and "==" rows, rational data and
    nonzero lower bounds.  With ``planted`` the rows are made to hold at a
    random point of the box and a redundant equality row may be appended."""
    n = rng.randint(1, 5)
    names = [f"x{i}" for i in range(n)]

    def rational(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))

    lp = RationalLP()
    point = {}
    for name in names:
        lo = rational(-4, 2)
        hi = lo + rng.randint(0, 4)
        lp.add_variable(name, lo=lo, hi=hi)
        point[name] = lo + (hi - lo) * Fraction(rng.randint(0, 4), 4)
    rows = []
    for _ in range(rng.randint(1, 5)):
        coefs = {name: rational(-4, 4) for name in names if rng.random() < 0.8}
        rel = rng.choice((LE, GE, EQ))
        if planted:
            at_point = sum((c * point[name] for name, c in coefs.items()), Fraction(0))
            gap = Fraction(rng.randint(0, 3), 2)
            rhs = {LE: at_point + gap, GE: at_point - gap, EQ: at_point}[rel]
        else:
            rhs = rational(-6, 6)
        rows.append((coefs, rel, rhs))
    equalities = [(coefs, rhs) for coefs, rel, rhs in rows if rel == EQ]
    if planted and equalities and rng.random() < 0.7:
        combo, total = {}, Fraction(0)
        for coefs, rhs in equalities:
            w = rational(-2, 2) or Fraction(1)
            for name, c in coefs.items():
                combo[name] = combo.get(name, Fraction(0)) + w * c
            total += w * rhs
        rows.append((combo, EQ, total))
    for coefs, rel, rhs in rows:
        lp.add_row(coefs, rel, rhs)
    lp.set_objective({name: rational(-3, 3) for name in names})
    return lp


def _highs(opt, lp):
    """Solve ``lp`` in floating point with HiGHS; returns the linprog result."""
    names = [v.name for v in lp.variables]
    ub, b_ub, eq, b_eq = [], [], [], []
    for row in lp.rows:
        dense = [float(dict(row.coefs).get(name, 0)) for name in names]
        if row.rel == EQ:
            eq.append(dense)
            b_eq.append(float(row.rhs))
        else:
            sign = 1 if row.rel == LE else -1
            ub.append([sign * a for a in dense])
            b_ub.append(sign * float(row.rhs))
    return opt.linprog(
        [-float(lp.objective.get(name, 0)) for name in names],
        A_ub=ub or None, b_ub=b_ub or None, A_eq=eq or None, b_eq=b_eq or None,
        bounds=[(float(v.lo), float(v.hi)) for v in lp.variables], method="highs",
    )


class TestSimplex:
    def test_single_variable(self):
        lp = RationalLP()
        lp.add_variable("x")
        lp.add_row({"x": 1}, "<=", 1)
        lp.set_objective({"x": 1})
        sol = solve_lp(lp)
        assert sol.value == 1 and sol["x"] == 1

    def test_two_variable_vertex(self):
        lp = RationalLP()
        lp.add_variable("x")
        lp.add_variable("y")
        lp.add_row({"x": 1, "y": 2}, "<=", 4)
        lp.add_row({"x": 3, "y": 1}, "<=", 6)
        lp.set_objective({"x": 3, "y": 2})
        sol = solve_lp(lp)
        assert (sol.value, sol["x"], sol["y"]) == (
            Fraction(36, 5), Fraction(8, 5), Fraction(6, 5)
        )

    def test_equality_and_shifted_bounds(self):
        lp = RationalLP()
        lp.add_variable("u", lo=-5, hi=5)
        lp.add_variable("v", lo=0, hi=3)
        lp.add_row({"u": 1, "v": 1}, "==", 2)
        lp.set_objective({"u": -1, "v": 2})
        sol = solve_lp(lp)
        assert sol.value == 7 and sol["u"] == -1 and sol["v"] == 3

    def test_infeasible_reported(self):
        lp = RationalLP()
        lp.add_variable("x", hi=1)
        lp.add_row({"x": 1}, ">=", 2)
        lp.set_objective({"x": 1})
        with pytest.raises(LPInfeasibleError):
            solve_lp(lp)

    def test_unbounded_reported(self):
        lp = RationalLP()
        lp.add_variable("x")
        lp.set_objective({"x": 1})
        with pytest.raises(LPUnboundedError):
            solve_lp(lp)

    def test_duplicate_rows_kept(self):
        lp = RationalLP()
        lp.add_variable("x")
        lp.add_variable("y", hi=3)
        lp.add_row({"x": 1, "y": 1}, "<=", 4)
        lp.set_objective({"x": 2, "y": 1})
        once = solve_lp(lp)
        assert lp.add_row({"x": 1, "y": 1}, "<=", 4) is None
        assert lp.num_rows == 2 and lp.rows[0] == lp.rows[1]
        twice = solve_lp(lp)
        assert twice.value == once.value == 8
        assert twice.assignment == once.assignment

    def test_degenerate_vertex(self):
        lp = RationalLP()
        for v in ("x", "y", "z"):
            lp.add_variable(v)
        lp.add_row({"x": 1, "y": 1}, ">=", 2)
        lp.add_row({"x": 1, "y": 1, "z": 1}, "<=", 2)
        lp.add_row({"z": 1}, "<=", 0)
        lp.set_objective({"x": 1, "y": 3, "z": 5})
        assert solve_lp(lp).value == 6

    def test_matches_float_solver_on_random_problems(self):
        opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = rng.randint(1, 6)
            lp = RationalLP()
            for i in range(n):
                lp.add_variable(f"x{i}", lo=0, hi=rng.randint(1, 4))
            for _ in range(m):
                coefs = {
                    f"x{i}": Fraction(rng.randint(-3, 3)) for i in range(n)
                }
                rhs = Fraction(rng.randint(0, 6))
                lp.add_row(coefs, "<=", rhs)
            obj = {f"x{i}": Fraction(rng.randint(-3, 3)) for i in range(n)}
            lp.set_objective(obj)
            sol = solve_lp(lp)  # bounded by boxes, feasible at 0
            ref = _highs(opt, lp)
            assert ref.success
            assert abs(float(sol.value) - (-ref.fun)) < 1e-7
            _assert_exactly_feasible(lp, sol)

    def test_phase_one_problems_match_float_solver(self):
        # ">=" and "==" rows and negative right-hand sides start at a
        # violated slack basis, which the feasibility phase repairs;
        # redundant equalities leave degenerate rows; unplanted rows are
        # often infeasible, which HiGHS must report too.
        opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(202)
        outcomes = {"optimal": 0, "infeasible": 0, "infeasible_start": 0}
        for k in range(120):
            lp = _mixed_problem(rng, planted=k % 2 == 0)
            tab = _Tableau(lp)
            outcomes["infeasible_start"] += any(b < 0 for b in tab.rhs[:tab.m])
            ref = _highs(opt, lp)
            try:
                sol = solve_lp(lp)
            except LPInfeasibleError:
                assert ref.status == 2, (k, lp.to_text(), ref.message)
                outcomes["infeasible"] += 1
                continue
            assert ref.status == 0, (k, lp.to_text(), ref.message)
            _assert_exactly_feasible(lp, sol)
            assert abs(float(sol.value) - (-ref.fun)) < 1e-7, (k, lp.to_text())
            outcomes["optimal"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_vertex_solution_is_basic(self):
        # a vertex of this square must be a corner, not the face midpoint
        lp = RationalLP()
        lp.add_variable("x", hi=1)
        lp.add_variable("y", hi=1)
        lp.set_objective({"x": 1})
        sol = solve_lp(lp)
        assert sol["x"] == 1 and sol["y"] in (Fraction(0), Fraction(1))

    def test_text_export_mentions_rows_and_bounds(self):
        lp = RationalLP()
        lp.add_variable("x", hi=Fraction(1, 2))
        lp.add_row({"x": Fraction(1, 3)}, "<=", Fraction(1, 6), label="cap")
        lp.set_objective({"x": 1})
        text = lp.to_text()
        assert "max: 1 x" in text
        assert "cap: 1/3 x <= 1/6" in text
        assert "bound: 0 <= x <= 1/2" in text


def _builder_texts():
    """``to_text()`` of every LP builder on seeded instances."""
    rng = random.Random(71)
    singles = [four_item_clash(), robust_menu_instance()] + [
        random_instance(rng, n_max=5, max_lists=8) for _ in range(30)]
    for inst in singles:
        for build in (build_mechanism_lp, build_bm_lp, build_set_function_lp):
            yield build(inst).to_text()
    rng = random.Random(73)
    multis = [two_buyer_two_item()] + [random_two_buyer(rng) for _ in range(20)] + [
        random_three_buyer(rng) for _ in range(3)]
    for mb in multis:
        for mode in ("dsic", "bic"):
            yield build_multibuyer_lp(mb, mode)[0].to_text()


class TestIndexRows:
    """``RationalLP`` stores rows by column; names only render them."""

    def _lp(self):
        lp = RationalLP()
        for name in ("x", "y", "z"):
            lp.add_variable(name)
        return lp

    def test_unknown_column_or_relation_raises(self):
        lp = self._lp()
        for coefs, rel in (({3: 1}, LE), ({-1: 1}, LE), ({0: 1}, "<"), ({0: 1}, "=")):
            with pytest.raises(ValueError):
                lp.add_index_row(coefs, rel, 1)
        with pytest.raises(ValueError):
            lp.add_row({"w": 1}, LE, 1)
        assert lp.num_rows == 0

    def test_zeros_dropped_and_copies_kept(self):
        lp = self._lp()
        lp.add_index_row({2: 3, 0: 0, 1: Fraction(1, 2)}, GE, 1)
        lp.add_index_row({1: Fraction(1, 2), 2: 3}, GE, 1)
        lp.add_index_row({0: 0}, LE, 0)
        assert lp._rows[0] == (((1, Fraction(1, 2)), (2, 3)), GE, 1, "")
        assert lp.rows[0] == lp.rows[1] and lp.rows[2].coefs == ()
        assert lp.num_rows == 3
        assert type(lp._rows[0][0][1][1]) is int

    def test_rows_view_equals_the_named_writer(self):
        by_index, by_name = self._lp(), self._lp()
        rows = [({2: 1, 0: -2}, LE, 4, "a"), ({1: Fraction(2, 3)}, GE, Fraction(1, 3), ""),
                ({0: 1, 1: 1, 2: 1}, EQ, 2, "")]
        names = "xyz"
        for coefs, rel, rhs, label in rows:
            by_index.add_index_row(coefs, rel, rhs, label)
            by_name.add_row({names[j]: c for j, c in coefs.items()}, rel, rhs, label)
        by_index.set_index_objective({0: 1, 2: 3})
        by_name.set_objective({"x": 1, "z": 3})
        assert by_index.rows == by_name.rows
        assert by_index.rows[0].coefs == (("x", -2), ("z", 1))
        assert by_index.objective == by_name.objective == {"x": 1, "z": 3}
        assert by_index.to_text() == by_name.to_text()
        assert solve_lp(by_index) == solve_lp(by_name)

    def test_builder_text_is_pinned(self):
        # Recorded when rows were still stored by name: storing them by
        # column must not change one byte of any builder's text.
        digest = hashlib.sha256()
        for text in _builder_texts():
            digest.update(text.encode())
        assert digest.hexdigest() == (
            "3e8c08c32f6cee86cb57cfd6ea1db9071750ce44f036de0b9591e15208d14478")


def _pivot_path(lp, pivot, monkeypatch):
    """Solve ``lp`` with ``pivot`` as ``_Tableau._pivot``; returns each pivot
    as (row, column, p != d) and the solution or the error type."""
    path = []

    def recording(tab, r, c, hit):
        path.append((r, c, abs(tab.rows[r][c]) != tab.denom))
        pivot(tab, r, c, hit)

    monkeypatch.setattr(_Tableau, "_pivot", recording)
    try:
        sol = solve_lp(lp)
        return path, (sol.value, sol.assignment)
    except (LPInfeasibleError, LPUnboundedError) as exc:
        return path, type(exc)


class TestPivotPath:
    def test_in_place_pivot_takes_the_reference_path(self, monkeypatch):
        # The in-place pivot must take the same (row, column) pivots as the
        # rebuild-every-row reference and reach the same vertex, on pivots
        # with p == d and p != d alike.
        rng = random.Random(202)
        lps = [_mixed_problem(rng, planted=k % 2 == 0) for k in range(120)]
        rng = random.Random(303)
        instances = [four_item_clash(), robust_menu_instance()] + [
            random_instance(rng, n_max=5, max_lists=8) for _ in range(4)]
        for inst in instances:
            lps += [build_mechanism_lp(inst), build_bm_lp(inst)]
        for mb in [two_buyer_two_item()] + [random_two_buyer(rng) for _ in range(3)]:
            lps += [build_multibuyer_lp(mb, mode)[0] for mode in ("dsic", "bic")]
        in_place = _Tableau._pivot
        kinds = set()
        for k, lp in enumerate(lps):
            path, result = _pivot_path(lp, in_place, monkeypatch)
            assert (path, result) == _pivot_path(lp, reference_pivot, monkeypatch), k
            kinds.update(rescaled for _, _, rescaled in path)
        assert kinds == {False, True}


class TestLexMin:
    @pytest.mark.parametrize("limit", [_DEGENERATE_LIMIT, 0])
    def test_feasible_mixed_problems(self, monkeypatch, limit):
        # With the limit at 0 the feasibility phase and phase 2 take
        # Bland's rule throughout.
        monkeypatch.setattr(lp_module, "_DEGENERATE_LIMIT", limit)
        rng = random.Random(202)
        solved = 0
        for k in range(120):
            lp = _mixed_problem(rng, planted=k % 2 == 0)
            try:
                sol = solve_lp(lp)
            except LPInfeasibleError:
                continue
            assert sol.assignment == reference_lexmin(lp), (k, lp.to_text())
            solved += 1
        assert solved >= 20

    @pytest.mark.parametrize("limit", [_DEGENERATE_LIMIT, 0])
    def test_feasibility_phase_cases(self, monkeypatch, limit):
        # Each LP starts with a negative rhs, so the feasibility phase runs:
        # beside "x >= 1", an "==" row with rhs 0; an "==" row twice; an
        # "==" row that two others imply; and a ">=" row no point of the
        # box meets.
        monkeypatch.setattr(lp_module, "_DEGENERATE_LIMIT", limit)
        cases = [
            ([({"x": 1}, GE, 1), ({"x": 1, "y": 1, "z": -1}, EQ, 0)],
             {"y": 1}, {"x": 1, "y": 2, "z": 3}),
            ([({"x": 1, "y": 2}, EQ, 3)] * 2, {"y": 1},
             {"x": 0, "y": Fraction(3, 2), "z": 0}),
            ([({"x": 1, "y": 1}, EQ, 2), ({"y": 1, "z": 1}, EQ, 3),
              ({"x": 1, "y": 2, "z": 1}, EQ, 5)], {"z": 1}, {"x": 2, "y": 0, "z": 3}),
            ([({"x": 1, "y": 1}, GE, 5)], {"x": 1}, LPInfeasibleError),
        ]
        for rows, objective, expected in cases:
            lp = RationalLP()
            for name in "xyz":
                lp.add_variable(name, hi=2 if name != "z" else None)
            for coefs, rel, rhs in rows:
                lp.add_row(coefs, rel, rhs)
            lp.set_objective(objective)
            tab = _Tableau(lp)
            assert min(tab.rhs[:tab.m]) < 0, rows
            if expected is LPInfeasibleError:
                with pytest.raises(LPInfeasibleError):
                    solve_lp(lp)
                continue
            assert solve_lp(lp).assignment == reference_lexmin(lp) == expected, rows

    def test_package_lps_start_feasible(self, monkeypatch):
        # The package's LPs start at a feasible slack basis: the allocation
        # LPs at the mechanism that never sells, which is IC, and the
        # exposability LPs of robust menus too.  So the feasibility phase
        # never runs on them, and the benchmark's LPs do not take it.
        starts = []
        optimize = _Tableau.optimize

        def recorded(tab):
            starts.append((key, min(tab.rhs[:tab.m], default=0)))
            optimize(tab)

        monkeypatch.setattr(_Tableau, "optimize", recorded)
        for key, inst, multibuyer in golden_instances():
            if multibuyer:
                for mode in ("dsic", "bic"):
                    solve_lp(build_multibuyer_lp(inst, mode)[0])
                    solve_multibuyer_lp(inst, mode)
            else:
                for build in (build_mechanism_lp, build_bm_lp, build_set_function_lp):
                    solve_lp(build(inst))
                solve_mechanism_lp(inst)
        key = "robust_menu"
        with open(os.path.join(FIXTURES, "robust_menu_instance.json")) as fh:
            inst = load_instance(fh.read())
        with open(os.path.join(FIXTURES, "robust_menu.json")) as fh:
            robust_revenue(inst, menu_from_json(json.load(fh), inst.items))
        assert sum(k == "robust_menu" for k, _ in starts) >= 10
        assert [(k, b) for k, b in starts if b < 0] == []

    def test_golden_lps(self):
        for key, inst, multibuyer in golden_instances():
            if multibuyer:
                lps = [build_multibuyer_lp(inst, mode)[0] for mode in ("dsic", "bic")]
            else:
                lps = [build(inst) for build in
                       (build_mechanism_lp, build_bm_lp, build_set_function_lp)]
            for lp in lps:
                assert solve_lp(lp).assignment == reference_lexmin(lp), key

    def test_cycling_lp_ends_through_the_bland_fallback(self, monkeypatch):
        # Chvatal's example: from the slack basis, Dantzig's rule with the
        # lowest column on ties cycles through six degenerate bases.  After
        # _DEGENERATE_LIMIT of them Bland's rule must finish the solve.
        lp = RationalLP()
        names = ["x1", "x2", "x3", "x4"]
        for name in names:
            lp.add_variable(name)
        half = Fraction(1, 2)
        lp.add_row({"x1": half, "x2": -11 * half, "x3": -5 * half, "x4": 9}, LE, 0)
        lp.add_row({"x1": half, "x2": -3 * half, "x3": -half, "x4": 1}, LE, 0)
        lp.add_row({"x1": 1}, LE, 1)
        lp.set_objective({"x1": 10, "x2": -57, "x3": -9, "x4": -24})
        degenerate = []
        pivot = _Tableau._pivot

        def counted(tab, r, c, hit):
            degenerate.append(tab.rhs[r] == 0)
            if len(degenerate) > 5000:
                raise AssertionError("the simplex cycles")
            pivot(tab, r, c, hit)

        monkeypatch.setattr(_Tableau, "_pivot", counted)
        sol = solve_lp(lp)
        assert sol.value == 1 and [sol[name] for name in names] == [1, 0, 1, 0]
        assert all(degenerate[:_DEGENERATE_LIMIT + 1])


def _warm_vertex(tab, lp):
    return {var.name: Fraction(x, tab.denom) + var.lo
            for x, var in zip(tab.vertex(), lp.variables)}


def _restart(tab, lp, rows):
    """Append ``rows`` (name-keyed ``(coefs, rel, rhs)``) to ``lp`` and to
    the optimized tableau ``tab`` of ``lp``, and reoptimize; returns the
    warm vertex and a cold ``solve_lp`` of the grown LP (or, for either,
    the error type)."""
    index = lp._var_index
    tab.add_rows([({index[name]: c for name, c in coefs.items()}, rel, rhs)
                  for coefs, rel, rhs in rows])
    for coefs, rel, rhs in rows:
        lp.add_row(coefs, rel, rhs)
    try:
        tab.reoptimize()
        warm = _warm_vertex(tab, lp)
    except LPInfeasibleError:
        warm = LPInfeasibleError
    try:
        cold = solve_lp(lp).assignment
    except LPInfeasibleError:
        cold = LPInfeasibleError
    return warm, cold


def _lhs(coefs, x):
    return sum((c * x[name] for name, c in dict(coefs).items()), Fraction(0))


def _tight_rows(lp, x):
    """The rows of ``lp`` that hold with equality at ``x``, as row triples."""
    return [(dict(row.coefs), row.rel, row.rhs) for row in lp.rows
            if _lhs(row.coefs, x) == row.rhs]


def _record_dual_pivots(monkeypatch):
    """Record each pivot that ``reoptimize`` takes on a row with a negative
    rhs, which only the dual simplex takes, as whether row m prices its
    column at 0: a degenerate dual pivot, which leaves the objective value
    where it was.  The feasibility phase of a cold solve is not recorded."""
    kinds = []
    pivot, reoptimize = _Tableau._pivot, _Tableau.reoptimize
    warm = []

    def recording(tab, r, c, hit):
        if warm and tab.rhs[r] < 0:
            kinds.append(tab.rows[tab.m].get(c, 0) == 0)
        pivot(tab, r, c, hit)

    def recorded(tab):
        warm.append(True)
        try:
            reoptimize(tab)
        finally:
            warm.pop()

    monkeypatch.setattr(_Tableau, "_pivot", recording)
    monkeypatch.setattr(_Tableau, "reoptimize", recorded)
    return kinds


class TestWarmRestart:
    """``add_rows`` and ``reoptimize`` on an optimal tableau reach the
    vertex that a cold ``solve_lp`` of the grown LP returns: the lex-min
    optimum of ``reference_lexmin``."""

    def test_dual_degenerate_restart(self, monkeypatch):
        # max x + y on x + y <= 2 has the optimal face x + y = 2, whose
        # lex-min point is (0, 2).  The cut y <= 1 leaves y's row with a
        # negative rhs, and the dual simplex enters x, which row m prices
        # at 0: a degenerate dual pivot to (1, 1).
        kinds = _record_dual_pivots(monkeypatch)
        lp = RationalLP()
        lp.add_variable("x")
        lp.add_variable("y")
        lp.add_row({"x": 1, "y": 1}, LE, 2)
        lp.set_objective({"x": 1, "y": 1})
        tab = _Tableau(lp)
        tab.optimize()
        assert _warm_vertex(tab, lp) == {"x": 0, "y": 2}
        warm, cold = _restart(tab, lp, [({"y": Fraction(1)}, LE, Fraction(1))])
        assert warm == cold == reference_lexmin(lp) == {"x": 1, "y": 1}
        assert kinds == [True]

    def test_random_le_lps(self, monkeypatch):
        # Boxes and "<=" rows with rhs >= 0 keep 0 feasible, so a cut
        # a x <= b with 0 <= b < a x* removes the vertex x* and keeps the LP
        # feasible.  Some rounds also repeat a row that is tight at x*.
        kinds = _record_dual_pivots(monkeypatch)
        rng = random.Random(404)
        rounds = repeats = 0
        for _ in range(40):
            n = rng.randint(2, 5)
            names = [f"x{i}" for i in range(n)]
            lp = RationalLP()
            for name in names:
                lp.add_variable(name, lo=0, hi=rng.randint(1, 4))
            for _ in range(rng.randint(1, 5)):
                lp.add_row({name: Fraction(rng.randint(-3, 3)) for name in names},
                           LE, Fraction(rng.randint(0, 6)))
            lp.set_objective({name: Fraction(rng.randint(-1, 3)) for name in names})
            tab = _Tableau(lp)
            tab.optimize()
            x = _warm_vertex(tab, lp)
            assert x == solve_lp(lp).assignment
            for _ in range(3):
                cuts = []
                for _ in range(20):
                    coefs = {name: Fraction(rng.randint(-2, 3)) for name in names}
                    at_x = _lhs(coefs, x)
                    if at_x > 0:
                        b = at_x * Fraction(rng.randint(0, 3), 4)
                        if rng.random() < 0.5:
                            cuts.append((coefs, LE, b))
                        else:
                            cuts.append(({name: -c for name, c in coefs.items()}, GE, -b))
                    if len(cuts) == 2:
                        break
                if not cuts:
                    break
                tight = _tight_rows(lp, x)
                if tight and rng.random() < 0.5:
                    cuts.insert(rng.randint(0, len(cuts)), rng.choice(tight))
                    repeats += 1
                warm, cold = _restart(tab, lp, cuts)
                assert warm == cold == reference_lexmin(lp), lp.to_text()
                x = warm
                rounds += 1
        assert rounds >= 60 and repeats >= 15
        assert True in kinds and False in kinds

    def test_mixed_problems(self):
        # Nonzero lower bounds, ">=" and "==" rows (the feasibility phase,
        # and redundant rows); a cut may empty the LP, and then both solves
        # must say so.
        rng = random.Random(505)
        outcomes = {"optimal": 0, "infeasible": 0}
        for _ in range(60):
            lp = _mixed_problem(rng, planted=True)
            tab = _Tableau(lp)
            try:
                tab.optimize()
            except LPInfeasibleError:
                continue
            x = _warm_vertex(tab, lp)
            names = [var.name for var in lp.variables]
            coefs = {name: Fraction(rng.randint(-3, 3)) for name in names}
            rel = rng.choice((LE, GE))
            cut = _lhs(coefs, x) + (Fraction(-1) if rel == LE else Fraction(1))
            warm, cold = _restart(tab, lp, [(coefs, rel, cut * Fraction(rng.randint(1, 3), 2))])
            assert warm == cold, lp.to_text()
            if warm is LPInfeasibleError:
                outcomes["infeasible"] += 1
            else:
                assert warm == reference_lexmin(lp), lp.to_text()
                outcomes["optimal"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    @pytest.mark.parametrize("limit", [_DEGENERATE_LIMIT, 0])
    def test_mechanism_lps(self, monkeypatch, limit):
        # Start from the sum-to-one rows and a random part of the IC rows,
        # then append the violated rows of the rest, with a few rows that
        # hold and a repeat of a tight row, until none is violated.  With
        # the limit at 0 both simplex methods take Bland's rule throughout.
        monkeypatch.setattr(lp_module, "_DEGENERATE_LIMIT", limit)
        kinds = _record_dual_pivots(monkeypatch)
        rng = random.Random(606)
        rounds = 0
        for _ in range(30):
            inst = random_instance(rng, n_min=3, n_max=5, max_lists=8)
            full = build_mechanism_lp(inst)
            lp = RationalLP()
            for var in full.variables:
                lp.add_variable(var.name, var.lo, var.hi)
            lp.set_objective(full.objective)
            rest = []
            for row in full.rows:
                if row.rel == LE or rng.random() < 0.1:
                    lp.add_row(dict(row.coefs), row.rel, row.rhs)
                else:
                    rest.append((dict(row.coefs), row.rel, row.rhs))
            tab = _Tableau(lp)
            tab.optimize()
            x = _warm_vertex(tab, lp)
            while True:
                violated = [row for row in rest if _lhs(row[0], x) < row[2]]
                if not violated:
                    break
                holding = [row for row in rest if row not in violated]
                batch = violated + rng.sample(holding, min(2, len(holding)))
                batch.append(rng.choice(_tight_rows(lp, x)))
                rng.shuffle(batch)
                rest = [row for row in rest if row not in batch]
                warm, cold = _restart(tab, lp, batch)
                assert warm == cold == reference_lexmin(lp)
                x = warm
                rounds += 1
            assert x == solve_lp(full).assignment
        assert rounds >= 20
        assert True in kinds and False in kinds
