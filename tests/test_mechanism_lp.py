import glob
import json
import os
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from fixedprice import (
    Instance,
    ListDistribution,
    Mechanism,
    MnlParams,
    SetFunction,
    assortment_revenue,
    assortment_to_mechanism,
    build_bm_lp,
    build_mechanism_lp,
    build_set_function_lp,
    containment_witness,
    dump_instance,
    gen_mnl,
    load_instance,
    mechanism_revenue,
    mechanism_to_set_function,
    optimal_assortment,
    solve_bm_lp,
    solve_lp,
    solve_mechanism_lp,
    solve_set_function_lp,
    submodular_to_mechanism,
    verify_ic,
)
from fixedprice.errors import (
    CapExceededError,
    ContainmentError,
    IdentityCheckError,
    SubmodularityError,
)
from fixedprice.extensions import build_multibuyer_lp
from fixedprice.lotteries import BudgetAdditiveParams, budget_additive_mechanism
from fixedprice.lp import _Tableau
from fixedprice.mechanism_lp import (
    _max_weight_closure,
    _set_var,
    _var,
    mechanism_from_json,
    mechanism_from_solution,
    mechanism_to_json,
    set_function_revenue,
)

from .helpers import (
    ITEM_POOL,
    condition_violation_minimal,
    four_item_clash,
    history_monotone_tree,
    random_instance,
    random_two_buyer,
    reference_mechanism_lp,
    reference_verify_ic,
    robust_menu_instance,
    singleton_mixture,
)
from .test_golden_vertices import FIXTURES


def full_support_instance(prices) -> Instance:
    items = sorted(prices)
    dist = gen_mnl(items, MnlParams({j: 1 for j in items}, 1))
    return Instance(items, prices, dist)


class TestMechanismLp:
    def test_variable_count(self):
        lp = build_mechanism_lp(four_item_clash())
        assert lp.num_variables == 12  # six lists, two items each

    def test_single_list_single_item(self):
        inst = Instance(
            ["1"], {"1": Fraction(3)}, ListDistribution({("1",): Fraction(1)})
        )
        value, mech = solve_mechanism_lp(inst)
        assert value == 3
        assert mech.probability(("1",), "1") == 1

    def test_row_count_order(self):
        # one row per nonempty list, plus one per (l, k, l') with l' != l
        # holding one of the first k entries of l
        inst = four_item_clash()
        support = list(inst.dist.support)
        ic = sum(1 for l in support for k in range(1, len(l) + 1) for other in support
                 if other != l and set(other.entries) & set(l.entries[:k]))
        nonempty = sum(1 for l in support if len(l) > 0)
        assert build_mechanism_lp(inst).num_rows == nonempty + ic == 42

    def test_optimum_beats_best_assortment_here(self):
        inst = four_item_clash()
        value, mech = solve_mechanism_lp(inst)
        assert value == Fraction(5, 4)
        assert verify_ic(inst, mech).ok

    def test_known_robust_instance_value(self):
        value, _ = solve_mechanism_lp(robust_menu_instance())
        assert value == Fraction(21, 16)

    def test_same_vertex_as_the_deduplicated_full_family(self):
        # Leaving out the rows that cannot bind keeps the feasible set, so
        # the value and the lex-min vertex are those of the LP with every
        # (list, position, report) row, copies dropped.
        instances = _fixture_instances()
        instances += [random_instance(random.Random(f"golden/{k}"), n_max=5, max_lists=8)
                      for k in range(10)]
        rng = random.Random(41)
        instances += [random_instance(rng) for _ in range(100)]
        for k, inst in enumerate(instances):
            sol, ref = solve_lp(build_mechanism_lp(inst)), solve_lp(reference_mechanism_lp(inst))
            assert (sol.value, sol.assignment) == (ref.value, ref.assignment), k

    def test_ic_rows_are_the_reference_rows_that_can_bind(self):
        # The ">=" rows of the full LP are, in order, the reference family's
        # rows with a negative coefficient: the IC rows whose report shares
        # an entry with the top k and is not the list itself.
        instances = _fixture_instances()
        rng = random.Random(43)
        instances += [random_instance(rng, n_max=6, max_lists=12) for _ in range(40)]
        for k, inst in enumerate(instances):
            rows = [row for row in build_mechanism_lp(inst).rows if row.rel == ">="]
            ref = [row for row in reference_mechanism_lp(inst).rows
                   if row.rel == ">=" and any(c < 0 for _, c in row.coefs)]
            assert rows == ref, k


def _mnl_urn(n: int) -> Instance:
    """The MNL urn on n items with weights 1..n, w0 = 1 and prices n..1."""
    items = ITEM_POOL[:n]
    dist = gen_mnl(items, MnlParams({j: i + 1 for i, j in enumerate(items)}, 1))
    return Instance(items, {j: n - i for i, j in enumerate(items)}, dist)


def _fixture_instances():
    instances = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path) as fh:
            obj = json.load(fh)
        if "lists" in obj:
            instances.append(load_instance(json.dumps(obj)))
    return instances


def _full_solve(inst):
    sol = solve_lp(build_mechanism_lp(inst))
    return sol.value, mechanism_from_solution(inst, sol)


class TestLazyRows:
    """``solve_mechanism_lp`` adds IC rows only as its integer pass finds them
    violated, yet returns the full LP's value and lex-min vertex."""

    def test_equals_the_full_lp(self):
        instances = _fixture_instances()
        rng = random.Random(43)
        instances += [random_instance(rng, n_max=6, max_lists=12) for _ in range(80)]
        for n in (3, 4):
            urn = _mnl_urn(n)
            # dump_instance writes the lists in another order, which is the
            # LP's variable order and so picks the lex-min vertex.
            from_file = load_instance(dump_instance(urn))
            assert list(from_file.dist.support) != list(urn.dist.support)
            instances += [urn, from_file]
        for k, inst in enumerate(instances):
            assert solve_mechanism_lp(inst) == _full_solve(inst), k

    def test_each_round_adds_new_rows_of_the_full_lp(self, monkeypatch):
        # Checked as each round's rows are appended to the tableau, so a
        # wrong row fails here instead of being found violated again round
        # after round.
        full, rounds = set(), []
        add_rows = _Tableau.add_rows

        def checking_add_rows(tab, new_rows):
            names = [var.name for var in tab.lp.variables]
            new = [(tuple((names[j], c) for j, c in sorted(coefs.items())), rel, rhs)
                   for coefs, rel, rhs in new_rows]
            if not rounds:
                rounds.append([(row.coefs, row.rel, row.rhs) for row in tab.lp.rows])
            rows = rounds[-1] + new
            assert set(rows) <= full
            assert len(set(rows)) == len(rows)
            assert new
            rounds.append(rows)
            add_rows(tab, new_rows)

        monkeypatch.setattr(_Tableau, "add_rows", checking_add_rows)
        rng = random.Random(47)
        instances = _fixture_instances() + [_mnl_urn(3)] + [
            random_instance(rng, n_max=6, max_lists=12) for _ in range(40)]
        most_rounds = 0
        for inst in instances:
            full = {(row.coefs, row.rel, row.rhs) for row in build_mechanism_lp(inst).rows}
            rounds.clear()
            solve_mechanism_lp(inst)
            most_rounds = max(most_rounds, len(rounds))
        assert most_rounds >= 3


def _rows_that_cannot_bind(lp):
    """Rows of ``lp`` that are empty, equal to an earlier row, read
    ``sum c_j x_j >= 0`` with every c_j > 0 (implied by x >= 0), or restate
    one variable's upper bound."""
    hi = {v.name: v.hi for v in lp.variables}
    seen, bad = set(), []
    for row in lp.rows:
        key = (row.coefs, row.rel, row.rhs)
        implied = (row.rel == ">=" and row.rhs == 0 and all(c > 0 for _, c in row.coefs))
        if len(row.coefs) == 1 and row.rel == "<=":
            ((name, c),) = row.coefs
            implied |= c > 0 and hi[name] is not None and c * hi[name] <= row.rhs
        if not row.coefs or key in seen or implied:
            bad.append(row)
        seen.add(key)
    return bad


def _implied_one_variable_rows(lp):
    """One-variable ``c x <= b`` rows of ``lp`` (c > 0) that another ``<=``
    row with nonnegative coefficients implies through x >= 0 for every
    variable: ``a x + ... <= b'`` with b' / a <= b / c."""
    assert all(v.lo == 0 for v in lp.variables)
    bad = []
    for k, row in enumerate(lp.rows):
        if len(row.coefs) != 1 or row.rel != "<=":
            continue
        ((name, c),) = row.coefs
        for i, other in enumerate(lp.rows):
            coefs = dict(other.coefs)
            if (c > 0 and i != k and other.rel == "<=" and coefs.get(name, 0) > 0
                    and all(a >= 0 for a in coefs.values())
                    and other.rhs * c <= row.rhs * coefs[name]):
                bad.append(row)
                break
    return bad


class TestBuilderRows:
    def test_single_buyer_builders(self):
        rng = random.Random(17)
        instances = [four_item_clash()] + [
            random_instance(rng, n_max=5, max_lists=8) for _ in range(60)]
        for inst in instances:
            for build in (build_mechanism_lp, build_bm_lp, build_set_function_lp):
                assert _rows_that_cannot_bind(build(inst)) == [], build.__name__

    def test_multibuyer_builders(self):
        rng = random.Random(19)
        for _ in range(30):
            mb = random_two_buyer(rng)
            for mode in ("dsic", "bic"):
                lp, _ = build_multibuyer_lp(mb, mode)
                assert _rows_that_cannot_bind(lp) == [], mode
                assert _implied_one_variable_rows(lp) == [], mode


def lp_holds_at(lp, point) -> bool:
    """Every variable bound and every row of ``lp`` holds at ``point``."""
    for var in lp.variables:
        x = point[var.name]
        if x < var.lo or (var.hi is not None and x > var.hi):
            return False
    for row in lp.rows:
        lhs = sum((c * point[name] for name, c in row.coefs), Fraction(0))
        holds = {"<=": lhs <= row.rhs, ">=": lhs >= row.rhs, "==": lhs == row.rhs}
        if not holds[row.rel]:
            return False
    return True


class TestVerifyIc:
    def test_agrees_with_every_row_of_the_lp(self):
        # verify_ic and build_mechanism_lp state the same constraints, so a
        # mechanism passes the check exactly when its point is LP-feasible.
        rng = random.Random(31)
        outcomes = []
        for _ in range(40):
            inst = random_instance(rng)
            lp = build_mechanism_lp(inst)
            S = rng.sample(list(inst.items), rng.randint(0, len(inst.items)))
            for base in (solve_mechanism_lp(inst)[1], assortment_to_mechanism(inst, S)):
                for perturb in (False, True):
                    alloc = {lst: dict(row) for lst, row in base.alloc.items()}
                    if perturb:
                        lst = rng.choice([l for l in alloc if len(l) > 0])
                        j = rng.choice(lst.entries)
                        step = Fraction(rng.choice([-3, -1, 1, 3]), rng.choice([4, 60]))
                        alloc[lst][j] = alloc[lst].get(j, Fraction(0)) + step
                    mech = Mechanism(alloc, validate=False)
                    point = {
                        _var(lst, j): mech.probability(lst, j)
                        for lst in inst.dist.support for j in lst.entries
                    }
                    ok = verify_ic(inst, mech).ok
                    assert ok == lp_holds_at(lp, point)
                    outcomes.append(ok)
        assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40

    def test_equals_the_fraction_reference(self):
        # Random allocations, some negative, off-list, missing or summing
        # past 1, on helper instances; the integer check must give the same
        # violations in the same order with the same text.
        rng = random.Random(37)
        instances = [four_item_clash(), condition_violation_minimal(),
                     history_monotone_tree(), robust_menu_instance(), singleton_mixture()]
        instances += [random_instance(rng, n_max=5, max_lists=8) for _ in range(200)]
        kinds = set()
        for inst in instances:
            for base in (solve_mechanism_lp(inst)[1], None):
                alloc = {}
                for lst in inst.dist.support:
                    if rng.random() < 0.05:
                        continue
                    if base is not None:
                        row = dict(base.alloc[lst])
                    else:
                        row = {j: Fraction(rng.randint(-1, 6), rng.choice([1, 2, 3, 7, 12]))
                               for j in lst.entries if rng.random() < 0.8}
                    off = [j for j in inst.items if j not in lst.as_set()]
                    if off and rng.random() < 0.05:
                        row[rng.choice(off)] = Fraction(1, rng.choice([2, 5]))
                    alloc[lst] = row
                mech = Mechanism(alloc, validate=False)
                report = verify_ic(inst, mech)
                assert report == reference_verify_ic(inst, mech)
                kinds.update(v.kind for v in report.violations)
        assert kinds == {"ic", "sum", "nonneg", "missing", "off-list"}

    def test_negative_entry_reported_as_nonneg(self):
        # x_A(A) < 0 breaks no IC row that can bind; "nonneg" reports it.
        inst = Instance("AB", {"A": 1, "B": 1},
                        ListDistribution({("A",): Fraction(1, 2), ("B",): Fraction(1, 2)}))
        mech = Mechanism({("A",): {"A": Fraction(-1, 2)}, ("B",): {}}, validate=False)
        report = verify_ic(inst, mech)
        assert not report.ok
        assert [v.kind for v in report.violations] == ["nonneg"]

    def test_top2_lottery_passes(self):
        inst = four_item_clash()
        mech = budget_additive_mechanism(
            inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in "ABCD"}, 1)
        )
        assert verify_ic(inst, mech).ok

    def test_assortment_mechanism_passes(self):
        rng = random.Random(2)
        for _ in range(10):
            inst = random_instance(rng)
            S = set(rng.sample(list(inst.items), rng.randint(0, len(inst.items))))
            assert verify_ic(inst, assortment_to_mechanism(inst, S)).ok

    def test_underreporting_punished_is_flagged(self):
        dist = ListDistribution({("B",): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
        inst = Instance("BC", {"B": 1, "C": 1}, dist)
        mech = Mechanism({("B",): {}, ("C", "B"): {"B": 1}})
        report = verify_ic(inst, mech)
        assert not report.ok
        v = report.violations[0]
        assert (v.kind, v.lst, v.k, v.other) == ("ic", ("B",), 1, ("C", "B"))


class TestAssortmentMechanism:
    def test_grants_first_member(self):
        inst = four_item_clash()
        mech = assortment_to_mechanism(inst, {"A", "B"})
        assert mech.probability(("C", "A"), "A") == 1
        assert mechanism_revenue(inst, mech) == Fraction(7, 6)

    def test_empty_assortment_allocates_nothing(self):
        inst = four_item_clash()
        mech = assortment_to_mechanism(inst, set())
        assert all(not row for row in mech.alloc.values())

    def test_full_universe_grants_first_entry(self):
        inst = four_item_clash()
        mech = assortment_to_mechanism(inst, set(inst.items))
        for lst in inst.dist.support:
            assert mech.probability(lst, lst.entries[0]) == 1

    def test_revenue_matches_assortment_revenue(self):
        rng = random.Random(8)
        for _ in range(20):
            inst = random_instance(rng)
            S = set(rng.sample(list(inst.items), rng.randint(0, len(inst.items))))
            mech = assortment_to_mechanism(inst, S)
            assert mechanism_revenue(inst, mech) == assortment_revenue(inst, S)


class TestSetFunctionConversions:
    def test_top2_on_full_support_is_capped_cardinality(self):
        inst = full_support_instance({"A": 2, "B": 1, "C": 1})
        mech = budget_additive_mechanism(
            inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in "ABC"}, 1)
        )
        f = mechanism_to_set_function(inst, mech)
        for size in range(4):
            for combo in combinations("ABC", size):
                assert f(combo) == min(Fraction(size, 2), Fraction(1))

    def test_assortment_mechanism_gives_indicator(self):
        inst = full_support_instance({"A": 2, "B": 1, "C": 1})
        mech = assortment_to_mechanism(inst, {"A", "B"})
        f = mechanism_to_set_function(inst, mech)
        for size in range(4):
            for combo in combinations("ABC", size):
                expected = 1 if set(combo) & {"A", "B"} else 0
                assert f(combo) == expected

    def test_zero_mechanism_gives_zero_function(self):
        inst = four_item_clash()
        mech = Mechanism({lst: {} for lst in inst.dist.support})
        f = mechanism_to_set_function(inst, mech)
        assert all(v == 0 for v in f.values.values())

    def test_non_ic_mechanism_raises_identity_error(self):
        dist = ListDistribution({("B",): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
        inst = Instance("BC", {"B": 1, "C": 1}, dist)
        mech = Mechanism({("B",): {}, ("C", "B"): {"B": 1}})
        with pytest.raises(IdentityCheckError):
            mechanism_to_set_function(inst, mech)

    def test_round_trip_reproduces_allocation(self):
        rng = random.Random(21)
        for prices in [{"A": 2, "B": 1, "C": 1}, {"A": 1, "B": 3, "C": 2}]:
            inst = full_support_instance(prices)
            value, mech = solve_mechanism_lp(inst)
            f = mechanism_to_set_function(inst, mech)
            back = submodular_to_mechanism(inst, f)
            for lst in inst.dist.support:
                for j in lst.entries:
                    assert back.probability(lst, j) == mech.probability(lst, j)

    def test_full_support_induced_function_is_submodular(self):
        inst = full_support_instance({"A": 3, "B": 2, "C": 1})
        _, mech = solve_mechanism_lp(inst)
        f = mechanism_to_set_function(inst, mech)
        assert f.submodular_witness() is None


class TestSubmodularToMechanism:
    def test_budget_additive_function_gives_lottery(self):
        inst = four_item_clash()
        values = {}
        for size in range(5):
            for combo in combinations("ABCD", size):
                values[frozenset(combo)] = min(Fraction(size, 2), Fraction(1))
        f = SetFunction(values, tuple("ABCD"))
        mech = submodular_to_mechanism(inst, f)
        assert mechanism_revenue(inst, mech) == Fraction(5, 4)

    def test_indicator_function_gives_assortment(self):
        inst = four_item_clash()
        values = {}
        for size in range(5):
            for combo in combinations("ABCD", size):
                values[frozenset(combo)] = (
                    Fraction(1) if set(combo) & {"A", "B"} else Fraction(0)
                )
        f = SetFunction(values, tuple("ABCD"))
        mech = submodular_to_mechanism(inst, f)
        expected = assortment_to_mechanism(inst, {"A", "B"})
        for lst in inst.dist.support:
            for j in lst.entries:
                assert mech.probability(lst, j) == expected.probability(lst, j)

    def test_zero_function_gives_zero_mechanism(self):
        inst = four_item_clash()
        values = {
            frozenset(c): Fraction(0)
            for size in range(5)
            for c in combinations("ABCD", size)
        }
        mech = submodular_to_mechanism(inst, SetFunction(values, tuple("ABCD")))
        assert mechanism_revenue(inst, mech) == 0

    def test_non_submodular_rejected_with_witness(self):
        values = {
            frozenset(): Fraction(0),
            frozenset("A"): Fraction(0),
            frozenset("B"): Fraction(0),
            frozenset("AB"): Fraction(1),
        }
        f = SetFunction(values, ("A", "B"))
        inst = Instance(
            "AB", {"A": 1, "B": 1}, ListDistribution({("A", "B"): Fraction(1)})
        )
        with pytest.raises(SubmodularityError) as err:
            submodular_to_mechanism(inst, f)
        assert err.value.witness[0] == frozenset()


class TestSetFunctionLp:
    def test_single_item(self):
        inst = Instance(
            ["1"], {"1": 1}, ListDistribution({("1",): Fraction(1)})
        )
        value, _ = solve_set_function_lp(inst)
        assert value == 1

    def test_relaxation_chain_on_clash_instance(self):
        inst = four_item_clash()
        opt_f, _ = solve_set_function_lp(inst)
        opt_x, _ = solve_mechanism_lp(inst)
        assert opt_f >= opt_x
        assert opt_f == Fraction(3, 2)

    def test_vertices_are_boolean(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = random_instance(rng, n_max=4)
            vertex = solve_lp(build_set_function_lp(inst)).assignment
            assert all(v in (Fraction(0), Fraction(1)) for v in vertex.values())


class TestSetFunctionClosure:
    """The minimum-cut solve against the explicit LP and its simplex vertex."""

    def test_matches_the_lp_and_lies_below_its_vertex(self):
        rng = random.Random("closure")
        for trial in range(200):
            inst = random_instance(rng, n_min=1, n_max=6, max_lists=8)
            value, f = solve_set_function_lp(inst)
            sol = solve_lp(build_set_function_lp(inst))
            assert value == sol.value, f"trial {trial}"
            assert f.monotone_witness() is None, f"trial {trial}"
            assert set_function_revenue(inst, f) == value, f"trial {trial}"
            for S, v in f.values.items():
                vertex = sol.assignment[_set_var(S)]
                assert vertex in (0, 1), f"trial {trial}: LP vertex not 0/1"
                assert v in (0, 1) and v <= vertex, f"trial {trial}: f not minimal"

    def test_no_items(self):
        inst = Instance([], {}, ListDistribution({(): Fraction(1)}))
        value, f = solve_set_function_lp(inst)
        assert value == 0 and f.values == {frozenset(): 0}

    def test_zero_prices_give_zero_function(self):
        inst = Instance("AB", {"A": 0, "B": 0}, ListDistribution(
            {("A", "B"): Fraction(1, 2), ("B",): Fraction(1, 2)}))
        value, f = solve_set_function_lp(inst)
        assert value == 0
        assert len(f.values) == 4 and set(f.values.values()) == {0}

    def test_all_negative_weights_close_nothing(self):
        # Instances never weigh every set negatively (the weights of the
        # nonempty sets sum to the first-entry revenue), so the cut runs here
        # on hand-made weights.
        sets = [frozenset("A"), frozenset("AB"), frozenset("B")]
        assert _max_weight_closure([(S, -k) for k, S in enumerate(sets, 1)]) == (0, [])

    def test_superset_pulled_into_closure(self):
        # {A} alone is worth 3 but drags in {A, B} at -2; {B} is worth -1 and
        # stays out because nothing forces it in.
        weights = [(frozenset("A"), 3), (frozenset("AB"), -2), (frozenset("B"), -1)]
        value, closure = _max_weight_closure(weights)
        assert value == 1
        assert sorted(map(sorted, closure)) == [["A"], ["A", "B"]]

    def test_zero_gain_closure_left_out(self):
        # Taking {A} and {A, B} gains 0, so the smallest optimum takes neither.
        assert _max_weight_closure([(frozenset("A"), 2), (frozenset("AB"), -2)]) == (0, [])

    def test_cap(self):
        inst = four_item_clash()
        with pytest.raises(CapExceededError) as err:
            solve_set_function_lp(inst, cap=3)
        assert str(err.value) == (
            "build_set_function_lp: size 4 exceeds cap 3 (2^n variables)")


class TestInclusionLp:
    def test_chain_on_clash_instance(self):
        inst = four_item_clash()
        opt_x, _ = solve_mechanism_lp(inst)
        opt_bm, _ = solve_bm_lp(inst)
        assert opt_x <= opt_bm

    def test_single_list_instance(self):
        inst = Instance(
            "AB", {"A": 2, "B": 1}, ListDistribution({("B", "A"): Fraction(1)})
        )
        opt_bm, _ = solve_bm_lp(inst)
        # the single buyer can be sold their first choice outright
        assert opt_bm == 2

    def test_integer_points_are_assortments(self):
        # enumerate deterministic feasible mechanisms of a tiny instance and
        # match each against some assortment's mechanism
        dist = gen_mnl("AB", MnlParams({"A": 1, "B": 1}, 1))
        inst = Instance("AB", {"A": 2, "B": 1}, dist)
        support = list(inst.dist.support)
        choices = [[None] + list(lst.entries) for lst in support]
        assortment_allocs = set()
        for S_size in range(3):
            for S in combinations("AB", S_size):
                mech = assortment_to_mechanism(inst, S)
                key = tuple(
                    tuple(sorted(mech.alloc[lst].items())) for lst in support
                )
                assortment_allocs.add(key)
        for assignment in product(*choices):
            alloc = {
                lst: ({pick: Fraction(1)} if pick is not None else {})
                for lst, pick in zip(support, assignment)
            }
            mech = Mechanism(alloc)
            if verify_ic(inst, mech).ok:
                key = tuple(
                    tuple(sorted(mech.alloc[lst].items())) for lst in support
                )
                assert key in assortment_allocs

    def test_containment_certificate_for_lottery(self):
        inst = four_item_clash()
        mech = budget_additive_mechanism(
            inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in "ABCD"}, 1)
        )
        z = containment_witness(inst, mech)
        assert all(z[j] == Fraction(1, 2) for j in "ABCD")

    def test_containment_fails_for_a_non_ic_mechanism(self):
        inst = Instance(
            "AB", {"A": 1, "B": 1},
            ListDistribution({("A", "B"): Fraction(1, 2), ("A",): Fraction(1, 2)}),
        )
        mech = Mechanism({("A", "B"): {"B": 1}, ("A",): {"A": 1}})
        with pytest.raises(ContainmentError, match="exclusion cap fails at position 1"):
            containment_witness(inst, mech)

    def test_containment_fails_for_a_negative_allocation(self):
        # Every inclusion row holds at x = -1/2, so only the bound x >= 0
        # catches it.
        inst = four_item_clash()
        alloc = {lst.entries: {} for lst in inst.dist.support}
        alloc[("B", "A")] = {"A": Fraction(-1, 2)}
        mech = Mechanism(alloc, validate=False)
        with pytest.raises(ContainmentError, match=r"negative allocation on list \('B', 'A'\)"):
            containment_witness(inst, mech)

    def test_containment_certificate_for_zero_mechanism(self):
        inst = four_item_clash()
        mech = Mechanism({lst: {} for lst in inst.dist.support})
        z = containment_witness(inst, mech)
        assert all(v == 0 for v in z.values())


class TestRevenueChain:
    def test_opt_s_le_opt_x_le_opt_f(self):
        rng = random.Random(33)
        for _ in range(15):
            inst = random_instance(rng, n_max=4, max_lists=5)
            _, opt_s = optimal_assortment(inst)
            opt_x, _ = solve_mechanism_lp(inst)
            opt_f, _ = solve_set_function_lp(inst)
            assert opt_s <= opt_x <= opt_f

    def test_exact_optimum_matches_float_solver(self):
        opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(34)
        for _ in range(10):
            inst = random_instance(rng, n_max=4, max_lists=5)
            lp = build_mechanism_lp(inst)
            exact, _ = solve_mechanism_lp(inst)
            names = [v.name for v in lp.variables]
            index = {n: i for i, n in enumerate(names)}
            A, b = [], []
            for row in lp.rows:
                dense = [0.0] * len(names)
                for name, c in row.coefs:
                    dense[index[name]] = float(c)
                if row.rel == ">=":
                    dense = [-x for x in dense]
                    b.append(-float(row.rhs))
                else:
                    b.append(float(row.rhs))
                A.append(dense)
            c = [-float(lp.objective.get(n, 0)) for n in names]
            ref = opt.linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * len(names),
                              method="highs")
            assert ref.success
            assert abs(float(exact) + ref.fun) < 1e-7


class TestMechanismJson:
    def test_round_trip(self):
        inst = four_item_clash()
        _, mech = solve_mechanism_lp(inst)
        obj = mechanism_to_json(mech)
        back = mechanism_from_json(obj, items=inst.items)
        for lst in inst.dist.support:
            for j in lst.entries:
                assert back.probability(lst, j) == mech.probability(lst, j)
