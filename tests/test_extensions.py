import json
import os
import random
from fractions import Fraction

import pytest

from fixedprice import (
    Menu,
    MenuEntry,
    MultiBuyerInstance,
    eval_endowment_ttc,
    eval_fixed_multibuyer_mechanism,
    eval_serial_dictatorship,
    exposable_entries,
    mechanism_revenue,
    mechanism_to_menu,
    robust_revenue,
    solve_lp,
    solve_mechanism_lp,
    solve_multibuyer_lp,
)
from fixedprice.errors import InvalidInstanceError, InvalidMechanismError, UnsupportedShapeError
from fixedprice.extensions import (
    build_multibuyer_lp,
    menu_from_json,
    menu_to_json,
    multibuyer_from_json,
)

from .helpers import (
    deep_ic_two_buyer,
    four_item_clash,
    random_instance,
    random_three_buyer,
    random_two_buyer,
    robust_menu_instance,
    seven_entry_menu,
    two_buyer_two_item,
)


class TestMultiBuyerLp:
    def test_both_modes_reach_first_best(self):
        inst = two_buyer_two_item()
        v_dsic, _ = solve_multibuyer_lp(inst, "dsic")
        v_bic, _ = solve_multibuyer_lp(inst, "bic")
        assert v_dsic == Fraction(16, 9)
        assert v_bic == Fraction(16, 9)

    def test_rows_past_the_first_position_bind(self):
        # With only the k = 1 IC rows both modes reach 28/5 here.
        inst = MultiBuyerInstance("ABC", {"A": 1, "B": 4, "C": 3}, [
            {("B",): Fraction(2, 5), ("C", "A"): Fraction(2, 5),
             ("A", "B", "C"): Fraction(1, 5)},
            {("A",): Fraction(2, 7), ("B",): Fraction(3, 14), ("C",): Fraction(2, 7),
             ("B", "A", "C"): Fraction(3, 14)},
        ])
        assert solve_multibuyer_lp(inst, "dsic")[0] == Fraction(187, 35)
        assert solve_multibuyer_lp(inst, "bic")[0] == Fraction(571, 105)

    def test_single_buyer_reduces_to_mechanism_lp(self):
        rng = random.Random(24)
        for _ in range(5):
            single = random_instance(rng, n_max=3, max_lists=4)
            mb = MultiBuyerInstance(single.items, single.prices, [single.dist])
            v, _ = solve_multibuyer_lp(mb, "dsic")
            opt_x, _ = solve_mechanism_lp(single)
            assert v == opt_x

    def test_bic_no_tighter_than_dsic(self):
        rng = random.Random(25)
        for _ in range(20):
            a = random_instance(rng, n_min=2, n_max=2, max_lists=2,
                                allow_empty=False)
            b = random_instance(rng, n_min=2, n_max=2, max_lists=2,
                                allow_empty=False)
            prices = {j: Fraction(rng.randint(1, 3)) for j in "AB"}
            mb = MultiBuyerInstance("AB", prices, [a.dist, b.dist])
            v_dsic, _ = solve_multibuyer_lp(mb, "dsic")
            v_bic, _ = solve_multibuyer_lp(mb, "bic")
            assert v_bic >= v_dsic

    def test_dsic_beats_disjoint_per_buyer_assortments(self):
        # offering each buyer a private assortment (pairwise disjoint, so no
        # item can be sold twice) is a feasible dominant-strategy mechanism
        from itertools import product as iproduct

        from fixedprice import Instance, assortment_revenue

        rng = random.Random(26)
        for _ in range(10):
            a = random_instance(rng, n_min=2, n_max=2, max_lists=2,
                                allow_empty=False)
            b = random_instance(rng, n_min=2, n_max=2, max_lists=2,
                                allow_empty=False)
            prices = {j: Fraction(rng.randint(1, 3)) for j in "AB"}
            mb = MultiBuyerInstance("AB", prices, [a.dist, b.dist])
            singles = [Instance("AB", prices, d) for d in mb.buyers]
            best = Fraction(0)
            options = [frozenset(), frozenset("A"), frozenset("B"), frozenset("AB")]
            for S1, S2 in iproduct(options, options):
                if S1 & S2:
                    continue
                value = assortment_revenue(singles[0], S1) + assortment_revenue(
                    singles[1], S2
                )
                best = max(best, value)
            v_dsic, _ = solve_multibuyer_lp(mb, "dsic")
            assert v_dsic >= best


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


class TestLazyMultibuyer:
    def test_equals_the_full_lp(self):
        # solve_multibuyer_lp generates the IC rows on one tableau; its value
        # and every vertex entry must be those of the full LP's solve.
        with open(os.path.join(FIXTURES, "two_buyer_two_item.json")) as fh:
            instances = [multibuyer_from_json(json.load(fh)), deep_ic_two_buyer()]
        rng = random.Random(7)
        instances += [random_two_buyer(rng) for _ in range(100)]
        rng = random.Random(11)
        instances += [random_three_buyer(rng) for _ in range(6)]
        for k, inst in enumerate(instances):
            for mode in ("dsic", "bic"):
                value, sol = solve_multibuyer_lp(inst, mode)
                full = solve_lp(build_multibuyer_lp(inst, mode)[0])
                assert value == full.value, (k, mode)
                assert sol.assignment == full.assignment, (k, mode)


class TestFixedMechanisms:
    def test_trading_with_good_endowments(self):
        inst = two_buyer_two_item()
        assert eval_endowment_ttc(inst, {0: "B", 1: "A"}) == Fraction(16, 9)

    def test_trading_with_reversed_endowments(self):
        inst = two_buyer_two_item()
        assert eval_endowment_ttc(inst, {0: "A", 1: "B"}) == Fraction(14, 9)

    def test_serial_dictatorship(self):
        inst = two_buyer_two_item()
        assert eval_serial_dictatorship(inst, [0, 1]) == Fraction(15, 9)
        assert eval_serial_dictatorship(inst, [1, 0]) == Fraction(15, 9)

    def test_dispatch(self):
        inst = two_buyer_two_item()
        assert eval_fixed_multibuyer_mechanism(
            inst, ("endowment-ttc", {0: "B", 1: "A"})
        ) == Fraction(16, 9)
        assert eval_fixed_multibuyer_mechanism(
            inst, ("serial-dictatorship", [0, 1])
        ) == Fraction(15, 9)

    def test_allocation_table(self):
        inst = two_buyer_two_item()
        # grant buyer 0 their first choice always; buyer 1 nothing
        table = {}
        for lsts, _ in inst.profiles():
            key = tuple(l.entries for l in lsts)
            table[key] = {0: {lsts[0].entries[0]: 1}}
        assert eval_fixed_multibuyer_mechanism(inst, ("table", table)) == 1

    def test_unsupported_shape(self):
        inst = two_buyer_two_item()
        bigger = MultiBuyerInstance(
            inst.items, inst.prices, list(inst.buyers) + [inst.buyers[0]]
        )
        with pytest.raises(UnsupportedShapeError):
            eval_endowment_ttc(bigger, {0: "A", 1: "B"})


class TestMenus:
    def test_zero_entry_always_present(self):
        menu = Menu([MenuEntry({"A": 1})])
        assert any(e.is_zero() for e in menu.entries)

    def test_menu_from_lottery_mechanism(self):
        inst = four_item_clash()
        from fixedprice import BudgetAdditiveParams, budget_additive_mechanism

        mech = budget_additive_mechanism(
            inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in "ABCD"}, 1)
        )
        menu = mechanism_to_menu(inst, mech)
        assert len(menu) == 7  # six half-half vectors plus the zero entry

    def test_menu_of_zero_mechanism(self):
        inst = four_item_clash()
        from fixedprice import Mechanism

        mech = Mechanism({lst: {} for lst in inst.dist.support})
        assert len(mechanism_to_menu(inst, mech)) == 1


class TestExposable:
    def test_zero_menu_exposes_zero(self):
        inst = four_item_clash()
        menu = Menu([])
        for lst in inst.dist.support:
            entries = exposable_entries(inst, menu, lst)
            assert len(entries) == 1 and entries[0].is_zero()

    def test_specialty_lists_have_two_options(self):
        inst = robust_menu_instance()
        menu = seven_entry_menu()
        for lst in [("2", "5", "1"), ("3", "5", "1"), ("4", "5", "1")]:
            assert len(exposable_entries(inst, menu, lst)) == 2

    def test_menu_from_mechanism_exposes_own_entry(self):
        inst = four_item_clash()
        _, mech = solve_mechanism_lp(inst)
        menu = mechanism_to_menu(inst, mech)
        for lst in inst.dist.support:
            entries = exposable_entries(inst, menu, lst)
            assert len(entries) == 1
            expected = MenuEntry(mech.alloc.get(lst, {}))
            assert entries[0].alloc == expected.alloc

    def test_removing_other_entries_keeps_strict_optima_exposable(self):
        inst = robust_menu_instance()
        menu = seven_entry_menu()
        lst = ("2", "1")
        [only] = exposable_entries(inst, menu, lst)
        smaller = Menu([e for e in menu.entries if len(e.alloc) != 1])
        assert only in exposable_entries(inst, smaller, lst)

    def test_entry_outside_the_instance_is_rejected(self):
        inst = four_item_clash()
        menu = Menu([MenuEntry({"Z": Fraction(1, 2)})])
        with pytest.raises(InvalidMechanismError, match="lacks"):
            exposable_entries(inst, menu, next(iter(inst.dist.support)))


class TestRobustRevenue:
    def test_zero_menu(self):
        assert robust_revenue(four_item_clash(), Menu([])) == 0

    def test_seven_entry_menu_value(self):
        assert robust_revenue(robust_menu_instance(), seven_entry_menu()) == Fraction(11, 8)

    def test_menu_of_optimal_mechanism_recovers_value(self):
        inst = robust_menu_instance()
        opt_x, mech = solve_mechanism_lp(inst)
        assert opt_x == Fraction(21, 16)
        assert robust_revenue(inst, mechanism_to_menu(inst, mech)) == Fraction(21, 16)

    def test_menu_recovers_revenue_on_random_instances(self):
        rng = random.Random(91)
        for _ in range(20):
            inst = random_instance(rng, n_max=4, max_lists=4)
            _, mech = solve_mechanism_lp(inst)
            menu = mechanism_to_menu(inst, mech)
            assert robust_revenue(inst, menu) == mechanism_revenue(inst, mech)


class TestJson:
    def test_menu_round_trip(self):
        menu = seven_entry_menu()
        again = menu_from_json(menu_to_json(menu))
        assert again.entries == menu.entries

    @pytest.mark.parametrize("item", [0, "0"])
    def test_menu_writer_rejects_the_no_purchase_key(self, item):
        # "0" keys the no-purchase component; writing item 0 under it would
        # give a menu that does not load back.
        with pytest.raises(InvalidMechanismError, match=f"menu item {item!r}"):
            menu_to_json(Menu([MenuEntry({item: Fraction(1, 2)})]))

    def test_multibuyer_round_trip(self):
        from fixedprice.extensions import multibuyer_to_json

        inst = two_buyer_two_item()
        again = multibuyer_from_json(multibuyer_to_json(inst))
        assert again.items == inst.items
        assert again.buyers == inst.buyers

    @pytest.mark.parametrize("first, second", [("A", "A"), (1, "1")])
    def test_multibuyer_ids_with_the_same_text_rejected(self, first, second):
        doc = {"items": [{"id": first, "price": "1"}, {"id": second, "price": "3"}],
               "buyers": [[{"items": [first], "prob": "1"}]]}
        with pytest.raises(InvalidInstanceError, match="duplicate item ids"):
            multibuyer_from_json(doc)
        with pytest.raises(InvalidInstanceError, match="duplicate item ids"):
            MultiBuyerInstance((first, second), {first: 1, second: 3}, [{(first,): 1}])
