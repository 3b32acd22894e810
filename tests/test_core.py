import json
import random
from fractions import Fraction

import pytest

from fixedprice import core
from fixedprice import (
    Instance,
    ListDistribution,
    Prefix,
    assortment_revenue,
    build_tree_diagram,
    choice_probability,
    dump_instance,
    load_instance,
    optimal_assortment,
    validate_distribution,
)
from fixedprice.errors import (
    CapExceededError,
    InvalidInstanceError,
    PrefixOverlapError,
    UnrealizablePrefixError,
)

from fixedprice.rational import coerce_rational

from .helpers import (
    four_item_clash,
    history_monotone_tree,
    list_scan_choice_probability,
    random_instance,
)


class TestValidation:
    def test_uniform_six_lists_valid(self):
        lists = [("B", "A"), ("C", "A"), ("D", "A"), ("C", "B"), ("D", "B"), ("D", "C")]
        report = validate_distribution(
            [(l, Fraction(1, 6)) for l in lists], items="ABCD"
        )
        assert report.ok

    def test_empty_support_invalid(self):
        report = validate_distribution([])
        assert not report.ok
        assert any("sum" in m for m in report.messages())

    def test_duplicate_list_invalid(self):
        report = validate_distribution(
            [(("A",), Fraction(1, 2)), (("A",), Fraction(1, 2))]
        )
        assert any(i.code == "duplicate-list" for i in report.issues)

    def test_unknown_item_flagged(self):
        report = validate_distribution([(("Z",), 1)], items="AB")
        assert any(i.code == "unknown-item" for i in report.issues)

    @pytest.mark.parametrize("items", [("A", "A"), (1, "1"), ("B", 2, "2")])
    def test_ids_with_the_same_text_rejected(self, items):
        dist = ListDistribution({(items[0],): 1})
        with pytest.raises(InvalidInstanceError, match="duplicate item ids"):
            Instance(items, dict.fromkeys(items, 1), dist)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_coerce_rational_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="not a finite number"):
            coerce_rational(value)

    def test_bad_sum_names_the_total(self):
        report = validate_distribution([(("A",), Fraction(5, 6))])
        assert any("5/6" in m for m in report.messages())


class TestChoiceProbability:
    def test_premium_item_blocked_by_cheaper(self):
        inst = four_item_clash()
        assert choice_probability(inst, {"A", "B"}, "A") == Fraction(1, 3)

    def test_conditional_on_long_prefix(self):
        inst = history_monotone_tree()
        got = choice_probability(inst, {"A"}, "A", given=("C", "D", "B"))
        assert got == Fraction(3, 4)

    def test_exhausted_list_gives_zero(self):
        inst = four_item_clash()
        # (D, C) is a complete list; nothing can follow it.
        assert choice_probability(inst, {"A"}, "A", given=("D", "C")) == 0

    def test_item_not_in_assortment_rejected(self):
        inst = four_item_clash()
        with pytest.raises(InvalidInstanceError):
            choice_probability(inst, {"B"}, "A")

    def test_unrealizable_prefix_rejected(self):
        inst = four_item_clash()
        with pytest.raises(UnrealizablePrefixError):
            choice_probability(inst, {"B"}, "B", given=("A",))

    def test_prefix_overlap_rejected(self):
        inst = four_item_clash()
        with pytest.raises(PrefixOverlapError):
            choice_probability(inst, {"B", "C"}, "B", given=("C",))

    def test_monotone_in_assortment(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = random_instance(rng)
            items = list(inst.items)
            j = rng.choice(items)
            small = {j} | set(rng.sample(items, rng.randint(0, len(items) - 1)))
            large = small | set(rng.sample(items, rng.randint(0, len(items) - 1)))
            p_small = choice_probability(inst, small, j)
            p_large = choice_probability(inst, large, j)
            assert 0 <= p_large <= p_small <= 1

    def test_choice_probabilities_subadditive(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = random_instance(rng)
            items = list(inst.items)
            S = set(rng.sample(items, rng.randint(1, len(items))))
            total = sum(choice_probability(inst, S, j) for j in S)
            assert 0 <= total <= 1

    def test_trie_walk_matches_list_scan(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(40):
            inst = random_instance(rng, n_max=5, max_lists=8)
            givens = [()] + [p.entries for p in inst.dist.realizable_prefixes()]
            for given in givens:
                pool = [j for j in inst.items if j not in given]
                for _ in range(3 if pool else 0):
                    S = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
                    for j in S:
                        want = list_scan_choice_probability(inst.dist, S, j, given)
                        got = choice_probability(inst, S, j, given=given or None)
                        assert got == want
                        checked += 1
        assert checked > 1000


class TestAssortmentRevenue:
    def test_known_best_value(self):
        inst = four_item_clash()
        assert assortment_revenue(inst, {"A", "B"}) == Fraction(7, 6)

    def test_empty_assortment(self):
        assert assortment_revenue(four_item_clash(), set()) == 0

    def test_full_universe_sells_first_choice(self):
        inst = four_item_clash()
        # every list buys its first entry at price 1
        assert assortment_revenue(inst, set("ABCD")) == 1

    def test_optimal_assortment_value_and_tiebreak(self):
        S, value = optimal_assortment(four_item_clash())
        assert value == Fraction(7, 6)
        assert S == frozenset({"A", "B"})  # ties break to the lex-smallest set

    def test_single_item_instance(self):
        inst = Instance(
            ["1"], {"1": 1}, ListDistribution({("1",): Fraction(1)})
        )
        assert optimal_assortment(inst) == (frozenset({"1"}), Fraction(1))

    def test_cap_error_names_cap(self):
        inst = four_item_clash()
        with pytest.raises(CapExceededError, match="cap 2"):
            optimal_assortment(inst, cap=2)

    def test_optimum_dominates_random_subsets(self):
        rng = random.Random(3)
        for _ in range(5):
            inst = random_instance(rng, n_max=5, max_lists=6)
            _, best = optimal_assortment(inst)
            items = list(inst.items)
            for _ in range(100):
                S = set(rng.sample(items, rng.randint(0, len(items))))
                assert assortment_revenue(inst, S) <= best


class TestTreeDiagram:
    def test_uniform_urn_depth_transitions(self):
        # equal-weight three-item urn: q = 1/4, 1/3, 1/2 by depth
        from fixedprice import MnlParams, gen_mnl

        dist = gen_mnl("ABC", MnlParams({"A": 1, "B": 1, "C": 1}, 1))
        tree = build_tree_diagram(dist)
        assert tree.q(("A",)) == Fraction(1, 4)
        assert tree.q(("A", "B")) == Fraction(1, 3)
        assert tree.q(("A", "B", "C")) == Fraction(1, 2)

    def test_deterministic_chain_all_ones(self):
        dist = ListDistribution({("1", "2"): Fraction(1)})
        tree = build_tree_diagram(dist)
        assert tree.q(("1",)) == 1
        assert tree.q(("1", "2")) == 1

    def test_hand_built_tree_edge_labels(self):
        tree = build_tree_diagram(history_monotone_tree().dist)
        assert tree.q(("C", "D", "B", "A")) == Fraction(3, 4)
        assert tree.q(("D", "C", "B", "A")) == 1

    def test_prefix_probability_factorizes(self):
        rng = random.Random(19)
        for _ in range(20):
            inst = random_instance(rng)
            tree = build_tree_diagram(inst.dist)
            for prefix, prob in inst.dist.realizable_prefixes().items():
                product = Fraction(1)
                for k in range(1, len(prefix) + 1):
                    product *= tree.q(prefix.entries[:k])
                assert product == prob

    def test_children_match_a_scan_of_the_nodes(self):
        rng = random.Random(37)
        for _ in range(20):
            inst = random_instance(rng, n_max=5, max_lists=8)
            tree = build_tree_diagram(inst.dist)
            nodes = list(tree.nodes)
            for prefix in nodes + [Prefix(())]:
                k = len(prefix)
                scan = sorted(
                    (node for node in nodes
                     if len(node) == k + 1 and node.entries[:k] == prefix.entries),
                    key=lambda node: tuple(map(str, node.entries)),
                )
                assert tree.children(prefix) == scan
                assert tree.stop_mass(prefix) == 1 - sum(tree.q(c) for c in scan)

    def test_children_transitions_below_one(self):
        rng = random.Random(23)
        for _ in range(20):
            inst = random_instance(rng)
            tree = build_tree_diagram(inst.dist)
            for prefix in list(tree.nodes) + [Prefix(())]:
                assert tree.stop_mass(prefix) >= 0


class TestInstanceJson:
    def test_round_trip_byte_stable(self):
        inst = four_item_clash()
        text = dump_instance(inst)
        again = dump_instance(load_instance(text))
        assert text == again

    def test_decimal_parses_exactly(self):
        obj = {
            "items": [{"id": "A", "price": "0.25"}],
            "lists": [{"items": ["A"], "prob": 1}],
        }
        inst = load_instance(json.dumps(obj))
        assert inst.prices["A"] == Fraction(1, 4)

    def test_bad_sum_rejected(self):
        obj = {
            "items": [{"id": "A", "price": 1}],
            "lists": [{"items": ["A"], "prob": "5/6"}],
        }
        with pytest.raises(InvalidInstanceError, match="5/6"):
            load_instance(json.dumps(obj))

    def test_malformed_json_rejected(self):
        # a syntax error, nesting past the recursion limit, an over-long integer
        for text in ("{not json", "[" * 100000, "1" * 5000):
            with pytest.raises(InvalidInstanceError, match="malformed"):
                load_instance(text)

    def test_distribution_validated_once_per_load(self, monkeypatch):
        inst = four_item_clash()
        text = dump_instance(inst)
        calls = []
        validate = core.validate_distribution
        monkeypatch.setattr(core, "validate_distribution",
                            lambda *a, **kw: calls.append(1) or validate(*a, **kw))
        loaded = load_instance(text)
        assert len(calls) == 1
        assert loaded.dist == inst.dist

    def test_unknown_item_rejected(self):
        obj = {
            "items": [{"id": "A", "price": 1}],
            "lists": [{"items": ["B"], "prob": 1}],
        }
        with pytest.raises(InvalidInstanceError):
            load_instance(json.dumps(obj))
