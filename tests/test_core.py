import glob
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from fixedprice import core
from fixedprice import (
    Instance,
    ListDistribution,
    Prefix,
    RankedList,
    assortment_revenue,
    build_tree_diagram,
    choice_probability,
    dump_instance,
    load_instance,
    optimal_assortment,
    validate_distribution,
)
from fixedprice.core import _flatten
from fixedprice.errors import (
    CapExceededError,
    InvalidDistributionError,
    InvalidInstanceError,
    PrefixOverlapError,
    UnrealizablePrefixError,
)
from fixedprice.extensions import multibuyer_from_json
from fixedprice.rational import coerce_rational, format_rational, parse_rational

from .helpers import (
    FAMILIES,
    _family_instance,
    four_item_clash,
    history_monotone_tree,
    list_scan_choice_probability,
    random_instance,
    reference_prefixes,
    reference_trie,
    reference_validate_distribution,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


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


def malformed_pairs(rng: random.Random) -> list:
    """Seeded (list, probability) pairs: a valid distribution over items
    A-D, then up to three faults, each a repeated item, an unparsable or
    nonpositive probability, a duplicate list, an item outside A-D or a
    changed probability."""
    lists, size = [], rng.randint(1, 6)
    while len(lists) < size:
        lst = tuple(rng.sample("ABCD", rng.randint(0, 3)))
        if lst not in lists:
            lists.append(lst)
    weights = [rng.randint(1, 9) for _ in lists]
    probs = [Fraction(w, sum(weights)) for w in weights]
    pairs = [(list(lst) if rng.random() < 0.3 else lst, rng.choice([p, format_rational(p)]))
             for lst, p in zip(lists, probs)]
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(pairs))
        lst, prob = pairs[k]
        fault = rng.randrange(6)
        if fault == 0 and lst:
            pairs[k] = (tuple(lst) + (lst[0],), prob)
        elif fault == 1:
            pairs[k] = (lst, rng.choice(["x", 0.5, True, "1/0", "1e9999", None]))
        elif fault == 2:
            pairs[k] = (lst, rng.choice([0, "0", "-1/3", Fraction(-2, 7)]))
        elif fault == 3:
            pairs.insert(rng.randrange(len(pairs) + 1), (tuple(lst), prob))
        elif fault == 4:
            pairs[k] = (tuple(lst) + ("Z",), prob)
        else:
            pairs[k] = (lst, Fraction(rng.randint(1, 9), rng.randint(1, 12)))
    return pairs


class TestOnePass:
    """``validate_distribution`` and ``ListDistribution`` read the pairs in
    one pass; its issues, error texts and support equal those of the
    two-pass validator it replaced (``tests/helpers``)."""

    def test_issues_equal_the_two_pass_validator(self):
        rng = random.Random(28)
        codes = Counter()
        for _ in range(600):
            pairs = malformed_pairs(rng)
            for items in (None, "ABCD"):
                report = validate_distribution(pairs, items)
                assert report.issues == reference_validate_distribution(pairs, items).issues
                codes.update(issue.code for issue in report.issues)
                codes["ok"] += report.ok
            reference = reference_validate_distribution(pairs)
            if reference.ok:
                dist = ListDistribution(pairs)
                assert list(dist.support.items()) == [
                    (RankedList(lst), parse_rational(p)) for lst, p in pairs]
            else:
                with pytest.raises(InvalidDistributionError) as exc:
                    ListDistribution(pairs)
                assert str(exc.value) == "; ".join(reference.messages())
        assert set(codes) == {"ok", "repeated-item", "bad-probability", "duplicate-list",
                              "nonpositive-probability", "unknown-item", "bad-sum"}

    def test_distributions_equal_the_two_pass_validator(self):
        for dist in TestIntegerTrie.distributions():
            for items in (None, dist.items[1:]):
                assert validate_distribution(dist, items) == reference_validate_distribution(
                    dist, items)
            assert validate_distribution(dist).ok

    def test_fixtures_load_to_equal_distributions(self):
        for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
            with open(path) as fh:
                obj = json.load(fh)
            if "lists" in obj:
                pairs = [[(tuple(e["items"]), e["prob"]) for e in obj["lists"]]]
                dists = [load_instance(json.dumps(obj)).dist]
            elif "buyers" in obj:
                pairs = [[(tuple(e["items"]), e["prob"]) for e in b] for b in obj["buyers"]]
                dists = multibuyer_from_json(obj).buyers
            else:
                continue
            for raw, dist in zip(pairs, dists, strict=True):
                assert reference_validate_distribution(raw).ok
                support = {RankedList(lst): parse_rational(p) for lst, p in raw}
                assert dist == ListDistribution(support)
                assert list(dist.support.items()) == list(support.items())
                assert dist.node(()).mass == math.lcm(*(p.denominator for p in support.values()))


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


class TestIntegerTrie:
    """The trie holds integer masses over one denominator; its Fraction
    views equal those of the Fraction trie it replaced
    (``tests/helpers.reference_trie``), values and order."""

    @staticmethod
    def distributions():
        for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
            with open(path) as fh:
                obj = json.load(fh)
            if "lists" in obj:
                yield load_instance(json.dumps(obj)).dist
            elif "buyers" in obj:
                yield from multibuyer_from_json(obj).buyers
        for family in FAMILIES:
            rng = random.Random(f"family-{family}")
            for _ in range(4):
                yield _family_instance(family, rng).dist
        rng = random.Random(5)
        for _ in range(200):
            yield random_instance(rng).dist

    def test_views_equal_the_fraction_trie(self):
        count = 0
        for dist in self.distributions():
            tree = build_tree_diagram(dist)
            root = reference_trie(dist)
            reference = reference_prefixes(root)
            assert list(dist.realizable_prefixes().items()) == [
                (prefix, node.mass) for prefix, node in reference]
            nodes = {Prefix(()): root, **dict(reference)}
            for prefix, node in nodes.items():
                assert tree.probability(prefix) == node.mass
                assert tree.stop_mass(prefix) == node.stop / node.mass
                if prefix.entries:
                    assert tree.q(prefix) == node.mass / nodes[prefix.body].mass
            count += 1
        assert count == 9 + 4 * len(FAMILIES) + 200  # 7 instance fixtures, 2 buyers

    def test_masses_are_integers_over_the_denominator(self):
        for dist in self.distributions():
            root = dist.node(())
            assert root.mass == math.lcm(*(p.denominator for p in dist.support.values()))
            stack = [root]
            while stack:
                node = stack.pop()
                assert type(node.mass) is int and type(node.stop) is int
                assert node.stop + sum(c.mass for c in node.children.values()) == node.mass
                stack.extend(node.children.values())


class TestFlatten:
    """``_flatten`` on the subtrees of given roots is, root by root, the
    slice of the whole trie's pre-order that the root's subtree spans."""

    def test_subtrees_are_slices_of_the_whole_trie(self):
        rng = random.Random(41)
        for _ in range(150):
            dist = random_instance(rng, n_max=5, max_lists=8).dist
            entries, masks, masses, ends, parents = whole = _flatten(dist)
            assert parents[0] == -1 and ends[0] == len(entries)
            index = {prefix: k for k, prefix in enumerate(entries)}
            for _ in range(4):
                roots = (rng.choice(entries), rng.choice(entries))
                sub = _flatten(dist, roots)
                offset = 0
                for root in roots:
                    k = index[root]
                    size = ends[k] - k
                    for field, got in zip(whole[:3], sub[:3]):
                        assert got[offset:offset + size] == field[k:ends[k]]
                    assert sub[3][offset:offset + size] == [
                        end - k + offset for end in ends[k:ends[k]]]
                    assert sub[4][offset:offset + size] == [-1] + [
                        parent - k + offset for parent in parents[k + 1:ends[k]]]
                    offset += size
                assert offset == len(sub[0])

    def test_children_in_str_order(self):
        dist = ListDistribution({("B",): Fraction(1, 3), ("A", "C"): Fraction(1, 3),
                                 ("A", "B"): Fraction(1, 3)})
        entries, masks, masses, ends, parents = _flatten(dist)
        assert entries == [(), ("A",), ("A", "B"), ("A", "C"), ("B",)]
        assert masks == [0, 0b001, 0b011, 0b101, 0b010]
        assert masses == [3, 2, 1, 1, 1]
        assert ends == [5, 4, 3, 4, 5]
        assert parents == [-1, 0, 1, 1, 0]


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
        read = core._read_support
        monkeypatch.setattr(core, "_read_support",
                            lambda *a, **kw: calls.append(1) or read(*a, **kw))
        loaded = load_instance(text)
        assert len(calls) == 1
        assert loaded.dist == inst.dist

    def test_one_load_reads_each_list_once(self, monkeypatch):
        built, parsed = [], []
        init, parse = core.RankedList.__init__, core.parse_rational

        def counting_init(self, entries=()):
            init(self, entries)
            built.append(self.entries)

        monkeypatch.setattr(core.RankedList, "__init__", counting_init)
        monkeypatch.setattr(core, "parse_rational", lambda v: parsed.append(v) or parse(v))
        for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
            with open(path) as fh:
                obj = json.load(fh)
            if "lists" not in obj:
                continue
            built.clear()
            parsed.clear()
            load_instance(json.dumps(obj))
            assert Counter(built) == Counter(tuple(e["items"]) for e in obj["lists"])
            # prices are parsed from the file once, then passed on as Fractions
            assert Counter(v for v in parsed if type(v) is not Fraction) == Counter(
                [e["price"] for e in obj["items"]] + [e["prob"] for e in obj["lists"]])

    def test_unknown_item_rejected(self):
        obj = {
            "items": [{"id": "A", "price": 1}],
            "lists": [{"items": ["B"], "prob": 1}],
        }
        with pytest.raises(InvalidInstanceError):
            load_instance(json.dumps(obj))
